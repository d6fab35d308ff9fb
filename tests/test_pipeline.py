"""Configuration, staged pipeline runs, exports, and the CLI surface."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multitar.cli import _load_config, build_parser, main
from multitar.fracdiff import find_min_alpha, fracdiff_apply
from multitar.multinet import apply_filter, from_coefficient
from multitar.netfilter import (
    WeightedDigraph,
    hard_threshold_filter,
    polya_filter,
)
from multitar.panel import export_panel, ingest_csv, read_panel
from multitar.pipeline import (
    GRAPHML_NS,
    PipelineConfig,
    PipelineError,
    export_matrices,
    export_network,
    filter_network,
    import_network,
    run_pipeline,
)
from multitar import multinet, regression
from multitar import pipeline as pipeline_module
from multitar.panel import PanelSeries
from multitar.pipeline import compute_measures, fit_model
from multitar.synthetic import generate_tar_panel


# A legal label is any text XML 1.0 can carry: no C0 control other than tab,
# LF and CR, no lone surrogate (so UTF-8 encodes it), no U+FFFE or U+FFFF.
_XML_LABEL_CHARS = st.characters(
    codec="utf-8",
    exclude_characters="".join(chr(c) for c in range(32) if chr(c) not in "\t\n\r")
    + "\ufffe\uffff")


@pytest.fixture(scope="module")
def small_panel():
    panel, b_star = generate_tar_panel(n_entities=5, n_layers=2, n_steps=300,
                                       support_fraction=0.1, seed=3)
    return panel, b_star


@pytest.fixture(scope="module")
def short_panel():
    """30 entities x 4 layers x 100 steps: more regressors than training pairs."""
    return generate_tar_panel(n_entities=30, n_layers=4, n_steps=100, seed=3)[0]


@pytest.fixture()
def small_config(tmp_path):
    return PipelineConfig(alpha=0.3, lambda_grid=(0.0, 5.0),
                          retain_fraction=0.2, out_dir=str(tmp_path / "run"),
                          seed=3)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = PipelineConfig()
        assert cfg.ranks == "full"
        assert cfg.filter_method == "polya"

    def test_from_file_round_trip(self, tmp_path):
        f = tmp_path / "pipeline.conf"
        f.write_text(
            "# demo configuration\n"
            "alpha = search\n"
            "alpha_grid = 0, 0.2, 0.4\n"
            "adf_level = 0.01\n"
            "adf_lags = 7\n"
            "ranks = 3, 2, 3, 2\n"
            "lambda_grid = 0, 10\n"
            "train_fraction = 0.8\n"
            "filter_method = hard\n"
            "retain_fraction = 0.25\n"
            "overlap_normalized = true\n"
            "out_dir = somewhere\n"
            "seed = 11\n",
            encoding="utf-8",
        )
        cfg = PipelineConfig.from_file(f)
        assert cfg.alpha is None
        assert cfg.alpha_grid == (0.0, 0.2, 0.4)
        assert cfg.adf_lags == 7
        assert cfg.ranks == (3, 2, 3, 2)
        assert cfg.filter_method == "hard"
        assert cfg.overlap_normalized is True
        assert cfg.seed == 11

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "bad.conf"
        f.write_text("alpha = 0.2\nshrinkage = 5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key 'shrinkage'"):
            PipelineConfig.from_file(f)

    def test_bad_value_reported_with_key(self, tmp_path):
        f = tmp_path / "bad.conf"
        f.write_text("seed = many\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad value for 'seed'"):
            PipelineConfig.from_file(f)

    @pytest.mark.parametrize("data,fault", [
        (b"alpha = 0.3\nretain_fraction = abc\n", "bad value for 'retain_fraction'"),
        (b"seed = 1\nretain_fraction = 2\n", "retain_fraction must lie in (0, 1]"),
        (b"seed = 1\nmax_sweeps = 0\nalpha = 1.5\n", "max_sweeps must be >= 1"),
        (b"alpha = 0.3\nseed = 1\xff\n", "byte 0xff is not UTF-8"),
        (b"alpha = 0.3\n# \xc3\n", "byte 0xc3 is not UTF-8"),
    ])
    def test_value_and_byte_faults_name_their_line(self, tmp_path, data, fault):
        f = tmp_path / "bad.conf"
        f.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{f}:2: {fault}')}"):
            PipelineConfig.from_file(f)

    def test_repeated_lambda_rejected_by_name(self, tmp_path, capsys):
        # a repeated weight would be fitted twice and listed twice in r2_table
        with pytest.raises(ValueError, match=r"^lambda_grid repeats 5\.0$"):
            PipelineConfig(lambda_grid=(1.0, 5.0, 20.0, 5.0))
        f = tmp_path / "bad.conf"
        f.write_text("alpha = 0.3\nlambda_grid = 0, 1, 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{f}:2: lambda_grid repeats 0.0")):
            PipelineConfig.from_file(f)
        assert main(["pipeline", "--input", "x.csv", "--lambda", "5,5",
                     "--out", str(tmp_path / "x")]) == 2
        assert "lambda_grid repeats 5.0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text,grid", [
        ("2, 3", (2.0, 3.0)), ("0.3, 0.1", (0.3, 0.1)), ("nan", (float("nan"),)),
        ("-1", (-1.0,)), ("0, nan, 0.5", (0.0, float("nan"), 0.5)),
    ])
    def test_bad_alpha_grid_rejected_at_load(self, tmp_path, text, grid):
        # with a fixed alpha the grid is never searched, so only the load sees it
        fault = "alpha_grid must be nonempty and strictly ascending within [0, 1], got "
        with pytest.raises(ValueError, match=f"^{re.escape(fault)}"):
            PipelineConfig(alpha_grid=grid)
        f = tmp_path / "bad.conf"
        f.write_text(f"alpha = 0.3\nalpha_grid = {text}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{f}:2: {fault}')}"):
            PipelineConfig.from_file(f)

    @pytest.mark.parametrize("text,ranks", [("0, 2, 0, 2", (0, 2, 0, 2)),
                                            ("-1, 2, 3, 2", (-1, 2, 3, 2))])
    def test_rank_below_one_rejected_at_load(self, tmp_path, capsys, text, ranks):
        # the upper bound needs the panel's dims, so it waits for the fit
        fault = f"rank {ranks[0]} must be >= 1"
        with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
            PipelineConfig(ranks=ranks)
        f = tmp_path / "bad.conf"
        f.write_text(f"alpha = 0.3\nranks = {text}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{f}:2: {fault}')}$"):
            PipelineConfig.from_file(f)
        assert main(["pipeline", "--input", "x.csv", "--config", str(f),
                     "--out", str(tmp_path / "x")]) == 2
        assert f"{f}:2: {fault}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
            regression.als_fit(rng.standard_normal((40, 3, 2)),
                               rng.standard_normal((40, 3, 2)), ranks, 1.0)

    def test_component_invariants_delegated(self):
        with pytest.raises(ValueError, match="^alpha_grid must be nonempty"):
            PipelineConfig(alpha_grid=())
        with pytest.raises(ValueError):
            PipelineConfig(retain_fraction=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(adf_level=0.2)
        with pytest.raises(ValueError):
            PipelineConfig(train_fraction=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(filter_method="mst")

    @pytest.mark.parametrize("key,value", [
        ("filter_a", float("nan")), ("filter_a", float("inf")),
        ("log_epsilon", float("nan")), ("log_epsilon", float("inf")),
        ("lambda_grid", (0.0, float("nan"))), ("lambda_grid", (float("inf"),)),
    ])
    def test_non_finite_knob_rejected(self, key, value):
        with pytest.raises(ValueError, match="must be finite"):
            PipelineConfig(**{key: value})

    def test_apply_filter_rejects_non_finite_a(self):
        rng = np.random.default_rng(24)
        net = from_coefficient(rng.standard_normal((3, 2, 3, 2)),
                               ["a", "b", "c"], ["x", "y"])
        with pytest.raises(ValueError, match="a must be finite"):
            apply_filter(net, method="polya", a=float("nan"))

    def test_resolved_lists_every_field(self):
        import dataclasses

        cfg = PipelineConfig()
        resolved = cfg.resolved()
        for f in dataclasses.fields(PipelineConfig):
            assert f.name in resolved

    # every field set away from its default
    NON_DEFAULT = dict(
        alpha=0.25, alpha_grid=(0.0, 0.25, 0.75), adf_level=0.01, adf_lags=4,
        ranks=(3, 2, 3, 2), lambda_grid=(0.5, 2.0), train_fraction=0.8,
        max_sweeps=17, rel_tol=1e-6, lag=2, filter_method="hard",
        filter_a=0.5, retain_fraction=0.3, overlap_normalized=True,
        log_transform=False, log_epsilon=0.125, missing_policy="ffill",
        drop_burn_in=True, out_dir="elsewhere", seed=9)

    @pytest.mark.parametrize("cfg", [PipelineConfig(),
                                     PipelineConfig(**NON_DEFAULT)])
    def test_resolved_reads_back_through_from_file(self, cfg, tmp_path):
        f = tmp_path / "resolved.conf"
        f.write_text("".join(
            f"{key} = {', '.join(map(str, v)) if isinstance(v, list) else v}\n"
            for key, v in cfg.resolved().items()), encoding="utf-8")
        assert PipelineConfig.from_file(f) == cfg

    def test_non_default_config_sets_every_field(self):
        defaults = PipelineConfig()
        assert set(self.NON_DEFAULT) == {f.name for f in
                                         dataclasses.fields(PipelineConfig)}
        for key, value in self.NON_DEFAULT.items():
            assert value != getattr(defaults, key), key

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
        f = tmp_path / "readme.conf"
        f.write_text(block, encoding="utf-8")
        assert PipelineConfig.from_file(f) == PipelineConfig()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            regression.FitConfig(seed=-1)
        f = tmp_path / "seed.conf"
        f.write_text("seed = -1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="seed must be >= 0"):
            PipelineConfig.from_file(f)
        rc = main(["pipeline", "--input", "x.csv", "--seed", "-1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("cls, knob, value", [
        (regression.FitConfig, "max_sweeps", 2.5),
        (regression.FitConfig, "seed", 1.5),
        (regression.FitConfig, "max_sweeps", True),
        (PipelineConfig, "lag", 1.5),
        (PipelineConfig, "adf_lags", 2.0),
    ])
    def test_non_integer_integer_knob_rejected(self, cls, knob, value):
        # max_sweeps = 2.5 used to fail deep in the sweep loop, and the
        # others were accepted and run
        with pytest.raises(ValueError, match=f"^{knob} must be an integer$"):
            cls(**{knob: value})

    def test_numpy_integer_knobs_become_ints(self):
        # a numpy int used to reach manifest.json, which json cannot write
        cfg = PipelineConfig(max_sweeps=np.int64(3), seed=np.uint8(2),
                             lag=np.int32(2), adf_lags=np.int64(4))
        values = [cfg.max_sweeps, cfg.seed, cfg.lag, cfg.adf_lags]
        assert values == [3, 2, 2, 4]
        assert all(type(v) is int for v in values)
        json.dumps(cfg.resolved())
        assert PipelineConfig(adf_lags=None).adf_lags is None

    @pytest.mark.parametrize("ranks, bad", [
        ((2.5, 2, 3, 2), "2.5"),
        ((True, 2, 3, 2), "True"),
        ((2, np.float64(2.0), 3, 2), "2.0"),
        ("max", "'max'"),
    ])
    def test_non_integer_ranks_rejected(self, ranks, bad):
        # 2.5 and True used to be truncated to 2 and 1, and "max" failed
        # only when the fit ran
        with pytest.raises(ValueError, match=re.escape(bad)):
            PipelineConfig(ranks=ranks)

    def test_numpy_integer_ranks_become_ints(self):
        cfg = PipelineConfig(ranks=np.array([3, 2, 3, 2]))
        assert cfg.ranks == (3, 2, 3, 2)
        assert all(type(r) is int for r in cfg.ranks)
        assert cfg.resolved()["ranks"] == [3, 2, 3, 2]


class TestRunPipeline:
    def test_artifacts_and_manifest(self, small_panel, small_config):
        panel, b_star = small_panel
        manifest = run_pipeline(small_config, panel)
        out = small_config.out_dir
        for name in manifest["outputs"].values():
            assert os.path.exists(os.path.join(out, name))
        # manifest on disk matches the returned one
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            assert json.load(fh) == manifest
        # every config tunable appears resolved
        assert manifest["config"] == small_config.resolved()
        assert manifest["fracdiff"]["alpha"] == 0.3
        assert manifest["fit"]["lambda"] in small_config.lambda_grid

    def test_alpha_search(self, small_panel, small_config):
        # the default alpha = search picks the smallest grid order that makes
        # every log series pass the ADF test, and differences at that order
        panel, _ = small_panel
        config = dataclasses.replace(small_config, alpha=None)
        info = run_pipeline(config, panel)["fracdiff"]
        assert info["alpha_source"] == "search"
        logs = np.log(panel.values)
        t_len = logs.shape[0]
        assert info["alpha"] == find_min_alpha(
            logs.reshape(t_len, -1), config.alpha_grid,
            level=config.adf_level, n_lags=info["adf_lags"])
        differenced = ingest_csv(os.path.join(config.out_dir, "differenced.csv"))
        np.testing.assert_array_equal(differenced.values, fracdiff_apply(
            logs, info["alpha"], n_weights=t_len))

    def test_readme_library_block_runs(self, tmp_path, monkeypatch):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
        monkeypatch.chdir(tmp_path)
        exec(compile(block, "README.md", "exec"), {})
        assert os.path.exists(tmp_path / "run" / "manifest.json")

    def test_kept_counts_match_retention(self, small_panel, small_config):
        panel, _ = small_panel
        manifest = run_pipeline(small_config, panel)
        counts = np.array(manifest["filter"]["kept_counts"])
        n_block_edges = len(panel.entities) ** 2
        target = small_config.retain_fraction * n_block_edges
        assert np.all(np.abs(counts - target) <= 1.0)

    def test_network_csv_round_trip(self, small_panel, small_config):
        panel, _ = small_panel
        run_pipeline(small_config, panel)
        path = os.path.join(small_config.out_dir, "network.csv")
        net = import_network(path)
        b_hat = np.load(os.path.join(small_config.out_dir, "model",
                                     "coefficient.npy"))
        rebuilt = from_coefficient(b_hat, panel.entities, panel.layers)
        np.testing.assert_array_equal(net.blocks, rebuilt.blocks)
        assert net.kept.sum() == np.array(
            run_pipeline(small_config, panel)["filter"]["total_kept"])

    def test_failed_rerun_leaves_the_earlier_run(self, small_panel, small_config,
                                                 monkeypatch):
        panel, _ = small_panel
        run_pipeline(small_config, panel)
        out = pathlib.Path(small_config.out_dir)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        def failing(net, config):
            raise RuntimeError("injected")

        # a rerun at another alpha that fails in its last stage
        monkeypatch.setattr(pipeline_module, "compute_measures", failing)
        with pytest.raises(PipelineError, match=r"^\[measure\] injected$"):
            run_pipeline(dataclasses.replace(small_config, alpha=0.2), panel)
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert [p.name for p in out.parent.iterdir()] == [out.name]

    def test_refuses_an_out_dir_that_is_not_a_run(self, small_panel, small_config):
        # the swap deletes the out_dir it replaces, so only an empty directory
        # or an earlier run (one holding manifest.json) is replaced
        panel, _ = small_panel
        out = pathlib.Path(small_config.out_dir)
        out.mkdir()
        run_pipeline(small_config, panel)
        (out / "manifest.json").unlink()
        (out / "notes.txt").write_text("mine", encoding="utf-8")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        with pytest.raises(ValueError, match=f"^refusing to replace {re.escape(str(out))}: "):
            run_pipeline(small_config, panel)
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        shutil.rmtree(out)
        out.write_text("mine", encoding="utf-8")  # so is a file
        with pytest.raises(ValueError, match="^refusing to replace "):
            run_pipeline(small_config, panel)
        assert out.read_text(encoding="utf-8") == "mine"
        assert [p.name for p in out.parent.iterdir()] == [out.name]

    @pytest.mark.parametrize("out", [".", ".."])
    def test_refuses_the_working_directory_and_its_ancestors(
            self, small_panel, small_config, monkeypatch, capsys, out):
        # renaming such an out_dir aside fails (".") or deletes the directory
        # the process runs in, so it is refused before any stage
        panel, _ = small_panel
        run_pipeline(small_config, panel)
        earlier = pathlib.Path(small_config.out_dir)
        export_panel(panel, earlier.parent / "panel.csv")
        before = {p: p.read_bytes() for p in earlier.parent.rglob("*") if p.is_file()}
        monkeypatch.chdir(earlier)

        def unreached(panel, config):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(pipeline_module, "prepare_panel", unreached)
        message = f"refusing to replace {out}: it is or holds the working directory"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_pipeline(dataclasses.replace(small_config, out_dir=out), panel)
        assert main(["pipeline", "--input", "../panel.csv", "--out", out,
                     "--alpha", "0.3"]) == 2
        assert capsys.readouterr().err == f"error: [pipeline] {message}\n"
        assert {p: p.read_bytes() for p in earlier.parent.rglob("*") if p.is_file()} == before

    def test_runs_in_a_deleted_working_directory(self, small_panel, small_config,
                                                 tmp_path, monkeypatch):
        # no out_dir holds a working directory that was deleted
        panel, _ = small_panel
        gone = tmp_path / "gone"
        gone.mkdir()
        monkeypatch.chdir(gone)
        gone.rmdir()
        run_pipeline(small_config, panel)
        assert (pathlib.Path(small_config.out_dir) / "manifest.json").is_file()

    def test_nonpositive_values_fail_log_stage(self, small_panel, tmp_path):
        panel, _ = small_panel
        values = panel.values.copy()
        values[1, 0, 0] = -4.0
        from multitar.panel import PanelSeries

        bad = PanelSeries(dates=panel.dates, entities=panel.entities,
                          layers=panel.layers, values=values)
        cfg = PipelineConfig(alpha=0.2, out_dir=str(tmp_path / "x"))
        with pytest.raises(PipelineError, match=r"\[fracdiff\].*nonpositive"):
            run_pipeline(cfg, bad)

    def test_too_many_adf_lags_fail_fracdiff_stage(self, tmp_path):
        # T = 200 with 99 lags leaves 100 observations for 101 parameters
        panel, _ = generate_tar_panel(n_entities=3, n_layers=2, n_steps=200,
                                      seed=1)
        cfg = PipelineConfig(adf_lags=99, out_dir=str(tmp_path / "x"))
        with pytest.raises(PipelineError,
                           match=r"\[fracdiff\] T = 200 .* n_lags = 99"):
            run_pipeline(cfg, panel)

    def test_label_xml_cannot_carry_fails_before_any_file(self, small_panel,
                                                          tmp_path, capsys):
        # entity 'E01' first appears in row 4 (dates, then entities, then
        # layers vary slowest to fastest)
        raw = tmp_path / "raw.csv"
        export_panel(small_panel[0], raw)
        raw.write_bytes(raw.read_bytes().replace(b",E01,", b",b\x01,"))
        for command in ("ingest", "pipeline"):
            out = tmp_path / command
            rc = main([command, "--input", str(raw), "--out", str(out),
                       "--alpha", "0.3", "--lambda", "0"])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: [{command}] row 4: XML 1.0 cannot carry the label "
                "'b\\x01'\n")
            assert not out.exists()

    def test_log_epsilon_shift_allows_zeros(self, small_panel, tmp_path):
        panel, _ = small_panel
        values = panel.values.copy()
        values[1, 0, 0] = 0.0
        from multitar.panel import PanelSeries

        zeroed = PanelSeries(dates=panel.dates, entities=panel.entities,
                             layers=panel.layers, values=values)
        cfg = PipelineConfig(alpha=0.2, lambda_grid=(1.0,), log_epsilon=1e-6,
                             out_dir=str(tmp_path / "x"), retain_fraction=0.5)
        manifest = run_pipeline(cfg, zeroed)
        assert manifest["fracdiff"]["alpha"] == 0.2

    def test_fit_runs_one_als_fit_per_grid_value(self, small_panel,
                                                 small_config, monkeypatch):
        # at full rank one SVD of R_x gives every grid value's fit, no system
        # is solved, and the chosen fit is not fitted again
        shapes, real = [], np.linalg.svd

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        def no_solve(*args):
            raise AssertionError("_solve_spd called at full rank")

        monkeypatch.setattr(np.linalg, "svd", counting)
        monkeypatch.setattr(regression, "_solve_spd", no_solve)
        panel, _ = small_panel
        model, info = fit_model(panel, small_config)
        p = panel.values[0].size
        assert len(shapes) == 1 and shapes[0][1] == p
        assert info["predicted_r2"] == dict(info["r2_table"])[info["lambda"]]
        assert model.ridge == info["lambda"]

    def test_measures_computed_once_per_run(self, small_panel, small_config,
                                            monkeypatch):
        # the graphml and dot writers take the measure row's arrays
        calls = []
        for name in ("node_strength", "k_coreness"):
            real = getattr(multinet, name)

            def counting(net, _name=name, _real=real):
                calls.append(_name)
                return _real(net)

            monkeypatch.setattr(multinet, name, counting)
        run_pipeline(small_config, small_panel[0])
        assert sorted(calls) == ["k_coreness", "node_strength"]

    def test_all_nan_r2_fails_fit_stage(self, tmp_path):
        # squares of the 1e160 test rows overflow, so every R2 is inf / inf
        values = np.random.default_rng(24).standard_normal((100, 2, 2))
        values[-5:] *= 1e160
        panel = PanelSeries(dates=[str(np.datetime64("2020-01-01") + d)
                                   for d in range(100)],
                            entities=["a", "b"], layers=["x", "y"], values=values)
        cfg = PipelineConfig(alpha=0.0, log_transform=False,
                             lambda_grid=(0.0, 5.0), out_dir=str(tmp_path / "x"))
        with pytest.raises(PipelineError, match=r"\[fit\].*lambda_grid"):
            run_pipeline(cfg, panel)

    def test_nan_r2_is_written_as_strict_json_null(self, small_panel,
                                                    small_config, monkeypatch,
                                                    tmp_path):
        real = regression.predicted_r2
        monkeypatch.setattr(regression, "predicted_r2", lambda model, x, y:
                            math.nan if model.ridge == 0.0 else real(model, x, y))

        def strict(path):
            def refuse(name):
                raise ValueError(f"{path.name} holds {name}")
            return json.loads(path.read_text(), parse_constant=refuse)

        panel, _ = small_panel
        run_pipeline(small_config, panel)
        manifest = strict(pathlib.Path(small_config.out_dir) / "manifest.json")
        assert manifest["fit"]["r2_table"][0] == [0.0, None]
        assert manifest["fit"]["lambda"] == 5.0
        export_panel(panel, tmp_path / "panel.csv")
        staged = tmp_path / "staged"
        assert main(["fit", "--panel", str(tmp_path / "panel.csv"), "--out",
                     str(staged), "--lambda", "0,5"]) == 0
        assert strict(staged / "fit.json")["r2_table"][0] == [0.0, None]

    def test_singular_lambda_is_an_unscored_row(self, short_panel, tmp_path):
        # 120 regressors and 89 training pairs: lambda = 0 is singular, and
        # the other five weights are fitted and scored as on their own
        reason = ("singular normal equations in ridge solve with lambda = 0; "
                  "raise lambda to regularize")
        cfg = PipelineConfig(alpha=0.3, out_dir=str(tmp_path / "run"))
        fit = run_pipeline(cfg, short_panel)["fit"]
        assert fit["lambda"] == 20.0
        assert fit["r2_table"][0] == [0.0, None]
        assert fit["unscored"] == [[0.0, reason]]
        alone = run_pipeline(dataclasses.replace(
            cfg, lambda_grid=cfg.lambda_grid[1:], out_dir=str(tmp_path / "alone")),
            short_panel)["fit"]
        assert fit["r2_table"][1:] == alone["r2_table"] and alone["unscored"] == []
        export_panel(short_panel, tmp_path / "panel.csv")
        staged = tmp_path / "staged"
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["ingest", "--input", str(tmp_path / "panel.csv")],
                         ["fracdiff", "--panel", str(staged / "panel.csv")],
                         ["fit", "--panel", str(staged / "differenced.csv")]):
                assert main(argv + ["--alpha", "0.3", "--out", str(staged)]) == 0
        assert json.loads((staged / "fit.json").read_text()) == fit

    def test_grid_with_no_scored_lambda_fails_naming_each(self, short_panel,
                                                          tmp_path):
        cfg = PipelineConfig(alpha=0.3, lambda_grid=(0.0,),
                             out_dir=str(tmp_path / "x"))
        with pytest.raises(PipelineError, match=re.escape(
                "[fit] no lambda in lambda_grid [0.0] is scored: lambda [0.0] left "
                "unscored: singular normal equations in ridge solve with lambda = 0")):
            run_pipeline(cfg, short_panel)
        assert list(tmp_path.iterdir()) == []  # no out_dir and no temporary directory

    def test_degenerate_ranks_fail_fit_stage(self, small_panel, tmp_path):
        # dims (5, 2, 5, 2): rank 4 of mode 0 exceeds 1 * 2 * 1
        panel, _ = small_panel
        cfg = PipelineConfig(alpha=0.3, ranks=(4, 1, 2, 1), lambda_grid=(1.0,),
                             out_dir=str(tmp_path / "x"))
        with pytest.raises(PipelineError, match=r"\[fit\].*mode 0"):
            run_pipeline(cfg, panel)

    @pytest.mark.parametrize("method", ["polya", "hard"])
    def test_thresholds_are_the_per_block_filter_thresholds(self, method):
        rng = np.random.default_rng(8)
        net = from_coefficient(rng.standard_normal((7, 3, 7, 3)),
                               [f"E{i}" for i in range(7)], ["x", "y", "z"])
        cfg = PipelineConfig(filter_method=method, retain_fraction=0.2)
        _, info = filter_network(net, cfg)
        for j in range(3):
            for l in range(3):
                g = WeightedDigraph(net.blocks[j, l])
                if method == "polya":
                    res = polya_filter(g, cfg.filter_a, cfg.retain_fraction)
                    want = res.p_values[res.kept].max()
                else:
                    res = hard_threshold_filter(g, cfg.retain_fraction)
                    want = np.abs(net.blocks[j, l])[res.kept].min()
                assert info["thresholds"][j][l] == want

    def test_burn_in_drop(self, small_panel, tmp_path):
        panel, _ = small_panel
        cfg = PipelineConfig(alpha=0.3, lambda_grid=(1.0,), drop_burn_in=True,
                             out_dir=str(tmp_path / "x"), retain_fraction=0.5)
        manifest = run_pipeline(cfg, panel)
        assert manifest["fracdiff"]["dropped_burn_in"] == 15  # ceil(0.05 * 300)


class TestExports:
    def _filtered(self, seed=6, n_e=4, n_l=2):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n_e, n_l, n_e, n_l))
        net = from_coefficient(b, [f"E{i}" for i in range(n_e)],
                               [f"L{j}" for j in range(n_l)])
        return apply_filter(net, retain_fraction=0.3)

    def test_csv_round_trip_exact(self, tmp_path):
        net = self._filtered()
        path = tmp_path / "net.csv"
        export_network(net, path, "csv")
        back = import_network(path)
        np.testing.assert_array_equal(back.blocks, net.blocks)
        np.testing.assert_array_equal(back.kept, net.kept)
        np.testing.assert_array_equal(
            np.nan_to_num(back.p_values, nan=-1.0),
            np.nan_to_num(net.p_values, nan=-1.0),
        )

    def test_unsorted_labels_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        net = apply_filter(from_coefficient(rng.standard_normal((3, 2, 3, 2)),
                                            ["c", "a", "b"], ["y", "x"]),
                           retain_fraction=0.3)
        export_network(net, tmp_path / "net.csv", "csv")
        back = import_network(tmp_path / "net.csv")
        assert back.entity_labels == ("c", "a", "b")
        assert back.layer_labels == ("y", "x")
        np.testing.assert_array_equal(back.blocks, net.blocks)

    @settings(max_examples=60, deadline=None)
    @given(
        entities=st.lists(st.text(_XML_LABEL_CHARS, max_size=6),
                          min_size=1, max_size=3, unique=True),
        layers=st.lists(st.text(_XML_LABEL_CHARS, max_size=6),
                        min_size=1, max_size=3, unique=True),
    )
    @example(entities=["a,1", "b"], layers=['x"', "y\r\nz"])
    @example(entities=["lone\rcr"], layers=[" ,", "\n"])
    @example(entities=["", "a|b", "\\", '"'], layers=["|\\", "<&>\t"])
    def test_csv_exports_round_trip_any_label(self, entities, layers):
        rng = np.random.default_rng(len(entities) * 10 + len(layers))
        n_e, n_l = len(entities), len(layers)
        net = apply_filter(from_coefficient(
            rng.standard_normal((n_e, n_l, n_e, n_l)), entities, layers),
            retain_fraction=0.3)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "network.csv")
            export_network(net, path, "csv")
            back = import_network(path)
            assert back.entity_labels == net.entity_labels
            assert back.layer_labels == net.layer_labels
            np.testing.assert_array_equal(back.blocks, net.blocks)
            np.testing.assert_array_equal(back.kept, net.kept)
            np.testing.assert_array_equal(back.p_values, net.p_values)

            paths = export_matrices(*compute_measures(net, PipelineConfig()),
                                    entities, layers, tmp)
            for key in ("assortativity", "edge_overlap"):
                with open(paths[key], encoding="utf-8", newline="") as fh:
                    rows = list(csv.reader(fh))
                assert rows[0] == ["layer", *layers]
                assert [r[0] for r in rows[1:]] == layers
                assert all(len(r) == n_l + 1 for r in rows)
            with open(paths["node_measures"], encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            assert [r[:2] for r in rows[1:]] == [[e, l] for e in entities
                                                 for l in layers]
            assert all(len(r) == 4 for r in rows)

            # the graph exports give the labels back too: the GraphML through
            # an XML parser, the DOT node ids unescaped
            graphml, dot = (os.path.join(tmp, f"network.{ext}")
                            for ext in ("graphml", "dot"))
            export_network(net, graphml, "graphml")
            assert [(d["d_entity"] or "", d["d_layer"] or "")
                    for _, d in self._graphml_nodes(graphml)] == [
                (e, l) for e in entities for l in layers]
            export_network(net, dot, "dot")
            assert _dot_node_labels(dot) == [(e, l) for l in layers
                                             for e in entities]

    def test_duplicated_edge_row_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        export_network(self._filtered(n_e=2, n_l=2), path, "csv")
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = lines[2]  # row 3 copied over row 4
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError,
                           match="row 4: duplicate of the edge in row 3"):
            import_network(path)

    def test_missing_edge_named(self, tmp_path):
        path = tmp_path / "net.csv"
        export_network(self._filtered(n_e=2, n_l=2), path, "csv")
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        del lines[7]  # the edge from E1 in L0 to E0 in L1
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=r"incomplete edge grid: no row for "
                           r"the edge from \('E1', 'L0'\) to \('E0', 'L1'\)"):
            import_network(path)

    @pytest.mark.parametrize("field, text, message", [
        (6, "True", "column kept: expected true or false, got 'True'"),
        (6, "yes", "column kept: expected true or false, got 'yes'"),
        (4, "abc", "column weight: could not convert string to float: 'abc'"),
        (5, "", "column p_value: could not convert string to float: ''"),
    ], ids=["kept-True", "kept-yes", "weight-abc", "p_value-empty"])
    def test_bad_field_names_its_row_and_column(self, tmp_path, field, text,
                                                 message):
        path = tmp_path / "one.csv"
        net = from_coefficient(np.full((1, 1, 1, 1), 2.0), ["A"], ["x"])
        export_network(net, path, "csv")
        header, row = path.read_text(encoding="utf-8").splitlines()
        fields = row.split(",")
        fields[field] = text
        path.write_text(f"{header}\n{','.join(fields)}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"row 2, {message}")):
            import_network(path)

    def test_row_fault_reported_before_grid_fault(self, tmp_path):
        # row 4 repeats the edge of row 3, and row 6 holds a non-numeric
        # weight: the weight is named, as ingest_csv names a row fault first
        path = tmp_path / "net.csv"
        export_network(self._filtered(n_e=2, n_l=2), path, "csv")
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = lines[2]
        fields = lines[5].split(",")
        fields[4] = "abc"
        lines[5] = ",".join(fields)
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                "row 6, column weight: could not convert string to float: "
                "'abc'")):
            import_network(path)

    def test_single_edge_csv(self, tmp_path):
        net = from_coefficient(np.full((1, 1, 1, 1), 2.0), ["A"], ["x"])
        path = tmp_path / "one.csv"
        export_network(net, path, "csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("src_entity,")

    def test_graphml_well_formed(self, tmp_path):
        net = self._filtered()
        path = tmp_path / "net.graphml"
        export_network(net, path, "graphml")
        root = ET.parse(path).getroot()
        assert root.tag == f"{{{GRAPHML_NS}}}graphml"
        graph = root.find(f"{{{GRAPHML_NS}}}graph")
        assert graph.get("edgedefault") == "directed"
        nodes = graph.findall(f"{{{GRAPHML_NS}}}node")
        edges = graph.findall(f"{{{GRAPHML_NS}}}edge")
        assert len(nodes) == net.n_entities * net.n_layers
        assert len(edges) == int(net.kept.sum())
        node_ids = {n.get("id") for n in nodes}
        for e in edges:
            assert e.get("source") in node_ids
            assert e.get("target") in node_ids
        declared = {k.get("attr.name") for k in root.findall(f"{{{GRAPHML_NS}}}key")}
        assert {"layer", "strength", "coreness", "weight"} <= declared

    @staticmethod
    def _graphml_nodes(path):
        graph = ET.parse(path).getroot().find(f"{{{GRAPHML_NS}}}graph")
        return [(n.get("id"), {d.get("key"): d.text
                               for d in n.findall(f"{{{GRAPHML_NS}}}data")})
                for n in graph.findall(f"{{{GRAPHML_NS}}}node")]

    def test_separator_in_labels_gives_distinct_node_ids(self, tmp_path):
        # unescaped, entity "a|b" in layer "c" and entity "a" in layer "b|c"
        # were both "a|b|c"
        net = from_coefficient(np.ones((2, 2, 2, 2)), ["a|b", "a"], ["c", "b|c"])
        export_network(net, tmp_path / "net.graphml", "graphml")
        ids = [i for i, _ in self._graphml_nodes(tmp_path / "net.graphml")]
        assert ids == ["a\\|b|c", "a\\|b|b\\|c", "a|c", "a|b\\|c"]
        export_network(net, tmp_path / "net.dot", "dot")
        dot_ids = [line.split('" [')[0].strip()
                   for line in (tmp_path / "net.dot").read_text().splitlines()
                   if "[strength=" in line]
        assert len(set(dot_ids)) == 4

    @settings(max_examples=60, deadline=None)
    @given(
        entities=st.lists(st.text(_XML_LABEL_CHARS, min_size=1, max_size=6),
                          min_size=1, max_size=3, unique=True),
        layers=st.lists(st.text(_XML_LABEL_CHARS, min_size=1, max_size=6),
                        min_size=1, max_size=3, unique=True),
    )
    @example(entities=["a|b", "a", "a\\"], layers=["c", "b|c", "\\|"])
    @example(entities=["lone\rcr", " "], layers=["y\r\nz", "<&>"])
    def test_graphml_node_ids_unique_and_labels_read_back(self, entities, layers):
        rng = np.random.default_rng(len(entities) * 10 + len(layers))
        n_e, n_l = len(entities), len(layers)
        net = apply_filter(from_coefficient(
            rng.standard_normal((n_e, n_l, n_e, n_l)), entities, layers),
            retain_fraction=0.3)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "network.graphml")
            export_network(net, path, "graphml")
            nodes = self._graphml_nodes(path)
        ids = [i for i, _ in nodes]
        assert len(set(ids)) == len(ids) == n_e * n_l
        assert [(d["d_entity"], d["d_layer"]) for _, d in nodes] == [
            (e, l) for e in entities for l in layers]

    @settings(max_examples=60, deadline=None)
    @given(
        entities=st.lists(st.text(_XML_LABEL_CHARS, max_size=6),
                          min_size=1, max_size=3, unique=True),
        layers=st.lists(st.text(_XML_LABEL_CHARS, max_size=6),
                        min_size=1, max_size=3, unique=True),
        retain=st.sampled_from([None, 0.3]),  # None: every edge kept
    )
    @example(entities=["", "a\rb", "c\nd", "e\tf"], layers=["&<>\"'", "|\\"],
             retain=0.3)
    def test_graphml_bytes_equal_elementtree(self, entities, layers, retain):
        _assert_writer_bytes(pipeline_module._write_graphml, _elementtree_graphml,
                             entities, layers, retain)

    @settings(max_examples=60, deadline=None)
    @given(
        entities=st.lists(st.text(_XML_LABEL_CHARS, max_size=6),
                          min_size=1, max_size=3, unique=True),
        layers=st.lists(st.text(_XML_LABEL_CHARS, max_size=6),
                        min_size=1, max_size=3, unique=True),
        retain=st.sampled_from([None, 0.3]),  # None: every edge kept
    )
    @example(entities=["", "a\rb", "c\nd", "e\tf"], layers=["&<>\"'", "|\\"],
             retain=0.3)
    def test_dot_bytes_equal_reference(self, entities, layers, retain):
        _assert_writer_bytes(pipeline_module._write_dot, _reference_dot,
                             entities, layers, retain)

    @pytest.mark.parametrize("label", ["a\x01", "\x0b", "x\x1f", "\ufffe",
                                       "b\uffff", "c\ud800"])
    def test_graphml_rejects_label_xml_cannot_carry(self, label):
        # the network refuses the label when it is built, so no GraphML
        # writer can meet it
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            from_coefficient(np.ones((2, 1, 2, 1)), ["ok", label], ["x"])
        with pytest.raises(ValueError, match="XML 1.0 cannot carry"):
            from_coefficient(np.ones((1, 2, 1, 2)), ["e"], [label, "y"])

    @pytest.mark.parametrize("fmt", ["csv", "dot", "matrices"])
    def test_label_utf8_cannot_encode_leaves_no_file(self, fmt, tmp_path):
        message = re.escape("XML 1.0 cannot carry the label 'c\\ud800'")
        with pytest.raises(ValueError, match=message):
            from_coefficient(np.ones((2, 1, 2, 1)), ["ok", "c\ud800"], ["x"])
        if fmt == "matrices":  # takes raw labels, refused before its mkdir
            net = from_coefficient(np.ones((2, 1, 2, 1)), ["ok", "c"], ["x"])
            with pytest.raises(ValueError, match=message):
                export_matrices(*compute_measures(net, PipelineConfig()),
                                ["ok", "c\ud800"], net.layer_labels,
                                str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    # one refused character of each kind
    @pytest.mark.parametrize("char", ["\x01", "\x0b", "\x1f", "\ufffe",
                                      "\uffff", "\ud800"])
    def test_label_rule_refuses(self, char, tmp_path):
        # from_coefficient meets the same characters in
        # test_graphml_rejects_label_xml_cannot_carry
        message = f"^XML 1.0 cannot carry the label {re.escape(repr('a' + char))}$"
        for axis in range(3):
            labels = [["d"], ["e"], ["l"]]
            labels[axis] = ["a" + char]
            with pytest.raises(ValueError, match=message):
                PanelSeries(*labels, np.ones((1, 1, 1)))
        net = from_coefficient(np.ones((1, 1, 1, 1)), ["e"], ["x"])
        for labels in ((["a" + char], ["x"]), (["e"], ["a" + char])):
            with pytest.raises(ValueError, match=message):
                export_matrices(*compute_measures(net, PipelineConfig()),
                                *labels, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_dot_has_one_subgraph_per_layer(self, tmp_path):
        net = self._filtered()
        path = tmp_path / "net.dot"
        export_network(net, path, "dot")
        text = path.read_text()
        assert text.count("subgraph cluster_") == net.n_layers
        assert text.count(" -> ") == int(net.kept.sum())

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            export_network(self._filtered(), tmp_path / "x", "gexf")

    def test_matrices_reparse_to_17_digits(self, tmp_path):
        net = self._filtered()
        cfg = PipelineConfig()
        assort, overlap, strength, coreness = compute_measures(net, cfg)
        paths = export_matrices(assort, overlap, strength, coreness,
                                net.entity_labels, net.layer_labels,
                                str(tmp_path))
        got = np.genfromtxt(paths["assortativity"], delimiter=",",
                            skip_header=1, usecols=range(1, net.n_layers + 1))
        np.testing.assert_array_equal(
            np.nan_to_num(got.reshape(assort.shape), nan=-9.0),
            np.nan_to_num(assort, nan=-9.0),
        )
        got_overlap = np.genfromtxt(paths["edge_overlap"], delimiter=",",
                                    skip_header=1,
                                    usecols=range(1, net.n_layers + 1))
        np.testing.assert_array_equal(got_overlap.reshape(overlap.shape),
                                      overlap)
        with open(paths["node_measures"], encoding="utf-8") as fh:
            rows = [l.split(",") for l in fh.read().strip().split("\n")[1:]]
        for idx, (entity, layer, s, c) in enumerate(rows):
            i, j = divmod(idx, net.n_layers)
            assert float(s) == strength[i, j]
            assert int(c) == coreness[i, j]


class TestStageIsolation:
    def test_staged_cli_matches_full_pipeline(self, small_panel, tmp_path):
        panel, _ = small_panel
        raw = tmp_path / "raw.csv"
        export_panel(panel, raw)
        staged = tmp_path / "staged"
        conf = tmp_path / "run.conf"
        conf.write_text(
            "alpha = 0.3\nlambda_grid = 0, 5\nretain_fraction = 0.2\n"
            f"out_dir = {staged}\nseed = 3\n",
            encoding="utf-8",
        )
        for argv in (
            ["ingest", "--input", str(raw), "--config", str(conf)],
            ["fracdiff", "--panel", f"{staged}/panel.csv", "--config", str(conf)],
            ["fit", "--panel", f"{staged}/differenced.csv", "--config", str(conf)],
            ["build-network", "--model", f"{staged}/model", "--config", str(conf)],
            ["filter", "--network", f"{staged}/network_full.csv",
             "--config", str(conf)],
            ["measure", "--network", f"{staged}/network.csv",
             "--config", str(conf)],
        ):
            assert main(argv) == 0
        full = tmp_path / "full"
        cfg = PipelineConfig(alpha=0.3, lambda_grid=(0.0, 5.0),
                             retain_fraction=0.2, out_dir=str(full), seed=3)
        run_pipeline(cfg, panel)
        for name in ("differenced.csv", "network.csv", "assortativity.csv",
                     "edge_overlap.csv", "node_measures.csv",
                     "network.graphml", "network.dot"):
            assert (staged / name).read_bytes() == (full / name).read_bytes()


def _run_staged(raw, out, conf):
    for argv in (
        ["ingest", "--input", str(raw)],
        ["fracdiff", "--panel", f"{out}/panel.csv"],
        ["fit", "--panel", f"{out}/differenced.csv"],
        ["build-network", "--model", f"{out}/model"],
        ["filter", "--network", f"{out}/network_full.csv"],
        ["measure", "--network", f"{out}/network.csv"],
    ):
        assert main(argv + ["--config", str(conf), "--out", str(out)]) == 0


class TestStageTable:
    CONF = "alpha = 0.3\nlambda_grid = 0, 5\nretain_fraction = 0.2\nseed = 3\n"

    def _inputs(self, small_panel, tmp_path):
        raw, conf = tmp_path / "raw.csv", tmp_path / "run.conf"
        export_panel(small_panel[0], raw)
        conf.write_text(self.CONF, encoding="utf-8")
        cfg = PipelineConfig(alpha=0.3, lambda_grid=(0.0, 5.0),
                             retain_fraction=0.2, out_dir=str(tmp_path / "full"),
                             seed=3)
        return raw, conf, cfg

    def test_stage_json_equals_manifest_sections(self, small_panel, tmp_path):
        raw, conf, cfg = self._inputs(small_panel, tmp_path)
        _run_staged(raw, tmp_path / "staged", conf)
        manifest = run_pipeline(cfg, small_panel[0])
        for stage in ("fracdiff", "fit", "filter"):
            path = tmp_path / "staged" / f"{stage}.json"
            assert json.loads(path.read_text(encoding="utf-8")) == manifest[stage]

    def test_both_paths_call_filter_network_once(self, small_panel, tmp_path,
                                                 monkeypatch):
        # a patched module attribute must reach both paths; the benchmark
        # captures the filtered network this way
        raw, conf, cfg = self._inputs(small_panel, tmp_path)
        calls = []
        real = pipeline_module.filter_network

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "filter_network", counting)
        run_pipeline(cfg, small_panel[0])
        assert len(calls) == 1
        _run_staged(raw, tmp_path / "staged", conf)
        assert len(calls) == 2


def _tree(root):
    """The bytes of every file under ``root``, keyed by its relative path."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in pathlib.Path(root).rglob("*") if path.is_file()}


class TestStageDriver:
    # the files only the staged commands write
    STAGED_ONLY = {"panel.csv", "panel.csv.cube", "differenced.csv.cube",
                   "network_full.csv", "fracdiff.json", "fit.json", "filter.json"}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6),
           shape=st.sampled_from([(3, 2), (2, 3), (4, 1)]),
           alpha=st.sampled_from([None, 0.3]),
           method_a=st.sampled_from([("polya", 1.0), ("polya", 0.3),
                                     ("polya", 0.0), ("hard", 1.0)]),
           ranks=st.sampled_from(["full", (2, 1, 2, 1)]),
           lag=st.sampled_from([1, 2]), drop_burn_in=st.booleans(),
           overlap_normalized=st.booleans())
    def test_staged_chain_matches_run_pipeline(self, seed, shape, alpha, method_a,
                                               ranks, lag, drop_burn_in,
                                               overlap_normalized):
        panel, _ = generate_tar_panel(n_entities=shape[0], n_layers=shape[1],
                                      n_steps=120, seed=seed)
        # one ADF lag, so that the search finds its order on 120 dates
        cfg = PipelineConfig(
            alpha=alpha, alpha_grid=(0.0, 0.4, 1.0), adf_lags=1, ranks=ranks,
            lag=lag, filter_method=method_a[0], filter_a=method_a[1],
            retain_fraction=0.2, lambda_grid=(1.0, 5.0), seed=seed,
            drop_burn_in=drop_burn_in, overlap_normalized=overlap_normalized)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            raw, conf = tmp / "raw.csv", tmp / "run.conf"
            export_panel(panel, raw)
            conf.write_text("".join(
                f"{key} = {', '.join(map(str, v)) if isinstance(v, list) else v}\n"
                for key, v in cfg.resolved().items() if key != "out_dir"),
                encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                _run_staged(raw, tmp / "staged", conf)
            manifest = run_pipeline(dataclasses.replace(cfg, out_dir=str(tmp / "full")),
                                    panel)
            staged, full = _tree(tmp / "staged"), _tree(tmp / "full")
        assert set(staged) == set(full) - {"manifest.json"} | self.STAGED_ONLY
        for name in set(full) & set(staged):
            assert staged[name] == full[name], name
        for stage in ("fracdiff", "fit", "filter"):
            assert json.loads(staged[f"{stage}.json"]) == manifest[stage]

    def test_staged_cubes_are_byte_identical_across_runs(self, small_panel,
                                                          tmp_path):
        raw = tmp_path / "raw.csv"
        export_panel(small_panel[0], raw)
        cubes = []
        for run in ("first", "second"):
            out = tmp_path / run
            assert main(["ingest", "--input", str(raw), "--out", str(out)]) == 0
            assert main(["fracdiff", "--panel", str(out / "panel.csv"),
                         "--alpha", "0.3", "--out", str(out)]) == 0
            cubes.append([(out / name).read_bytes()
                          for name in ("panel.csv.cube", "differenced.csv.cube")])
        assert cubes[0] == cubes[1]
        differenced = read_panel(tmp_path / "first" / "differenced.csv")
        want = ingest_csv(tmp_path / "first" / "differenced.csv")
        assert (differenced.dates, differenced.entities, differenced.layers) == (
            want.dates, want.entities, want.layers)
        assert differenced.values.tobytes() == want.values.tobytes()

    def test_failed_build_network_makes_no_out_dir(self, tmp_path, capsys):
        model = tmp_path / "model"
        model.mkdir()
        np.save(model / "coefficient.npy", np.ones((2, 1, 2)))
        (model / "meta.json").write_text('{"entities": ["a", "b"], "layers": ["x"]}',
                                         encoding="utf-8")
        out = tmp_path / "out"
        assert main(["build-network", "--model", str(model), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: [build-network] ")
        assert not out.exists()

    def test_failed_run_pipeline_makes_no_out_dir(self, small_panel, tmp_path):
        cfg = PipelineConfig(adf_lags=299, out_dir=str(tmp_path / "out"))
        with pytest.raises(PipelineError, match=r"^\[fracdiff\] "):
            run_pipeline(cfg, small_panel[0])
        assert not (tmp_path / "out").exists()


class TestCli:
    def test_error_is_stage_tagged_and_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        rc = main(["ingest", "--input", str(missing), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc != 0
        assert "[ingest]" in captured.err

    def test_pipeline_subcommand(self, small_panel, tmp_path, capsys):
        panel, _ = small_panel
        raw = tmp_path / "raw.csv"
        export_panel(panel, raw)
        out = tmp_path / "out"
        rc = main(["pipeline", "--input", str(raw), "--out", str(out),
                   "--alpha", "0.3", "--lambda", "5", "--retain", "0.2",
                   "--method", "hard"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["fit"]["lambda"] == 5.0
        assert manifest["filter"]["method"] == "hard"

    def test_synth_subcommand(self, tmp_path):
        out = tmp_path / "synth.csv"
        rc = main(["synth", "--output", str(out), "--entities", "3",
                   "--layers", "2", "--steps", "40", "--seed", "1"])
        assert rc == 0
        panel = ingest_csv(out)
        assert panel.values.shape == (40, 3, 2)

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag,name", [("--entities", "n_entities"),
                                           ("--layers", "n_layers"),
                                           ("--steps", "n_steps")])
    def test_synth_refuses_size_below_one_by_name(self, flag, name, value,
                                                  tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--output", str(out), flag, value]) == 2
        assert capsys.readouterr().err == (
            f"error: [synth] {name} must be >= 1, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("n_entities,n_layers,first", [
        (101, 2, ("E000", "price")), (3, 101, ("E00", "L000")),
        (11, 11, ("E00", "L00"))])
    def test_synth_labels_stay_sorted_through_ingest(self, n_entities, n_layers,
                                                     first, tmp_path):
        # axis i of the cube (and of B_star) is still entity i after ingest
        panel, _ = generate_tar_panel(n_entities=n_entities, n_layers=n_layers,
                                      n_steps=3)
        assert (panel.entities[0], panel.layers[0]) == first
        export_panel(panel, tmp_path / "synth.csv")
        back = ingest_csv(tmp_path / "synth.csv")
        assert (back.entities, back.layers) == (panel.entities, panel.layers)
        assert back.values.tobytes() == panel.values.tobytes()

    def test_synth_labels_up_to_100_keep_their_bytes(self):
        panel, _ = generate_tar_panel(n_entities=100, n_layers=5, n_steps=3)
        assert panel.entities == tuple(f"E{i:02d}" for i in range(100))
        assert panel.layers == tuple(f"L{j:02d}" for j in range(5))

    @pytest.mark.parametrize("flag,line", [
        (["--out", "elsewhere"], "out_dir = elsewhere"),
        (["--alpha", "0.3"], "alpha = 0.3"),
        (["--alpha", "search"], "alpha = search"),
        (["--lambda", "5"], "lambda_grid = 5"),
        (["--lambda", "1, 5"], "lambda_grid = 1, 5"),
        (["--retain", "0.05"], "retain_fraction = 0.05"),
        (["--method", "hard"], "filter_method = hard"),
        (["--seed", "7"], "seed = 7"),
        (["--alpha", "0.3", "--method", "hard", "--retain", "0.05"],
         "alpha = 0.3\nfilter_method = hard\nretain_fraction = 0.05"),
    ])
    def test_flag_equals_config_line(self, flag, line, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        args = build_parser().parse_args(["pipeline", "--input", "x.csv"] + flag)
        assert _load_config(args) == PipelineConfig.from_file(conf)

    def test_bad_flag_value_reported_as_in_config_file(self, tmp_path, capsys):
        rc = main(["pipeline", "--input", "x.csv", "--alpha", "abc",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "bad value for 'alpha'" in capsys.readouterr().err

    def test_filter_cli_flag_validation(self, tmp_path, capsys):
        rc = main(["pipeline", "--input", "x.csv", "--retain", "2.0",
                   "--out", str(tmp_path)])
        assert rc != 0


def _save_npy(array, **kwargs):
    buf = io.BytesIO()
    np.save(buf, array, **kwargs)
    return buf.getvalue()


# Faults of a model directory: the file spoiled, its new bytes (None deletes
# it), and the message after the file's path.
_MODEL_FAULTS = {
    "no-coefficient": ("coefficient.npy", None, "No such file or directory"),
    "two-byte-coefficient": ("coefficient.npy", b"ab",
                             "EOF: reading magic string, expected 8 bytes got 2"),
    "integer-coefficient": ("coefficient.npy",
                            _save_npy(np.ones((2, 1, 2, 1), np.int64)),
                            "expected a float array, got int64"),
    "object-coefficient": ("coefficient.npy",
                           _save_npy(np.ones(2, object), allow_pickle=True),
                           "Object arrays cannot be loaded when allow_pickle=False"),
    "three-mode-coefficient": ("coefficient.npy", _save_npy(np.ones((2, 1, 2))),
                               "expected shape (I, J, I, J) = (2, 1, 2, 1) for the "
                               "labels in meta.json, got (2, 1, 2)"),
    "coefficient-of-other-labels": ("coefficient.npy", _save_npy(np.ones((3, 1, 3, 1))),
                                    "expected shape (I, J, I, J) = (2, 1, 2, 1)"),
    "no-meta": ("meta.json", None, "No such file or directory"),
    "no-entities": ("meta.json", b'{"layers": ["x"]}',
                    "expected a list of labels under 'entities'"),
    "label-not-text": ("meta.json", b'{"entities": ["a", 1], "layers": ["x"]}',
                       "expected a list of labels under 'entities'"),
    "meta-not-object": ("meta.json", b"[]",
                        "expected a list of labels under 'entities'"),
    "meta-not-json": ("meta.json", b"{", "Expecting property name enclosed"),
    "meta-not-utf8": ("meta.json", b'{"\xff": 1}',
                      "'utf-8' codec can't decode byte 0xff in position 2"),
}


@pytest.mark.parametrize("case", list(_MODEL_FAULTS))
def test_model_fault_names_file_and_fault(tmp_path, capsys, case):
    model = tmp_path / "model"
    model.mkdir()
    (model / "coefficient.npy").write_bytes(_save_npy(np.ones((2, 1, 2, 1))))
    (model / "meta.json").write_text('{"entities": ["a", "b"], "layers": ["x"]}',
                                     encoding="utf-8")
    name, data, fault = _MODEL_FAULTS[case]
    if data is None:
        (model / name).unlink()
    else:
        (model / name).write_bytes(data)
    out = tmp_path / "out"
    assert main(["build-network", "--model", str(model), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [build-network] {model / name}: {fault}")
    assert err.count("\n") == 1 and "pickled" not in err
    assert not out.exists()


# Staged commands with their input flag and the file (or model directory)
# they read, in the order the chain writes them
_STAGED_INPUTS = (("ingest", "--input", "raw.csv"),
                  ("fracdiff", "--panel", "panel.csv"),
                  ("fit", "--panel", "differenced.csv"),
                  ("build-network", "--model", "model"),
                  ("filter", "--network", "network_full.csv"),
                  ("measure", "--network", "network.csv"))
_STAGED_FLAGS = ["--alpha", "0.3", "--lambda", "1", "--retain", "0.3"]


@pytest.fixture(scope="module")
def staged_inputs(tmp_path_factory):
    """A directory holding a valid input for every staged command."""
    root = tmp_path_factory.mktemp("staged")
    panel, _ = generate_tar_panel(n_entities=3, n_layers=2, n_steps=60, seed=5)
    export_panel(panel, root / "raw.csv")
    for command, flag, name in _STAGED_INPUTS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, flag, str(root / name), "--out", str(root),
                         *_STAGED_FLAGS]) == 0
    return root


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_malformed_staged_input_fails_with_one_line(staged_inputs, data):
    # a spoiled input either still parses, or fails with one line tagged by
    # its command and leaves no --out behind
    command, flag, name = data.draw(st.sampled_from(_STAGED_INPUTS))
    with tempfile.TemporaryDirectory() as tmp:
        source = pathlib.Path(tmp) / name
        if name == "model":
            shutil.copytree(staged_inputs / name, source)
            kinds = ["flip", "truncate", "drop-key", "shape"]
        else:
            shutil.copyfile(staged_inputs / name, source)
            kinds = ["flip", "truncate", "nul", "long-field"]
        kind = data.draw(st.sampled_from(kinds))
        target = source
        if name == "model":
            target = source / data.draw(st.sampled_from(sorted(
                p.name for p in source.iterdir())))
            if kind == "drop-key":
                target = source / "meta.json"
            elif kind == "shape":
                target = source / "coefficient.npy"
        raw = target.read_bytes()
        if kind == "flip":
            at = data.draw(st.integers(0, len(raw) - 1))
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
            raw = raw[:at] + bytes([byte]) + raw[at + 1:]
        elif kind == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "nul":
            at = data.draw(st.integers(0, len(raw)))
            raw = raw[:at] + b"\0" + raw[at:]
        elif kind == "long-field":
            # a quoted first field of the first row past the header
            head, first, rest = raw.split(b"\n", 2)
            long = b'"' + b"x" * (csv.field_size_limit() + 1) + b'"'
            raw = b"\n".join([head, long + first[first.index(b","):], rest])
        elif kind == "drop-key":
            meta = json.loads(raw)
            del meta[data.draw(st.sampled_from(["entities", "layers"]))]
            raw = json.dumps(meta).encode()
        else:
            good = np.load(target).shape
            shape = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)
                              .map(tuple).filter(lambda s: s != good))
            raw = _save_npy(np.ones(shape))
        target.write_bytes(raw)
        out = pathlib.Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, flag, str(source), "--out", str(out), *_STAGED_FLAGS])
        if rc == 0 and kind in ("flip", "truncate"):
            return
        text = err.getvalue()
        assert rc == 2, (kind, text)
        assert text.startswith(f"error: [{command}] "), text
        assert text.count("\n") == 1 and text.endswith("\n"), text
        assert "Traceback" not in text
        assert not out.exists()


def test_full_run_does_not_load_scipy_linalg(tmp_path):
    # numpy and scipy.linalg each bring their own OpenBLAS and thread pool,
    # and alternating the two pools doubled the time of a fit's QR; a = 0.3
    # runs the Gauss rule on the urn share, whose nodes come from numpy
    src = os.path.dirname(os.path.dirname(regression.__file__))
    for filter_a in (1.0, 0.3):
        out = str(tmp_path / str(filter_a))
        code = ("import sys, multitar.cli\n"
                "from multitar.pipeline import PipelineConfig, run_pipeline\n"
                "from multitar.synthetic import generate_tar_panel\n"
                "panel, _ = generate_tar_panel(n_entities=3, n_layers=2, "
                "n_steps=200, seed=1)\n"
                f"run_pipeline(PipelineConfig(out_dir={out!r}, filter_a={filter_a}), "
                "panel)\n"
                "sys.exit('scipy.linalg' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
        assert (tmp_path / str(filter_a) / "manifest.json").exists()


def test_cli_import_loads_no_numpy_polynomial():
    # the share rule builds its nodes with np.linalg.eigh, not a
    # numpy.polynomial table made at import
    src = os.path.dirname(os.path.dirname(regression.__file__))
    code = ("import sys, multitar.cli\n"
            "print([m for m in sys.modules if m.startswith('numpy.polynomial')])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_blas_thread_count_moves_no_choice(tmp_path):
    # OpenBLAS splits its sums by thread count, so the bytes of a fit may
    # differ between 1 and 2 threads; what the run chooses must not
    src = os.path.dirname(os.path.dirname(regression.__file__))
    runs = []
    for threads in ("1", "2"):
        out = str(tmp_path / threads)
        code = ("import json, numpy as np\n"
                "from multitar.pipeline import PipelineConfig, import_network, "
                "run_pipeline\n"
                "from multitar.synthetic import generate_tar_panel\n"
                "panel, _ = generate_tar_panel(n_entities=20, n_layers=4, "
                "n_steps=600, seed=3)\n"
                "config = PipelineConfig(alpha=0.3, ranks=(3, 2, 3, 2), seed=3, "
                f"retain_fraction=0.2, out_dir={out!r})\n"
                "fit = run_pipeline(config, panel)['fit']\n"
                f"net = import_network({out!r} + '/network.csv')\n"
                f"b = np.load({out!r} + '/model/coefficient.npy')\n"
                "print(json.dumps([fit, net.kept.tolist(), net.p_values.tolist(), "
                "b.tolist()]))")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        runs.append(json.loads(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True,
            text=True).stdout))
    (fit1, kept1, p1, b1), (fit2, kept2, p2, b2) = runs
    for key in ("lambda", "n_sweeps", "converged", "ranks", "n_train"):
        assert fit1[key] == fit2[key], key
    assert kept1 == kept2
    for key in ("objective_final", "predicted_r2"):
        assert fit1[key] == pytest.approx(fit2[key], rel=1e-10, abs=0), key
    b1, b2 = np.array(b1), np.array(b2)
    assert np.max(np.abs(b1 - b2)) <= 1e-10 * np.max(np.abs(b1))
    np.testing.assert_allclose(p1, p2, rtol=1e-8, atol=0)


def _scipy_modules_after(code):
    """Names of the scipy modules a fresh interpreter has loaded after it
    ran ``code``, read from the last line it prints."""
    src = os.path.dirname(os.path.dirname(regression.__file__))
    code += ("\nimport json, sys\n"
             "print(json.dumps([m for m in sys.modules "
             "if m.split('.')[0] == 'scipy']))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_only_incomplete_beta_filters_load_scipy(tmp_path, small_panel):
    # every stage runs on numpy alone but a Polya filter at a = 0 or at a
    # non-integer 1/a, so a default run's processes do not import scipy
    panel, _ = small_panel
    export_panel(panel, tmp_path / "panel.csv")
    fit = ("from multitar.cli import main\n"
           f"assert main(['fit', '--panel', {str(tmp_path / 'panel.csv')!r}, "
           f"'--out', {str(tmp_path / 'fit')!r}, '--lambda', '5']) == 0")
    assert _scipy_modules_after(fit) == []
    run = lambda name, **filter_args: (
        "from multitar.panel import ingest_csv\n"
        "from multitar.pipeline import PipelineConfig, run_pipeline\n"
        f"panel = ingest_csv({str(tmp_path / 'panel.csv')!r})\n"
        f"run_pipeline(PipelineConfig(alpha=0.3, out_dir={str(tmp_path / name)!r}, "
        f"**{filter_args!r}), panel)")
    assert _scipy_modules_after(run("hard", filter_method="hard")) == []
    assert _scipy_modules_after(run("polya")) == []
    for a in (0.3, 0.0):
        assert "scipy.special" in _scipy_modules_after(run(f"a{a}", filter_a=a))
    assert (tmp_path / "fit" / "model").exists()
    for name in ("hard", "polya", "a0.3", "a0.0"):
        assert (tmp_path / name / "manifest.json").exists()


def _dot_node_labels(path):
    """``(entity, layer)`` of each node of a DOT export: its id with the DOT
    string escapes undone, split at the first unescaped ``|``, and each half
    with the node id's escapes undone."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    # a quote inside a label is escaped, so only a node's line starts '    "'
    ids = re.findall(r'^    "((?:[^"\\]|\\.)*)" \[strength=', text, re.M | re.S)
    unescape = lambda s: re.sub(r"\\(.)", r"\1", s, flags=re.S)
    return [tuple(map(unescape, re.fullmatch(r"((?:[^\\|]|\\.)*)\|(.*)",
                                             unescape(i), re.S).groups()))
            for i in ids]


def _assert_writer_bytes(write, reference, entities, layers, retain):
    """``write`` and ``reference`` give the same bytes for a random network on
    the labels, filtered at ``retain`` (None: every edge kept)."""
    n_e, n_l = len(entities), len(layers)
    rng = np.random.default_rng(n_e * 10 + n_l)
    net = from_coefficient(rng.standard_normal((n_e, n_l, n_e, n_l)),
                           entities, layers)
    if retain is not None:
        net = apply_filter(net, retain_fraction=retain)
    strength, coreness = multinet.node_strength(net), multinet.k_coreness(net)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got"), os.path.join(tmp, "want")
        write(net, got, strength, coreness)
        reference(net, want, strength, coreness)
        with open(got, "rb") as g, open(want, "rb") as w:
            assert g.read() == w.read()


def _node_id(entity, layer):
    """The exports' node id rule, kept here for the reference writers:
    ``entity|layer`` with ``\\`` and ``|`` backslash-escaped in each label."""
    return "|".join(s.replace("\\", "\\\\").replace("|", "\\|")
                    for s in (entity, layer))


def _reference_dot(net, path, strength, coreness):
    """The DOT writer built edge by edge, each edge's ids formed and quoted
    from its labels: the reference for the writer's bytes."""
    quote = lambda s: '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = ["digraph multilayer {"]
    for j, layer in enumerate(net.layer_labels):
        lines += [f"  subgraph cluster_{j} {{", f"    label={quote(layer)};"]
        for i, entity in enumerate(net.entity_labels):
            lines.append(f"    {quote(_node_id(entity, layer))} [strength="
                         f"{'%.17g' % strength[i, j]}, coreness={int(coreness[i, j])}];")
        lines.append("  }")
    for j, l, i, k in zip(*np.nonzero(net.kept)):
        src = _node_id(net.entity_labels[i], net.layer_labels[j])
        dst = _node_id(net.entity_labels[k], net.layer_labels[l])
        lines.append(f"  {quote(src)} -> {quote(dst)} "
                     f"[weight={'%.17g' % net.blocks[j, l, i, k]}];")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n}\n")


def _elementtree_graphml(net, path, strength, coreness):
    """The GraphML writer as it was built on ElementTree: the reference for
    the text writer's bytes."""
    ET.register_namespace("", GRAPHML_NS)
    root = ET.Element(f"{{{GRAPHML_NS}}}graphml")
    root.set("{http://www.w3.org/2001/XMLSchema-instance}schemaLocation",
             f"{GRAPHML_NS} http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd")
    keys = [
        ("d_entity", "node", "entity", "string"),
        ("d_layer", "node", "layer", "string"),
        ("d_strength", "node", "strength", "double"),
        ("d_coreness", "node", "coreness", "long"),
        ("d_weight", "edge", "weight", "double"),
        ("d_pvalue", "edge", "p_value", "double"),
    ]
    for key_id, domain, name, typ in keys:
        el = ET.SubElement(root, f"{{{GRAPHML_NS}}}key")
        el.set("id", key_id)
        el.set("for", domain)
        el.set("attr.name", name)
        el.set("attr.type", typ)
    graph = ET.SubElement(root, f"{{{GRAPHML_NS}}}graph")
    graph.set("id", "multilayer")
    graph.set("edgedefault", "directed")
    for i, entity in enumerate(net.entity_labels):
        for j, layer in enumerate(net.layer_labels):
            node = ET.SubElement(graph, f"{{{GRAPHML_NS}}}node")
            node.set("id", _node_id(entity, layer))
            for key_id, text in (
                ("d_entity", entity),
                ("d_layer", layer),
                ("d_strength", "%.17g" % strength[i, j]),
                ("d_coreness", str(int(coreness[i, j]))),
            ):
                data = ET.SubElement(node, f"{{{GRAPHML_NS}}}data")
                data.set("key", key_id)
                data.text = text
    for j, l, i, k in zip(*np.nonzero(net.kept)):
        edge = ET.SubElement(graph, f"{{{GRAPHML_NS}}}edge")
        edge.set("source", _node_id(net.entity_labels[i], net.layer_labels[j]))
        edge.set("target", _node_id(net.entity_labels[k], net.layer_labels[l]))
        for key_id, value in (("d_weight", net.blocks[j, l, i, k]),
                              ("d_pvalue", net.p_values[j, l, i, k])):
            data = ET.SubElement(edge, f"{{{GRAPHML_NS}}}data")
            data.set("key", key_id)
            data.text = "%.17g" % value
    ET.indent(root, space="  ")
    with open(path, "wb") as fh:
        fh.write(ET.tostring(root, encoding="utf-8", xml_declaration=True)
                 .replace(b"\r", b"&#13;"))


def test_graphml_export_leaves_elementtree_alone(tmp_path):
    # the ElementTree writer registered the GraphML namespace as the default
    # for the whole process, which changed how every later caller's
    # ElementTree wrote that namespace
    src = os.path.dirname(os.path.dirname(regression.__file__))
    code = ("import sys\n"
            "from multitar.pipeline import PipelineConfig, run_pipeline\n"
            "from multitar.synthetic import generate_tar_panel\n"
            "panel, _ = generate_tar_panel(n_entities=3, n_layers=2, "
            "n_steps=200, seed=1)\n"
            f"run_pipeline(PipelineConfig(alpha=0.3, out_dir={str(tmp_path)!r}), "
            "panel)\n"
            "assert 'xml.etree' not in sys.modules, 'xml.etree loaded'\n"
            "import xml.etree.ElementTree as ET\n"
            f"el = ET.Element('{{{GRAPHML_NS}}}g')\n"
            "print(ET.tostring(el).decode())\n")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "network.graphml").exists()
    assert run.stdout.startswith("<ns0:g xmlns:ns0="), run.stdout
