"""Configuration, staged pipeline runs, exports, and the CLI surface."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multitar.cli import _load_config, build_parser, main
from multitar.multinet import apply_filter, from_coefficient
from multitar.netfilter import (
    WeightedDigraph,
    hard_threshold_filter,
    polya_filter,
)
from multitar.panel import export_panel, ingest_csv
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


# Labels are read from and written to UTF-8 files, so a legal label is any
# text UTF-8 can encode (no lone surrogates); NUL is left out because the
# csv reader of Python 3.10 rejects it.
_LABEL_CHARS = st.characters(codec="utf-8", exclude_characters="\x00")
# XML 1.0 has no way to carry the other C0 controls except tab, LF and CR,
# nor U+FFFE and U+FFFF
_XML_LABEL_CHARS = st.characters(
    codec="utf-8",
    exclude_characters="".join(chr(c) for c in range(32) if chr(c) not in "\t\n\r")
    + "\ufffe\uffff")


@pytest.fixture(scope="module")
def small_panel():
    panel, b_star = generate_tar_panel(n_entities=5, n_layers=2, n_steps=300,
                                       support_fraction=0.1, seed=3)
    return panel, b_star


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

    def test_component_invariants_delegated(self):
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

    def test_label_xml_cannot_carry_fails_measure_stage(self, small_panel,
                                                       tmp_path):
        panel, _ = small_panel
        panel = dataclasses.replace(panel,
                                    entities=("a\x01",) + panel.entities[1:])
        cfg = PipelineConfig(alpha=0.3, lambda_grid=(0.0,),
                             out_dir=str(tmp_path / "run"))
        with pytest.raises(PipelineError, match=r"\[measure\].*'a\\x01'"):
            run_pipeline(cfg, panel)

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
        calls = []
        real = regression.als_fit

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # count calls made through either module's binding of als_fit
        monkeypatch.setattr(regression, "als_fit", counting)
        monkeypatch.setattr(pipeline_module, "als_fit", counting, raising=False)
        panel, _ = small_panel
        model, info = fit_model(panel, small_config)
        assert len(calls) == len(small_config.lambda_grid)
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
        entities=st.lists(st.text(_LABEL_CHARS, min_size=1, max_size=6),
                          min_size=1, max_size=3, unique=True),
        layers=st.lists(st.text(_LABEL_CHARS, min_size=1, max_size=6),
                        min_size=1, max_size=3, unique=True),
    )
    @example(entities=["a,1", "b"], layers=['x"', "y\r\nz"])
    @example(entities=["lone\rcr"], layers=[" ,", "\n"])
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

    @pytest.mark.parametrize("label", ["a\x01", "\x0b", "x\x1f", "\ufffe",
                                       "b\uffff"])
    def test_graphml_rejects_label_xml_cannot_carry(self, label, tmp_path):
        net = from_coefficient(np.ones((2, 1, 2, 1)), ["ok", label], ["x"])
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            export_network(net, tmp_path / "net.graphml", "graphml")
        layered = from_coefficient(np.ones((1, 2, 1, 2)), ["e"], [label, "y"])
        with pytest.raises(ValueError, match="XML 1.0 cannot carry"):
            export_network(layered, tmp_path / "net.graphml", "graphml")

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


def test_full_run_does_not_load_scipy_linalg(tmp_path):
    # numpy and scipy.linalg each bring their own OpenBLAS and thread pool,
    # and alternating the two pools doubled the time of a fit's QR
    src = os.path.dirname(os.path.dirname(regression.__file__))
    code = ("import sys, multitar.cli\n"
            "from multitar.pipeline import PipelineConfig, run_pipeline\n"
            "from multitar.synthetic import generate_tar_panel\n"
            "panel, _ = generate_tar_panel(n_entities=3, n_layers=2, "
            "n_steps=200, seed=1)\n"
            f"run_pipeline(PipelineConfig(out_dir={str(tmp_path)!r}), panel)\n"
            "sys.exit('scipy.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
