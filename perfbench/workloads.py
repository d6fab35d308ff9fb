"""The three benchmark workloads, their seeded inputs and their output checks.

Each workload stresses a different layer, and each names the work a later
optimisation must leave alone:

* ``dense-filter`` - Polya filter on dense blocks plus the ADF alpha
  search; the ALS fit is full rank (two sweeps per fit).
* ``tucker-fit`` - the reduced-rank Tucker ALS fit; blocks are small, so
  the filter is a minor cost.
* ``staged-io`` - the six staged CLI commands, which re-read and re-write
  the panel and network CSVs between stages; hard filter, fixed alpha.

``tucker-fit`` runs every ALS fit for exactly ``max_sweeps`` sweeps (the
relative tolerance is set below any reachable change), because the number
of sweeps ALS needs to converge varies several-fold between seeds and the
work per run must not depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import multitar.cli
import multitar.panel
import multitar.pipeline
from multitar import PipelineConfig
from multitar.regression import build_lagged_pairs, closed_form_fit
from multitar.synthetic import generate_tar_panel

DEFAULT_SEED = 3
RETAIN = 0.05

# (entities, layers, steps) per size.  ``bench`` is what BENCHMARK.json
# runs; ``baseline`` is the 60x4x2000 row the ROADMAP baseline was measured
# at; ``quick`` is a smoke test and is never used for claims.
SIZES = {
    "dense-filter": {"quick": (8, 3, 300), "bench": (20, 4, 1000),
                     "baseline": (60, 4, 2000)},
    "tucker-fit": {"quick": (5, 3, 300), "bench": (10, 4, 1000),
                   "baseline": (12, 4, 2000)},
    "staged-io": {"quick": (6, 3, 300), "bench": (16, 6, 1200),
                  "baseline": (40, 6, 3000)},
}

TUCKER_RANKS = (3, 2, 3, 2)
TUCKER_SWEEPS = 10

_CONFIGS = {
    "dense-filter": dict(retain_fraction=RETAIN),
    "tucker-fit": dict(alpha=0.3, ranks=TUCKER_RANKS, retain_fraction=RETAIN,
                       max_sweeps=TUCKER_SWEEPS, rel_tol=1e-300),
    "staged-io": dict(alpha=0.3, filter_method="hard", retain_fraction=RETAIN),
}

_STAGED_FLAGS = ["--alpha", "0.3", "--method", "hard", "--retain", str(RETAIN)]

# Selected alpha, lambda and per-block kept counts at DEFAULT_SEED and the
# bench size, with the final objective and held-out R2.  The two floats may
# move by REFERENCE_RTOL when a change reorders floating-point sums.
REFERENCE_RTOL = 1e-6
REFERENCE = {
    "dense-filter": {"alpha": 0.0, "lambda": 5.0, "kept_counts": [[20] * 4] * 4,
                     "objective_final": 743.6730936340465,
                     "predicted_r2": 0.13609715042491},
    "tucker-fit": {"alpha": 0.3, "lambda": 5.0, "kept_counts": [[5] * 4] * 4,
                   "objective_final": 376.7817072153291,
                   "predicted_r2": 0.010618882084195924},
    "staged-io": {"alpha": 0.3, "lambda": 10.0, "kept_counts": [[13] * 6] * 6,
                  "objective_final": 1020.8744038059787,
                  "predicted_r2": 0.03549005603102462},
}


def make_input(workload: str, size: str, seed: int, path: str) -> None:
    """Write the workload's seeded long-format panel CSV to ``path``."""
    n_e, n_l, n_t = SIZES[workload][size]
    panel, _ = generate_tar_panel(n_entities=n_e, n_layers=n_l, n_steps=n_t,
                                  seed=seed)
    multitar.panel.export_panel(panel, path)


def run(workload: str, input_csv: str, out_dir: str) -> None:
    """One complete run of the workload; everything it writes is under out_dir.

    Library functions are looked up on their modules at call time, so the
    tracer's wrappers see these calls too.
    """
    if workload == "staged-io":
        stages = [
            ["ingest", "--input", input_csv],
            ["fracdiff", "--panel", os.path.join(out_dir, "panel.csv")],
            ["fit", "--panel", os.path.join(out_dir, "differenced.csv")],
            ["build-network", "--model", os.path.join(out_dir, "model")],
            ["filter", "--network", os.path.join(out_dir, "network_full.csv")],
            ["measure", "--network", os.path.join(out_dir, "network.csv")],
        ]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for argv in stages:
                code = multitar.cli.main(argv + _STAGED_FLAGS + ["--out", out_dir])
                if code != 0:
                    raise RuntimeError(f"stage {argv[0]} exited {code}: "
                                       f"{log.getvalue().strip()}")
        return
    config = PipelineConfig(out_dir=out_dir, **_CONFIGS[workload])
    panel = multitar.panel.ingest_csv(input_csv)
    multitar.pipeline.run_pipeline(config, panel)


def digests(out_dir: str) -> dict:
    """sha256 of every artifact, keyed by its path relative to out_dir."""
    out = {}
    for d, _, files in os.walk(out_dir):
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, out_dir)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def summary(workload: str, out_dir: str) -> dict:
    """The run's choices as written to its artifacts."""
    if workload == "staged-io":
        frac = _read_json(os.path.join(out_dir, "fracdiff.json"))
        fit = _read_json(os.path.join(out_dir, "fit.json"))
        filt = _read_json(os.path.join(out_dir, "filter.json"))
    else:
        manifest = _read_json(os.path.join(out_dir, "manifest.json"))
        frac, fit, filt = manifest["fracdiff"], manifest["fit"], manifest["filter"]
    return {
        "alpha": frac["alpha"],
        "lambda": fit["lambda"],
        "kept_counts": filt["kept_counts"],
        "objective_final": fit["objective_final"],
        "predicted_r2": fit["predicted_r2"],
        "n_train": fit["n_train"],
    }


def check(workload: str, size: str, seed: int, out_dir: str, filtered) -> list:
    """Check one run's artifacts; returns a list of failure messages.

    ``filtered`` is the in-memory filtered network the run produced.
    """
    errors = []
    got = summary(workload, out_dir)

    net = multitar.pipeline.import_network(os.path.join(out_dir, "network.csv"))
    same = (net.entity_labels == filtered.entity_labels
            and net.layer_labels == filtered.layer_labels
            and np.array_equal(net.blocks, filtered.blocks)
            and np.array_equal(net.kept, filtered.kept)
            and np.array_equal(net.p_values, filtered.p_values, equal_nan=True))
    if not same:
        errors.append("network.csv does not read back as the filtered network")

    want = math.ceil(RETAIN * net.n_entities * net.n_entities)
    kept = net.kept.sum(axis=(2, 3))
    if not np.all(kept == want):
        errors.append(f"kept counts per block {kept.tolist()} != {want}")

    differenced = multitar.panel.ingest_csv(os.path.join(out_dir,
                                                         "differenced.csv"))
    x, y = build_lagged_pairs(differenced.values, 1)
    n_train = got["n_train"]
    model_dir = os.path.join(out_dir, "model")
    coef = np.load(os.path.join(model_dir, "coefficient.npy"))
    p = int(np.prod(x.shape[1:]))
    if workload == "tucker-fit":
        intercept = np.load(os.path.join(model_dir, "intercept.npy"))
        y_mean = np.load(os.path.join(model_dir, "y_mean.npy"))
        xs = x[n_train:].reshape(-1, p)
        ys = y[n_train:].reshape(xs.shape[0], -1)
        pred = intercept.reshape(1, -1) + xs @ coef.reshape(p, -1)
        rss = float(np.sum((ys - pred) ** 2))
        tss = float(np.sum((ys - y_mean.reshape(1, -1)) ** 2))
        err = abs(1.0 - rss / tss - got["predicted_r2"])
        if err > 1e-8 * abs(got["predicted_r2"]):
            errors.append(f"held-out R2 from model/ differs by {err:.3g}")
    else:
        ref = closed_form_fit(x[:n_train], y[:n_train], got["lambda"])
        err = _rel_err(coef.reshape(p, -1), ref)
        if err > 1e-8:
            errors.append(f"coefficient differs from closed_form_fit by "
                          f"{err:.3g} relative")

    ref = REFERENCE.get(workload) if (seed == DEFAULT_SEED
                                      and size == "bench") else None
    if ref is not None:
        for key in ("alpha", "lambda", "kept_counts"):
            if got[key] != ref[key]:
                errors.append(f"{key} {got[key]} != reference {ref[key]}")
        for key in ("objective_final", "predicted_r2"):
            err = abs(got[key] - ref[key])
            if err > REFERENCE_RTOL * abs(ref[key]):
                errors.append(f"{key} {got[key]!r} != reference {ref[key]!r}")
    return errors
