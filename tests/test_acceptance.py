"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Oracles here are implemented independently of the library paths they
check (explicit loops, exact tail sums, naive peeling).
"""

import math
import os
import shutil
import time

import numpy as np

from multitar.fracdiff import (
    FracDiffSpec,
    adf_test,
    find_min_alpha,
    fracdiff_apply,
    fracdiff_weights,
)
from multitar.multinet import (
    MultilayerNetwork,
    apply_filter,
    assortativity_matrix,
    edge_overlap_matrix,
    from_coefficient,
    k_coreness,
    node_strength,
)
from multitar.netfilter import polya_pvalue
from multitar.pipeline import PipelineConfig, import_network, run_pipeline
from multitar.regression import FitConfig, als_fit, closed_form_fit, fit_lambda_grid
from multitar.synthetic import generate_arfima_panel, generate_tar_panel


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_c01_als_matches_closed_form_oracle():
    """Full-rank ALS equals closed-form ridge within 1e-8 for the lambda grid."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    x = rng.standard_normal((500, 10, 4))
    y = rng.standard_normal((500, 10, 4))
    worst = 0.0
    for ridge in (0.0, 1.0, 5.0, 10.0, 20.0, 50.0):
        reference = closed_form_fit(x, y, ridge)
        model, _ = als_fit(x, y, "full", ridge, FitConfig(seed=101))
        fitted = model.coefficient_tensor().reshape(40, 40)
        rel = (np.linalg.norm(fitted - reference)
               / np.linalg.norm(reference))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-8 and elapsed < 60.0,
           f"max rel error {worst:.2e} (tol 1e-8), {elapsed:.1f}s (limit 60s)")


def test_c02_als_objective_monotone():
    """20 seeded fits, full and reduced ranks: traces never increase."""
    violations = 0
    n_runs = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal((80, 4, 2))
        y = rng.standard_normal((80, 3, 2))
        ranks = "full" if seed % 2 == 0 else (2, 2, 2, 2)
        ridge = (0.0, 1.0, 5.0, 20.0)[seed % 4]
        _, rep = als_fit(x, y, ranks, ridge, FitConfig(seed=seed))
        n_runs += 1
        trace = rep.objective_trace
        if not all(b <= a * (1.0 + 1e-9) for a, b in zip(trace, trace[1:])):
            violations += 1
    report(2, violations == 0,
           f"{n_runs} runs, {violations} monotonicity violations (slack 1e-9)")


def test_c03_fracdiff_fft_equals_direct():
    """FFT filter vs direct convolution on 50 seeded series; exact at 0 and 1."""
    rng = np.random.default_rng(303)
    worst = 0.0
    lengths = (64, 1000, 4096)
    alphas = (0.1, 0.2, 0.35, 0.5, 0.8)
    for i in range(50):
        t = lengths[i % 3]
        alpha = alphas[i % 5]
        series = rng.standard_normal(t)
        fast = fracdiff_apply(series, FracDiffSpec(alpha, t))
        direct = np.convolve(series, fracdiff_weights(alpha, t))[:t]
        worst = max(worst, float(np.max(np.abs(fast - direct))))
    series = rng.standard_normal(1000)
    identity_exact = np.array_equal(
        fracdiff_apply(series, FracDiffSpec(0.0, 1000)), series
    )
    diff = fracdiff_apply(series, FracDiffSpec(1.0, 1000))
    first_diff_exact = (diff[0] == series[0]
                        and np.array_equal(diff[1:], np.diff(series)))
    report(3, worst < 1e-10 and identity_exact and first_diff_exact,
           f"max |fft - direct| {worst:.2e} (tol 1e-10), "
           f"alpha=0 exact: {identity_exact}, alpha=1 exact: {first_diff_exact}")


def test_c04_stationarity_search_on_long_memory_panel():
    """ARFIMA(0, 0.15, 0) panel: search stays within the grid and passes ADF."""
    start = time.perf_counter()
    panel = generate_arfima_panel(10, 2000, 0.15, seed=4)
    alpha = find_min_alpha(panel, (0.0, 0.1, 0.2, 0.3), level=0.05)
    spec = FracDiffSpec(alpha, 2000)
    all_reject = all(
        adf_test(fracdiff_apply(panel[:, j], spec), level=0.05).reject_unit_root
        for j in range(panel.shape[1])
    )
    elapsed = time.perf_counter() - start
    report(4, alpha <= 0.3 and all_reject and elapsed < 30.0,
           f"alpha={alpha}, all series pass ADF at 5%: {all_reject}, "
           f"{elapsed:.1f}s (limit 30s)")


def test_c05_lambda_selection_reproduction():
    """Noiseless data selects lambda=0; a pure-noise response selects 50."""
    grid = (0.0, 1.0, 5.0, 10.0, 20.0, 50.0)
    rng = np.random.default_rng(17)
    p = 8
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    b = 0.985 * q
    panel = np.empty((300, p))
    panel[0] = rng.standard_normal(p)
    for t in range(1, 300):
        panel[t] = panel[t - 1] @ b
    clean, _, _ = fit_lambda_grid(panel.reshape(300, 4, 2), "full",
                                  FitConfig(lambda_grid=grid, seed=17))
    noise = np.random.default_rng(99).standard_normal((260, 4, 2))
    noisy, _, _ = fit_lambda_grid(noise, "full",
                                  FitConfig(lambda_grid=grid, seed=99))
    best_clean, best_noise = clean.ridge, noisy.ridge
    report(5, best_clean == 0.0 and best_noise == 50.0,
           f"noiseless -> {best_clean} (want 0), pure noise -> {best_noise} "
           f"(want 50)")


def exact_binomial_tail(w: int, s: int, k: int) -> float:
    p = 1.0 / k
    return sum(math.comb(s, x) * p ** x * (1.0 - p) ** (s - x)
               for x in range(w, s + 1))


def test_c06_polya_binomial_limit():
    """Urn survival at a=1e-8 matches exact binomial tails; monotone in w."""
    worst = 0.0
    monotone = True
    for s in (10, 20, 50):
        for k in (2, 4, 10):
            previous = np.inf
            for w in range(0, s + 1):
                p = polya_pvalue(float(w), float(s), k, 1e-8)
                worst = max(worst, abs(p - exact_binomial_tail(w, s, k)))
                if p > previous:
                    monotone = False
                previous = p
    report(6, worst < 1e-4 and monotone,
           f"max |urn - binomial| {worst:.2e} (tol 1e-4), monotone: {monotone}")


def test_c07_retention_and_method_agreement():
    """Every block keeps 10% +/- 1 edge; polya and hard kept sets overlap."""
    rng = np.random.default_rng(12)
    shape = (26, 4, 26, 4)
    b = np.exp(1.5 * rng.standard_normal(shape)) * rng.choice((-1.0, 1.0), shape)
    net = from_coefficient(b, [f"E{i:02d}" for i in range(26)],
                           ["iv10", "iv30", "price", "volume"])
    polya = apply_filter(net, method="polya", retain_fraction=0.1, a=1.0)
    hard = apply_filter(net, method="hard", retain_fraction=0.1)
    target = 0.1 * 26 * 26
    counts_ok = True
    for filtered in (polya, hard):
        counts = filtered.kept.sum(axis=(2, 3))
        counts_ok = counts_ok and bool(np.all(np.abs(counts - target) <= 1.0))
    overlap = (polya.kept & hard.kept).sum() / polya.kept.sum()
    report(7, counts_ok and overlap > 0.5,
           f"per-block counts within +/-1 of {target:.1f}: {counts_ok}, "
           f"kept-set overlap {overlap:.2f} (want > 0.5)")


# --- brute-force measure oracles (independent of the library implementations)


def oracle_strength(net):
    out = np.zeros((net.n_entities, net.n_layers))
    for j in range(net.n_layers):
        for l in range(net.n_layers):
            for i in range(net.n_entities):
                for k in range(net.n_entities):
                    if net.kept[j, l, i, k]:
                        w = abs(net.blocks[j, l, i, k])
                        out[i, j] += w
                        out[k, l] += w
    return out


def oracle_overlap(net):
    n_l, n_e = net.n_layers, net.n_entities
    out = np.zeros((n_l, n_l))
    for j in range(n_l):
        for l in range(n_l):
            out[j, l] = sum(
                1
                for i in range(n_e)
                for k in range(n_e)
                if i != k and net.kept[j, j, i, k] and net.kept[l, l, i, k]
            )
    return out


def oracle_assortativity(net):
    n_l = net.n_layers
    degs = [net.kept[j, j].sum(1) + net.kept[j, j].sum(0) for j in range(n_l)]
    out = np.full((n_l, n_l), np.nan)
    for j in range(n_l):
        for l in range(n_l):
            a = degs[j] - degs[j].mean()
            b = degs[l] - degs[l].mean()
            den = math.sqrt(float(a @ a) * float(b @ b))
            if den > 0:
                out[j, l] = 1.0 if j == l else float(a @ b) / den
    return out


def oracle_coreness(net):
    n_e, n_l = net.n_entities, net.n_layers
    neighbors = {(i, j): set() for i in range(n_e) for j in range(n_l)}
    for j in range(n_l):
        for l in range(n_l):
            for i in range(n_e):
                for k in range(n_e):
                    if net.kept[j, l, i, k] and (i, j) != (k, l):
                        neighbors[(i, j)].add((k, l))
                        neighbors[(k, l)].add((i, j))
    alive = set(neighbors)
    core = {v: 0 for v in alive}
    k = 1
    while alive:
        changed = True
        while changed:
            doomed = {v for v in alive
                      if len(neighbors[v] & alive) < k}
            changed = bool(doomed)
            alive -= doomed
        for v in alive:
            core[v] = k
        k += 1
    out = np.zeros((n_e, n_l), dtype=int)
    for (i, j), c in core.items():
        out[i, j] = c
    return out


def test_c08_measures_match_brute_force():
    """100 seeded networks up to 40 x 4: all four measures match oracles."""
    rng = np.random.default_rng(808)
    failures = []
    for run in range(100):
        n_e = int(rng.integers(5, 41))
        n_l = int(rng.integers(1, 5))
        keep_prob = float(rng.uniform(0.02, 0.2))
        shape = (n_l, n_l, n_e, n_e)
        net = MultilayerNetwork(
            entity_labels=[f"E{i}" for i in range(n_e)],
            layer_labels=[f"L{j}" for j in range(n_l)],
            blocks=rng.standard_normal(shape),
            kept=rng.random(shape) < keep_prob,
            p_values=np.full(shape, np.nan),
        )
        if not np.allclose(node_strength(net), oracle_strength(net), atol=1e-12):
            failures.append((run, "strength"))
        if not np.array_equal(edge_overlap_matrix(net), oracle_overlap(net)):
            failures.append((run, "overlap"))
        got = assortativity_matrix(net)
        want = oracle_assortativity(net)
        mask = np.isnan(want)
        if not (np.array_equal(np.isnan(got), mask)
                and np.allclose(got[~mask], want[~mask], atol=1e-12)):
            failures.append((run, "assortativity"))
        if not np.array_equal(k_coreness(net), oracle_coreness(net)):
            failures.append((run, "coreness"))
    report(8, not failures, f"100 networks checked, mismatches: {failures or 'none'}")


def test_c09_end_to_end_recovery(tmp_path):
    """Pipeline on the bundled generator recovers the planted sparse support."""
    start = time.perf_counter()
    panel, b_star = generate_tar_panel(
        n_entities=10, n_layers=4, n_steps=2000, support_fraction=0.05,
        noise_scale=0.1, integration_order=0.3, seed=7,
    )
    config = PipelineConfig(
        alpha=0.3, lambda_grid=(0.0, 1.0, 5.0), retain_fraction=0.05,
        filter_method="polya", out_dir=str(tmp_path / "run"), seed=7,
    )
    run_pipeline(config, panel)
    b_hat = np.load(os.path.join(config.out_dir, "model", "coefficient.npy"))
    support = b_star != 0.0
    sign_agreement = float(np.mean(
        np.sign(b_hat[support]) == np.sign(b_star[support])
    ))
    net = import_network(os.path.join(config.out_dir, "network.csv"))
    kept_as_coeff = net.kept.transpose(2, 0, 3, 1)  # kept[j,l,i,k] -> [i,j,k,l]
    precision = float((kept_as_coeff & support).sum() / kept_as_coeff.sum())
    elapsed = time.perf_counter() - start
    report(9, sign_agreement > 0.9 and precision > 0.6 and elapsed < 300.0,
           f"sign agreement {sign_agreement:.3f} (want > 0.9), filter precision "
           f"{precision:.3f} (want > 0.6), {elapsed:.0f}s (limit 300s)")


def test_c10_determinism(tmp_path):
    """Two identical runs produce byte-identical manifests and exports."""
    panel, _ = generate_tar_panel(n_entities=5, n_layers=2, n_steps=400, seed=3)
    out = tmp_path / "run"
    config = PipelineConfig(alpha=0.3, lambda_grid=(0.0, 5.0),
                            retain_fraction=0.2, out_dir=str(out), seed=3)
    run_pipeline(config, panel)
    first = tmp_path / "first"
    shutil.copytree(out, first)
    run_pipeline(config, panel)
    mismatched = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out)
            with open(path, "rb") as fa, open(first / rel, "rb") as fb:
                if fa.read() != fb.read():
                    mismatched.append(rel)
    n_files = sum(len(fs) for _, _, fs in os.walk(out))
    report(10, not mismatched,
           f"{n_files} files compared, differing: {mismatched or 'none'}")
