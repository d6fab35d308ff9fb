"""One benchmark run of one workload, in its own process.

Started by ``run.py`` with the BLAS thread cap already in the environment.
Sets up (import, seeded input CSV, a quick-size warm-up pass), then repeats
the workload back to back - a closed loop with one client - until
``--seconds`` have passed, checks the artifacts outside the timed region and
prints the metrics; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

MIN_REPS = 3
SETUP_REPEATS = 3
STAGES = ("ingest", "fracdiff", "fit", "build-network", "filter", "measure")


def _timed_ratio(num, den):
    return num / den if den > 0.0 else 0.0


def layer_metrics(s: dict, run_s: float) -> dict:
    """Per-layer metrics of one traced run, from :func:`tracing.summarize`."""
    inc, calls, counts = s["inclusive_s"], s["calls"], s["counts"]
    m = {}

    def seconds(name):
        m[name + ".s"] = inc.get(name, 0.0)

    def ncalls(name):
        m[name + ".calls"] = calls.get(name, 0)

    for name in ("panel.ingest_csv", "panel.export_panel",
                 "fracdiff.find_min_alpha", "fracdiff.fracdiff_apply",
                 "regression.select_lambda", "regression.als_fit",
                 "regression.predicted_r2", "tensor_ops.mode_multiply",
                 "tensor_ops.tucker_reconstruct", "netfilter.polya_filter",
                 "netfilter.hard_threshold_filter", "multinet.from_coefficient",
                 "multinet.apply_filter", "multinet.k_coreness",
                 "pipeline.prepare_panel", "pipeline.fit_model",
                 "pipeline.filter_network", "pipeline.compute_measures",
                 "pipeline.save_model", "pipeline.export_network.csv",
                 "pipeline.export_network.graphml",
                 "pipeline.export_network.dot", "pipeline.export_matrices",
                 "pipeline.import_network"):
        seconds(name)
    for stage in STAGES:
        seconds("cli.main." + stage)
    for name in ("panel.ingest_csv", "fracdiff.adf_test",
                 "fracdiff.fracdiff_apply", "regression.als_fit",
                 "regression.closed_form_fit", "tensor_ops.mode_multiply",
                 "tensor_ops.tucker_reconstruct", "netfilter.polya_filter",
                 "multinet.k_coreness", "multinet.node_strength",
                 "pipeline.import_network"):
        ncalls(name)
    for name in ("panel.ingest_csv.rows", "panel.export_panel.bytes",
                 "regression.als_fit.sweeps", "regression.als_fit.unconverged",
                 "netfilter.polya_filter.edges"):
        m[name] = counts.get(name, 0)
    m["panel.ingest_csv.rows_per_s"] = _timed_ratio(
        m.pop("panel.ingest_csv.rows"), m["panel.ingest_csv.s"])
    m["regression.sweep_s"] = _timed_ratio(m["regression.als_fit.s"],
                                           m["regression.als_fit.sweeps"])
    m["netfilter.edges_per_s"] = _timed_ratio(m["netfilter.polya_filter.edges"],
                                              m["netfilter.polya_filter.s"])
    m["pipeline.bytes_written"] = sum(
        counts.get(f"pipeline.{fn}.bytes", 0)
        for fn in ("export_network", "export_matrices", "save_model"))
    for layer, value in s["self_s"].items():
        m[layer + ".self_s"] = value
    m["trace.run_s"] = run_s
    m["trace.glue_s"] = s["glue_s"]
    m["trace.spans"] = s["n_spans"]
    return m


# Per-layer metrics that count work; they must repeat exactly between runs.
EXACT = ("regression.als_fit.calls", "regression.als_fit.sweeps",
         "tensor_ops.mode_multiply.calls", "fracdiff.adf_test.calls",
         "netfilter.polya_filter.edges", "multinet.k_coreness.calls",
         "pipeline.import_network.calls", "pipeline.bytes_written",
         "panel.export_panel.bytes")


def environment(blas_threads: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    import multitar.pipeline
    import tracing

    src = os.path.realpath(os.path.join("src", "multitar"))
    loaded = os.path.dirname(os.path.realpath(multitar.__file__))
    if loaded != src:
        print(f"error: multitar imported from {loaded}, expected {src}",
              file=sys.stderr)
        return 2

    work = args.workdir
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    input_csv = os.path.join(work, "input.csv")
    input_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workloads.make_input(args.workload, args.size, args.seed, input_csv)
        input_s.append(time.perf_counter() - t)
    # One quick-size pass fills lazy caches and imports the same way on
    # every commit; its cost is part of set-up.
    t = time.perf_counter()
    warm_csv = os.path.join(work, "warm.csv")
    workloads.make_input(args.workload, "quick", args.seed, warm_csv)
    workloads.run(args.workload, warm_csv, os.path.join(work, "warm"))
    warm_s = time.perf_counter() - t
    setup_s = import_s + statistics.median(input_s) + warm_s

    captured = []
    filter_network = multitar.pipeline.filter_network

    def capture(*a, **k):
        result = filter_network(*a, **k)
        captured.append(result[0])
        return result

    untraced, layer_runs = [], []
    failures = []
    ref_digests = ref_dir = None
    attempted = 0
    tracer = None
    deadline = time.perf_counter() + args.seconds
    n_min = MIN_REPS if not args.trace else 2 * MIN_REPS
    while attempted < n_min or time.perf_counter() < deadline:
        k = attempted
        attempted += 1
        out = os.path.join(work, "out")  # the manifest records out_dir
        shutil.rmtree(out, ignore_errors=True)
        trace_this = bool(args.trace) and k % 2 == 1
        if ref_dir is None:
            multitar.pipeline.filter_network = capture
        if trace_this:
            tracer = tracing.Tracer()
            tracer.install()
        t = time.perf_counter()
        try:
            workloads.run(args.workload, input_csv, out)
            err = None
        except Exception as exc:  # a failed run is counted, not fatal
            err = f"run {k} raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if trace_this:
            tracer.uninstall()
        multitar.pipeline.filter_network = filter_network
        if err is None:
            got = workloads.digests(out)
            if ref_digests is None:
                ref_digests, ref_filtered = got, captured[-1]
                ref_dir = os.path.join(work, "checked")
                os.rename(out, ref_dir)
            elif got != ref_digests:
                err = f"run {k} artifacts differ from the checked run"
        if err is not None:
            failures.append(err)
            continue
        if trace_this:
            layer_runs.append(layer_metrics(tracing.summarize(tracer, dt), dt))
        else:
            untraced.append(dt)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = list(failures)
    n_failed = len(failures)
    if ref_dir is not None:
        bad = workloads.check(args.workload, args.size, args.seed, ref_dir,
                              ref_filtered)
        if bad:
            # every run that succeeded wrote the same bytes as the checked one
            errors += bad
            n_failed = attempted
    if not untraced or (args.trace and not layer_runs):
        for e in errors:
            print("FAIL " + e, file=sys.stderr)
        print("error: no successful run to measure", file=sys.stderr)
        return 1
    env = environment(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} size={args.size} "
          f"{workloads.SIZES[args.workload][args.size]} seed={args.seed}: "
          f"{attempted} runs, {n_failed} failed")

    run_s = statistics.median(untraced)
    if not args.trace:
        metrics = {
            "run_s": (run_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_frac": ((attempted - n_failed) / attempted, "ratio"),
        }
        print(f"run_s samples={len(untraced)} median={run_s:.4f} "
              f"all={[round(v, 3) for v in untraced]}; "
              f"setup_s import={import_s:.4f} "
              f"input={statistics.median(input_s):.4f} warm={warm_s:.4f}")
    else:
        metrics = {}
        for name, first in layer_runs[0].items():
            values = [r[name] for r in layer_runs]
            if isinstance(first, int):
                if any(v != first for v in values):
                    errors.append(f"count {name} varies between runs: {values}")
                metrics[name] = (first, "bytes" if "bytes" in name
                                 else "count")
            else:
                metrics[name] = (statistics.median(values),
                                 "1/s" if name.endswith("_per_s") else "s")
        traced_s = metrics["trace.run_s"][0]
        metrics["trace.untraced_run_s"] = (run_s, "s")
        metrics["trace.overhead_s"] = (traced_s - run_s, "s")
        print(f"traced run_s samples={len(layer_runs)} median={traced_s:.4f} "
              f"all={[round(r['trace.run_s'], 3) for r in layer_runs]}, "
              f"untraced median={run_s:.4f} "
              f"all={[round(v, 3) for v in untraced]}, "
              f"overhead {traced_s - run_s:.4f}")
        last = layer_runs[-1]
        self_sum = sum(v for n, v in last.items() if n.endswith(".self_s"))
        print(f"last traced run: module self_s sum {self_sum:.6f} + glue "
              f"{last['trace.glue_s']:.6f} = run_s {last['trace.run_s']:.6f}")
        print("exact counts " + json.dumps(
            {n: metrics[n][0] for n in EXACT}, sort_keys=True))
        trace_path = os.path.join(work, f"trace-seed{args.seed}.json")
        t_first = tracer.spans[0][1]
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                       "size": args.size,
                       "metrics": {n: v for n, (v, _) in metrics.items()},
                       "spans": [[n, a - t_first, b - t_first, p]
                                 for n, a, b, p in tracer.spans]}, fh)
        print(f"spans of the last traced run -> {trace_path}")
    for e in errors:
        print("FAIL " + e)

    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value!r:>24} {unit}")
    shutil.rmtree(ref_dir, ignore_errors=True)
    for leftover in ("out", "warm", "warm.csv", "input.csv"):
        path = os.path.join(work, leftover)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
