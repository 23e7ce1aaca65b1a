"""One benchmark process: import the package, build a workload's inputs,
then run its task list in passes for the given number of seconds.

Started by ``run.py``; prints one JSON object on stdout.  With
``--setup-only`` it stops once the inputs are built, which is how
``run.py`` samples set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from workloads import NUMERICAL_ERRORS, Mismatch  # noqa: E402


def run_pass(wl: workloads.Workload) -> dict:
    failures, figures = [], []
    start = time.perf_counter()
    for name, task in wl.tasks:
        try:
            figs = task()
        except NUMERICAL_ERRORS + (Mismatch,) as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        except Exception as exc:  # an unexpected error fails the task, not the run
            traceback.print_exc()
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        missed = [f for f in figs if not f.ok]
        if missed:
            failures.append("; ".join(f"{name}: {f.name} = {f.value:.3e} > {f.tol:.0e}" for f in missed))
        figures += [(f.name, f.value, f.tol) for f in figs]
    wall = time.perf_counter() - start
    return {"wall_s": wall, "tasks": len(wl.tasks), "failures": failures, "figures": figures}


def self_check_sequence() -> None:
    """Calls that reach every import site the tracer must rebind, on
    profiles small enough to take a fraction of a second."""
    from quatgamma.additive_oracle import homogeneity_check, radial_fourier
    from quatgamma.connes_trace import trace_direct, trace_spectral
    from quatgamma.gamma_op import IsotypicFunction, to_additive

    f = IsotypicFunction.from_log_function(
        1, lambda v: np.exp(-0.5 * v * v), v_spacing=1 / 8, tau_spacing=1 / 32, tau_half_width=16.0
    )
    probe = np.array([[0.3, 0.1, 0.2, 0.0]])
    to_additive(f).evaluate_points(probe)
    trace_direct(f, 2.0, v_min=-4.0)
    trace_spectral(f, 2.0)
    homogeneity_check(1, 0.5 + 0.5j, f, u_half_width=1.0)
    radial_fourier(1, lambda r: r * np.exp(-2.0 * np.pi * r * r), probe, r_max=2.0)


SELF_CHECK_SITES = {
    ("gamma_op", "spectral_line.profile_value"): 1,
    ("connes_trace", "spectral_line.profile_value"): 1,
    ("additive_oracle", "spectral_line.profile_value"): 1,
    ("connes_trace", "su2_angular.angular_bessel"): 1,
    ("additive_oracle", "su2_angular.angular_bessel"): 1,
    ("gamma_op", "specfun.gamma_multiplier"): 1,
    ("connes_trace", "specfun.gamma_multiplier"): 1,
}


def provenance() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build record is optional in numpy
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import quatgamma

    if not os.path.abspath(quatgamma.__file__).startswith(SRC + os.sep):
        print(f"quatgamma imported from {quatgamma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    start = time.perf_counter()
    deadline = start + args.seconds
    untraced, traced, layers, problems = [], [], [], []
    # a traced run spends about a third of its time untraced, for the overhead;
    # two passes at least, so that tables can compare a rerun's CSVs
    untraced_until = start + args.seconds / 3.0 if args.trace else deadline
    while len(untraced) < 2 - args.trace or time.perf_counter() < untraced_until:
        untraced.append(run_pass(wl))
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tr.install()
        try:
            problems = tr.self_check(self_check_sequence, SELF_CHECK_SITES)
            while len(traced) < 2 or time.perf_counter() < deadline:
                tr.reset()
                wl.cli_bytes = 0
                result = run_pass(wl)
                metrics = tracer.layer_metrics(tr.spans, result["wall_s"])
                metrics["cli.bytes_written"] = wl.cli_bytes
                traced.append(result)
                layers.append(metrics)
        finally:
            tr.uninstall()
        for name in layers[0]:
            if tracer.is_count(name) and len({m[name] for m in layers}) != 1:
                problems.append(f"{name} differs between traced passes")
        median_untraced = statistics.median(p["wall_s"] for p in untraced)
        summary = {name: layers[0][name] if tracer.is_count(name) else statistics.median(m[name] for m in layers)
                   for name in layers[0]}
        summary["trace_overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / median_untraced - 1.0
        )
        layers = summary

    print(json.dumps({
        "ready": ready,
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "tracer_problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
