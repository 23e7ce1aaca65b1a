"""quatgamma benchmark.

    python3 perfbench/run.py --workload {trace,conductor,tables,oracle} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up time is sampled in fresh interpreters, one at a time; then
one worker process runs the workload's task list in passes for ``--seconds``
seconds, with the BLAS/OpenMP pools pinned to ``THREADS`` threads.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median pass time),
``setup_s`` (median set-up time), ``peak_rss_mb`` (peak resident memory of the
worker) and ``err_margin_log10`` (decimal digits by which the worst checked
figure stays below its acceptance tolerance; ``err_log10`` is its negative).
``--trace 1`` wraps the public functions of each module and reports the
per-layer metrics of ``tracer.py``.  Either way every figure is checked, the
human-readable lines come first, and the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with provenance, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PACKAGE_DIR = os.path.join(ROOT, "src", "quatgamma")
OUT_DIR = os.path.join(ROOT, ".perfbench")

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "QUATGAMMA_THREADS")
SETUP_SAMPLES = 5  # the worker's own set-up is one of them
RUN_LIMIT_S = 170.0
WORKLOADS = ("trace", "conductor", "tables", "oracle")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "err_margin_log10": "log10"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def spawn(args: List[str], env: dict, timeout: float, procs: list) -> Tuple[dict, float]:
    """Run one worker; return its JSON output and its set-up time, from
    process start to the moment its inputs were built."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    procs.append(proc)
    out, _ = proc.communicate(timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    return result, result["ready"] - start


def tail_percentile(samples: List[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it."""
    k = len(samples) - 10
    if k < 1:
        return None
    return 100.0 * k / len(samples), sorted(samples)[k - 1]


def git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_record() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_quatgamma_lines": lines, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: no package source at {PACKAGE_DIR}; run from a source checkout", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must be in (0, 60]", file=sys.stderr)
        return 2

    began = time.monotonic()
    env = child_env()
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scratch", scratch]
    procs: list = []
    try:
        setups = [spawn(common + ["--seconds", "0", "--trace", "0", "--setup-only"], env, 60.0, procs)[1]
                  for _ in range(SETUP_SAMPLES - 1)]
        result, setup = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                              env, RUN_LIMIT_S - (time.monotonic() - began), procs)
        setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)

    passes = result["untraced"] + result["traced"]
    attempted = sum(p["tasks"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    problems = result["tracer_problems"]
    for problem in problems:
        print(f"TRACER {problem}", file=sys.stderr)
    figures = [tuple(f) for p in passes for f in p["figures"]]
    worst = max((f for f in figures if f[1] > 0), key=lambda f: f[1] / f[2], default=None)
    err_log10 = math.log10(worst[1] / worst[2]) if worst else 0.0

    times = [p["wall_s"] for p in result["untraced"]]
    provenance = dict(result["provenance"], nproc=os.cpu_count(), workload=args.workload,
                      seed=args.seed, trace=args.trace, commit=git_commit(),
                      threads={var: env[var] for var in THREAD_VARS}, **source_record())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['untraced'])} untraced + {len(result['traced'])} traced  "
          f"threads {THREADS} of {os.cpu_count()}")
    run_s = statistics.median(times)
    tail = tail_percentile(times)
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else "no percentile has 10 samples beyond it")
    print(f"  run_s            {run_s:.4f} s   median of {len(times)} passes; {tail_text}")
    print(f"  setup_s          {statistics.median(setups):.4f} s   median of {len(setups)} fresh interpreters")
    if not args.trace:
        print(f"  peak_rss_mb      {result['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac      {len(failures) / attempted:.4f}   {len(failures)} of {attempted} tasks")
    if worst:
        print(f"  err_log10        {err_log10:.3f}   worst: {worst[0]} = {worst[1]:.3e}, tolerance {worst[2]:.0e}")
    print(f"  err_margin_log10 {-err_log10:.3f} log10")

    if args.trace:
        import tracer

        layers = result["layers"]
        for name, value in layers.items():
            kind = "computed" if tracer.is_count(name) else "measured"
            print(f"  {name:<45} {value:.6g} {tracer.unit_of(name)} ({kind})")
        for layer, moves in tracer.PREDICTIONS.items():
            print(f"  predicted: {layer} -> {moves}")
        metrics = {name: {"value": value, "unit": tracer.unit_of(name)} for name, value in layers.items()}
    else:
        values = {"run_s": run_s, "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"], "err_margin_log10": -err_log10}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print("provenance " + json.dumps(provenance, sort_keys=True))

    record = {"provenance": provenance, "metrics": metrics, "setup_samples": setups,
              "run_samples": times, "failures": failures, "tracer_problems": problems, "passes": passes}
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
