"""Command-line front end: verification sweeps as machine-readable tables.

Subcommands emit CSV tables (UTF-8, comma, LF, header row) whose first
line is the run manifest as a '#'-prefixed JSON comment, plus a
``.summary.json`` next to each table.  Floats are printed with 17
significant digits so a rerun with the same manifest is bit-identical.
A table is columns, not rows: key columns shared by every sector and one
block of value columns per sector N, formatted a block at a time.
Wall-clock duration lives only in the JSON summary: embedding it in the
CSV would break that rerun contract.

Exit codes: 0 success, 1 numerical failure (quadrature or convergence
guards), 2 usage error.

Each command returns its figures and its table or report printer to one
runner, ``_run``, the only code that reads the clock, writes and prints.
Numerical imports follow each command's argument checks, so a refusal
exits 2 before numpy loads.  Threads follow OMP_NUM_THREADS/OPENBLAS_NUM_THREADS.

Tables and summaries are written to a temporary file beside the target
and renamed over it, so a run that fails part-way leaves the previous
file as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
import time
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

from . import __version__
from ._errors import AliasingError, DecayError, NonConvergenceError, QuadratureError

if TYPE_CHECKING:
    import numpy as np


# largest table a command writes, in rows (sectors x grid points), counted
# from the arguments before any allocation
_MAX_TABLE_ROWS = 1_000_000

# largest oracle-check box, M = 209: the command's tracemalloc peak is about
# 63 bytes per M^3 (orbit indices, (x0, s) tables and the sampler's temporaries
# on them; 62.3 measured at M = 129 and 161), 0.58 GB at M = 209, within the
# 0.65 GB of 67^4 points at 32 bytes
_MAX_ORACLE_GRID_M = 209
_ORACLE_BYTES_PER_CUBE = 63

# largest oracle-check work, probes x (M^3 + 2000): a probe's transform took 12 ns
# per offset plus 22 us (one thread, 2-vCPU Xeon); 6 probes at the largest box
_ORACLE_PROBE_OVERHEAD = 2000
_MAX_ORACLE_PROBE_WORK = 6 * (_MAX_ORACLE_GRID_M**3 + _ORACLE_PROBE_OVERHEAD)

# largest trace_direct run, in bytes of its fine-pass node arrays (see
# _trace_direct_bytes); peak RSS of a warmed-up process grew by 96 to 97
# bytes per node at cutoffs 1e8 to 1.6e9: both passes' kernel values, the
# fine rule, its Bessel factor and integrand (profile_value spreads in blocks)
_MAX_TRACE_DIRECT_BYTES = 1e9
_TRACE_DIRECT_BYTES_PER_NODE = 100

# largest sector functional-eq runs: the moment quadrature's own limit
# (additive_oracle._MOMENT_QUADRATURE_MAX_N)
_MAX_MOMENT_N = 337

# one sector of a table: N (None: no sector column) and its value columns
_Block = Tuple[Optional[int], Sequence["np.ndarray"]]


class _UsageError(ValueError):
    """Semantic argument failure: reported on stderr with exit code 2."""


# ------------------------------------------------------------------ plumbing


def _manifest(args: argparse.Namespace) -> Dict[str, object]:
    """The run manifest: the command, the package version and every flag
    of the command that has a value, less --out."""
    out: Dict[str, object] = {"command": args.command, "version": __version__}
    out.update((k, v) for k, v in vars(args).items() if k not in ("command", "func", "out") and v is not None)
    return out


def _row_major(columns: Sequence[list]) -> tuple:
    """The entries of equal-length columns, row by row, as one flat tuple."""
    flat: list = [None] * (len(columns) * len(columns[0]))
    for j, col in enumerate(columns):
        flat[j :: len(columns)] = col
    return tuple(flat)


def _write_csv(
    path: str,
    manifest: Dict[str, object],
    header: Sequence[str],
    keys: Sequence["np.ndarray"],
    blocks: Iterable[_Block],
) -> int:
    """Write rows N, keys, values: the bytes of a "%d"/"%.17g" row format.
    The key columns are formatted once per table, each block by one
    %-substitution as it is written, so one block's strings are alive at a
    time.  Returns the number of rows."""
    key_fmt = ",".join(["%.17g"] * len(keys)) + "\n"
    key_text = (key_fmt * len(keys[0]) % _row_major([k.tolist() for k in keys])).splitlines()
    rows = 0
    with _replacing(path) as fh:
        fh.write("# " + json.dumps(manifest, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for n, values in blocks:
            fmt = ("" if n is None else "%d," % n) + "%s" + ",%.17g" * len(values) + "\n"
            fh.write(fmt * len(key_text) % _row_major([key_text] + [v.tolist() for v in values]))
            rows += len(key_text)
    return rows


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """Open a temporary file beside path for writing.  When the block
    completes, the file replaces path in one rename; when it raises, the
    file is removed and path is left untouched."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _json_text(payload: Dict[str, object]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# a table: header, key columns and one block per sector
_Table = Tuple[Sequence[str], Sequence["np.ndarray"], List[_Block]]
# what a command returns: its figures, and either its table or how to print
# its report (the other is None)
_Output = Tuple[Dict[str, object], Optional[_Table], Optional[Callable[[Dict[str, object]], str]]]


def _run(args: argparse.Namespace) -> int:
    """Run the command and publish what it returns: a table goes to --out
    under the run manifest, with a summary beside it (manifest, duration,
    row count and the figures); a report (manifest, duration and the
    figures) is printed and, given --out, written there.  The duration
    covers the table write and ends before the report is printed."""
    clock = time.monotonic
    start = clock()
    figures, table, show = args.func(args)
    manifest = _manifest(args)
    report: Dict[str, object] = {"manifest": manifest, **figures}
    if table is not None:
        report["rows"] = _write_csv(args.out, manifest, *table)
    report["duration_seconds"] = clock() - start
    if show is not None:
        sys.stdout.write(show(report))
    path = args.out if table is None else re.sub(r"\.csv$", "", args.out) + ".summary.json"
    if path:
        with _replacing(path) as fh:
            fh.write(_json_text(report))
    return 0


def _finite_float(text: str) -> float:
    """The argparse type of every float flag: anything but a finite real
    is a usage error (exit 2, before any numerical import)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a real number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _check_table_size(sectors: range, points: float, what: str) -> None:
    """Refuse a table of more than _MAX_TABLE_ROWS rows: one row per sector
    and grid point."""
    n_sectors = sectors.stop - sectors.start
    if n_sectors * points > _MAX_TABLE_ROWS:
        raise _UsageError(
            f"{what} gives {n_sectors} sectors x {points:.3g} points per sector; "
            f"the limit is {_MAX_TABLE_ROWS} table rows"
        )


def _parse_s_grid(text: str, sectors: range) -> List[complex]:
    """'RxM' -> R interior real parts i/(R+1) times M imaginary parts on
    [-2, 2] (M = 1 collapses to the real axis).  '0x0' is the legal empty
    grid."""
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if m is None:
        raise _UsageError(f"--s-grid must look like 20x20, got {text!r}")
    n_re, n_im = int(m.group(1)), int(m.group(2))
    _check_table_size(sectors, n_re * n_im, "--s-grid")
    if n_re == 0 or n_im == 0:
        return []
    sigmas = [i / (n_re + 1) for i in range(1, n_re + 1)]
    if n_im == 1:
        imags = [0.0]
    else:
        imags = [-2.0 + 4.0 * j / (n_im - 1) for j in range(n_im)]
    return [complex(s, t) for s in sigmas for t in imags]


def _trace_direct_bytes(lam: float) -> float:
    """Memory trace_direct needs at cutoff lam: its fine pass evaluates
    about 40 + 2 lam^(1/2) radial panels of 24 nodes at once."""
    return (40.0 + 2.0 * math.sqrt(lam)) * 24 * _TRACE_DIRECT_BYTES_PER_NODE


def _parse_lambdas(text: str) -> Tuple[float, ...]:
    """Cutoffs by TraceConfig's rules, within the direct route's memory
    limit, which also keeps every kink -2 log(cutoff) in the v-window."""
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise _UsageError(f"--lambda-list must be comma-separated reals, got {text!r}")
    if not vals:
        raise _UsageError("--lambda-list is empty")
    if not all(1.0 < v < math.inf for v in vals):
        raise _UsageError(f"--lambda-list cutoffs must be finite and exceed 1, got {text!r}")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise _UsageError(f"--lambda-list must be strictly increasing, got {text!r}")
    if _trace_direct_bytes(vals[-1]) > _MAX_TRACE_DIRECT_BYTES:
        raise _UsageError(
            f"--lambda-list cutoff {vals[-1]:g} needs about "
            f"{_trace_direct_bytes(vals[-1]) / 1e9:.1f} GB for the direct route's "
            f"node arrays; the limit is {_MAX_TRACE_DIRECT_BYTES / 1e9:.1f} GB"
        )
    return vals


def _tau_count(args: argparse.Namespace, sectors: range) -> int:
    if None in (args.tau_min, args.tau_max, args.tau_step):
        raise _UsageError("--tau-min, --tau-max and --tau-step are all required")
    if args.tau_step <= 0.0:
        raise _UsageError("--tau-step must be positive")
    if args.tau_max < args.tau_min:
        raise _UsageError("--tau-max must be at least --tau-min")
    span = (args.tau_max - args.tau_min) / args.tau_step
    count = int(math.floor(span + 0.5)) + 1 if math.isfinite(span) else math.inf
    _check_table_size(sectors, count, "the tau grid")
    return count


def _sector_range(args: argparse.Namespace) -> range:
    if args.n_min < 0:
        raise _UsageError("--n-min must be >= 0")
    if args.n_max < args.n_min:
        raise _UsageError("--n-max must be at least --n-min")
    return range(args.n_min, args.n_max + 1)


def _seeded_probes(count: int, seed: int):
    """count points in random directions at radii uniform on [0.4, 0.9]."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 4))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= (0.4 + 0.5 * rng.random(count))[:, None]
    return pts


# ------------------------------------------------------------------ commands


def cmd_gamma_table(args: argparse.Namespace) -> _Output:
    sectors = _sector_range(args)
    tau_mode = not (args.tau_min is None and args.tau_max is None and args.tau_step is None)
    if tau_mode == (args.s_grid is not None):
        raise _UsageError("give either --s-grid or the --tau-min/--tau-max/--tau-step trio")
    grid = _tau_count(args, sectors) if tau_mode else _parse_s_grid(args.s_grid, sectors)

    import numpy as np

    from .specfun import gamma_factor

    if tau_mode:
        svals = 0.5 + 1j * (args.tau_min + args.tau_step * np.arange(grid))
    else:
        svals = np.asarray(grid, dtype=complex)

    blocks = []
    unit_err = 0.0
    for n in sectors:
        if len(svals) == 0:
            break
        vals = gamma_factor(n, svals)
        mags = np.abs(vals)
        if tau_mode:
            unit_err = max(unit_err, float(np.max(np.abs(mags - 1.0))))
        blocks.append((n, (vals.real, vals.imag, mags)))

    header = ("N", "re_s", "im_s", "re_gamma", "im_gamma", "abs_gamma")
    figures = {"max_unit_modulus_error": unit_err} if tau_mode else {}
    return figures, (header, (svals.real, svals.imag), blocks), None


def cmd_spectral_scan(args: argparse.Namespace) -> _Output:
    sectors = _sector_range(args)
    count = _tau_count(args, sectors)

    import numpy as np

    from .specfun import h_multiplier, k_multiplier

    taus = args.tau_min + args.tau_step * np.arange(count)

    blocks = []
    min_h = math.inf
    min_h_at = (0, 0.0)
    max_k = -math.inf
    max_k_at = (0, 0.0)
    for n in sectors:
        h = h_multiplier(n, taus)
        k = k_multiplier(n, taus)
        i = int(np.argmin(h))
        if h[i] < min_h:
            min_h, min_h_at = float(h[i]), (n, float(taus[i]))
        j = int(np.argmax(np.abs(k)))
        if abs(k[j]) > max_k:
            max_k, max_k_at = float(abs(k[j])), (n, float(taus[j]))
        blocks.append((n, (h, k)))

    return {
        "min_h": min_h,
        "min_h_at": list(min_h_at),
        "max_abs_k": max_k,
        "max_abs_k_at": list(max_k_at),
    }, (("N", "tau", "h", "k"), (taus,), blocks), None


def cmd_functional_eq(args: argparse.Namespace) -> _Output:
    sectors = _sector_range(args)
    if args.n_max > _MAX_MOMENT_N:
        raise _UsageError(
            f"--n-max {args.n_max} is above {_MAX_MOMENT_N}, the largest N whose "
            f"moment quadrature stays within 1e-12 of the exact moment"
        )
    svals = _parse_s_grid(args.s_grid, sectors)

    import numpy as np

    from .additive_oracle import (
        functional_equation_residual,
        gaussian_moment,
        gaussian_moment_quadrature,
    )

    svals = np.asarray(svals, dtype=complex)
    blocks = []
    worst_fe: List[float] = []
    worst_quad: List[float] = []
    for n in sectors:
        if len(svals) == 0:
            break
        fe = functional_equation_residual(n, svals)
        closed = gaussian_moment(n, svals)
        quad = np.abs(gaussian_moment_quadrature(n, svals) - closed) / np.abs(closed)
        blocks.append((n, (fe, quad)))
        worst_fe.append(float(fe.max()))
        worst_quad.append(float(quad.max()))

    header = ("N", "re_s", "im_s", "funceq_residual", "quad_residual")
    return {
        "max_funceq_residual": max(worst_fe, default=None),
        "max_quad_residual": max(worst_quad, default=None),
    }, (header, (svals.real, svals.imag), blocks), None


def cmd_oracle_check(args: argparse.Namespace) -> _Output:
    if args.probes < 1:
        raise _UsageError("--probes must be at least 1")
    if args.grid_m < 3 or args.grid_m % 2 == 0:
        raise _UsageError("--grid-m must be an odd integer >= 3")
    if args.grid_l <= 0.0:
        raise _UsageError("--grid-l must be positive")
    if args.grid_m > _MAX_ORACLE_GRID_M:
        cube = args.grid_m**3
        raise _UsageError(
            f"--grid-m {args.grid_m} needs about {_ORACLE_BYTES_PER_CUBE * cube / 1e9:.2f} GB "
            f"({args.grid_m}^3 = {cube:.3g} at {_ORACLE_BYTES_PER_CUBE} bytes each); the limit is "
            f"--grid-m {_MAX_ORACLE_GRID_M}"
        )
    work = args.probes * (args.grid_m**3 + _ORACLE_PROBE_OVERHEAD)
    if work > _MAX_ORACLE_PROBE_WORK:
        raise _UsageError(
            f"--probes {args.probes} at --grid-m {args.grid_m} needs {work:.3g} units of work "
            f"({args.probes} x ({args.grid_m}^3 + {_ORACLE_PROBE_OVERHEAD})); the limit is "
            f"{_MAX_ORACLE_PROBE_WORK:.3g}, 6 probes at --grid-m {_MAX_ORACLE_GRID_M}"
        )
    if args.seed < 0:
        raise _UsageError(f"--seed must be at least 0, got {args.seed}")

    import numpy as np

    from .additive_oracle import Grid4D, brute_fourier, isotypic_grid_function, omega_grid_function
    from .gamma_op import IsotypicFunction, fourier_transform, to_additive

    pts = _seeded_probes(args.probes, args.seed)
    exact = np.exp(-2.0 * np.pi * np.sum(pts * pts, axis=1))

    def self_dual_error(m: int) -> float:
        sampled = omega_grid_function(Grid4D(args.grid_l, m))
        got = brute_fourier(sampled, pts)
        return float(np.max(np.abs(got - exact) / exact))

    box = Grid4D(args.grid_l, args.grid_m)
    per_sector: Dict[str, float] = {}
    # narrow profile: its additive tail clears the box-boundary decay guard
    for n in (0, 1, 2):
        f = IsotypicFunction.from_log_function(
            n, lambda v: np.exp(-v**2 / (2.0 * 0.45**2))
        )
        got = brute_fourier(isotypic_grid_function(box, f), pts)
        want = to_additive(fourier_transform(f)).evaluate_points(pts)
        per_sector[str(n)] = float(np.max(np.abs(got - want) / np.abs(want)))

    return {
        "self_dual_error": self_dual_error(args.grid_m),
        "self_dual_error_m_halved": self_dual_error(max(3, (args.grid_m // 2) | 1)),
        "multiplier_vs_brute": per_sector,
    }, None, _json_text


def cmd_trace_sweep(args: argparse.Namespace) -> _Output:
    if args.n_min < 0:
        raise _UsageError("--n-min must be >= 0")
    if args.tol <= 0.0:
        raise _UsageError("--tol must be positive")
    lambdas = _parse_lambdas(args.lambda_list)

    import numpy as np

    from .connes_trace import TraceConfig, residual_sweep, trace_direct
    from .gamma_op import gaussian_isotypic, value_at_identity

    f = gaussian_isotypic(args.n_min)
    config = TraceConfig(f=f, lambdas=lambdas, tolerance=args.tol)

    results = residual_sweep(config)
    rows = []
    route_gap = 0.0
    for r in results:
        direct = trace_direct(f, r.lam, tol=config.tolerance)
        route_gap = max(route_gap, abs(direct - r.trace) / max(1.0, abs(r.trace)))
        rows.append((float(r.lam), direct.real, r.trace.real, r.residual.real))
    lams, *values = np.array(rows, dtype=float).T

    return {
        "slope": results[-1].slope.real,
        "intercept": results[-1].intercept.real,
        "f_at_1": value_at_identity(f).real,
        "h_at_1": results[0].h_term.real,
        "max_route_discrepancy": route_gap,
    }, (("lambda", "tr_direct", "tr_spectral", "residual"), (lams,), [(None, values)]), None


def cmd_g_constant(args: argparse.Namespace) -> _Output:
    from .specfun import G_CONSTANT, gamma0_expansion

    c1, c2 = gamma0_expansion()
    figures = {
        "epsilon_coefficient": c1,
        "epsilon2_coefficient": c2,
        "closed_form": G_CONSTANT,
        "difference": abs(c2 - G_CONSTANT),
    }
    labels = ("epsilon coefficient", "epsilon^2 coefficient", "closed form", "difference")
    return figures, None, lambda report: "".join(
        f"{label:<22} {report[key]:.17g}\n" for label, key in zip(labels, figures)
    )


# -------------------------------------------------------------------- parser


def _add_sector_flags(p: argparse.ArgumentParser, with_max: bool = True) -> None:
    p.add_argument("--n-min", type=int, default=0, help="lowest angular sector N")
    if with_max:
        p.add_argument("--n-max", type=int, default=0, help="highest angular sector N")


def _add_tau_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-min", type=_finite_float, default=None)
    p.add_argument("--tau-max", type=_finite_float, default=None)
    p.add_argument("--tau-step", type=_finite_float, default=None)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatgamma",
        description="Verification sweeps for the quaternionic Gamma factor stack.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma-table", help="Gamma factor values on an s- or tau-grid")
    _add_sector_flags(p)
    _add_tau_flags(p)
    p.add_argument("--s-grid", default=None, help="strip grid as RxM, e.g. 20x20")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_gamma_table)

    p = sub.add_parser("spectral-scan", help="h and k multipliers over a tau grid")
    _add_sector_flags(p)
    _add_tau_flags(p)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_spectral_scan)

    p = sub.add_parser("functional-eq", help="moment functional-equation residuals")
    _add_sector_flags(p)
    p.add_argument("--s-grid", default="20x20", help="strip grid as RxM")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_functional_eq)

    p = sub.add_parser("oracle-check", help="brute-force 4D Fourier cross-checks")
    p.add_argument("--grid-m", type=int, default=33, help="grid points per axis (odd)")
    p.add_argument("--grid-l", type=_finite_float, default=2.0, help="grid half extent")
    p.add_argument("--probes", type=int, default=6, help="number of probe points")
    p.add_argument("--seed", type=int, default=7, help="probe RNG seed")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("trace-sweep", help="truncated trace by both routes")
    _add_sector_flags(p, with_max=False)
    p.add_argument("--lambda-list", default="2,4,8,16,32,64", help="comma-separated cutoffs")
    p.add_argument("--tol", type=_finite_float, default=1e-8, help="tolerance of both trace routes")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_trace_sweep)

    p = sub.add_parser("g-constant", help="expansion constant of the moment pole")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_g_constant)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, NonConvergenceError, AliasingError, DecayError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
