"""The benchmark's workloads: inputs made from the workload seed, and the
fixed task list that one pass runs.

Every task returns the figures it computed, each with the tolerance that
``tests/test_acceptance.py`` uses for the same quantity; a task fails when
it raises or when a figure misses its tolerance.  The package receives only
the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from quatgamma import AliasingError, DecayError, NonConvergenceError, QuadratureError
from quatgamma import cli
from quatgamma.additive_oracle import (
    Grid4D,
    GridFunction,
    brute_fourier,
    homogeneity_check,
    isotypic_grid_function,
    omega_grid_function,
    op_b_via_distribution,
    radial_fourier,
)
from quatgamma.connes_trace import TraceConfig, fit_trace_expansion, residual_sweep, trace_direct, trace_spectral
from quatgamma.gamma_op import (
    IsotypicFunction,
    gamma_transform,
    gaussian_isotypic,
    inversion,
    op_A,
    op_B,
    op_H,
    op_K,
    to_additive,
    value_at_identity,
)
from quatgamma.su2_angular import character

NUMERICAL_ERRORS = (QuadratureError, DecayError, AliasingError, NonConvergenceError)


class Mismatch(Exception):
    """A required condition other than a tolerance did not hold."""


@dataclass(frozen=True)
class Figure:
    name: str
    value: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.tol)


Task = Tuple[str, Callable[[], List[Figure]]]


@dataclass
class Workload:
    tasks: List[Task]
    scratch: str
    cli_bytes: int = 0
    first_csv: Dict[str, bytes] = field(default_factory=dict)

    def cli(self, argv: List[str], out: Optional[str]) -> Tuple[str, Dict[str, bytes]]:
        """Run the CLI in-process with its output files in a fresh directory;
        return its stdout and the files it wrote.  A non-zero exit fails.
        ``cli_bytes`` counts the CSV bytes only: the JSON summaries hold
        durations, so their length changes from run to run."""
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            if out is not None:
                argv = argv + ["--out", os.path.join(tmp, out)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            files = {}
            for name in sorted(os.listdir(tmp)):
                with open(os.path.join(tmp, name), "rb") as fh:
                    files[name] = fh.read()
        if code != 0:
            raise Mismatch(f"exit code {code}: {stderr.getvalue().strip()}")
        self.cli_bytes += sum(len(b) for name, b in files.items() if name.endswith(".csv"))
        return stdout.getvalue(), files

    def same_csv(self, name: str, data: bytes) -> None:
        """A rerun must write the same CSV, byte for byte."""
        first = self.first_csv.setdefault(name, data)
        if data != first:
            raise Mismatch(f"{name} differs from the first run's")


def rel(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)) / np.abs(want)))


def normwise_rel(got, want) -> float:
    """Largest difference relative to the largest reference value.  Used at
    seeded probes, where a probe near a zero of chi_N would make the
    pointwise ratio meaningless."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def seeded_probes(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    pts = rng.normal(size=(count, 4))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= (lo + (hi - lo) * rng.random(count))[:, None]
    return pts


def narrow_profile(n: int) -> IsotypicFunction:
    # additive tail clears the 4D grid boundary guard, unlike width 1
    return IsotypicFunction.from_log_function(n, lambda v: np.exp(-v**2 / (2.0 * 0.45**2)))


# ------------------------------------------------------------------- trace


def build_trace(seed: int, scratch: str) -> Workload:
    """Criterion 10 at two cutoffs per route: the residual sweep and the
    expansion fit for N = 0 cross-checked by the direct route at the top
    cutoff, and both routes for N = 1 at the lowest cutoff."""
    f0, f1 = gaussian_isotypic(0), gaussian_isotypic(1)
    f0_at_1 = value_at_identity(f0).real

    def sector0() -> List[Figure]:
        results = residual_sweep(TraceConfig(f=f0, lambdas=(8.0, 16.0)))
        h_at_1 = results[0].h_term
        r8, r16 = (abs(r.residual) for r in results)
        if not r16 < r8:
            raise Mismatch(f"residual does not decrease: |R(8)| {r8:.3e}, |R(16)| {r16:.3e}")
        slope, intercept = fit_trace_expansion(results)
        direct = trace_direct(f0, 16.0)
        return [
            Figure("N=0 route gap at 16", abs(direct - results[1].trace) / abs(results[1].trace), 1e-4),
            Figure("N=0 |R(16)|/|H|", r16 / abs(h_at_1), 1e-3),
            Figure("N=0 slope err", abs(slope - f0_at_1) / abs(f0_at_1), 5e-3),
            Figure("N=0 intercept err", abs(intercept + h_at_1.real) / abs(h_at_1), 1e-2),
        ]

    def sector1() -> List[Figure]:
        d, s = trace_direct(f1, 2.0), trace_spectral(f1, 2.0)
        return [Figure("N=1 route gap at 2", abs(d - s) / abs(s), 1e-4)]

    return Workload([("sweep N=0", sector0), ("routes N=1", sector1)], scratch)


# --------------------------------------------------------------- conductor

# One op_b_via_distribution call at the criterion-09 quadrature takes 58,368
# points and about 18 s on a 2-core machine, longer than a whole run.  The
# quadrature below keeps its layout with 2,688 points.
REDUCED_B_QUADRATURE = dict(log_floor=-24.0, nodes_per_panel=8, angular_nodes=16)


def build_conductor(seed: int, scratch: str) -> Workload:
    """Criterion 09 (dual-route B) for N = 0, 1 and criterion 08
    (homogeneity) at one seeded point s = 1/2 + it, 0 <= t <= 2, per
    sector: the criterion's own line and range."""
    rng = np.random.default_rng(seed)
    fs = [gaussian_isotypic(0), gaussian_isotypic(1)]
    strip = [complex(0.5, rng.uniform(0.0, 2.0)) for _ in fs]
    tasks: List[Task] = []
    for n, f in enumerate(fs):
        def dual_route(n=n, f=f) -> List[Figure]:
            spectral = value_at_identity(op_B(f))
            convolved = op_b_via_distribution(f, **REDUCED_B_QUADRATURE)
            return [Figure(f"N={n} dual-route B", abs(convolved - spectral) / abs(spectral), 1e-3)]

        def homogeneity(n=n, f=f, s=strip[n]) -> List[Figure]:
            return [Figure(f"N={n} homogeneity at s={s:.4f}", homogeneity_check(n, s, f), 1e-4)]

        tasks += [(f"dual-route B N={n}", dual_route), (f"homogeneity N={n}", homogeneity)]
    return Workload(tasks, scratch)


# ------------------------------------------------------------------ tables


def build_tables(seed: int, scratch: str) -> Workload:
    """The README's gamma-table (both modes), spectral-scan, functional-eq
    and g-constant invocations.  Their arguments are the README's, so the
    seed does not enter."""
    wl = Workload([], scratch)

    def gamma_tau() -> List[Figure]:
        _, files = wl.cli(["gamma-table", "--n-min", "0", "--n-max", "4", "--tau-min", "-10",
                           "--tau-max", "10", "--tau-step", "0.01"], "gamma.csv")
        wl.same_csv("gamma.csv", files["gamma.csv"])
        summary = json.loads(files["gamma.summary.json"])
        return [Figure("gamma-table unit modulus", summary["max_unit_modulus_error"], 1e-10)]

    def gamma_strip() -> List[Figure]:
        _, files = wl.cli(["gamma-table", "--n-max", "4", "--s-grid", "20x20"], "strip.csv")
        wl.same_csv("strip.csv", files["strip.csv"])
        if json.loads(files["strip.summary.json"])["rows"] != 5 * 400:
            raise Mismatch("strip table does not have 2000 rows")
        return []

    def scan() -> List[Figure]:
        _, files = wl.cli(["spectral-scan", "--n-max", "20", "--tau-min", "-100", "--tau-max", "100",
                           "--tau-step", "0.1"], "scan.csv")
        wl.same_csv("scan.csv", files["scan.csv"])
        if json.loads(files["scan.summary.json"])["rows"] != 21 * 2001:
            raise Mismatch("spectral scan does not have 42021 rows")
        return []

    def functional_eq() -> List[Figure]:
        _, files = wl.cli(["functional-eq", "--n-max", "6", "--s-grid", "20x20"], "residuals.csv")
        wl.same_csv("residuals.csv", files["residuals.csv"])
        summary = json.loads(files["residuals.summary.json"])
        return [
            Figure("functional-eq moment residual", summary["max_funceq_residual"], 1e-10),
            Figure("functional-eq quadrature residual", summary["max_quad_residual"], 1e-9),
        ]

    def g_constant() -> List[Figure]:
        stdout, _ = wl.cli(["g-constant"], None)
        diff = [line.split()[-1] for line in stdout.splitlines() if line.startswith("difference")]
        if len(diff) != 1:
            raise Mismatch("g-constant printed no difference line")
        return [Figure("g-constant |c2 - closed|", float(diff[0]), 1e-6)]

    wl.tasks = [("gamma-table tau", gamma_tau), ("gamma-table strip", gamma_strip),
                ("spectral-scan", scan), ("functional-eq", functional_eq), ("g-constant", g_constant)]
    return wl


# ------------------------------------------------------------------ oracle


def build_oracle(seed: int, scratch: str) -> Workload:
    """The README oracle-check, criteria 03 and 04 and the radial reduction
    against the 4D brute-force transform at seeded probes, and the
    criterion-07 operator identities."""
    rng = np.random.default_rng(seed)
    probes = seeded_probes(rng, 6, 0.4, 0.9)
    box = Grid4D(2.0, 33)
    profiles = [narrow_profile(n) for n in (0, 1, 2)]
    wl = Workload([], scratch)

    def oracle_check() -> List[Figure]:
        _, files = wl.cli(["oracle-check", "--grid-m", "33", "--grid-l", "2.0", "--probes", "6",
                           "--seed", "7"], "oracle.json")
        report = json.loads(files["oracle.json"])
        figs = [Figure("oracle-check self-dual", report["self_dual_error"], 1e-3)]
        figs += [Figure(f"oracle-check N={n} multiplier vs brute", v, 1e-2)
                 for n, v in sorted(report["multiplier_vs_brute"].items())]
        return figs

    def self_dual() -> List[Figure]:
        got = brute_fourier(omega_grid_function(box), probes)
        want = np.exp(-2.0 * np.pi * np.sum(probes * probes, axis=1))
        return [Figure("self-dual Gaussian", rel(got, want), 1e-3)]

    def multiplier() -> List[Figure]:
        figs = []
        for n, f in enumerate(profiles):
            got = brute_fourier(isotypic_grid_function(box, inversion(f)), probes)
            want = to_additive(gamma_transform(f)).evaluate_points(probes)
            figs.append(Figure(f"N={n} multiplier vs oracle", normwise_rel(got, want), 1e-2))
        return figs

    def radial() -> List[Figure]:
        figs = []
        for n in (1, 2):
            def q(r, n=n):
                return r**n * np.exp(-2.0 * np.pi * r**2)

            def phi(pts, n=n, q=q):
                r = np.linalg.norm(pts, axis=1)
                out = np.zeros(len(r), dtype=complex)
                nz = r > 0
                theta = np.arccos(np.clip(pts[nz, 0] / r[nz], -1.0, 1.0))
                out[nz] = character(n, theta) * q(r[nz])
                return out

            got = brute_fourier(GridFunction.from_function(box, phi), probes)
            want = radial_fourier(n, q, probes)
            figs.append(Figure(f"N={n} radial vs brute", normwise_rel(got, want), 1e-2))
        return figs

    def identities() -> List[Figure]:
        def gap(a, b):
            return float(np.max(np.abs(a.spectral_profile.samples - b.spectral_profile.samples)))

        worst = 0.0
        for n in (0, 1, 2):
            f = gaussian_isotypic(n)
            af, bf, kf = op_A(f), op_B(f), op_K(f)
            split = float(np.max(np.abs(op_H(f).spectral_profile.samples
                                        - af.spectral_profile.samples - bf.spectral_profile.samples)))
            comm = float(np.max(np.abs(1j * (op_B(af).spectral_profile.samples
                                             - op_A(bf).spectral_profile.samples)
                                       - kf.spectral_profile.samples)))
            h_inv = gap(op_H(inversion(f)), inversion(op_H(f)))
            k_inv = float(np.max(np.abs(op_K(inversion(f)).spectral_profile.samples
                                        + inversion(kf).spectral_profile.samples)))
            worst = max(worst, split, comm, h_inv, k_inv)
        return [Figure("operator identities", worst, 1e-6)]

    wl.tasks = [("oracle-check", oracle_check), ("self-dual Gaussian", self_dual),
                ("multiplier vs oracle", multiplier), ("radial vs brute", radial),
                ("operator identities", identities)]
    return wl


WORKLOADS = {
    "trace": build_trace,
    "conductor": build_conductor,
    "tables": build_tables,
    "oracle": build_oracle,
}
