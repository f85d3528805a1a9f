"""Per-layer probe of the traced run.

Each public function is called on fixed inputs drawn from the run's seed,
inside a span named after it; a metric is the median span duration, divided
by the calls in the span where one call is too short to time alone.  The
probe is the same in every workload, so a layer's figure can be read next
to any workload's end-to-end figures.  ``PER_LAYER`` lists every metric
with its unit; BENCHMARK.json lists the same names.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

from qconc import (
    canonical_indices,
    d_lower_bound,
    eof_lower_bound,
    eof_pure,
    example_3x3_bound,
    generalized_concurrence_D,
    lambda_spectrum,
    ppt_check,
    random_form_a_state,
    sqrt_psd,
    takagi,
    tau_matrix,
    validate_density,
)
from qconc.cli import dispatch, load_state
from qconc.errors import ProfileMismatch
from qconc.mixed import eigen_vectors_subnormalized
from qconc.purestate import profile_from_values
from qconc.report import file_digest, report_to_json
from qconc.roofopt import (
    PROFILE_TOL,
    AverageD,
    AverageE,
    RoofProblem,
    average_objective,
    minimize_roof,
    transform_decomposition,
)
from qconc.sampling import generator, haar_unitary, random_form_a_mixture
from qconc.spectra import EigFamily, eof_of_d, lemma_value

import tracing
from workloads import BELL, CORPUS_SIZE, FORM_A, ROOF_KNOBS, WERNER, corpus_mixture, corpus_rank, eof3_input, random_mixture

DISPATCH = {
    "check": ["check", BELL, "--json"],
    "bound": ["bound", WERNER, "--eof", "--json"],
    "concurrence": ["concurrence", BELL, "--json"],
    "eof-pure": ["eof-pure", BELL, "--json"],
    "lemma": ["lemma", "--family", "arith3", "--u", repr(1.0 / 3.0 - 0.1), "--v", "0.1", "--json"],
    "invariance": ["invariance", BELL, "--trials", "3", "--json"],
}

PER_LAYER = (
    [("cli.python_start_s", "s"), ("cli.import_s", "s"), ("cli.load_state_ms", "ms")]
    + [(f"cli.dispatch_ms.{c}", "ms") for c in DISPATCH]
    + [("linalg.sqrt_psd_us.n3", "us"), ("linalg.sqrt_psd_us.n6", "us"), ("linalg.takagi_us.n3", "us")]
    + [(f"mixed.d_lower_bound_ms.n{N}", "ms") for N in range(2, 9)]
    + [
        ("mixed.lambda_spectrum_us.n3", "us"),
        ("mixed.lambda_spectrum_us.n6", "us"),
        ("mixed.indices.n3", "count"),
        ("mixed.indices.n6", "count"),
        ("mixed.validate_density_us.n3", "us"),
        ("mixed.validate_density_us.n6", "us"),
        ("mixed.ppt_check_us.n3", "us"),
        ("mixed.eof_lower_bound_us.n2", "us"),
        ("mixed.eof_lower_bound_us.n3", "us"),
        ("mixed.example_3x3_bound_us", "us"),
        ("purestate.profile_from_values_us.match", "us"),
        ("purestate.profile_from_values_us.mismatch", "us"),
        ("purestate.generalized_concurrence_D_us", "us"),
        ("purestate.eof_pure_us", "us"),
        ("roofopt.sweeps.d", "count"),
        ("roofopt.sweeps.e", "count"),
        ("roofopt.sweep_ms.d", "ms"),
        ("roofopt.sweep_ms.e", "ms"),
        ("roofopt.minimize_roof_s.d.rank2", "s"),
        ("roofopt.minimize_roof_s.d.rank3", "s"),
        ("roofopt.minimize_roof_s.e.rank2", "s"),
        ("roofopt.minimize_roof_s.e.rank3", "s"),
        ("roofopt.unconverged", "count"),
        ("roofopt.average_objective_us", "us"),
        ("roofopt.transform_decomposition_us", "us"),
        ("spectra.eof_of_d_us", "us"),
        ("spectra.lemma_value_us", "us"),
        ("sampling.random_form_a_mixture_us", "us"),
        ("sampling.haar_unitary_us", "us"),
        ("report.report_to_json_us", "us"),
        ("report.file_digest_us", "us"),
        ("host.ref_kernel_ms", "ms"),
        ("src.lines", "count"),
        ("trace.overhead_pct", "%"),
    ]
)

UNITS = dict(PER_LAYER)
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class _Probe:
    def __init__(self):
        self.tr = tracing.Tracer()
        self.out: dict[str, float] = {}

    def time(self, metric: str, span: str, tag: str, fn, *args, reps: int = 5, batch: int = 1):
        """Median over ``reps`` spans of ``batch`` calls each, per call, in the metric's unit."""
        for _ in range(reps):
            with self.tr.span(span, tag):
                for _ in range(batch):
                    fn(*args)
        self.out[metric] = SCALE[UNITS[metric]] * self.tr.median(span, tag) / batch


def _mismatch(lam):
    try:
        profile_from_values(lam, 1, 2, PROFILE_TOL, allow_coincident=True)
    except ProfileMismatch:
        return
    raise AssertionError("a three-value spectrum matched the (1, 2) profile")


def _child_seconds(code: str) -> float:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def measure(seed: int) -> tuple[dict[str, float], tracing.Tracer]:
    p = _Probe()
    out = p.out
    with p.tr.span("probe"):
        _cli(p)
        _kernels(p, seed)
        _roofs(p)
        _small(p, seed)
    return out, p.tr


def _cli(p: _Probe) -> None:
    imports = []
    for _ in range(5):
        with p.tr.span("cli.python_start"):
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        imports.append(_child_seconds(
            "import time; t = time.perf_counter(); import qconc.cli; print(time.perf_counter() - t)"))
    p.out["cli.python_start_s"] = p.tr.median("cli.python_start")
    p.out["cli.import_s"] = sorted(imports)[2]
    p.time("cli.load_state_ms", "cli.load_state", "", load_state, FORM_A, reps=11, batch=5)
    for name, argv in DISPATCH.items():
        p.time(f"cli.dispatch_ms.{name}", "cli.dispatch", name, dispatch, argv, reps=7)
    report, _ = dispatch(DISPATCH["bound"])
    p.time("report.report_to_json_us", "report.report_to_json", "", report_to_json, report, reps=11, batch=200)
    p.time("report.file_digest_us", "report.file_digest", "", file_digest, FORM_A, reps=11, batch=50)


def _kernels(p: _Probe, seed: int) -> None:
    rho = {N: random_mixture(N, N * N, seed, 30, N) for N in range(2, 9)}
    for N in range(2, 9):
        reps = 7 if N <= 6 else 3
        p.time(f"mixed.d_lower_bound_ms.n{N}", "mixed.d_lower_bound", f"n{N}", d_lower_bound, rho[N], 1, 2, reps=reps)
    for N in (3, 6):
        p.time(f"linalg.sqrt_psd_us.n{N}", "linalg.sqrt_psd", f"n{N}", sqrt_psd, rho[N].matrix, reps=11, batch=20)
        p.time(f"mixed.validate_density_us.n{N}", "mixed.validate_density", f"n{N}",
               validate_density, rho[N].matrix, N, reps=11, batch=20)
        indices = canonical_indices(N)
        p.out[f"mixed.indices.n{N}"] = len(indices)
        for idx in indices:
            with p.tr.span("mixed.lambda_spectrum", f"n{N}"):
                lambda_spectrum(rho[N], idx)
        p.out[f"mixed.lambda_spectrum_us.n{N}"] = 1e6 * p.tr.median("mixed.lambda_spectrum", f"n{N}")
    tau = tau_matrix(rho[3], canonical_indices(3)[0])
    p.time("linalg.takagi_us.n3", "linalg.takagi", "n3", takagi, tau, reps=11, batch=20)
    p.time("mixed.ppt_check_us.n3", "mixed.ppt_check", "n3", ppt_check, rho[3], reps=11, batch=20)
    p.time("mixed.eof_lower_bound_us.n2", "mixed.eof_lower_bound", "n2", eof_lower_bound, load_state(WERNER), 1, 2,
           reps=11, batch=20)
    p.time("mixed.eof_lower_bound_us.n3", "mixed.eof_lower_bound", "n3", eof_lower_bound,
           eof3_input(seed, 31), 1, 3, reps=11, batch=5)
    form_a = random_form_a_mixture(3, seed, 32)
    p.time("mixed.example_3x3_bound_us", "mixed.example_3x3_bound", "", example_3x3_bound, form_a, reps=11, batch=5)


def _roofs(p: _Probe) -> None:
    """One pass over the roof corpus, D and E, with the criterion-4 settings."""
    sweeps = {"d": 0, "e": 0}
    seconds = {"d": 0.0, "e": 0.0}
    unconverged = 0
    last = None
    for k in range(CORPUS_SIZE):
        rho = corpus_mixture(k)
        rank = corpus_rank(k)
        for kind, objective in (("d", AverageD(1, 2)), ("e", AverageE())):
            problem = RoofProblem(target=rho, objective=objective, t_max=rank, **ROOF_KNOBS)
            with p.tr.span("roofopt.minimize_roof", f"{kind}.rank{rank}"):
                res = minimize_roof(problem)
            span = p.tr.spans[-1]
            seconds[kind] += span[3] - span[2]
            sweeps[kind] += res.iterations
            unconverged += not res.converged
            last = (rho, res)
        for kind in ("d", "e"):
            p.out[f"roofopt.minimize_roof_s.{kind}.rank{rank}"] = p.tr.median("roofopt.minimize_roof", f"{kind}.rank{rank}")
    for kind in ("d", "e"):
        p.out[f"roofopt.sweeps.{kind}"] = sweeps[kind]
        p.out[f"roofopt.sweep_ms.{kind}"] = 1e3 * seconds[kind] / sweeps[kind]
    p.out["roofopt.unconverged"] = unconverged
    rho, res = last
    p.time("roofopt.average_objective_us", "roofopt.average_objective", "", average_objective,
           res.decomposition, AverageD(1, 2), reps=11, batch=20)
    vecs = eigen_vectors_subnormalized(rho)
    g = generator(0, 33)
    a = g.standard_normal((5, len(vecs))) + 1j * g.standard_normal((5, len(vecs)))
    iso, _ = np.linalg.qr(a)
    p.time("roofopt.transform_decomposition_us", "roofopt.transform_decomposition", "",
           transform_decomposition, vecs, iso, reps=11, batch=20)


def _small(p: _Probe, seed: int) -> None:
    psi = random_form_a_state(generator(seed, 34))
    lam = [0.7, 0.3, 0.0]
    p.time("purestate.profile_from_values_us.match", "purestate.profile_from_values", "match",
           profile_from_values, lam, 1, 2, PROFILE_TOL, True, reps=11, batch=200)
    p.time("purestate.profile_from_values_us.mismatch", "purestate.profile_from_values", "mismatch",
           _mismatch, [0.5, 0.3, 0.2], reps=11, batch=200)
    p.time("purestate.generalized_concurrence_D_us", "purestate.generalized_concurrence_D", "",
           generalized_concurrence_D, psi, 1, 2, reps=11, batch=100)
    p.time("purestate.eof_pure_us", "purestate.eof_pure", "", eof_pure, psi, reps=11, batch=100)
    p.time("spectra.eof_of_d_us", "spectra.eof_of_d", "", eof_of_d, 0.6, 1, reps=11, batch=500)
    fam = EigFamily("arith3", 1)
    p.time("spectra.lemma_value_us", "spectra.lemma_value", "", lemma_value, fam, (1.0 / 3.0 - 0.1, 0.1),
           reps=11, batch=50)
    keys = iter(range(10**6))
    p.time("sampling.random_form_a_mixture_us", "sampling.random_form_a_mixture", "",
           lambda: random_form_a_mixture(3, seed, 35, next(keys)), reps=11, batch=20)
    p.time("sampling.haar_unitary_us", "sampling.haar_unitary", "",
           lambda: haar_unitary(6, generator(seed, 36, next(keys))), reps=11, batch=50)
