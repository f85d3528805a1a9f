"""The three benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A run repeats whole rounds of the same
operations for about ``--seconds``, and every round must give the same
results as the first (results are deterministic for a given seed).
Each round interleaves the workload's own operations with a few companion
operations (one in-process bound at N = 3 and N = 6, one CLI call, one
rank-2 roof), so that every end-to-end metric is measured on every workload
over the same stretch of machine time.  Outputs are checked after the loop,
untimed, against ``oracles`` and against properties the method must have.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from qconc import (
    d_lower_bound,
    eof_lower_bound,
    example_3x3_bound,
    mix_pure_states,
    pure_density,
    validate_density,
)
from qconc.cli import dumps_state
from qconc.report import report_from_json, report_to_json
from qconc.roofopt import AverageD, AverageE, RoofProblem, minimize_roof
from qconc.sampling import generator, haar_unitary, random_form_a_mixture, random_pure

import oracles

FIXTURES = "fixtures"
BELL = os.path.join(FIXTURES, "bell.json")
WERNER = os.path.join(FIXTURES, "werner_p05.json")
FORM_A = os.path.join(FIXTURES, "form_a_mix.json")

# The roof corpus is fixed: one mixture's gap ranges from 0.01 to 0.29 and
# a rank-3 D roof from 1 to 5 s, so a corpus drawn per seed would move the
# corpus means by more than any bound.  Mixtures k = 0..4 of criterion 4's
# draw (ranks 2, 3, 2, 3, 2).
CORPUS_SEED = 104
CORPUS_SIZE = 5
ROOF_KNOBS = dict(restarts=2, tol=1e-7, max_sweeps=30)

# On the shared 2-core machine the reference figures come from, each core
# runs at two speeds about 40% apart and switches between them within
# seconds or stays in one for minutes, so raw wall times of identical code
# differ by up to 60% between 30-second runs.
# ref_kernel() is timed right before and right after every timed operation.
# A short operation's time is scaled by REF_KERNEL_S over the mean of the
# two kernel times around it; a roof, which lasts long enough for the speed
# to change under it, by REF_KERNEL_S over the median kernel time of the
# whole run.  Either gives the wall time at the speed where the kernel
# takes REF_KERNEL_S.  The kernel is fixed benchmark code, so a change to
# qconc moves the scaled times as it moves the raw ones.
REF_KERNEL_S = 1e-4
_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((16, 16))


def _kernel_body() -> float:
    acc = 0.0
    for i in range(1500):
        acc += i * 0.5
    np.linalg.svd(_KERNEL_MATRIX, compute_uv=False)
    return acc


def ref_kernel() -> float:
    """Seconds for a fixed piece of interpreter work and one 16 x 16 SVD.

    The body runs once untimed first, so that caches a CLI process just
    evicted do not count as a slower machine.
    """
    _kernel_body()
    t0 = time.perf_counter()
    _kernel_body()
    return time.perf_counter() - t0


def corpus_rank(k: int) -> int:
    return 2 + k % 2


def corpus_mixture(k: int):
    return random_form_a_mixture(corpus_rank(k), CORPUS_SEED, k)


def random_mixture(N: int, rank: int, seed: int, *key: int):
    states = [random_pure(N, generator(seed, *key, j)) for j in range(rank)]
    if rank == 1:
        return pure_density(states[0])
    weights = generator(seed, *key, rank).dirichlet(np.ones(rank))
    return mix_pure_states(weights, states)


def eof3_input(seed: int, *key: int):
    """w |psi><psi| + (1 - w) |00><00| at N = 3, for eof_lower_bound(n = 3).

    eof_lower_bound(n = 3) needs the (1, 3) bound below the arithmetic
    family's maximum 1/sqrt(3).  The bound is at most w times the pure
    state's (1, 3) value 3 sqrt(e2), so w is drawn to put that cap between
    0.3 and 0.9 of the maximum.
    """
    psi = random_mixture(3, 1, seed, *key).matrix
    cap = 1.5 * oracles.pure_bound(psi, 3)
    w = min(1.0, float(generator(seed, *key, 1).uniform(0.3, 0.9)) / math.sqrt(3.0) / cap)
    product = np.zeros((9, 9))
    product[0, 0] = 1.0
    return validate_density(w * psi + (1.0 - w) * product, 3)


class Workload:
    """Shared machinery: timed operations, round bookkeeping, companions."""

    name = ""

    def __init__(self, seed: int, rundir: str, tracer):
        self.seed = seed
        self.rundir = rundir
        self.tr = tracer
        self.samples: dict[str, list[float]] = {}  # raw seconds by metric key
        self.scaled: dict[str, list[float]] = {}  # the same at the reference speed
        self.kernel: list[float] = []  # every ref_kernel() time
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.records: list = []  # (key, payload) of the current round
        self.reference: list | None = None  # records of the first round
        self.values: dict[str, object] = {}  # first-round outputs by op id

    # -- operations -----------------------------------------------------
    def op(self, key: str, span: str, tag: str, ident: str, fn, *args):
        """Time one call; a raised exception counts as a failed operation."""
        self.attempted += 1
        before = ref_kernel()
        t0 = time.perf_counter()
        try:
            with self.tr.span(span, tag):
                out = fn(*args)
        except Exception as exc:  # the run goes on and reports the failure
            self.failed += 1
            self.errors.append(f"{ident}: {exc!r}")
            return None
        elapsed = time.perf_counter() - t0
        after = ref_kernel()
        self.kernel += [before, after]
        self.samples.setdefault(key, []).append(elapsed)
        self.scaled.setdefault(key, []).append(elapsed * REF_KERNEL_S / (0.5 * (before + after)))
        if self.reference is None:
            self.values[ident] = out
        return out

    def record(self, ident: str, payload) -> None:
        self.records.append((ident, payload))

    def cli(self, ident: str, argv: list[str]):
        """One `python -m qconc ... --json` process; returns its stdout."""
        cmd = [sys.executable, "-m", "qconc", *argv]

        def run():
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return proc.stdout

        out = self.op("cli", "cli.main", argv[0], ident, run)
        if out is not None:
            rep = json.loads(out)
            self.record(ident, [rep["results"], rep["flags"]])
        return out

    def bound(self, key: str, tag: str, ident: str, rho, m: int = 1, n: int = 2):
        val = self.op(key, "mixed.d_lower_bound", tag, ident, d_lower_bound, rho, m, n)
        self.record(ident, val)
        return val

    def roof(self, ident: str, rho, rank: int, objective):
        kind = "d" if isinstance(objective, AverageD) else "e"
        problem = RoofProblem(target=rho, objective=objective, t_max=rank, **ROOF_KNOBS)
        res = self.op(f"roof.{kind}", "roofopt.minimize_roof", f"{kind}.rank{rank}", ident,
                      minimize_roof, problem)
        if res is not None:
            self.record(ident, [res.value, res.iterations, res.converged])
        return res

    def end_round(self) -> None:
        if self.reference is None:
            self.reference = self.records
        elif self.records != self.reference:
            self.errors.append("a later round's results differ from the first round's")
        self.records = []

    def digest(self) -> str:
        canonical = json.dumps(self.reference or [], sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- companions -----------------------------------------------------
    def setup_companions(self) -> None:
        self.comp_n3 = random_mixture(3, 3, self.seed, 50, 3)
        self.comp_n6 = random_mixture(6, 3, self.seed, 50, 6)
        self.comp_roof = corpus_mixture(0)

    def companion_roofs(self) -> None:
        self.roof("roof.companion.d", self.comp_roof, 2, AverageD(1, 2))
        self.roof("roof.companion.e", self.comp_roof, 2, AverageE())

    def roof_set(self) -> list[tuple[str, object]]:
        """(op id prefix, density) of the roofs whose gaps are reported."""
        return [("roof.companion", self.comp_roof)]

    # -- checks ---------------------------------------------------------
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def check_cli_report(self, ident: str):
        """Exit 0 is implied by a stored output; re-emission must be byte-identical."""
        text = self.values.get(ident)
        if text is None:
            return None
        body = text.rstrip("\n")
        rep = report_from_json(body)
        self.expect(report_to_json(rep) == body, f"{ident}: report does not round-trip")
        return rep

    def check_roofs(self) -> dict[str, float]:
        """Roof minima against the bounds, the rebuilt density and the oracle value."""
        gaps = {"d": [], "e": []}
        for prefix, rho in self.roof_set():
            bound_d = d_lower_bound(rho, 1, 2)
            bound_e = eof_lower_bound(rho, 1, 2)
            for kind, bnd, recompute in (
                ("d", bound_d, oracles.roof_value_d),
                ("e", bound_e, oracles.roof_value_e),
            ):
                res = self.values.get(f"{prefix}.{kind}")
                if res is None:
                    continue
                members = [(p, psi.coeffs) for p, psi in res.decomposition.members]
                self.expect(res.value >= bnd - 1e-6, f"{prefix}.{kind}: minimum {res.value!r} below bound {bnd!r}")
                err = float(np.max(np.abs(oracles.rebuild(members) - rho.matrix)))
                self.expect(err <= 1e-9, f"{prefix}.{kind}: members rebuild the density to {err:.2e}")
                again = recompute(members)
                self.expect(abs(again - res.value) <= 1e-9,
                            f"{prefix}.{kind}: value {res.value!r} vs recomputed {again!r}")
                gaps[kind].append(res.value - bnd)
        return {k: math.fsum(v) / len(v) for k, v in gaps.items() if v}

    # -- metrics --------------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        gaps = self.check_roofs()
        s = self.scaled
        return {
            "cli_p50_s": statistics.median(s["cli"]),
            "bound_n3_ms": 1e3 * statistics.median(s["bound.n3"]),
            "bound_n6_ms": 1e3 * statistics.median(s["bound.n6"]),
            "roof_d_s": self.roof_mean("roof.d"),
            "roof_e_s": self.roof_mean("roof.e"),
            "roof_d_gap": gaps["d"],
            "roof_e_gap": gaps["e"],
        }

    def roof_mean(self, key: str) -> float:
        """Mean raw roof time scaled by the run's median kernel time."""
        return statistics.fmean(self.samples[key]) * REF_KERNEL_S / statistics.median(self.kernel)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def write_state(self, name: str, obj) -> str:
        path = os.path.join(self.rundir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_state(obj))
        return path


class CliOneshot(Workload):
    """One CLI process per operation over light subcommands."""

    name = "cli-oneshot"

    def setup(self) -> None:
        seed = self.seed
        self.rho2 = random_mixture(2, 3, seed, 1, 2)
        self.rho3 = random_mixture(3, 3, seed, 1, 3)
        self.rho4 = random_mixture(4, 2, seed, 1, 4)
        self.psi3 = random_pure(3, generator(seed, 2, 3))
        self.psi4 = random_pure(4, generator(seed, 2, 4))
        f = {
            "rho2": self.write_state("rho2.json", self.rho2),
            "rho3": self.write_state("rho3.json", self.rho3),
            "rho4": self.write_state("rho4.json", self.rho4),
            "psi3": self.write_state("psi3.json", self.psi3),
            "psi4": self.write_state("psi4.json", self.psi4),
        }
        g = generator(seed, 3)
        v = float(g.uniform(0.02, 0.2)) * (1.0 if g.random() < 0.5 else -1.0)
        u = 1.0 / 3.0 - v
        mn = ["--m", "1", "--n", "2"]
        self.commands = [
            ("check.bell", ["check", BELL, "--json"]),
            ("check.form_a", ["check", FORM_A, "--json"]),
            ("check.rho2", ["check", f["rho2"], "--json"]),
            ("bound.werner.eof", ["bound", WERNER, "--eof", "--json"]),
            ("bound.rho2", ["bound", f["rho2"], "--json"]),
            ("bound.rho3", ["bound", f["rho3"], *mn, "--json"]),
            ("bound.rho4", ["bound", f["rho4"], *mn, "--json"]),
            ("concurrence.bell", ["concurrence", BELL, "--json"]),
            ("concurrence.psi3", ["concurrence", f["psi3"], "--json"]),
            ("eof-pure.psi4", ["eof-pure", f["psi4"], "--json"]),
            ("lemma.arith3", ["lemma", "--family", "arith3", "--u", repr(u), "--v", repr(v), "--json"]),
            ("invariance.bell", ["invariance", BELL, "--trials", "3", "--json"]),
            ("invariance.rho2", ["invariance", f["rho2"], "--trials", "3", "--json"]),
        ]
        self.setup_companions()

    def round(self) -> None:
        for k, (ident, argv) in enumerate(self.commands):
            self.cli(ident, argv)
            self.bound("bound.n3", "n3", f"companion.n3.{k}", self.comp_n3)
            if k % 2 == 0:
                self.bound("bound.n6", "n6", f"companion.n6.{k}", self.comp_n6)
            if k % 6 == 3:
                self.companion_roofs()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def verify(self) -> None:
        reps = {ident: self.check_cli_report(ident) for ident, _ in self.commands}
        r = {k: (v.results if v else None) for k, v in reps.items()}
        fl = {k: (v.flags if v else None) for k, v in reps.items()}

        def near(ident, key, want, tol):
            if r[ident] is None:
                return
            got = r[ident][key]
            self.expect(abs(got - want) <= tol, f"{ident}: {key} = {got!r}, expected {want!r}")

        near("check.bell", "min_eig", -0.5, 1e-12)
        if fl["check.bell"]:
            self.expect(fl["check.bell"]["ppt"] is False, "check.bell: ppt should be false")
        form_a = validate_density(_load_density(FORM_A), 3).matrix
        near("check.form_a", "min_eig", oracles.partial_transpose_min_eig(form_a, 3), 1e-10)
        if fl["check.form_a"]:
            self.expect(fl["check.form_a"]["form_a"] is True, "check.form_a: form_a should be true")
        near("check.rho2", "min_eig", oracles.partial_transpose_min_eig(self.rho2.matrix, 2), 1e-10)
        near("bound.werner.eof", "D_bound", 0.25, 1e-12)
        near("bound.werner.eof", "E_bound", oracles.eof_two_value(0.25), 1e-12)
        werner = _load_density(WERNER)
        near("bound.werner.eof", "D_bound", oracles.wootters(werner), 1e-8)
        near("bound.rho2", "D_bound", oracles.wootters(self.rho2.matrix), 1e-8)
        for ident, rho, N in (("bound.rho3", self.rho3, 3), ("bound.rho4", self.rho4, 4)):
            if r[ident] is not None:
                d = r[ident]["D_bound"]
                cap = oracles.eigen_average_bound(rho.matrix, N)
                self.expect(0.0 <= d <= cap + 1e-9, f"{ident}: bound {d!r} outside [0, {cap!r}]")
        near("concurrence.bell", "cn", 1.0, 1e-12)
        lam = oracles.reduced_spectrum(self.psi3.coeffs)
        near("concurrence.psi3", "cn", math.sqrt(1.5 * (1.0 - float(np.sum(lam * lam)))), 1e-10)
        near("eof-pure.psi4", "eof", oracles.entropy_bits(oracles.reduced_spectrum(self.psi4.coeffs)), 1e-10)
        if r["lemma.arith3"] is not None:
            for key in ("lemma", "convexity", "lemma_closed", "convexity_closed"):
                self.expect(r["lemma.arith3"][key] < 0.0, f"lemma.arith3: {key} is not negative")
        for ident in ("invariance.bell", "invariance.rho2"):
            if r[ident] is not None:
                worst = max(v for k, v in r[ident].items() if k.startswith("max_dev"))
                self.expect(worst < 1e-8, f"{ident}: drift {worst!r}")


def _load_density(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        data = np.asarray(json.load(fh)["data"], dtype=float)
    return data[..., 0] + 1j * data[..., 1]


class BoundScaling(Workload):
    """In-process d_lower_bound at N = 2..6, interleaved by N."""

    name = "bound-scaling"
    SIZES = (2, 3, 4, 5, 6)
    SWEEPS = 4  # bound sweeps per round, between two companion CLI calls

    def setup(self) -> None:
        seed = self.seed
        self.inputs = {}
        for N in self.SIZES:
            self.inputs[N] = {
                "rank1": random_mixture(N, 1, seed, 10, N),
                "low": random_mixture(N, 2, seed, 11, N),
                "full": random_mixture(N, N * N, seed, 12, N),
            }
        self.eof3 = eof3_input(seed, 15)
        self.form_a = [random_form_a_mixture(r, seed, 13, r) for r in (1, 2, 3, 4)]
        self.cli_file = self.write_state("low6.json", self.inputs[6]["low"])
        self.setup_companions()

    def round(self) -> None:
        for sweep in range(self.SWEEPS):
            for kind in ("rank1", "low", "full"):
                for N in self.SIZES:
                    self.bound(f"bound.n{N}", f"n{N}", f"bound.{kind}.n{N}.{sweep}", self.inputs[N][kind])
            k = sweep % len(self.form_a)
            rho = self.form_a[k]
            v = self.op("example", "mixed.example_3x3_bound", "", f"example.{k}", example_3x3_bound, rho)
            self.record(f"example.{k}", v)
            self.bound("bound.form_a", "form_a", f"bound.form_a.{k}", rho)
            e = self.op("eof.n2", "mixed.eof_lower_bound", "n2", f"eof.form_a.{k}", eof_lower_bound, rho, 1, 2)
            self.record(f"eof.form_a.{k}", e)
            kind = ("rank1", "low", "full")[sweep % 3]
            e = self.op("eof.n2", "mixed.eof_lower_bound", "n2", f"eof.n2.{kind}", eof_lower_bound,
                        self.inputs[2][kind], 1, 2)
            self.record(f"eof.n2.{kind}.{sweep}", e)
            e = self.op("eof.n3", "mixed.eof_lower_bound", "n3", "eof.n3", eof_lower_bound, self.eof3, 1, 3)
            self.record(f"eof.n3.{sweep}", e)
        self.cli("cli.bound.low6", ["bound", self.cli_file, "--m", "1", "--n", "2", "--json"])
        self.companion_roofs()

    def verify(self) -> None:
        val = self.values
        for kind in ("rank1", "low", "full"):
            got = val.get(f"bound.{kind}.n2.0")
            want = oracles.wootters(self.inputs[2][kind].matrix)
            self.expect(got is not None and abs(got - want) <= 1e-8, f"N=2 {kind}: {got!r} vs Wootters {want!r}")
            e = val.get(f"eof.n2.{kind}")
            if e is not None:
                self.expect(abs(e - oracles.eof_two_value(want)) <= 1e-12, f"eof n=2 {kind}: {e!r}")
        for N in self.SIZES:
            got = val.get(f"bound.rank1.n{N}.0")
            want = oracles.pure_bound(self.inputs[N]["rank1"].matrix, N)
            self.expect(got is not None and abs(got - want) <= 1e-9, f"rank-1 N={N}: {got!r} vs {want!r}")
            for kind in ("low", "full"):
                rho = self.inputs[N][kind]
                got = val.get(f"bound.{kind}.n{N}.0")
                swapped = d_lower_bound(validate_density(oracles.swap_parties(rho.matrix, N), N), 1, 2)
                self.expect(got is not None and abs(got - swapped) <= 1e-8,
                            f"{kind} N={N}: bound {got!r} changes to {swapped!r} under the subsystem swap")
            # The bound is invariant under local unitaries on pure states at
            # every N and on mixed states at N = 2; mixed states at N >= 3 are
            # not (see CHANGES.md), so they are not checked here.
            L = np.kron(haar_unitary(N, generator(self.seed, 14, N, 0)), haar_unitary(N, generator(self.seed, 14, N, 1)))
            checks = [("rank1", 1e-9)] + ([("low", 1e-8), ("full", 1e-8)] if N == 2 else [])
            for kind, tol in checks:
                rho = self.inputs[N][kind]
                moved = d_lower_bound(validate_density(L @ rho.matrix @ L.conj().T, N), 1, 2)
                got = val.get(f"bound.{kind}.n{N}.0")
                self.expect(got is not None and abs(got - moved) <= tol,
                            f"{kind} N={N}: bound {got!r} moves to {moved!r} under a local unitary")
        for k, rho in enumerate(self.form_a):
            ex, b = val.get(f"example.{k}"), val.get(f"bound.form_a.{k}")
            self.expect(ex is not None and b is not None and abs(ex - b) <= 1e-10,
                        f"form-(a) {k}: example_3x3_bound {ex!r} vs d_lower_bound {b!r}")
            e = val.get(f"eof.form_a.{k}")
            if e is not None and b is not None:
                self.expect(abs(e - oracles.eof_two_value(b)) <= 1e-12, f"form-(a) {k}: eof {e!r}")
        e = val.get("eof.n3")
        want = oracles.eof_arith3(d_lower_bound(self.eof3, 1, 3))
        self.expect(e is not None and abs(e - want) <= 1e-9, f"eof n=3: {e!r} vs {want!r}")
        rep = self.check_cli_report("cli.bound.low6")
        if rep is not None:
            want = val.get("bound.low.n6.0")
            self.expect(want is not None and abs(rep.results["D_bound"] - want) <= 1e-12,
                        f"CLI bound {rep.results['D_bound']!r} vs in-process {want!r}")

    def extra_lines(self) -> list[str]:
        return [
            f"bound N={N}: median {1e3 * statistics.median(self.samples[f'bound.n{N}']):.4f} ms raw, "
            f"{1e3 * statistics.median(self.scaled[f'bound.n{N}']):.4f} ms at reference speed (not gated)"
            for N in self.SIZES if f"bound.n{N}" in self.samples
        ]


class RoofCorpus(Workload):
    """The fixed corpus through the D roof, the E roof and both bounds."""

    name = "roof-corpus"

    def setup(self) -> None:
        self.corpus = [corpus_mixture(k) for k in range(CORPUS_SIZE)]
        self.order = [int(k) for k in generator(self.seed, 20).permutation(CORPUS_SIZE)]
        self.files = [self.write_state(f"corpus{k}.json", rho) for k, rho in enumerate(self.corpus)]
        self.setup_companions()

    def roof_set(self):
        return [(f"roof.corpus{k}", rho) for k, rho in enumerate(self.corpus)]

    def round(self) -> None:
        for j, k in enumerate(self.order):
            rho = self.corpus[k]
            self.bound("bound.corpus", "form_a", f"bound.corpus{k}", rho)
            e = self.op("eof.n2", "mixed.eof_lower_bound", "n2", f"eof.corpus{k}", eof_lower_bound, rho, 1, 2)
            self.record(f"eof.corpus{k}", e)
            self.roof(f"roof.corpus{k}.d", rho, corpus_rank(k), AverageD(1, 2))
            self.roof(f"roof.corpus{k}.e", rho, corpus_rank(k), AverageE())
            self.cli(f"cli.corpus{k}", ["bound", self.files[k], "--m", "1", "--n", "2", "--eof", "--json"])
            for i in range(3):
                self.bound("bound.n3", "n3", f"companion.n3.{j}.{i}", self.comp_n3)
                self.bound("bound.n6", "n6", f"companion.n6.{j}.{i}", self.comp_n6)

    def verify(self) -> None:
        for k in range(CORPUS_SIZE):
            rep = self.check_cli_report(f"cli.corpus{k}")
            b, e = self.values.get(f"bound.corpus{k}"), self.values.get(f"eof.corpus{k}")
            if rep is not None and b is not None and e is not None:
                self.expect(abs(rep.results["D_bound"] - b) <= 1e-12 and abs(rep.results["E_bound"] - e) <= 1e-12,
                            f"corpus {k}: CLI bounds differ from the in-process ones")
            if b is not None and e is not None:
                self.expect(abs(e - oracles.eof_two_value(b)) <= 1e-12, f"corpus {k}: eof bound {e!r}")


WORKLOADS = {w.name: w for w in (CliOneshot, BoundScaling, RoofCorpus)}
