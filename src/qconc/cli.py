"""Command-line front end.

State files are JSON objects {"kind": "pure"|"density", "dim": N,
"data": ...} where data is a nested array of [re, im] pairs, row-major:
an N x N coefficient matrix for pure states, an N^2 x N^2 matrix for
densities.  Commands print a human-readable summary by default or a
canonical machine report with --json.  Exit codes: 0 success, 1 input
error, 2 numerical failure (LAPACK failures; non-convergence under
--strict).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import NoReturn

import numpy as np

from . import __version__
from .errors import InputError, NumericalError, ParseError, ValidationError
from .linalg import lapack_errors
from .mixed import (
    DensityMatrix,
    bound_from_deficits,
    check_profile,
    d_lower_bound,
    form_a_check,
    index_deficits,
    ppt_check,
    pure_density,
    validate_density,
)
from .purestate import (
    PureState,
    concurrence_c2,
    concurrence_cn,
    eof_pure,
    from_coefficients,
    generalized_concurrence_D,
    local_invariants,
)
from .report import Report, canonical_json, file_digest, render_text, report_to_json
from .spectra import EigFamily, arith3_closed_forms, convexity_value, dE_dD, eof_of_bound, lemma_value


def _complex_array(data, shape: tuple[int, int]) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"data is not a numeric array: {exc}") from exc
    if arr.shape != shape + (2,):
        raise ParseError(f"expected data shape {shape + (2,)}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParseError("data contains NaN or infinite values")
    return arr[..., 0] + 1j * arr[..., 1]


def _pairs(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def dumps_state(obj: PureState | DensityMatrix) -> str:
    """Canonical state-file JSON for a pure state or density matrix."""
    if isinstance(obj, PureState):
        body = {"kind": "pure", "dim": obj.dim, "data": _pairs(obj.coeffs)}
    elif isinstance(obj, DensityMatrix):
        body = {"kind": "density", "dim": obj.dim, "data": _pairs(obj.matrix)}
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return canonical_json(body)


def load_state(path: str, expected: str | None = None) -> PureState | DensityMatrix:
    """Load and validate a state file.

    ``expected`` restricts the kind ("pure" or "density"); None accepts
    both.  Parse problems raise ParseError, semantic problems raise
    ValidationError or the specific validation error; all exit with 1.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests too deeply to parse") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be an object")
    kind = obj.get("kind")
    if kind not in ("pure", "density"):
        raise ParseError(f"{path}: kind must be 'pure' or 'density', got {kind!r}")
    dim = obj.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise ParseError(f"{path}: dim must be an integer >= 2, got {dim!r}")
    if "data" not in obj:
        raise ParseError(f"{path}: missing data")
    if expected is not None and kind != expected:
        raise ValidationError(f"{path}: expected a {expected} file, got {kind}")
    if kind == "pure":
        A = _complex_array(obj["data"], (dim, dim))
        return from_coefficients(A, tol=1e-8)
    M = _complex_array(obj["data"], (dim * dim, dim * dim))
    return validate_density(M, dim)


def _as_density(state: PureState | DensityMatrix) -> DensityMatrix:
    if isinstance(state, PureState):
        return pure_density(state)
    return state


def _resolve_mn(m, n, N: int) -> tuple[int, int]:
    if m is None and n is None:
        if N == 2:
            return 1, 2
        raise ValidationError(f"--m and --n are required for N = {N}")
    if m is None or n is None:
        raise ValidationError("--m and --n must be given together")
    return m, n


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ParseError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a canonical JSON report")
    common.add_argument("--strict", action="store_true", help="non-convergence exits 2")

    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--m", type=int, default=None)
    profile.add_argument("--n", type=int, default=None)

    # Unset search flags stay out of the namespace, so RoofProblem's defaults apply.
    search = argparse.ArgumentParser(
        add_help=False, parents=[common, profile], argument_default=argparse.SUPPRESS
    )
    search.add_argument("--restarts", type=int, help="search starts per cardinality, each a random (Haar) isometry")
    search.add_argument("--seed", type=int, help="seed of the random starts; one seed gives one result, bit for bit")
    search.add_argument("--t-max", type=int, dest="t_max")
    search.add_argument("--tol", type=float, help="converged once the Riemannian gradient norm is below this")
    search.add_argument("--max-sweeps", type=int, dest="max_sweeps",
                        help="cap on search cycles of 2tr - r^2 iterations per start "
                             "(BFGS steps, conjugate-gradient steps once a D start meets a kink)")

    parser = _Parser(prog="qconc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eof-pure", parents=[common], help="entanglement of formation of a pure state")
    p.add_argument("file")

    p = sub.add_parser("concurrence", parents=[common, profile], help="pure-state concurrence measures")
    p.add_argument("file")
    p.add_argument("--which", choices=("c2", "cn", "D"), default="cn")

    p = sub.add_parser("bound", parents=[common, profile], help="closed-form concurrence lower bound")
    p.add_argument("file")
    p.add_argument("--no-clamp", action="store_true", help="keep negative per-index deficits")
    p.add_argument("--eof", action="store_true", help="also convert to an entanglement bound")

    p = sub.add_parser("roof", parents=[search], help="numeric convex-roof minimization")
    p.add_argument("file")
    p.add_argument("--objective", choices=("D", "E"), required=True)

    p = sub.add_parser("certify", parents=[search], help="bound vs. roof minimum for average D")
    p.add_argument("file")

    p = sub.add_parser("check", parents=[common], help="validate a state file; PPT and support class")
    p.add_argument("file")

    p = sub.add_parser("lemma", parents=[common], help="family monotonicity and convexity indicators")
    p.add_argument("--family", choices=("two", "arith3"), required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)

    p = sub.add_parser("invariance", parents=[common, profile], help="drift under random local unitaries")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_eof_pure(ns) -> tuple[dict, dict, int]:
    psi = load_state(ns.file, "pure")
    return {"eof": eof_pure(psi)}, {}, 0


def _cmd_concurrence(ns) -> tuple[dict, dict, int]:
    psi = load_state(ns.file, "pure")
    if ns.which == "c2":
        return {"c2": concurrence_c2(psi)}, {}, 0
    if ns.which == "cn":
        return {"cn": concurrence_cn(psi)}, {}, 0
    m, n = _resolve_mn(ns.m, ns.n, psi.dim)
    return {"D": generalized_concurrence_D(psi, m, n), "m": m, "n": n}, {}, 0


def _cmd_bound(ns) -> tuple[dict, dict, int]:
    rho = _as_density(load_state(ns.file))
    m, n = _resolve_mn(ns.m, ns.n, rho.dim)
    check_profile(m, n, rho.dim)
    clamp = not ns.no_clamp
    deficits = index_deficits(rho)
    d = bound_from_deficits(deficits, m, n, clamp=clamp)
    results = {"D_bound": d, "m": m, "n": n}
    flags = {"clamped": clamp, "warnings": []}
    if ns.eof:
        results["E_bound"] = eof_of_bound(bound_from_deficits(deficits, m, n), m, n)
        if not clamp:
            flags["warnings"].append("E_bound always uses the clamped D bound")
    return results, flags, 0


def _search_knobs(ns) -> dict:
    keys = ("t_max", "restarts", "seed", "tol", "max_sweeps")
    return {key: getattr(ns, key) for key in keys if hasattr(ns, key)}


def _cmd_roof(ns) -> tuple[dict, dict, int]:
    from .roofopt import AverageD, AverageE, RoofProblem, minimize_roof

    rho = _as_density(load_state(ns.file))
    if ns.objective == "E":
        objective = AverageE()
        results = {}
    else:
        m, n = _resolve_mn(ns.m, ns.n, rho.dim)
        objective = AverageD(m, n)
        results = {"m": m, "n": n}
    res = minimize_roof(RoofProblem(target=rho, objective=objective, **_search_knobs(ns)))
    results.update(
        value=res.value,
        iterations=res.iterations,
        members=len(res.decomposition.members),
    )
    flags = {"converged": res.converged}
    code = 2 if (ns.strict and not res.converged) else 0
    return results, flags, code


def _cmd_certify(ns) -> tuple[dict, dict, int]:
    from .roofopt import certify_bound

    rho = _as_density(load_state(ns.file))
    m, n = _resolve_mn(ns.m, ns.n, rho.dim)
    rep = certify_bound(rho, m, n, **_search_knobs(ns))
    results = {"bound": rep.bound, "roof_min": rep.roof_min, "gap": rep.gap, "m": m, "n": n}
    flags = {"violation": rep.violation, "converged": rep.converged}
    code = 2 if (ns.strict and not rep.converged) else 0
    return results, flags, code


def _cmd_check(ns) -> tuple[dict, dict, int]:
    state = load_state(ns.file)
    rho = _as_density(state)
    is_ppt, min_eig = ppt_check(rho)
    kind = "pure" if isinstance(state, PureState) else "density"
    results = {"dim": rho.dim, "min_eig": min_eig}
    flags = {"kind": kind, "ppt": is_ppt}
    if rho.dim == 3:
        flags["form_a"] = form_a_check(rho)
    return results, flags, 0


def _cmd_lemma(ns) -> tuple[dict, dict, int]:
    family = EigFamily(ns.family, ns.m)
    point = (ns.u, ns.v)
    results = {
        "lemma": lemma_value(family, point),
        "dE_dD": dE_dD(family, point),
        "convexity": convexity_value(family, point),
        "D": family.concurrence(family.parameter(point)),
    }
    if ns.family == "arith3":
        lemma_cf, convexity_cf = arith3_closed_forms(ns.m, ns.v)
        results["lemma_closed"] = lemma_cf
        results["convexity_closed"] = convexity_cf
    return results, {}, 0


def _pure_measures(psi: PureState) -> dict:
    i0, i1 = local_invariants(psi)
    values = {"eof": eof_pure(psi), "cn": concurrence_cn(psi), "i0": i0, "i1": i1}
    if psi.dim == 2:
        values["c2"] = concurrence_c2(psi)
    return values


def _cmd_invariance(ns) -> tuple[dict, dict, int]:
    from .sampling import generator, haar_unitary

    if ns.trials < 1:
        raise ValidationError(f"--trials must be >= 1, got {ns.trials}")
    state = load_state(ns.file)
    N = state.dim
    pure = isinstance(state, PureState)
    if pure:
        measures, results = _pure_measures, {}
    else:
        m, n = _resolve_mn(ns.m, ns.n, N)
        results = {"m": m, "n": n}

        def measures(rho: DensityMatrix) -> dict:
            return {"D_bound": d_lower_bound(rho, m, n)}

    base = measures(state)
    dev = dict.fromkeys(base, 0.0)
    for t in range(ns.trials):
        U = haar_unitary(N, generator(ns.seed, t, 0))
        V = haar_unitary(N, generator(ns.seed, t, 1))
        if pure:
            moved = from_coefficients(U @ state.coeffs @ V.T, renormalize=True)
        else:
            L = np.kron(U, V)
            moved = validate_density(L @ state.matrix @ L.conj().T, N)
        for key, val in measures(moved).items():
            dev[key] = max(dev[key], abs(val - base[key]))
    results.update({f"max_dev_{k}": v for k, v in dev.items()}, trials=ns.trials)
    return results, {"kind": "pure" if pure else "density"}, 0


_HANDLERS = {
    "eof-pure": _cmd_eof_pure,
    "concurrence": _cmd_concurrence,
    "bound": _cmd_bound,
    "roof": _cmd_roof,
    "certify": _cmd_certify,
    "check": _cmd_check,
    "lemma": _cmd_lemma,
    "invariance": _cmd_invariance,
}


def dispatch(argv) -> tuple[Report, int]:
    """Parse and run one command; returns the report and the exit code.

    Raises the underlying InputError or NumericalError on failure; main()
    maps those to exit codes 1 and 2.
    """
    return _run(_build_parser().parse_args(argv), argv)


def _run(ns, argv) -> tuple[Report, int]:
    with lapack_errors():
        results, flags, code = _HANDLERS[ns.command](ns)
    inputs = {}
    if getattr(ns, "file", None) is not None:
        inputs[ns.file] = file_digest(ns.file)
    report = Report(
        command=" ".join(argv),
        inputs=inputs,
        results=results,
        flags=flags,
        versions={"qconc": __version__, "numpy": np.__version__},
    )
    return report, code


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        ns = _build_parser().parse_args(argv)
        report, code = _run(ns, argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report_to_json(report) if ns.json else render_text(report))
    if code == 2:
        print("error: did not converge", file=sys.stderr)
    return code


def run() -> NoReturn:
    """Process entry of ``qconc`` and ``python -m qconc``: run main() and exit with its code.

    Freezes the garbage collector before the exit, so the interpreter's shutdown
    collections skip the objects numpy and qconc made at import; main()
    leaves the collector alone.  A reader that closed stdout early exits 1.
    """
    try:
        code = main()
        if sys.stdout is not None:  # None when the process started with descriptor 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        # Python's SIGPIPE recipe: point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
