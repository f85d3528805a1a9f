"""End-to-end tests for the qconc command line."""
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qconc import (
    DensityMatrix,
    certify_bound,
    d_lower_bound,
    eof_lower_bound,
    from_coefficients,
    generator,
    haar_unitary,
    pure_density,
    validate_density,
)
from qconc.cli import _build_parser, _search_knobs, dispatch, dumps_state, load_state, main
from qconc.errors import BadTrace, NumericalInconsistency, ParseError, ValidationError
from qconc.purestate import PureState
from qconc.report import report_from_json, report_to_json
from qconc.spectra import eof_of_d

from conftest import random_density

BELL_FILE = "fixtures/bell.json"
WERNER_FILE = "fixtures/werner_p05.json"
FORM_A_FILE = "fixtures/form_a_mix.json"
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# A density file whose data array nests deeper than json.loads can recurse.
OVERDEEP_STATE = b'{"kind": "density", "dim": 2, "data": ' + b"[" * 990 + b"]" * 990 + b"}"


def qconc_process(argv, unbuffered=False, **kwargs):
    """``python -m qconc *argv`` importing qconc from this tree, stdout buffered unless ``unbuffered``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "qconc", *argv], env=env, timeout=120, **kwargs)


def test_fixtures_load():
    bell = load_state(BELL_FILE, expected="pure")
    assert isinstance(bell, PureState) and bell.dim == 2
    werner = load_state(WERNER_FILE, expected="density")
    assert isinstance(werner, DensityMatrix) and werner.dim == 2
    mix = load_state(FORM_A_FILE)
    assert isinstance(mix, DensityMatrix) and mix.dim == 3


def test_dumps_state_round_trip(tmp_path):
    psi = from_coefficients(np.array([[0.6, 0.0], [0.0, 0.8j]]))
    path = tmp_path / "pure.json"
    path.write_text(dumps_state(psi) + "\n")
    again = load_state(path)
    np.testing.assert_allclose(again.coeffs, psi.coeffs, atol=1e-15)

    rho = pure_density(psi)
    dpath = tmp_path / "density.json"
    dpath.write_text(dumps_state(rho) + "\n")
    back = load_state(dpath)
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)


def test_load_state_rejects_bad_inputs(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        load_state(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ParseError):
        load_state(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2, 3]")
    with pytest.raises(ParseError):
        load_state(array)
    with pytest.raises(ValidationError):
        load_state(BELL_FILE, expected="density")
    flat = [[[0.0, 0.0]] * 4] * 4
    for body, message in (
        ({"kind": "density", "dim": 3, "data": flat}, "shape"),
        ({"kind": "mixed", "dim": 2, "data": flat}, "kind"),
        ({"kind": "density", "dim": 2}, "missing data"),
    ):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(body))
        with pytest.raises(ParseError, match=message):
            load_state(path)


def test_load_state_rejects_wrong_trace(tmp_path):
    rho = pure_density(from_coefficients(np.eye(2) / np.sqrt(2)))
    scaled = DensityMatrix.__new__(DensityMatrix)
    object.__setattr__(scaled, "dim", 2)
    object.__setattr__(scaled, "matrix", 0.9 * rho.matrix)
    path = tmp_path / "scaled.json"
    path.write_text(dumps_state(scaled))
    with pytest.raises(BadTrace):
        load_state(path)


def test_bound_command_werner():
    report, code = dispatch(["bound", WERNER_FILE, "--m", "1", "--n", "2", "--eof"])
    assert code == 0
    assert abs(report.results["D_bound"] - 0.25) < 1e-10
    assert abs(report.results["E_bound"] - eof_of_d(0.25, 1)) < 1e-9
    assert report.flags["clamped"] is True
    assert WERNER_FILE in report.inputs


def test_bound_eof_computes_the_lambda_spectra_once(monkeypatch):
    import qconc.mixed as mixed

    calls = []
    deficits = mixed._index_deficits

    def counting(F, J):
        calls.append(J.shape)
        return deficits(F, J)

    monkeypatch.setattr(mixed, "_index_deficits", counting)
    rho = load_state(FORM_A_FILE)
    for extra in ([], ["--no-clamp"]):
        calls.clear()
        report, code = dispatch(["bound", FORM_A_FILE, "--m", "1", "--n", "2", "--eof"] + extra)
        assert code == 0 and len(calls) == 1
        assert report.results["E_bound"] == eof_lower_bound(rho, 1, 2)
        assert report.results["D_bound"] == d_lower_bound(rho, 1, 2, clamp=not extra)


def test_bound_command_defaults_to_two_qubit_profile():
    report, _ = dispatch(["bound", WERNER_FILE])
    assert report.results["m"] == 1 and report.results["n"] == 2


def test_bound_command_no_clamp_warns_about_eof():
    report, _ = dispatch(["bound", WERNER_FILE, "--no-clamp", "--eof"])
    assert report.flags["clamped"] is False
    assert report.flags["warnings"]


def test_check_command_bell():
    report, code = dispatch(["check", BELL_FILE])
    assert code == 0
    assert report.flags["kind"] == "pure"
    assert report.flags["ppt"] is False
    assert abs(report.results["min_eig"] + 0.5) < 1e-12


def test_check_command_reports_form_a_for_dimension_three():
    report, _ = dispatch(["check", FORM_A_FILE])
    assert report.flags["form_a"] is True


def test_eof_pure_and_concurrence_commands():
    report, _ = dispatch(["eof-pure", BELL_FILE])
    assert abs(report.results["eof"] - 1.0) < 1e-12
    report, _ = dispatch(["concurrence", BELL_FILE, "--which", "c2"])
    assert abs(report.results["c2"] - 1.0) < 1e-12
    report, _ = dispatch(["concurrence", BELL_FILE, "--which", "D", "--m", "2", "--n", "1"])
    assert abs(report.results["D"] - np.sqrt(2.0)) < 1e-12


def test_eof_pure_of_a_product_state_prints_zero_not_minus_zero(tmp_path, capsys):
    """A product state's entanglement is +0.0: its text report reads "eof: 0"."""
    path = tmp_path / "product.json"
    path.write_text(dumps_state(from_coefficients(np.diag([1.0, 0.0]))))
    assert main(["eof-pure", str(path)]) == 0
    out = capsys.readouterr().out
    assert "eof: 0" in out and "eof: -0" not in out


def test_concurrence_D_resolves_the_profile_like_bound(tmp_path, capsys):
    report, _ = dispatch(["concurrence", BELL_FILE, "--which", "D"])
    assert (report.results["m"], report.results["n"]) == (1, 2)
    assert abs(report.results["D"] - 1.0) < 1e-12
    path = tmp_path / "pure3.json"
    path.write_text(dumps_state(from_coefficients(np.diag([0.8, 0.6, 0.0]))))
    for flags in ([], ["--m", "1"]):
        assert main(["concurrence", str(path), "--which", "D"] + flags) == 1
        assert main(["bound", str(path)] + flags) == 1
    assert capsys.readouterr().err.count("error: --m and --n") == 4


def test_lemma_command_arith3_matches_closed_forms():
    third = 1.0 / 3.0
    report, _ = dispatch(
        ["lemma", "--family", "arith3", "--u", repr(third - 0.1), "--v", "0.1"]
    )
    res = report.results
    assert abs(res["lemma"] - res["lemma_closed"]) < 1e-6
    assert abs(res["convexity"] - res["convexity_closed"]) < 1e-4


def test_invariance_command_pure():
    report, _ = dispatch(["invariance", BELL_FILE, "--trials", "5"])
    assert report.results["max_dev_eof"] < 1e-9
    assert report.results["max_dev_cn"] < 1e-9


def test_invariance_command_density_at_two_qubits():
    """At N = 2 the bound is invariant under local unitaries: the drift is rounding."""
    report, code = dispatch(["invariance", WERNER_FILE, "--trials", "5"])
    assert code == 0 and report.flags["kind"] == "density"
    assert (report.results["m"], report.results["n"], report.results["trials"]) == (1, 2, 5)
    assert report.results["max_dev_D_bound"] < 1e-8


_QUICK_SEARCH = ["--restarts", "1", "--max-sweeps", "1", "--t-max", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["bound", "--m", "1", "--n", "2", "--eof"],
        ["roof", "--objective", "D", "--m", "1", "--n", "2", *_QUICK_SEARCH],
        ["certify", "--m", "1", "--n", "2", *_QUICK_SEARCH],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_eigendecompose_the_density_once(eigh_calls, argv):
    """Validation's eigendecomposition is the one every later step reads."""
    rho = load_state(FORM_A_FILE)
    eigh_calls.clear()
    assert dispatch(argv[:1] + [FORM_A_FILE] + argv[1:])[1] == 0
    assert eigh_calls.of(rho.matrix) == 1


def test_invariance_eigendecomposes_each_density_once(eigh_calls):
    """The file's density and each of the T moved ones, decomposed once each."""
    rho = load_state(WERNER_FILE)
    densities = [rho.matrix]
    for t in range(5):
        L = np.kron(haar_unitary(2, generator(0, t, 0)), haar_unitary(2, generator(0, t, 1)))
        densities.append(validate_density(L @ rho.matrix @ L.conj().T, 2).matrix)
    eigh_calls.clear()
    assert dispatch(["invariance", WERNER_FILE, "--trials", "5"])[1] == 0
    assert [eigh_calls.of(M) for M in densities] == [1] * 6
    assert len(eigh_calls) == 6


def test_concurrence_command_cn():
    report, code = dispatch(["concurrence", BELL_FILE, "--which", "cn"])
    assert code == 0
    assert abs(report.results["cn"] - 1.0) < 1e-12


def test_roof_on_a_generic_rank_two_mixture_is_finite_and_above_the_bound(tmp_path, capsys):
    """A generic N = 3 rank-2 mixture: every decomposition has a Schmidt-rank-3 member.

    Average D is the minor form on every support, so the search moves
    from every start and converges to a finite roof above the bound.
    """
    rho = random_density(3, 2, 109)
    path = tmp_path / "generic.json"
    path.write_text(dumps_state(rho))
    assert main(["roof", str(path), "--objective", "D", "--m", "1", "--n", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    value = report["results"]["value"]
    assert math.isfinite(value) and value >= d_lower_bound(rho, 1, 2)
    assert report["results"]["iterations"] > 0
    assert report["flags"]["converged"] is True


def test_report_json_is_byte_stable():
    first, _ = dispatch(["bound", WERNER_FILE, "--eof"])
    second, _ = dispatch(["bound", WERNER_FILE, "--eof"])
    a, b = report_to_json(first), report_to_json(second)
    assert a == b
    assert report_to_json(report_from_json(a)) == a


def test_main_success_exit_zero(capsys):
    assert main(["check", BELL_FILE]) == 0
    out = capsys.readouterr().out
    assert out.startswith("command: check")


def test_main_json_flag_emits_report(capsys):
    assert main(["bound", WERNER_FILE, "--json"]) == 0
    out = capsys.readouterr().out.strip()
    parsed = json.loads(out)
    assert parsed["results"]["D_bound"] == 0.25
    assert report_to_json(report_from_json(out)) == out


def test_main_missing_file_exits_one(capsys):
    assert main(["eof-pure", "fixtures/missing.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_main_bad_flag_exits_one(capsys):
    assert main(["bound", WERNER_FILE, "--nonsense"]) == 1
    assert main(["concurrence", BELL_FILE, "--which", "q"]) == 1
    capsys.readouterr()


def test_main_degenerate_lemma_point_exits_one(capsys):
    assert main(["lemma", "--family", "two", "--u", "0.5", "--v", "0.5"]) == 1
    assert "error" in capsys.readouterr().err


_lemma_coordinate = st.one_of(st.floats(-1.0, 1.0), st.sampled_from((math.nan, math.inf, -math.inf)))


@given(family=st.sampled_from(("two", "arith3")),
       point=st.tuples(_lemma_coordinate, _lemma_coordinate).filter(lambda p: not all(map(math.isfinite, p))))
@example(family="two", point=(0.4, math.nan))
@example(family="arith3", point=(math.nan, 0.1))
@example(family="arith3", point=(0.2, -math.inf))
def test_main_non_finite_lemma_point_exits_one(family, point):
    """A NaN or infinite u or v is off the normalized curve, whatever the other coordinate.

    A NaN residual fails every comparison, so the family's residual test
    must accept a point only when the residual is at most the tolerance:
    (0.4, NaN) on ``two`` and (NaN, 0.1) on ``arith3`` name a free
    parameter inside the domain.
    """
    u, v = point
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["lemma", "--family", family, f"--u={u!r}", f"--v={v!r}", "--json"])
    assert code == 1
    assert err.getvalue().startswith("error:"), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["roof", FORM_A_FILE, "--objective", "D", "--m", "0", "--n", "2"],
        ["roof", FORM_A_FILE, "--objective", "D", "--m", "1", "--n", "1"],
        ["roof", FORM_A_FILE, "--objective", "D", "--m", "1", "--n", "5"],
        ["certify", FORM_A_FILE, "--m", "2", "--n", "2"],
        ["roof", FORM_A_FILE, "--objective", "D", "--m", "1", "--n", "2", "--max-sweeps", "-1"],
        ["certify", WERNER_FILE, "--max-sweeps", "0"],
        ["invariance", BELL_FILE, "--trials", "-3"],
        ["bound", FORM_A_FILE, "--m", "2", "--n", "2"],
        ["bound", WERNER_FILE, "--m", "1", "--n", "3", "--eof"],
        ["invariance", FORM_A_FILE, "--m", "2", "--n", "2"],
        ["roof", WERNER_FILE, "--objective", "E", "--seed", "-1"],
        ["roof", WERNER_FILE, "--objective", "E", "--seed", "-1", "--restarts", "1"],
        ["certify", WERNER_FILE, "--seed", "-2"],
        ["invariance", BELL_FILE, "--seed", "-1"],
        ["certify", WERNER_FILE, "--tol", "inf"],
        ["roof", WERNER_FILE, "--objective", "D", "--tol", "inf"],
    ],
)
def test_main_impossible_profiles_and_counts_exit_one(argv, capsys):
    """Profiles no N x N pure state has, search or trial counts below 1, negative seeds and an infinite tol."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_main_strict_roof_nonconvergence_exits_two(tmp_path, capsys):
    code = main(
        [
            "roof",
            FORM_A_FILE,
            "--objective",
            "D",
            "--m",
            "1",
            "--n",
            "2",
            "--restarts",
            "1",
            "--t-max",
            "3",
            "--tol",
            "1e-30",
            "--max-sweeps",
            "5",
            "--strict",
            "--json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "converge" in captured.err
    assert json.loads(captured.out)["flags"]["converged"] is False


def test_roof_command_converges_without_strict():
    report, code = dispatch(
        ["roof", WERNER_FILE, "--objective", "E", "--restarts", "1", "--t-max", "4"]
    )
    assert code == 0
    assert abs(report.results["value"] - eof_of_d(0.25, 1)) < 5e-4


@pytest.mark.parametrize("command", ["roof", "certify"])
def test_search_commands_reject_t_max_above_the_caratheodory_cap(command, capsys):
    """A rank-1 state takes --t-max up to max(1, 1 + 2) = 3: 32 exits 1 with the cap named, no traceback."""
    argv = [command, BELL_FILE, "--t-max", "32", "--json"]
    argv[2:2] = ["--objective", "D"] if command == "roof" else []
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "[1, 3]" in captured.err and "Traceback" not in captured.err


def test_certify_form_a_converges_with_default_search(capsys):
    assert main(["certify", FORM_A_FILE, "--m", "1", "--n", "2", "--strict", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flags"]["converged"] is True
    assert report["results"]["gap"] < 0.118


def test_certify_form_a_at_one_three_is_one_and_a_half_times_one_two(capsys):
    """The (1, 3) roof of a form-(a) mixture is the (1, 2) minor-form roof scaled by mn / 2, above its bound."""
    knobs = ["--restarts", "2", "--max-sweeps", "30", "--tol", "1e-7", "--json"]
    reports = []
    for n in ("3", "2"):
        assert main(["certify", FORM_A_FILE, "--m", "1", "--n", n] + knobs) == 0
        reports.append(json.loads(capsys.readouterr().out))
    three, two = reports
    assert three["flags"]["violation"] is False and three["flags"]["converged"] is True
    assert three["results"]["gap"] > 0.0
    assert three["results"]["roof_min"] == pytest.approx(1.5 * two["results"]["roof_min"], rel=1e-12)


def test_certify_command_pure_state(tmp_path):
    psi = from_coefficients([[1 / np.sqrt(2), 0, 0], [0, 0.5, 0], [0, 0.5, 0]])
    path = tmp_path / "form_a_pure.json"
    path.write_text(dumps_state(pure_density(psi)) + "\n")
    report, code = dispatch(["certify", str(path), "--m", "1", "--n", "2", "--restarts", "1"])
    assert code == 0
    assert abs(report.results["bound"] - 1.0) < 1e-9
    assert report.results["gap"] > -1e-6
    assert report.flags["violation"] is False


def test_certify_command_forwards_search_options():
    argv = ["certify", FORM_A_FILE, "--m", "1", "--n", "2", "--restarts", "1"]
    argv += ["--t-max", "3", "--tol", "1e-3", "--max-sweeps", "2", "--seed", "5"]
    report, code = dispatch(argv)
    assert code == 0
    rho = load_state(FORM_A_FILE)
    rep = certify_bound(rho, 1, 2, seed=5, restarts=1, t_max=3, tol=1e-3, max_sweeps=2)
    assert report.results["roof_min"] == rep.roof_min
    assert report.flags["converged"] is rep.converged

    ns = _build_parser().parse_args(["certify", BELL_FILE])
    assert _search_knobs(ns) == {}
    report, code = dispatch(["certify", BELL_FILE])
    rep = certify_bound(pure_density(load_state(BELL_FILE)), 1, 2)
    assert code == 0 and report.results["roof_min"] == rep.roof_min
    assert report.flags["converged"] is rep.converged


def test_repeated_bound_reports_are_identical():
    argv = ["bound", FORM_A_FILE, "--m", "1", "--n", "2", "--eof"]
    first = report_to_json(dispatch(argv)[0])
    assert all(report_to_json(dispatch(argv)[0]) == first for _ in range(3))


def test_main_abbreviated_json_flag_emits_report(capsys):
    assert main(["check", BELL_FILE, "--js"]) == 0
    out = capsys.readouterr().out.strip()
    assert json.loads(out)["flags"]["kind"] == "pure"
    assert report_to_json(report_from_json(out)) == out


@pytest.mark.parametrize("bad_value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "command,source",
    [("check", WERNER_FILE), ("bound", WERNER_FILE), ("check", BELL_FILE), ("concurrence", BELL_FILE)],
)
def test_main_rejects_non_finite_state_files(tmp_path, capsys, command, source, bad_value):
    with open(source, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["data"][0][1][0] = bad_value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_main_lapack_failure_exits_two(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert main(["check", WERNER_FILE]) == 2
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["roof", "--objective", "D"], ["roof", "--objective", "E"], ["certify"]])
def test_main_lapack_failure_in_the_roof_search_exits_two(monkeypatch, capsys, command):
    """An ``eigh`` that fails inside the roof search's line search exits 2 with one error line and no traceback."""
    from qconc import roofsearch

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(roofsearch, "_line_search", fail)
    assert main([command[0], FORM_A_FILE, *command[1:], "--m", "1", "--n", "2", "--restarts", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: Eigenvalues did not converge\n"


def test_main_numerical_inconsistency_exits_two(monkeypatch, capsys):
    """A NumericalError that is no LAPACK failure exits 2 with one error line and no traceback."""
    def fail(psi):
        raise NumericalInconsistency("two routes disagree")

    monkeypatch.setattr("qconc.cli.concurrence_cn", fail)
    assert main(["concurrence", BELL_FILE, "--which", "cn"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_import_does_not_load_scipy():
    """Neither scipy nor the roof search is loaded until a search runs."""
    code = "import qconc.cli, sys; assert 'scipy' not in sys.modules; assert 'qconc.roofsearch' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_a_light_subcommand_loads_neither_the_roof_search_nor_the_samplers():
    """``check`` in a fresh process leaves qconc.roofopt, qconc.roofsearch and qconc.sampling unloaded."""
    code = (
        "import contextlib, io, sys; from qconc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = cli.main(['check', sys.argv[1], '--json'])\n"
        "assert code == 0, code\n"
        "loaded = {'qconc.roofopt', 'qconc.roofsearch', 'qconc.sampling'} & set(sys.modules)\n"
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code, os.path.abspath(BELL_FILE)], check=True, timeout=60)


def test_star_import_binds_every_public_name_from_its_module():
    """``from qconc import *`` binds each ``__all__`` name to the object its module defines."""
    import importlib

    import qconc

    namespace = {}
    exec("from qconc import *", namespace)
    assert set(qconc.__all__) <= set(namespace)
    for name, module in qconc._EXPORTS.items():
        assert namespace[name] is getattr(importlib.import_module(f"qconc.{module}"), name), name
    assert set(qconc.__all__) <= set(dir(qconc))
    with pytest.raises(AttributeError):
        qconc.no_such_name


@pytest.mark.parametrize(
    "source,entries,message",
    [
        (WERNER_FILE, {(0, 0): 1e308}, "trace"),
        (WERNER_FILE, {(0, 1): 1e300, (1, 0): 1e300}, "minimum eigenvalue"),
        (WERNER_FILE, {(0, 1): 1e300}, "not Hermitian"),
        (BELL_FILE, {(0, 0): 7e299, (1, 1): 7e299}, "overflows"),
    ],
)
def test_main_rejects_huge_entries_without_overflow(tmp_path, capsys, source, entries, message):
    """Entries near the float range exit 1 with the violated property, and raise no overflow warning."""
    with open(source, encoding="utf-8") as fh:
        obj = json.load(fh)
    for (i, j), value in entries.items():
        obj["data"][i][j][0] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err, err


def test_bench_modules_still_import():
    """The benchmark's modules import against this tree: every name they take from qconc exists."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = "import sys; sys.path[:0] = sys.argv[1:]; import workloads, probe"
    subprocess.run([sys.executable, "-c", code, os.path.join(root, "src"), os.path.join(root, "bench")],
                   check=True, timeout=120, cwd=root)


_FIXTURES = (BELL_FILE, WERNER_FILE, FORM_A_FILE)
_BAD_ENTRIES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, 1e-320, "0.5", None, [], [1.0, 2.0, 3.0])


@st.composite
def _mutated_state_files(draw):
    """(state-file object, argv after the file) for a fixture with one mutation."""
    with open(draw(st.sampled_from(_FIXTURES)), encoding="utf-8") as fh:
        obj = json.load(fh)
    data = obj["data"]
    size = len(data)
    i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    mutation = draw(st.sampled_from(("entry", "ragged", "dim", "kind", "hermitian", "psd", "scale")))
    if mutation == "entry":
        data[i][j][draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD_ENTRIES))
    elif mutation == "ragged":
        if draw(st.booleans()):
            data[i].pop()
        else:
            data[i].append([0.0, 0.0])
    elif mutation == "dim":
        obj["dim"] = draw(st.sampled_from((0, 1, -2, 3, 4, 2.0, "2", None, True, 10**6)))
    elif mutation == "kind":
        obj["kind"] = draw(st.sampled_from(("density", "pure", "mixed", "", 3, None)))
    elif mutation == "hermitian":
        data[i][j][draw(st.integers(0, 1))] += draw(st.floats(1e-14, 1.0))
    elif mutation == "psd":
        eps = draw(st.floats(1e-14, 1.0))
        data[i][i][0] -= eps
        data[j][j][0] += eps
    else:
        factor = draw(st.sampled_from((0.0, -1.0, 1e-300, 1e300, 2.0, 1.0 + 1e-9)))
        obj["data"] = [[[factor * x for x in z] for z in row] for row in data]
    command = draw(st.sampled_from(("check", "bound", "concurrence", "eof-pure")))
    extra = {
        "bound": ["--m", "1", "--n", "2", "--eof"],
        "concurrence": ["--which", draw(st.sampled_from(("c2", "cn", "D"))), "--m", "1", "--n", "2"],
    }.get(command, [])
    return obj, [command] + extra + (["--json"] if draw(st.booleans()) else [])


@given(case=_mutated_state_files())
def test_cli_exit_contract_on_mutated_state_files(case):
    """Exit 0, 1 or 2; a failure prints one "error:" line; never a traceback or a warning."""
    obj, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv[:1] + [path] + argv[1:])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error:"), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]


@st.composite
def _state_file_bytes(draw):
    """Arbitrary bytes, or a fixture's bytes with one short span replaced by arbitrary bytes."""
    noise = draw(st.binary(max_size=64))
    if draw(st.booleans()):
        return noise
    with open(draw(st.sampled_from(_FIXTURES)), "rb") as fh:
        body = fh.read()
    i = draw(st.integers(0, len(body)))
    j = draw(st.integers(i, min(len(body), i + 16)))
    return body[:i] + noise + body[j:]


@given(body=_state_file_bytes(), command=st.sampled_from((["check"], ["bound", "--m", "1", "--n", "2"])))
@example(body=b"\xff\xfe{}", command=["check"])
@example(body=OVERDEEP_STATE, command=["check"])
@example(body=b"[" * 100_000, command=["check"])
def test_main_on_arbitrary_state_file_bytes_exits_zero_or_one(body, command):
    """Any bytes as a state file: exit 0, or exit 1 with one "error:" line; nothing raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "wb") as fh:
            fh.write(body)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(command[:1] + [path] + command[1:])
    assert code in (0, 1)
    if code:
        assert err.getvalue().startswith("error:"), err.getvalue()


_PROCESS_CASES = {
    "check": (["check", FORM_A_FILE, "--json"], 0),
    "bound-eof": (["bound", WERNER_FILE, "--eof", "--json"], 0),
    "lemma": (["lemma", "--family", "arith3", "--u", repr(1 / 3 - 0.1), "--v", "0.1", "--json"], 0),
    "concurrence": (["concurrence", BELL_FILE, "--json"], 0),
    "bad-flag": (["bound", WERNER_FILE, "--nonsense", "--json"], 1),
    "strict-roof": (["roof", FORM_A_FILE, "--objective", "D", "--m", "1", "--n", "2",
                     "--max-sweeps", "1", "--restarts", "1", "--strict", "--json"], 2),
    "t-max-cap": (["roof", BELL_FILE, "--objective", "D", "--t-max", "32", "--json"], 1),
}


@pytest.mark.parametrize("argv, code", _PROCESS_CASES.values(), ids=_PROCESS_CASES.keys())
def test_process_entry_prints_and_exits_like_main(argv, code, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    proc = qconc_process(argv, capture_output=True)
    assert proc.returncode == code
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()


def test_main_leaves_the_garbage_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert main(["check", FORM_A_FILE, "--json"]) == 0
    assert gc.get_freeze_count() == frozen and gc.isenabled()
    capsys.readouterr()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_process_entry_exits_one_quietly_when_stdout_is_closed(unbuffered):
    """A reader that went away (``qconc check ... | true``) costs exit 1, not a traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = qconc_process(["check", FORM_A_FILE], unbuffered, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr, proc.stderr


def test_process_entry_without_a_stdout_exits_like_main():
    """Started with descriptor 1 closed, Python has no sys.stdout: the report is dropped, the exit code kept."""
    for argv, code in ((["check", FORM_A_FILE], 0), (["check", "fixtures/missing.json"], 1)):
        proc = qconc_process(argv, preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE)
        assert proc.returncode == code and b"Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize(
    "body",
    [
        '{"kind": "pure", "dim": 2, "data": []}'.encode("utf-16"),
        OVERDEEP_STATE,
        b'{"kind": "pure", "dim": ' + b"1" * 5000 + b', "data": []}',
    ],
    ids=["utf-16", "overdeep", "long-integer"],
)
def test_process_entry_rejects_undecodable_and_unparsable_files(tmp_path, body):
    path = tmp_path / "state.json"
    path.write_bytes(body)
    proc = qconc_process(["check", str(path)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {path}") and proc.stderr.count("\n") == 1, proc.stderr
