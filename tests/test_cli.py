"""End-to-end tests for the qconc command line."""
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qconc import (
    DensityMatrix,
    certify_bound,
    d_lower_bound,
    eof_lower_bound,
    from_coefficients,
    pure_density,
)
from qconc.cli import _build_parser, _search_knobs, dispatch, dumps_state, load_state, main
from qconc.errors import ParseError, BadTrace, ValidationError
from qconc.purestate import PureState
from qconc.report import report_from_json, report_to_json
from qconc.spectra import eof_of_d

BELL_FILE = "fixtures/bell.json"
WERNER_FILE = "fixtures/werner_p05.json"
FORM_A_FILE = "fixtures/form_a_mix.json"


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
    spectra = mixed._spectra

    def counting(R, J):
        calls.append(J.shape)
        return spectra(R, J)

    monkeypatch.setattr(mixed, "_spectra", counting)
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


def test_certify_form_a_converges_with_default_search(capsys):
    assert main(["certify", FORM_A_FILE, "--m", "1", "--n", "2", "--strict", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flags"]["converged"] is True
    assert report["results"]["gap"] < 0.118


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


def test_cli_import_does_not_load_scipy():
    code = "import qconc.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
