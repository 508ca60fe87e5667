import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helmat
from helmat.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    run,
)
from helmat.matio import (
    MatrixFileError,
    matrix_from_payload,
    read_matrix_file,
    write_matrix_file,
)
from helmat.sampling import make_rng, random_spd
from helmat.suites import D3_TRIANGLE_TRIPLE


@pytest.fixture()
def matrix_files(tmp_path):
    paths = {}
    for name, arr in zip("abc", D3_TRIANGLE_TRIPLE):
        p = tmp_path / f"{name}.json"
        write_matrix_file(p, arr)
        paths[name] = str(p)
    return paths


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_matrix_file_roundtrip_bit_exact(tmp_path):
    rng = make_rng(0)
    a = random_spd(rng, 4, complex_entries=True).entries
    path = tmp_path / "m.json"
    write_matrix_file(path, a)
    back = read_matrix_file(path)
    assert np.array_equal(back, a)  # bit-exact, not just close


def test_matrix_file_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(MatrixFileError, match="bad.json"):
        read_matrix_file(bad)
    with pytest.raises(MatrixFileError, match="dim"):
        matrix_from_payload({"real": [[1.0]]})
    with pytest.raises(MatrixFileError, match="real"):
        matrix_from_payload({"dim": 2, "real": [[1.0]]})


def test_dist_d3_on_pinned_matrices(capsys, matrix_files):
    code, report, err = run_cli(
        capsys, ["dist", "d3", matrix_files["a"], matrix_files["b"]]
    )
    assert code == EXIT_OK
    assert report["outputs"]["distance"] == pytest.approx(5.0347, abs=5e-4)
    assert report["outputs"]["divergence"] == pytest.approx(5.0347**2, rel=1e-3)
    assert "d3" in err


def test_dist_zero_on_identical_files(capsys, matrix_files):
    code, report, _ = run_cli(
        capsys, ["dist", "d1", matrix_files["a"], matrix_files["a"]]
    )
    assert code == EXIT_OK
    assert report["outputs"]["distance"] <= 1e-9


def test_dist_d2_via_unitary_agrees(capsys, matrix_files):
    _, plain, _ = run_cli(capsys, ["dist", "d2", matrix_files["a"], matrix_files["b"]])
    _, via, _ = run_cli(
        capsys,
        ["dist", "d2", matrix_files["a"], matrix_files["b"], "--via-unitary"],
    )
    assert via["outputs"]["distance"] == pytest.approx(
        plain["outputs"]["distance"], abs=1e-9
    )


def test_dist_hellinger(capsys, tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text("[0.5, 0.5]")
    q.write_text("[1.0, 0.0]")
    code, report, _ = run_cli(capsys, ["dist", "hellinger", str(p), str(q)])
    assert code == EXIT_OK
    assert report["outputs"]["distance"] == pytest.approx(
        np.sqrt(1.0 - np.sqrt(0.5)), rel=1e-9
    )


def test_dist_rejects_non_spd_file(capsys, tmp_path, matrix_files):
    bad = tmp_path / "notspd.json"
    write_matrix_file(bad, np.diag([1.0, -1.0]))
    code, report, err = run_cli(capsys, ["dist", "d1", str(bad), matrix_files["a"]])
    assert code == EXIT_INPUT_ERROR
    assert report is None
    assert "notspd.json" in err and "positive definite" in err


def test_mean_geo_idempotent(capsys, matrix_files):
    code, report, _ = run_cli(
        capsys, ["mean", "geo", matrix_files["a"], matrix_files["a"]]
    )
    assert code == EXIT_OK
    got = matrix_from_payload(report["outputs"]["matrix"])
    assert np.allclose(got, D3_TRIANGLE_TRIPLE[0], atol=1e-10)


def test_mean_qhalf_closed_form(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix_file(a, np.diag([1.0, 9.0]))
    write_matrix_file(b, np.diag([9.0, 1.0]))
    code, report, _ = run_cli(capsys, ["mean", "qhalf", str(a), str(b)])
    assert code == EXIT_OK
    got = matrix_from_payload(report["outputs"]["matrix"])
    assert np.allclose(got, np.diag([4.0, 4.0]), atol=1e-12)


def test_mean_logeuclid_commuting(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix_file(a, np.diag([1.0, 4.0]))
    write_matrix_file(b, np.diag([9.0, 16.0]))
    code, report, _ = run_cli(
        capsys, ["mean", "logeuclid", str(a), str(b), "--weights", "[1, 1]"]
    )
    assert code == EXIT_OK
    got = matrix_from_payload(report["outputs"]["matrix"])
    assert np.allclose(got, np.diag([3.0, 8.0]), rtol=1e-11)


def test_mean_weights_file_and_count_mismatch(capsys, tmp_path, matrix_files):
    wfile = tmp_path / "w.json"
    wfile.write_text("[0.3, 0.7]")
    code, report, _ = run_cli(
        capsys,
        ["mean", "arith", matrix_files["a"], matrix_files["b"], "--weights", str(wfile)],
    )
    assert code == EXIT_OK
    expected = 0.3 * D3_TRIANGLE_TRIPLE[0] + 0.7 * D3_TRIANGLE_TRIPLE[1]
    assert np.allclose(matrix_from_payload(report["outputs"]["matrix"]), expected)

    code, _, err = run_cli(
        capsys, ["mean", "arith", matrix_files["a"], "--weights", str(wfile)]
    )
    assert code == EXIT_INPUT_ERROR
    assert "weights" in err


def test_bary_identical_inputs(capsys, matrix_files):
    code, report, _ = run_cli(
        capsys, ["bary", "wasserstein", matrix_files["a"], matrix_files["a"]]
    )
    assert code == EXIT_OK
    assert report["solver"]["converged"] is True
    assert report["solver"]["iterations"] <= 1
    got = matrix_from_payload(report["outputs"]["matrix"])
    assert np.allclose(got, D3_TRIANGLE_TRIPLE[0], atol=1e-10)


def test_bary_power_half_matches_closed_form(capsys, matrix_files):
    from helmat.barycentre import PowerMean, closed_form_m2
    from helmat.linalg import SpdMatrix

    code, report, _ = run_cli(
        capsys,
        ["bary", "power-t", matrix_files["a"], matrix_files["b"], "--t", "0.5"],
    )
    assert code == EXIT_OK
    got = matrix_from_payload(report["outputs"]["matrix"])
    reference = closed_form_m2(
        PowerMean(0.5),
        SpdMatrix(D3_TRIANGLE_TRIPLE[0]),
        SpdMatrix(D3_TRIANGLE_TRIPLE[1]),
    ).entries
    assert np.allclose(got, reference, atol=1e-8)


def test_bary_commuting_matches_qhalf(capsys, tmp_path):
    rng = make_rng(1)
    paths = []
    diags = [rng.uniform(0.5, 3.0, 3) for _ in range(3)]
    for i, d in enumerate(diags):
        p = tmp_path / f"m{i}.json"
        write_matrix_file(p, np.diag(d))
        paths.append(str(p))
    code, report, _ = run_cli(capsys, ["bary", "logeuclid-type", *paths])
    assert code == EXIT_OK
    got = np.diag(matrix_from_payload(report["outputs"]["matrix"])).real
    expected = (np.mean([np.sqrt(d) for d in diags], axis=0)) ** 2
    assert np.allclose(got, expected, atol=1e-8)


def test_bary_nonconvergence_exit_code(capsys, matrix_files):
    code, report, err = run_cli(
        capsys,
        ["bary", "wasserstein", matrix_files["a"], matrix_files["b"],
         "--max-iter", "2", "--tol", "1e-15"],
    )
    assert code == EXIT_NOT_CONVERGED
    assert report["solver"]["converged"] is False
    assert "DID NOT CONVERGE" in err


def test_verify_counterexamples_passes(capsys):
    code, report, err = run_cli(
        capsys, ["verify", "counterexamples", "--samples", "50"]
    )
    assert code == EXIT_OK
    assert report["suite"]["passed"] is True
    assert "[PASS]" in err


def test_verify_legendre_reports_gradient_value(capsys):
    code, report, err = run_cli(capsys, ["verify", "legendre-cex", "--samples", "50"])
    assert code == EXIT_OK
    assert "0.744324" in err  # the closed-form gradient coefficient at defaults


def test_verify_rejects_nonpositive_samples(capsys):
    code, _, err = run_cli(capsys, ["verify", "all", "--samples", "0"])
    assert code == EXIT_INPUT_ERROR
    assert "samples" in err


def test_scalar_outputs_are_12_significant_digits(capsys, matrix_files):
    code, report, _ = run_cli(
        capsys, ["dist", "d3", matrix_files["a"], matrix_files["b"]]
    )
    assert code == EXIT_OK
    value = report["outputs"]["distance"]
    assert value == float(f"{value:.12g}")


def test_verify_all_deterministic(capsys):
    code1, report1, _ = run_cli(
        capsys, ["verify", "all", "--seed", "42", "--samples", "60"]
    )
    code2, report2, _ = run_cli(
        capsys, ["verify", "all", "--seed", "42", "--samples", "60"]
    )
    assert code1 == code2 == EXIT_OK
    assert json.dumps(report1, sort_keys=False) == json.dumps(report2, sort_keys=False)


def test_verify_failure_exit_code_contract():
    # the exit-code mapping itself: a failing suite row must yield exit 1;
    # actual suites are green, so drive the mapping with a stubbed result
    import helmat.cli as cli_module
    from helmat.suites import Check, SuiteResult

    stub = SuiteResult("stub", [Check(name="x", passed=False, detail="witness 1.0")])
    original = cli_module.run_suite
    cli_module.run_suite = lambda *a, **k: [stub]
    try:
        code = run(["verify", "counterexamples"])
    finally:
        cli_module.run_suite = original
    assert code == EXIT_VERIFY_FAILED


def test_cli_usage_errors(capsys):
    code, _, err = run_cli(capsys, ["dist", "d9", "x.json", "y.json"])
    assert code == EXIT_INPUT_ERROR
    code, _, err = run_cli(capsys, ["dist", "d1", "/nonexistent.json", "/none.json"])
    assert code == EXIT_INPUT_ERROR
    assert "nonexistent" in err
    code, _, _ = run_cli(capsys, ["dist", "d1", "a.json", "b.json", "--via-unitary"])
    assert code == EXIT_INPUT_ERROR  # --via-unitary is d2-only, checked before files


def test_installed_entry_point_smoke(tmp_path):
    a = tmp_path / "a.json"
    write_matrix_file(a, np.diag([1.0, 2.0]))
    # the child imports the same helmat as this process, installed or not
    package_root = str(Path(helmat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "helmat.cli", "dist", "d4", str(a), str(a)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["outputs"]["distance"] <= 1e-9
