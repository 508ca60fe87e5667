import argparse
import builtins
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helmat
from helmat import barycentre, means
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
    matrix_to_payload,
    read_json_file,
)
from helmat.linalg import SpdMatrix
from helmat.means import WeightVector
from helmat.sampling import make_rng, random_spd
from helmat.suites import D3_TRIANGLE_TRIPLE


def write_matrix_file(path, matrix):
    """Write ``matrix`` as a matrix file, in the format the CLI reads."""
    Path(path).write_text(json.dumps(matrix_to_payload(matrix)) + "\n")


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
    back = read_json_file(path, matrix_from_payload)[0]
    assert back.dtype == np.complex128
    assert np.array_equal(back, a)  # bit-exact, not just close


def test_real_matrix_file_roundtrip_bit_exact_without_imag(tmp_path):
    a = random_spd(make_rng(0), 4).entries
    path = tmp_path / "m.json"
    write_matrix_file(path, a)
    assert "imag" not in json.loads(path.read_text())
    # the bytes are those of the same matrix written as a complex array
    assert matrix_to_payload(a) == matrix_to_payload(a.astype(np.complex128))
    back = read_json_file(path, matrix_from_payload)[0]
    assert back.dtype == np.float64
    assert np.array_equal(back, a)


def test_readme_matrix_file_reads_as_float64(tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"dim": 2, "real": [[2.0, 5.0], [5.0, 17.0]], '
                    '"imag": [[0.0, 0.0], [0.0, 0.0]]}')
    back = read_json_file(path, matrix_from_payload)[0]
    assert back.dtype == np.float64
    assert np.array_equal(back, [[2.0, 5.0], [5.0, 17.0]])


def test_matrix_file_with_nonzero_imag_reads_as_complex():
    back = matrix_from_payload(
        {"dim": 2, "real": [[2.0, 1.0], [1.0, 3.0]], "imag": [[0.0, 0.5], [-0.5, 0.0]]}
    )
    assert back.dtype == np.complex128
    assert np.array_equal(back, [[2.0, 1.0 + 0.5j], [1.0 - 0.5j, 3.0]])


def test_matrix_file_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(MatrixFileError, match="bad.json"):
        read_json_file(bad, matrix_from_payload)
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_dist_d2_at_overflowing_scale_exits_on_input(capsys, tmp_path):
    rng = make_rng(5)
    paths = [tmp_path / f"{name}.json" for name in "ab"]
    for path in paths:
        write_matrix_file(path, 1e160 * random_spd(rng, 3).entries)
    code, report, err = run_cli(capsys, ["dist", "d2", *map(str, paths)])
    assert code == EXIT_INPUT_ERROR
    assert report is None
    assert "finite" in err


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


@pytest.mark.parametrize("command, kind", [("mean", "arith"), ("bary", "power-t")])
def test_a_wrong_weight_count_exits_3_with_the_family_check_message(capsys, matrix_files,
                                                                    command, kind):
    files = [matrix_files["a"], matrix_files["b"]]
    code, report, err = run_cli(capsys, [command, kind, *files, "--weights", "[1, 2, 3]"])
    assert code == EXIT_INPUT_ERROR and report is None
    assert err == "error: 2 matrices but 3 weights\n"


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


def test_bary_wasserstein_of_a_pair_with_an_ill_conditioned_congruence(capsys, tmp_path):
    # A^{1/2} B A^{1/2} has condition 1e12, above the SPD threshold of an
    # input; A and B themselves are valid
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, scale in zip(paths, (1.0, 1.5)):
        write_matrix_file(path, np.diag(scale * np.array([1e-3, 1.0, 1e3])))
    code, report, err = run_cli(capsys, ["bary", "wasserstein", *map(str, paths)])
    assert code == EXIT_OK, err
    assert report["solver"]["converged"] is True


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


@pytest.mark.parametrize("content", [b"[" * 100_000, b'{"dim": \xff}'],
                         ids=["nested-too-deep", "not-utf8"])
def test_undecodable_file_exits_3_naming_the_file(capsys, tmp_path, matrix_files, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, report, err = run_cli(capsys, ["dist", "d1", matrix_files["a"], str(bad)])
    assert code == EXIT_INPUT_ERROR and report is None
    assert "bad.json: invalid JSON" in err


NON_NUMBER_MATRIX_FILES = {
    "boolean-dim": ("dist", "d1", '{"dim": true, "real": [[2.0]]}'),
    "string-entries": ("mean", "arith", '{"dim": 2, "real": [["2", "0"], ["0", "1"]]}'),
    "boolean-entries": ("mean", "arith",
                        '{"dim": 2, "real": [[true, false], [false, true]]}'),
    "huge-integer": ("mean", "arith", f'{{"dim": 1, "real": [[{10**400}]]}}'),
}


@pytest.mark.parametrize("command, kind, content", NON_NUMBER_MATRIX_FILES.values(),
                         ids=NON_NUMBER_MATRIX_FILES.keys())
def test_non_number_matrix_file_exits_3_naming_the_file(capsys, tmp_path, command, kind,
                                                        content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code, report, err = run_cli(capsys, [command, kind, str(bad), str(bad)])
    assert code == EXIT_INPUT_ERROR and report is None
    assert err.startswith(f"error: {bad}: ")


def test_inline_weights_with_a_boolean_exit_3(capsys, matrix_files):
    code, report, err = run_cli(capsys, ["mean", "arith", matrix_files["a"], matrix_files["b"],
                                         "--weights", "[true, 1]"])
    assert code == EXIT_INPUT_ERROR and report is None
    assert err == ("error: inline weights: "
                   "weights must be a non-empty one-dimensional array of numbers\n")


INVALID_MATRIX_FILES = {
    "top-level-array": ("[[1.0]]", "expected a JSON object at the top level"),
    "no-real": ('{"dim": 1}', "missing required field 'real'"),
    "nan": ('{"dim": 1, "real": [[NaN]]}', "matrix entries must be finite"),
    "overflow": ('{"dim": 1, "real": [[1e400]]}', "matrix entries must be finite"),
}


@pytest.mark.parametrize("content, message", INVALID_MATRIX_FILES.values(),
                         ids=INVALID_MATRIX_FILES.keys())
def test_invalid_matrix_file_exits_3_naming_the_file(capsys, tmp_path, matrix_files, content,
                                                     message):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code, report, err = run_cli(capsys, ["dist", "d1", matrix_files["a"], str(bad)])
    assert code == EXIT_INPUT_ERROR and report is None
    assert err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("flag, value, message", [
    # a non-finite tolerance used to report "converged after 0 iterations"
    # with "tol": Infinity
    ("--tol", "inf", "tolerance must be finite and positive, got inf"),
    ("--tol", "1e400", "tolerance must be finite and positive, got inf"),
    ("--max-iter", "0", "max_iter must be at least 1"),
], ids=["tol-inf", "tol-1e400", "max-iter-0"])
def test_bad_solver_flag_exits_3(capsys, matrix_files, flag, value, message):
    code, report, err = run_cli(capsys, ["bary", "wasserstein", *matrix_files.values(),
                                         flag, value])
    assert code == EXIT_INPUT_ERROR and report is None
    assert err == f"error: {message}\n"


def test_report_that_is_not_strict_json_exits_3(capsys, monkeypatch, matrix_files):
    monkeypatch.setitem(helmat.cli._HANDLERS, "dist",
                        lambda args: ({"distance": float("nan")}, EXIT_OK, "nan"))
    code, report, err = run_cli(capsys, ["dist", "d1", matrix_files["a"], matrix_files["b"]])
    assert code == EXIT_INPUT_ERROR and report is None
    assert err.startswith("error: Out of range float values are not JSON compliant")


def test_weights_whose_sum_overflows_give_the_equal_weight_report(capsys, matrix_files):
    files = [matrix_files["a"], matrix_files["b"]]
    captured = []
    for weights in ("[1e308, 1e308]", "[1, 1]"):
        assert run(["mean", "arith", *files, "--weights", weights]) == EXIT_OK
        captured.append(capsys.readouterr())
    assert captured[0] == captured[1]


def test_cli_usage_errors(capsys, matrix_files):
    code, _, err = run_cli(capsys, ["dist", "d9", "x.json", "y.json"])
    assert code == EXIT_INPUT_ERROR
    code, _, err = run_cli(capsys, ["dist", "d1", "/nonexistent.json", "/none.json"])
    assert code == EXIT_INPUT_ERROR
    assert "nonexistent" in err
    code, _, _ = run_cli(capsys, ["dist", "d1", "a.json", "b.json", "--via-unitary"])
    assert code == EXIT_INPUT_ERROR  # --via-unitary is d2-only, checked before files
    code, report, err = run_cli(capsys, ["mean", "geo", *matrix_files.values()])
    assert code == EXIT_INPUT_ERROR and report is None
    assert err == "error: mean geo needs exactly two matrices\n"


@pytest.mark.parametrize("kind", ["geo", "geo-t"])
def test_weights_do_not_apply_to_the_two_point_means(capsys, matrix_files, kind):
    # the two-point means take no weights, so a report must not list them
    files = [matrix_files["a"], matrix_files["b"]]
    code, report, err = run_cli(capsys, ["mean", kind, *files, "--weights", "[0.1, 0.9]"])
    assert code == EXIT_INPUT_ERROR and report is None
    assert err == f"error: --weights does not apply to mean {kind}\n"


@pytest.mark.parametrize("command, kind, takes", [
    ("bary", "wasserstein", "power-t"),
    ("bary", "logeuclid-type", "power-t"),
    ("mean", "arith", "geo-t"),
    ("mean", "geo", "geo-t"),
    ("mean", "logeuclid", "geo-t"),
    ("mean", "qhalf", "geo-t"),
])
def test_t_applies_only_to_the_kind_that_reads_it(capsys, matrix_files, command, kind, takes):
    # a kind that ignores --t used to run with it and exit 0
    files = [matrix_files["a"], matrix_files["b"]]
    code, report, err = run_cli(capsys, [command, kind, *files, "--t", "0.3"])
    assert code == EXIT_INPUT_ERROR and report is None
    assert err == f"error: --t applies only to {command} {takes}\n"


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


@pytest.fixture(params=["real", "complex"])
def family(request, tmp_path):
    """Three matrix files and the matrices they hold: the real 2x2 triple, or
    three random complex 3x3 matrices."""
    if request.param == "real":
        arrays = D3_TRIANGLE_TRIPLE
    else:
        rng = make_rng(3)
        arrays = [random_spd(rng, 3, complex_entries=True).entries for _ in range(3)]
    paths = []
    for i, arr in enumerate(arrays):
        path = tmp_path / f"m{i}.json"
        write_matrix_file(path, arr)
        paths.append(str(path))
    return paths, [SpdMatrix(read_json_file(path, matrix_from_payload)[0]) for path in paths]


@pytest.mark.parametrize("kind, extra, expected", [
    ("arith", [], lambda m, w: means.arithmetic_mean(m, w)),
    ("geo", [], lambda m, w: means.geometric_mean(m[0], m[1])),
    ("geo-t", ["--t", "0.3"], lambda m, w: means.geometric_mean_t(m[0], m[1], 0.3)),
    ("logeuclid", [], lambda m, w: means.log_euclidean_multi(m, w)),
    ("qhalf", [], lambda m, w: means.q_half(m, w)),
])
def test_mean_report_is_the_library_mean_bit_for_bit(capsys, family, kind, extra, expected):
    paths, mats = family
    if kind.startswith("geo"):
        paths, mats = paths[:2], mats[:2]
        weights = None
    else:
        weights = [0.2, 0.3, 0.5]
        extra = [*extra, "--weights", json.dumps(weights)]
    code, report, _ = run_cli(capsys, ["mean", kind, *paths, *extra])
    assert code == EXIT_OK
    w = WeightVector(weights) if weights else WeightVector.uniform(2)
    assert report["inputs"]["weights"] == w.weights.tolist()
    got = matrix_from_payload(report["outputs"]["matrix"])
    assert np.array_equal(got, expected(mats, w).entries)


@pytest.mark.parametrize("kind, extra, mean_kind", [
    ("wasserstein", [], barycentre.WASSERSTEIN),
    ("power-t", ["--t", "0.3"], barycentre.PowerMean(0.3)),
    ("logeuclid-type", [], barycentre.LOG_EUCLIDEAN),
])
def test_bary_report_is_the_library_solution_bit_for_bit(capsys, family, kind, extra,
                                                         mean_kind):
    paths, mats = family
    code, report, _ = run_cli(capsys, ["bary", kind, *paths, *extra])
    assert code == EXIT_OK
    solution, solver_report = barycentre.solve(mean_kind, mats, WeightVector.uniform(3))
    assert np.array_equal(matrix_from_payload(report["outputs"]["matrix"]), solution.entries)
    assert report["solver"]["iterations"] == solver_report.iterations
    assert "seed" not in report["inputs"]


@pytest.fixture()
def counted_reads(monkeypatch):
    """Paths of the files read while the test runs, one entry per read
    through ``Path.read_bytes``, ``Path.read_text`` or ``open``."""
    reads = []

    def counting(original):
        def wrapper(path, *args, **kwargs):
            reads.append(str(path))
            return original(path, *args, **kwargs)
        return wrapper

    for owner, name in ((Path, "read_bytes"), (Path, "read_text"), (builtins, "open")):
        monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
    return reads


@pytest.mark.parametrize("command", ["dist", "hellinger", "mean", "bary"])
def test_each_input_file_is_read_once(capsys, tmp_path, matrix_files, counted_reads,
                                      command):
    a, b, c = matrix_files["a"], matrix_files["b"], matrix_files["c"]
    p, q, w = tmp_path / "p.json", tmp_path / "q.json", tmp_path / "w.json"
    p.write_text("[0.5, 0.5]")
    q.write_text("[0.25, 0.75]")
    w.write_text("[1, 2, 3]")
    argv = {
        "dist": ["dist", "d3", a, b],
        "hellinger": ["dist", "hellinger", str(p), str(q)],
        "mean": ["mean", "arith", a, b, c, "--weights", str(w)],
        "bary": ["bary", "power-t", a, b, c, "--weights", str(w)],
    }[command]
    counted_reads.clear()
    code, report, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    inputs = [arg for arg in argv if arg.endswith(".json")]
    assert sorted(counted_reads) == sorted(inputs)


def test_digest_is_the_hash_of_the_bytes_read(capsys, matrix_files):
    files = [matrix_files["a"], matrix_files["b"], matrix_files["c"]]
    _, report, _ = run_cli(capsys, ["mean", "arith", *files])
    h = hashlib.sha256()
    for path in files:
        h.update(Path(path).read_bytes() + b"\x00")
    assert report["inputs"]["digest"] == h.hexdigest()


@pytest.mark.parametrize("command", ["mean", "bary"])
@pytest.mark.parametrize("content", ['{"w": 1}', '"1, 2"', '[1, "x"]', "[]", "[1, -2]"],
                         ids=["object", "string", "non-number", "empty", "negative"])
def test_invalid_weights_file_exits_3_naming_the_file(capsys, tmp_path, matrix_files,
                                                      command, content):
    wfile = tmp_path / "weights.json"
    wfile.write_text(content)
    kind = "arith" if command == "mean" else "power-t"
    code, report, err = run_cli(
        capsys, [command, kind, matrix_files["a"], matrix_files["b"], "--weights", str(wfile)]
    )
    assert code == EXIT_INPUT_ERROR
    assert report is None
    assert "weights.json" in err


def test_runs_share_one_parser(capsys, monkeypatch, matrix_files):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "helmat":
            built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["dist", "d1", matrix_files["a"], matrix_files["b"]],
                 ["mean", "arith", matrix_files["a"], matrix_files["b"]],
                 ["verify", "all", "--samples", "0"]):
        run(argv)
    capsys.readouterr()
    assert len(built) <= 1


@pytest.fixture()
def mismatched_files(tmp_path):
    rng = make_rng(3)
    small, large = tmp_path / "small.json", tmp_path / "large.json"
    write_matrix_file(small, random_spd(rng, 3).entries)
    write_matrix_file(large, random_spd(rng, 5, complex_entries=True).entries)
    return str(small), str(large)


@pytest.mark.parametrize("argv", [
    ["dist", "d1"], ["dist", "d3"], ["mean", "arith"], ["mean", "qhalf"],
    ["bary", "wasserstein"], ["bary", "power-t"], ["bary", "logeuclid-type"],
], ids=lambda argv: "-".join(argv))
def test_dimension_mismatch_has_one_wording(capsys, mismatched_files, argv):
    code, report, err = run_cli(capsys, [*argv, *mismatched_files])
    assert code == EXIT_INPUT_ERROR
    assert report is None
    assert err == "error: dimension mismatch: 3 vs 5\n"


MALFORMED_VECTORS = {
    "object": '{"w": 1}',
    "string": '"1, 2"',
    "non-number": '[1, "x"]',
    "null": "[1, null]",
    "boolean": "[true, true]",
    "boolean-and-number": "[true, 1]",
    "nested": "[[1, 2]]",
    "ragged": "[[1], [1, 2]]",
    "huge-integer": f"[{10**400}, 1]",
    "empty": "[]",
}


@pytest.mark.parametrize("content", MALFORMED_VECTORS.values(), ids=MALFORMED_VECTORS.keys())
def test_malformed_weights_file_names_the_format(capsys, tmp_path, matrix_files, content):
    wfile = tmp_path / "w.json"
    wfile.write_text(content)
    code, report, err = run_cli(
        capsys, ["mean", "arith", matrix_files["a"], matrix_files["b"], "--weights", str(wfile)]
    )
    assert code == EXIT_INPUT_ERROR
    assert report is None
    assert err == f"error: {wfile}: weights must be a non-empty one-dimensional array of numbers\n"


@pytest.mark.parametrize("content", MALFORMED_VECTORS.values(), ids=MALFORMED_VECTORS.keys())
def test_malformed_probability_file_names_the_format(capsys, tmp_path, content):
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    p.write_text(content)
    q.write_text("[0.5, 0.5]")
    code, report, err = run_cli(capsys, ["dist", "hellinger", str(p), str(q)])
    assert code == EXIT_INPUT_ERROR
    assert report is None
    assert err == (
        f"error: {p}: probabilities must be a non-empty one-dimensional array of numbers\n"
    )
