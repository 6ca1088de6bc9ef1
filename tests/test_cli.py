import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from twinscope.cli import run
from twinscope.linalg import random_unitary, tensor
from twinscope.mds import build_T
from twinscope.report import format_complex, parse_complex, parse_state_file, render


@pytest.fixture
def singlet_file(tmp_path):
    path = tmp_path / "singlet.txt"
    amp = 1 / np.sqrt(2)
    path.write_text(f"pure 4\n0+0i {amp:.17g}+0i {-amp:.17g}+0i 0+0i\n")
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.txt"
    rows = ["0.25+0i 0+0i 0+0i 0+0i"] * 4
    entries = []
    for i in range(4):
        row = ["0+0i"] * 4
        row[i] = "0.25+0i"
        entries.append(" ".join(row))
    path.write_text("matrix 4 4\n" + "\n".join(entries) + "\n")
    return str(path)


@pytest.fixture
def scrambled_edge_file(tmp_path):
    rng = np.random.default_rng(17)
    u = tensor(random_unitary(rng), random_unitary(rng))
    rho = u @ build_T(np.array([0.4, -0.4, 1.0])) @ u.conj().T
    path = tmp_path / "scrambled_edge.txt"
    rows = [" ".join(format_complex(z) for z in row) for row in rho]
    path.write_text("matrix 4 4\n" + "\n".join(rows) + "\n")
    return str(path)


# child interpreters import twinscope from the source tree, as pytest does
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_edge_report(capsys):
    code, out, err = invoke(capsys, "classify", "--t", "0.4,-0.4,1")
    assert code == 0
    assert "class: binary_edge" in out
    assert "axis: 3" in out
    assert "case: A" in out
    assert "T1: 0.29999999999999999" in out
    assert "T2: 0.69999999999999996" in out


def test_classify_vertex_and_interior(capsys):
    code, out, _ = invoke(capsys, "classify", "--weights", "1,0,0,0")
    assert code == 0
    assert "class: bell_vertex" in out
    assert "vertex: 0" in out
    code, out, _ = invoke(capsys, "classify", "--t", "0.2,0.1,-0.05")
    assert code == 0
    assert "class: generic_interior" in out


def test_classify_non_state_reports_verdict(capsys):
    code, out, _ = invoke(capsys, "classify", "--t", "1,1,1")
    assert code == 0
    assert "class: non_state" in out


def test_twins_singlet_dimension_four(capsys):
    code, out, _ = invoke(capsys, "twins", "--weights", "1,0,0,0")
    assert code == 0
    assert "dimension: 4" in out
    assert "has_nontrivial: true" in out
    assert "agreement_residual" in out


def test_twins_interior_trivial(capsys):
    code, out, _ = invoke(capsys, "twins", "--t", "0.2,0.1,-0.05")
    assert code == 0
    assert "dimension: 1" in out
    assert "has_nontrivial: false" in out


def test_separability_reports(capsys):
    code, out, _ = invoke(capsys, "separability", "--t", "0,0,1")
    assert code == 0
    assert "separable: true" in out
    code, out, _ = invoke(capsys, "separability", "--weights", "1,0,0,0")
    assert code == 0
    assert "separable: false" in out
    assert "min_partial_transpose_eigenvalue: -0.5" in out


def test_correlate_mismatch(capsys):
    code, out, _ = invoke(
        capsys, "correlate", "--t", "0.4,-0.4,1", "--a1", "0,1,0,0", "--a2", "0,1,0,0"
    )
    assert code == 0
    assert "mismatch_probability: 0.29999999999999982" in out
    code, out, _ = invoke(
        capsys, "correlate", "--t", "0.4,-0.4,1", "--a1", "0,0,0,1", "--a2", "0,0,0,1"
    )
    assert code == 0
    assert "degenerate: false" in out


def test_canonicalize_from_file(capsys, mixed_file):
    code, out, _ = invoke(capsys, "canonicalize", "--input", mixed_file)
    assert code == 0
    assert "t: [0, 0, 0]" in out
    assert "residual: 0" in out


def test_schmidt_pure_input_includes_correlation_operator(capsys, singlet_file):
    code, out, _ = invoke(capsys, "schmidt", "--input", singlet_file)
    assert code == 0
    assert "coefficients: [0.5, 0.5, 0.5, 0.5]" in out
    assert "correlation_operator" in out
    assert "rank: 2" in out


def test_verify_three_strata_exit_zero(capsys):
    for state_args in (
        ("--weights", "1,0,0,0"),
        ("--t", "0.4,-0.4,1"),
        ("--t", "0.2,0.1,-0.05"),
        ("--weights", "2e-7,0.3,0.6999996,2e-7"),
    ):
        code, out, _ = invoke(capsys, "verify", *state_args)
        assert code == 0
        assert "failed: 0" in out


def test_verify_covers_all_named_checks(capsys):
    all_names = {
        "weights-roundtrip",
        "bell-mixture-identity",
        "state-test-agreement",
        "vertex-sign-table",
        "edge-weight-consistency",
        "canonical-form-roundtrip",
        "twin-dimension-law",
        "analytic-twins-in-oracle",
        "mixture-intersection-twins",
        "local-unitary-covariance",
        "pure-state-commutant",
        "perfect-correlation",
        "twin-spectra-match",
    }
    seen = set()
    for state_args in (
        ("--weights", "1,0,0,0"),
        ("--t", "0.4,-0.4,1"),
        ("--t", "0.2,0.1,-0.05"),
    ):
        _, out, _ = invoke(capsys, "verify", *state_args)
        for line in out.splitlines():
            line = line.strip()
            if line.startswith("- name: "):
                seen.add(line.removeprefix("- name: "))
    assert seen == all_names


def test_exit_code_one_on_bad_input(capsys, tmp_path):
    assert invoke(capsys, "twins", "--t", "1,1,1")[0] == 1
    assert invoke(capsys, "classify")[0] == 1
    assert invoke(capsys, "classify", "--t", "1,2")[0] == 1
    assert invoke(capsys, "classify", "--t", "0,0,0", "--weights", "1,0,0,0")[0] == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    assert invoke(capsys, "classify", "--input", str(bad))[0] == 1
    missing = tmp_path / "missing.txt"
    assert invoke(capsys, "classify", "--input", str(missing))[0] == 1
    assert invoke(capsys, "nonsense-command")[0] == 1
    non_finite = (
        ("--t", ("classify", "--t", "nan,0,0")),
        ("--t", ("classify", "--t=inf,0,0")),
        ("--t", ("twins", "--t=-inf,0,0")),
        ("--weights", ("classify", "--weights", "nan,0,0,1")),
        ("--a1", ("correlate", "--t", "0,0,1", "--a1", "0,nan,0,0", "--a2", "0,0,0,1")),
        ("--a2", ("correlate", "--t", "0,0,1", "--a1", "0,0,0,1", "--a2", "inf,0,0,0")),
    )
    for flag, argv in non_finite:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = invoke(capsys, *argv)
        assert code == 1
        assert f"{flag} values must be finite" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_ambiguous_rank_exits_two(capsys):
    code, out, err = invoke(
        capsys, "twins", "--t=0.29999999910000003,-0.29999999910000003,0.999999997"
    )
    assert code == 2
    assert out == ""
    assert "ambiguous rank decision" in err
    # classify decides the same stratum boundary from the Bell weights
    code, out, err = invoke(capsys, "classify", "--t=0.4,-0.4,0.999999995")
    assert code == 2
    assert out == ""
    assert "ambiguous rank decision" in err


def test_non_state_t_has_one_message(capsys):
    messages = set()
    for cmd in ("schmidt", "twins", "verify"):
        code, out, err = invoke(capsys, cmd, "--t=1,1,1")
        assert code == 1
        assert out == ""
        messages.add(err.split(": error: ", 1)[1])
    assert messages == {"t-vector [1.0, 1.0, 1.0] is outside the tetrahedron (weight w0 = -0.5)\n"}
    code, out, _ = invoke(capsys, "classify", "--t=1,1,1")
    assert code == 0
    assert "class: non_state" in out


def test_canonicalize_ignores_rank_tol(capsys, scrambled_edge_file):
    # --tol is the rank cut; the canonicalization residual bound is fixed
    code, out, _ = invoke(capsys, "canonicalize", "--tol", "1e-17", "--input", scrambled_edge_file)
    assert code == 0
    assert "residual:" in out


def test_state_boundary_point_classifies(capsys):
    # the smallest weight sits within rounding of -tol, so the weight and
    # eigenvalue tests fall on opposite sides of the cut
    code, out, _ = invoke(
        capsys, "classify", "--t=0.2970718388005156,-0.044622861356271804,0.7475510265557562"
    )
    assert code == 0
    assert "class: generic_interior" in out
    code, out, _ = invoke(
        capsys, "verify", "--t=0.2970718388005156,-0.044622861356271804,0.7475510265557562"
    )
    assert code == 0
    assert "failed: 0" in out


def test_error_messages_are_distinct(capsys, tmp_path):
    _, _, err1 = invoke(capsys, "twins", "--t", "1,1,1")
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    _, _, err2 = invoke(capsys, "classify", "--input", str(bad))
    _, _, err3 = invoke(capsys, "unknown-subcommand")
    assert err1 != err2
    assert "unknown header" in err2
    assert "invalid choice" in err3


def test_non_mds_matrix_rejected_for_classify(capsys, tmp_path):
    # pure product state: valid density matrix, but not maximally disordered
    path = tmp_path / "product.txt"
    rows = []
    for i in range(4):
        row = ["0+0i"] * 4
        if i == 0:
            row[0] = "1+0i"
        rows.append(" ".join(row))
    path.write_text("matrix 4 4\n" + "\n".join(rows) + "\n")
    code, _, err = invoke(capsys, "classify", "--input", str(path))
    assert code == 1
    assert "disordered" in err
    code, out, _ = invoke(capsys, "twins", "--input", str(path))
    assert code == 0
    assert "analytic" not in out
    code, _, err = invoke(capsys, "verify", "--input", str(path))
    assert code == 1
    assert "disordered" in err


def test_verify_matrix_and_pure_input(capsys, scrambled_edge_file, singlet_file):
    for state_file, stratum in ((scrambled_edge_file, "binary_edge"), (singlet_file, "bell_vertex")):
        code, out, _ = invoke(capsys, "verify", "--input", state_file)
        assert code == 0
        assert "failed: 0" in out
        assert f"stratum: {stratum}" in out


def test_reports_are_deterministic(capsys):
    _, out1, _ = invoke(capsys, "verify", "--t", "0.4,-0.4,1", "--seed", "7")
    _, out2, _ = invoke(capsys, "verify", "--t", "0.4,-0.4,1", "--seed", "7")
    assert out1 == out2
    _, out3, _ = invoke(capsys, "twins", "--weights", "0,0.3,0.7,0")
    _, out4, _ = invoke(capsys, "twins", "--weights", "0,0.3,0.7,0")
    assert out3 == out4


def test_reports_echo_tolerances(capsys):
    for cmd in ("classify", "twins", "separability", "canonicalize"):
        _, out, _ = invoke(capsys, cmd, "--t", "0.4,-0.4,1")
        assert "tolerances:" in out
        assert "rank:" in out


def test_tol_flag_is_echoed(capsys):
    _, out, _ = invoke(capsys, "classify", "--t", "0.4,-0.4,1", "--tol", "1e-7")
    assert "rank: 9.9999999999999995e-08" in out


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "twinscope", "classify", "--t", "0,0,1"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert "binary_edge" in result.stdout


def test_import_loads_no_scipy():
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, twinscope.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])",
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_complex_format_roundtrip():
    values = [0.5 + 0j, -0.25 - 0.5j, 1e-9 + 2e-3j, 0j, 3.0 + 0j]
    for z in values:
        assert parse_complex(format_complex(z)) == z
    with pytest.raises(ValueError):
        parse_complex("half past one")


def test_parse_state_file_errors(tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("matrix 4 4\n1+0i 0+0i\n")
    with pytest.raises(ValueError, match="16"):
        parse_state_file(str(short))
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("pure 3\n1+0i 0+0i 0+0i\n")
    with pytest.raises(ValueError, match="pure 4"):
        parse_state_file(str(wrong))


def test_render_nested_tree():
    tree = {
        "a": 1,
        "b": {"c": [1.0, 2.0], "d": "text"},
        "e": [[1 + 0j, 0j], [0j, 1 + 0j]],
        "f": True,
    }
    text = render(tree)
    assert "a: 1" in text
    assert "  c: [1, 2]" in text
    assert "- [1+0i, 0+0i]" in text
    assert "f: true" in text
