import argparse
import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from twinscope import cli, linalg, mds, schmidt, state, twins, verify
from conftest import local_move, matrix_file, package_trees
from twinscope.cli import run
from twinscope.linalg import pauli, pauli_adjoint, random_unitary, tensor
from twinscope.mds import build_T, is_state, random_interior_t
from twinscope.report import format_complex, parse_complex, parse_state_file, render


@pytest.fixture
def singlet_file(tmp_path):
    path = tmp_path / "singlet.txt"
    amp = 1 / np.sqrt(2)
    path.write_text(f"pure 4\n0+0i {amp:.17g}+0i {-amp:.17g}+0i 0+0i\n")
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    return matrix_file(tmp_path / "mixed.txt", np.eye(4) / 4)


@pytest.fixture
def scrambled_edge_file(tmp_path):
    rng = np.random.default_rng(17)
    rho = local_move(build_T(np.array([0.4, -0.4, 1.0])), random_unitary(rng), random_unitary(rng))
    return matrix_file(tmp_path / "scrambled_edge.txt", rho)


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
    # the closed form reads (1 - 0.4)/2 to the last digit
    assert "mismatch_probability: 0.29999999999999999" in out
    code, out, _ = invoke(
        capsys, "correlate", "--t", "0.4,-0.4,1", "--a1", "0,0,0,1", "--a2", "0,0,0,1"
    )
    assert code == 0
    assert "degenerate: false" in out


def report_value(out, key):
    return float(next(line for line in out.splitlines() if f"{key}:" in line).split(":")[1])


def pauli_flag(name, c):
    return f"--{name}=" + ",".join(f"{x:.17g}" for x in c)


def test_correlate_is_local_unitary_invariant(capsys, tmp_path):
    # the scrambled frame gives the observables complex eigenvectors
    rng = np.random.default_rng(43)
    u1, u2 = random_unitary(rng), random_unitary(rng)
    rho = local_move(build_T(np.array([0.4, -0.4, 1.0])), u1, u2)
    path = matrix_file(tmp_path / "scrambled_edge.txt", rho)
    pairs = [([0, 1, 0, 0], [0, 1, 0, 0]), ([0, 0, 0, 1], [0, 0, 0, 1])]
    pairs.append((rng.standard_normal(4), rng.standard_normal(4)))
    for c1, c2 in pairs:
        plain = (pauli_flag("a1", c1), pauli_flag("a2", c2))
        moved = (
            pauli_flag("a1", pauli_adjoint(u1) @ c1),
            pauli_flag("a2", pauli_adjoint(u2) @ c2),
        )
        code, expected, _ = invoke(capsys, "correlate", "--t", "0.4,-0.4,1", *plain)
        assert code == 0
        code, out, _ = invoke(capsys, "correlate", "--input", path, *moved)
        assert code == 0
        assert "degenerate: false" in out
        for key in ("mismatch_probability", "expectation_gap"):
            assert abs(report_value(out, key) - report_value(expected, key)) <= 1e-12


def test_correlate_agrees_with_distant_correlation_to_rounding():
    # the command reads --a1 and --a2 as one Pauli row; distant_correlation reads to_pauli
    # of the lifted pair, so the last bit may differ and nothing more
    rng = np.random.default_rng(47)
    eps = np.finfo(float).eps
    for _ in range(20):
        rho = local_move(build_T(random_interior_t(rng)), random_unitary(rng), random_unitary(rng))
        given = state.State(mds.DEFAULT_TOL, 0, matrix=rho)
        for _ in range(100):
            a1, a2 = (",".join(f"{k / 1000:.3f}" for k in rng.integers(-1000, 1001, 4)) for _ in "12")
            tree, code = cli.cmd_correlate(argparse.Namespace(a1=a1, a2=a2), given)
            got = tree["result"]
            pair = twins.ObservablePair(
                a1=linalg.from_pauli(np.array(got["a1_pauli"])),
                a2=linalg.from_pauli(np.array(got["a2_pauli"])),
            )
            want = twins.distant_correlation(pair, rho)
            assert code == 0 and got["degenerate"] == want.degenerate
            table = np.array(got["joint_distribution"])
            assert np.abs(table - want.joint_distribution).max() <= 4 * eps
            assert abs(got["mismatch_probability"] - want.mismatch_probability) <= 4 * eps
            assert abs(got["expectation_gap"] - want.expectation_gap) <= 4 * eps


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
        ("--weights", "1e-11,0.3,0.69999999998,1e-11"),
    ):
        code, out, _ = invoke(capsys, "verify", *state_args)
        assert code == 0
        assert "failed: 0" in out


def test_is_state_runs_once_per_call(capsys, monkeypatch, scrambled_edge_file):
    calls = []

    def counted(t, tol=mds.DEFAULT_TOL):
        calls.append(t)
        return is_state(t, tol)

    monkeypatch.setattr(mds, "is_state", counted)
    monkeypatch.setattr(state, "is_state", counted)
    for command in ("classify", "twins", "verify"):
        for state_args in (("--t", "0.4,-0.4,1"), ("--input", scrambled_edge_file)):
            calls.clear()
            code, _, _ = invoke(capsys, command, *state_args)
            assert code == 0
            assert len(calls) == 1


# validate_density_matrix calls per command: (scrambled matrix file, --t of the same edge)
VALIDATIONS = {
    "classify": (1, 0),
    "schmidt": (1, 1),
    "twins": (1, 1),
    # the input once: verify's moved state and Bell components are rotations of its R
    "verify": (1, 1),
    "separability": (1, 1),
    "correlate": (1, 1),
    "canonicalize": (1, 1),
}

# (classify, twin oracle) calls per command, for either input: the oracle reads the
# validated input's R, and verify's local-unitary-covariance check the moved R after it
RESOLUTIONS = {"classify": (1, 0), "twins": (1, 1), "verify": (1, 2)}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_input_is_validated_once(capsys, monkeypatch, scrambled_edge_file, command):
    validations, validated, verdicts, classes, oracles = [], [], [], [], []
    validate, classify, twin_space = mds.validate_density_matrix, mds.classify, state._twin_space

    def counted(rho, *args, **kwargs):
        validations.append(rho)
        validated.append(validate(rho, *args, **kwargs))
        return validated[-1]

    def counted_is_state(t, tol=mds.DEFAULT_TOL):
        verdicts.append(t)
        return is_state(t, tol)

    def counted_classify(t, *args):
        classes.append(t)
        return classify(t, *args)

    def counted_twin_space(rho, tol):
        oracles.append(rho)
        return twin_space(rho, tol)

    for module in (mds, twins, state):
        monkeypatch.setattr(module, "validate_density_matrix", counted)
    monkeypatch.setattr(mds, "is_state", counted_is_state)
    monkeypatch.setattr(state, "is_state", counted_is_state)
    monkeypatch.setattr(mds, "classify", counted_classify)
    monkeypatch.setattr(state, "classify", counted_classify)
    monkeypatch.setattr(state, "_twin_space", counted_twin_space)
    extra = ("--a1=0,0,0,1", "--a2=0,0,0,1") if command == "correlate" else ()
    counts = []
    for state_args in (("--input", scrambled_edge_file), ("--t", "0.4,-0.4,1")):
        for calls in (validations, validated, verdicts, classes, oracles):
            calls.clear()
        code, _, err = invoke(capsys, command, *state_args, *extra)
        assert code == 0, err
        counts.append(len(validations))
        assert len(verdicts) <= 1
        assert (len(classes), len(oracles)) == RESOLUTIONS.get(command, (0, 0))
        assert all(
            np.array_equal(R, linalg.pauli_coordinates(rho)) for R, rho in zip(oracles, validated)
        )
    assert tuple(counts) == VALIDATIONS[command]


# what the one resolution in state computes; a command or a check reaching one of these
# could validate, classify or solve an input a second time
RESOLVED_IN_STATE = {
    "classify",
    "is_state",
    "_is_mds",
    "_twin_space",
    "_canonicalize",
    "pauli_coordinates",
    "validate_density_matrix",
    "random_unitary",
}


def _names_used(module) -> set[str]:
    """Names a module imports from others, and attributes it reads."""
    tree = package_trees()[Path(module.__file__).name]
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return imported | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_cli_imports_nothing_the_resolution_computes():
    assert _names_used(cli) & (RESOLVED_IN_STATE | {"build_T"}) == set()
    # verify's own build_T and _canonical_form routes stay: they are its cross-checks
    assert _names_used(verify) & RESOLVED_IN_STATE == set()


@pytest.mark.parametrize(
    "state_args, message",
    [
        # inside the tetrahedron at --tol alone: the membership cut is never looser than
        # the 1e-8 gate T(t) has to pass
        (
            ("--weights=-0.0005,0.3305,0.335,0.335", "--tol=0.001"),
            "t-vector [0.34, 0.331, 0.33099999999999996] is outside the tetrahedron "
            "(weight w0 = -0.0005)",
        ),
        # within the 1e-8 gate, but outside the tetrahedron at --tol
        (
            ("--weights=-5e-10,0.3,0.3500000005,0.35", "--tol=1e-12"),
            "t-vector [0.400000001, 0.29999999999999993, 0.30000000099999996] is outside "
            "the tetrahedron (weight w0 = -4.99999971981e-10)",
        ),
        (("--t=1,1,1",), "t-vector [1.0, 1.0, 1.0] is outside the tetrahedron (weight w0 = -0.5)"),
    ],
)
def test_one_input_gets_one_answer(capsys, state_args, message):
    for command in cli.COMMANDS:
        extra = ("--a1=0,0,0,1", "--a2=0,0,0,1") if command == "correlate" else ()
        code, out, err = invoke(capsys, command, *state_args, *extra)
        if command == "classify":
            # classify reports a non-state instead of rejecting it
            assert code == 0, err
            assert "  class: non_state\n" in out
            continue
        assert (code, out) == (1, "")
        assert err == f"twinscope {command}: error: {message}\n"


def test_schmidt_reads_the_matrix_every_command_reads(capsys, monkeypatch, tmp_path):
    rng = np.random.default_rng(23)
    phi = tensor(random_unitary(rng), random_unitary(rng)) @ mds.bell_state(2)[0]
    path = tmp_path / "pure.txt"
    path.write_text("pure 4\n" + " ".join(format_complex(z) for z in phi) + "\n")
    seen = {}

    def recording(command, fn):
        def wrapped(rho, *args):
            seen[command] = rho
            return fn(rho, *args)

        return wrapped

    for command, module, name in (
        ("schmidt", schmidt, "_operator_schmidt"),
        ("separability", cli, "_ppt_separable"),
        ("twins", state, "_twin_space"),
    ):
        monkeypatch.setattr(module, name, recording(command, getattr(module, name)))
        code, _, err = invoke(capsys, command, "--input", str(path))
        assert code == 0, err
    # the validated Hermitian part of the projector, not the raw outer product, and the
    # kernels that read R read its Pauli coordinates
    expected = mds.validate_density_matrix(np.outer(phi, phi.conj()))
    assert np.array_equal(seen.pop("separability"), expected)
    for R in seen.values():
        assert np.array_equal(R, linalg.pauli_coordinates(expected))


def test_schmidt_guards_a_file_once(capsys, guard_callers, scrambled_edge_file):
    code, _, err = invoke(capsys, "schmidt", "--input", scrambled_edge_file)
    assert code == 0, err
    # the schmidt command reads the file's validated Hermitian part with no second guard
    assert guard_callers == ["validate_density_matrix"]


def test_correlate_runs_no_guard_on_its_lifted_pair(capsys, guard_callers):
    code, _, err = invoke(
        capsys, "correlate", "--t", "0.4,-0.4,1", "--a1", "0,1,0,0", "--a2", "0,1,0,0"
    )
    assert code == 0, err
    # the pair is read as its real Pauli components, and is_state admits t with no guard
    assert guard_callers == []


def test_verify_guards_no_random_commutant_draw(capsys, guard_callers, singlet_file):
    code, out, err = invoke(capsys, "verify", "--input", singlet_file)
    assert code == 0, err
    assert "name: pure-state-commutant\n      passed: true" in out
    # random_hermitian draws are (z + z^dag)/2, Hermitian as built: only the input's
    # validation guards, since verify moves R and validates nothing it builds
    assert guard_callers == ["validate_density_matrix"]


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
    code, out, err = invoke(capsys)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "twinscope: error: a subcommand is required"
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


@pytest.mark.parametrize(
    "command, flag, text, field",
    [
        ("classify", "--t", "0.1,,0.2,0.3", 2),
        ("classify", "--t", "0.1,0.2,0.3,", 4),
        ("classify", "--t", ",0.1,0.2,0.3", 1),
        ("classify", "--t", "0.1, ,0.3", 2),
        ("twins", "--weights", "0.25,0.25,,0.25,0.25", 3),
        ("correlate", "--a1", "0,0,0,1,", 5),
        ("correlate", "--a2", ",0,0,0,1", 1),
    ],
)
def test_empty_float_field_rejected(capsys, command, flag, text, field):
    argv = {"--t": "0,0,1", "--a1": "0,0,0,1", "--a2": "0,0,0,1"} if command == "correlate" else {}
    argv[flag] = text
    code, out, err = invoke(capsys, command, *(f"{k}={v}" for k, v in argv.items()))
    assert (code, out) == (1, "")
    assert err == f"twinscope {command}: error: {flag}: field {field} of {text!r} is empty\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--t=",), "--t: field 1 of '' is empty"),
        (("--input=",), "--input: the path is empty"),
        (
            ("--t=", "--weights=1,0,0,0"),
            "exactly one of --t, --weights, --input must be given (got t, weights)",
        ),
        (("--t=a,0,0",), "--t: could not convert string to float: 'a'"),
        (("--weights=0.5,0.5,0.5,0.5",), "--weights must sum to 1, got 2"),
    ],
)
def test_empty_flag_value_is_given(capsys, argv, message):
    code, out, err = invoke(capsys, "classify", *argv)
    assert (code, out) == (1, "")
    assert err == f"twinscope classify: error: {message}\n"


# argv -> why argparse rejects its --tol
BAD_TOL = {
    ("classify", "--t=0.1,0.2,0.3", "--tol=nan"): "must be finite and in (0, 0.1), got nan",
    ("classify", "--t=0.1,0.2,0.3", "--tol=-1"): "must be finite and in (0, 0.1), got -1",
    ("twins", "--t=0.1,0.2,0.3", "--tol=nan"): "must be finite and in (0, 0.1), got nan",
    ("twins", "--t=0.1,0.2,0.3", "--tol=inf"): "must be finite and in (0, 0.1), got inf",
    ("twins", "--t=0.1,0.2,0.3", "--tol=0"): "must be finite and in (0, 0.1), got 0",
    # at 1/RANK_GUARD no kept value can clear the guard band
    ("classify", "--weights=1,0,0,0", "--tol=0.1"): "must be finite and in (0, 0.1), got 0.1",
    ("classify", "--t=0.1,0.2,0.3", "--tol=abc"): "expects a number, got 'abc'",
}


@pytest.mark.parametrize("argv", BAD_TOL)
def test_bad_tol_rejected_where_parsed(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"twinscope {argv[0]}: error: argument --tol: {BAD_TOL[argv]}"


def test_tol_just_below_guard_bound_is_accepted(capsys):
    code, out, _ = invoke(capsys, "classify", "--weights=1,0,0,0", "--tol=0.09")
    assert code == 0
    assert "class: bell_vertex" in out


def test_bad_seed_rejected_where_parsed(capsys):
    for text, reason in (
        ("-1", "must be a non-negative integer, got -1"),
        ("abc", "expects an integer, got 'abc'"),
    ):
        code, out, err = invoke(capsys, "verify", "--t=0.1,0.2,0.3", f"--seed={text}")
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == f"twinscope verify: error: argument --seed: {reason}"


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


def test_a_t_at_the_gate_gets_one_answer_at_a_loose_tol(capsys):
    # the smallest weight passes the 1e-8 cut and the smallest eigenvalue of T(t) does not
    t = "--t=0.976960117838385,-0.18603611084318827,0.20907603300480326"
    code, out, _ = invoke(capsys, "classify", t, "--tol=1e-7")
    assert code == 0
    assert "  class: non_state\n" in out
    assert "  detail: min eigenvalue of T(t) = -1.00000000086e-08 < -1e-08\n" in out
    for command in ("twins", "verify", "separability", "schmidt", "canonicalize"):
        code, out, err = invoke(capsys, command, t, "--tol=1e-7")
        assert (code, out) == (1, "")
        assert err == (
            f"twinscope {command}: error: t-vector [0.976960117838385, -0.18603611084318827, "
            "0.20907603300480326] is outside the tetrahedron "
            "(min eigenvalue of T(t) = -1.00000000086e-08)\n"
        )


def test_canonicalize_ignores_rank_tol(capsys, scrambled_edge_file):
    # --tol is the rank cut; the canonicalization residual bound is fixed
    code, out, _ = invoke(capsys, "canonicalize", "--tol", "1e-17", "--input", scrambled_edge_file)
    assert code == 0
    assert "residual:" in out


def test_is_state_consistency_raise_exits_2(monkeypatch, capsys):
    # a rounding bound below 0 no |min weight - min eigenvalue| can meet
    t = np.array([0.1, 0.2, 0.3])
    min_w = float(mds.weights_from_t(t).min())
    min_eig = float(np.linalg.eigvalsh(build_T(t))[0])
    message = (
        f"weight test ({min_w:.3e}) and eigenvalue test ({min_eig:.3e}) disagree beyond rounding"
    )
    monkeypatch.setattr(mds, "state_test_rounding", lambda w: -1.0)
    with pytest.raises(mds.InternalConsistencyError) as info:
        is_state(t)
    assert str(info.value) == message
    code, out, err = invoke(capsys, "classify", "--t=0.1,0.2,0.3")
    assert (code, out) == (2, "")
    assert err == f"twinscope classify: internal consistency failure: {message}\n"


def test_canonicalize_consistency_raise_exits_2(monkeypatch, capsys, scrambled_edge_file):
    # a residual bound of 0 that a scrambled matrix's rounding residual exceeds
    monkeypatch.setattr(mds, "_residual_bound", lambda R: 0.0)
    with pytest.raises(mds.InternalConsistencyError) as info:
        mds.canonicalize(parse_state_file(scrambled_edge_file)[1])
    assert str(info.value).startswith("canonicalization residual ")
    assert str(info.value).endswith(" exceeds 0.000e+00, 1e-09 plus the local part")
    code, out, err = invoke(capsys, "canonicalize", "--input", scrambled_edge_file)
    assert (code, out) == (2, "")
    assert err == f"twinscope canonicalize: internal consistency failure: {info.value}\n"


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
    path = matrix_file(tmp_path / "product.txt", np.diag([1.0, 0.0, 0.0, 0.0]))
    code, _, err = invoke(capsys, "classify", "--input", path)
    assert code == 1
    assert "disordered" in err
    code, out, _ = invoke(capsys, "twins", "--input", path)
    assert code == 0
    assert "analytic" not in out
    code, _, err = invoke(capsys, "verify", "--input", path)
    assert code == 1
    assert "disordered" in err


def test_near_hermitian_matrix_is_read_as_its_hermitian_part(capsys, tmp_path):
    # deviation 5e-9: inside the 1e-8 validation gate, above the 1e-9 guard of later stages
    rho = build_T(np.array([0.2, 0.1, -0.05]))
    rho[0, 1] += 5e-9
    path = matrix_file(tmp_path / "near_hermitian.txt", rho)
    spec, _ = cli.load_state_spec(cli.build_parser().parse_args(["schmidt", "--input", path]))
    assert np.array_equal(spec.rho, spec.rho.conj().T)
    assert np.abs(spec.rho - rho).max() <= 2.5e-9
    for command in ("separability", "schmidt"):
        code, out, err = invoke(capsys, command, "--input", path)
        assert code == 0, err


def test_near_disordered_matrix_has_no_internal_failure(capsys, tmp_path):
    # rho_2 = I/2 + 2.5e-9 sigma_3: is_mds accepts it (1e-8), and no local unitary
    # removes that local part, so the canonical residual is 2.5e-9
    rho = build_T(np.array([0.2, 0.1, -0.05])) + tensor(np.eye(2) / 2, 2.5e-9 * np.diag([1, -1]))
    path = matrix_file(tmp_path / "near_mds.txt", rho)
    for command in cli.COMMANDS:
        extra = ("--a1=0,0,0,1", "--a2=0,0,0,1") if command == "correlate" else ()
        code, out, err = invoke(capsys, command, "--input", path, *extra)
        assert "internal consistency failure" not in err
        assert "result:" in out
        # verify's round-trip check reads canonicalize's residual bound
        assert code == 0, err
    code, out, _ = invoke(capsys, "canonicalize", "--input", path)
    assert abs(float(report_value(out, "residual")) - 2.5e-9) <= 1e-15


@pytest.mark.parametrize(
    "diagonal",
    [
        # trace 1 + 5e-9 and smallest eigenvalue -5e-9: both inside the 1e-8 gate
        np.array([0.1, 0.4, 0.4, 0.1]) * (1 + 5e-9),
        np.array([-5e-9, 0.5, 0.5, 5e-9]),
    ],
)
def test_correlate_reads_tables_within_the_gate(capsys, tmp_path, diagonal):
    path = matrix_file(tmp_path / "diagonal.txt", np.diag(diagonal).astype(complex))
    code, out, err = invoke(capsys, "correlate", "--input", path, "--a1=0,0,0,1", "--a2=0,0,0,1")
    assert code == 0, err
    # sigma_3 x sigma_3 is diagonal: the table is the diagonal itself
    assert abs(report_value(out, "mismatch_probability") - diagonal[1:3].sum()) <= 1e-15


def test_correlate_exits_two_on_a_broken_table(capsys, monkeypatch, mixed_file):
    einsum = np.einsum

    def broken(subscripts, *operands, **kwargs):
        out = einsum(subscripts, *operands, **kwargs)
        if subscripts.endswith("->nab"):
            # off by 2e-8 in the sum: beyond the gate plus rounding
            out = out + np.array([[2e-8, 0.0], [0.0, 0.0]])
        return out

    monkeypatch.setattr(np, "einsum", broken)
    code, out, err = invoke(
        capsys, "correlate", "--input", mixed_file, "--a1=0,0,0,1", "--a2=0,0,0,1"
    )
    assert (code, out) == (2, "")
    assert "joint distribution is not a probability table" in err


def _scaled_singlet_file(path, scale):
    amp = scale / np.sqrt(2)
    path.write_text(f"pure 4\n0+0i {amp:.17g}+0i {-amp:.17g}+0i 0+0i\n")
    return str(path)


def test_pure_vector_is_gated_once(capsys, tmp_path):
    # |phi|^2 - 1, the projector's trace less 1, meets the 1e-8 gate once. At 1 + 2e-9
    # the old 1e-10 bounds of pure_schmidt and of correlate's table failed, and a canonical
    # t read without dividing by the trace put three Bell weights on the default rank cut.
    for scale in (1 + 2e-9, 1 + 4e-9):
        path = _scaled_singlet_file(tmp_path / "singlet.txt", scale)
        for command in cli.COMMANDS:
            extra = ("--a1=0,0,0,1", "--a2=0,0,0,1") if command == "correlate" else ()
            code, out, err = invoke(capsys, command, "--input", path, *extra)
            assert code == 0, (scale, command, err)
    path = _scaled_singlet_file(tmp_path / "singlet.txt", 1 + 7e-9)
    for command in cli.COMMANDS:
        extra = ("--a1=0,0,0,1", "--a2=0,0,0,1") if command == "correlate" else ()
        code, out, err = invoke(capsys, command, "--input", path, *extra)
        assert (code, out) == (1, "")
        assert err == (
            f"twinscope {command}: error: pure state vector has squared norm 1.000000014, "
            "expected 1\n"
        )


def test_canonical_t_is_read_per_unit_trace(capsys, tmp_path):
    # trace 1 + 8e-9 passes the 1e-8 gate; read from 4 R[1:, 1:] alone, the canonical
    # |t_i| were 1 + 8e-9 and the singlet a non-state that verify passed with no check run
    path = _scaled_singlet_file(tmp_path / "singlet.txt", 1 + 4e-9)
    code, out, err = invoke(capsys, "classify", "--input", path)
    assert code == 0, err
    assert "  class: bell_vertex\n" in out and "canonical_t: [1, 1, -1]" in out
    code, out, err = invoke(capsys, "verify", "--input", path)
    assert code == 0, err
    assert "  stratum: bell_vertex\n" in out
    assert "  passed: 11\n  failed: 0\n" in out


def test_verify_rejects_a_file_whose_canonical_form_is_a_non_state(capsys, tmp_path):
    # sum_k w_k P_k with w0 = -5e-9: the 1e-8 gate admits it, the tetrahedron does not
    w = np.array([-5e-9, 0.3, 0.3, 0.4 + 5e-9])
    projectors = np.array([mds.bell_state(k)[1] for k in range(4)])
    path = matrix_file(tmp_path / "mixture.txt", np.einsum("k,kab->ab", w, projectors))
    code, out, _ = invoke(capsys, "classify", "--input", path)
    assert code == 0 and "  class: non_state\n" in out
    code, out, err = invoke(capsys, "verify", "--input", path)
    assert (code, out) == (1, "")
    assert err.startswith("twinscope verify: error: canonical t-vector ")
    assert err.endswith(
        " is outside the tetrahedron (weight w0 = -5.000000039e-09 < -1e-09)\n"
    )


def test_disordered_gate_gives_one_answer_for_every_seed(capsys, tmp_path):
    # rho_2 - I/2 = 1.3e-8 (sigma_1 + sigma_3)/sqrt(2): every entry is 9.2e-9, inside
    # 1e-8, but the gate reads the operator norm 1.3e-8, which no seeded local move changes
    kick = tensor(np.eye(2) / 2, 1.3e-8 * (pauli(1) + pauli(3)) / np.sqrt(2))
    path = matrix_file(tmp_path / "kick.txt", build_T(np.array([0.3, -0.2, 0.1])) + kick)
    for command in cli.COMMANDS:
        extra = ("--a1=0,0,0,1", "--a2=0,0,0,1") if command == "correlate" else ()
        seeds = (f"--seed={s}" for s in range(20))
        answers = {invoke(capsys, command, "--input", path, seed, *extra) for seed in seeds}
        assert len(answers) == 1, command
        ((code, out, err),) = answers
        if command in ("classify", "verify", "canonicalize"):
            assert code == 1 and "maximally disordered" in err
        else:
            assert code == 0 and "analytic" not in out, err
    assert "by 0.000e+00 and 1.300e-08 in operator norm" in err


# pauli_coordinates calls per command on a scrambled matrix file: once for the input
# wherever mds, schmidt or state read it; verify moves R and converts nothing more
COORDINATES = {
    "classify": 1,
    "schmidt": 1,
    "twins": 1,
    "verify": 1,
    "separability": 0,
    "correlate": 1,
    "canonicalize": 1,
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_pauli_coordinates_once_per_state(capsys, monkeypatch, scrambled_edge_file, command):
    calls = []
    coordinates = linalg.pauli_coordinates

    def counted(rho):
        calls.append(rho)
        return coordinates(rho)

    for module in (mds, schmidt, state):
        monkeypatch.setattr(module, "pauli_coordinates", counted)
    extra = ("--a1=0,0,0,1", "--a2=0,0,0,1") if command == "correlate" else ()
    code, _, err = invoke(capsys, command, "--input", scrambled_edge_file, *extra)
    assert code == 0, err
    assert len(calls) == COORDINATES[command]


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
            "import sys, twinscope.cli, twinscope.verify, twinscope.schmidt, "
            "twinscope.twins, twinscope.state, twinscope.report; "
            "print([m for m in sys.modules if m.startswith('scipy')])",
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _child_modules(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running `code`."""
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def bare_modules():
    """What a child that imports only numpy and argparse has loaded."""
    return _child_modules("import numpy, argparse")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(command, bare_modules):
    argv = [command, "--t", "0.4,-0.4,1"]
    if command == "correlate":
        argv += ["--a1", "0,1,0,0", "--a2", "0,1,0,0"]
    loaded = _child_modules(f"import twinscope.cli\nassert twinscope.cli.run({argv!r}) == 0")
    expected = {
        "schmidt": {"twinscope.schmidt"},
        "verify": {"twinscope.schmidt", "twinscope.verify"},
    }.get(command, set())
    assert loaded & {"twinscope.schmidt", "twinscope.verify"} == expected
    assert "dataclasses" in bare_modules or "dataclasses" not in loaded


def test_package_exports_load_their_module_on_first_read():
    # a fresh import loads no submodule; the first read of a name loads its module and binds it
    assert not {m for m in _child_modules("import twinscope") if m.startswith("twinscope.")}
    loaded = _child_modules(
        "import twinscope\n"
        "assert 'classify' not in vars(twinscope)\n"
        "f = twinscope.classify\n"
        "assert vars(twinscope)['classify'] is f"
    )
    assert {m for m in loaded if m.startswith("twinscope.")} == {"twinscope.linalg", "twinscope.mds"}


def test_package_namespace():
    import twinscope

    star: dict = {}
    exec("from twinscope import *", star)
    del star["__builtins__"]
    assert set(star) == set(twinscope.__all__)
    for name in twinscope.__all__:
        obj = getattr(twinscope, name)
        if name != "__version__":
            assert getattr(sys.modules[obj.__module__], name) is obj
        # bound in the package: later reads are plain dict hits, not __getattr__ calls
        assert vars(twinscope)[name] is obj
    assert set(twinscope.__all__) <= set(dir(twinscope))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        twinscope.no_such_name


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
    path = tmp_path / "state.txt"
    for content, message in (
        ("", "empty state file"),
        ("matrix 3 3\n" + "0+0i " * 9 + "\n", "expected header 'matrix 4 4', got 'matrix 3 3'"),
        ("pure 4\n1+0i 0+0i\n", "expected 4 amplitudes, got 2"),
    ):
        path.write_text(content)
        with pytest.raises(ValueError) as info:
            parse_state_file(str(path))
        assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "header, entries, token",
    [
        ("matrix 4 4", ["0.25+0i"] * 5 + ["nan"] + ["0+0i"] * 10, "nan"),
        ("matrix 4 4", ["0.25+0i"] * 15 + ["inf"], "inf"),
        ("matrix 4 4", ["0+0i"] * 3 + ["0-infi"] + ["0+0i"] * 12, "0-infi"),
        ("pure 4", ["nan", "0+0i", "0+0i", "1+0i"], "nan"),
        ("pure 4", ["0.6+0i", "-inf+0i", "0+0i", "0.8+0i"], "-inf+0i"),
    ],
)
def test_non_finite_state_file_entry_rejected_where_parsed(
    capsys, tmp_path, header, entries, token
):
    path = tmp_path / "non_finite.txt"
    path.write_text(header + "\n" + " ".join(entries) + "\n")
    message = f"{path}: entry {entries.index(token) + 1} is not finite: {token!r}"
    with pytest.raises(ValueError) as info:
        parse_state_file(str(path))
    assert str(info.value) == message
    code, out, err = invoke(capsys, "twins", "--input", str(path))
    assert (code, out, err) == (1, "", f"twinscope twins: error: {message}\n")


def test_render_nested_tree():
    # every shape a report holds, as the library hands it over
    tree = {
        "count": 3,
        "ok": np.True_,
        "degeneracy": (1, 3),
        "t": np.array([0.5, -0.0, 1e-17]),
        "u": np.array([[1, 0.5j], [-0.0, 1 - 2j]]),
        "ops": np.array([np.eye(2), [[0, 1], [1, 0]]], dtype=complex),
        "basis": [
            {"a1": np.array([0.0, 1.0]), "a2": np.array([2.5, -1.0])},
            {"a1": np.zeros(2), "a2": np.ones(2)},
        ],
        "result": {"kind": "edge", "nested": {"gap": np.float64(0.25), "rank": np.int64(2)}},
    }
    assert render(tree) == (
        "count: 3\n"
        "ok: true\n"
        "degeneracy: [1, 3]\n"
        "t: [0.5, -0, 1.0000000000000001e-17]\n"
        "u:\n"
        "  - [1+0i, 0+0.5i]\n"
        "  - [-0+0i, 1-2i]\n"
        "ops:\n"
        "  - [1+0i, 0+0i]\n"
        "    [0+0i, 1+0i]\n"
        "  - [0+0i, 1+0i]\n"
        "    [1+0i, 0+0i]\n"
        "basis:\n"
        "  - a1: [0, 1]\n"
        "    a2: [2.5, -1]\n"
        "  - a1: [0, 0]\n"
        "    a2: [1, 1]\n"
        "result:\n"
        "  kind: edge\n"
        "  nested:\n"
        "    gap: 0.25\n"
        "    rank: 2\n"
    )
