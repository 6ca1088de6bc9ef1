import ast
import inspect

import numpy as np
import pytest

from conftest import local_move, matrix_file, package_trees
from twinscope import cli, linalg, mds, schmidt, state, twins, verify
from twinscope.linalg import random_unitary, tensor
from twinscope.mds import BELL_VERTEX, DEFAULT_TOL, bell_state, bell_t_vector, build_T


def test_oracle_twin_space_computed_once(monkeypatch):
    rng = np.random.default_rng(3)
    rho = local_move(bell_state(2)[1], random_unitary(rng), random_unitary(rng))
    oracle = state._twin_space
    calls = []

    def counted(state, tol):
        calls.append(state)
        return oracle(state, tol)

    monkeypatch.setattr(state, "_twin_space", counted)
    ctx = state.State(DEFAULT_TOL, 0, matrix=rho)
    results = verify.run_verification(ctx)
    assert ctx.cls.kind == BELL_VERTEX
    assert all(r.passed for r in results)
    # rho's Pauli coordinates once, for the state's own space, and the locally moved R
    # once in the local-unitary-covariance check
    assert len(calls) == 2
    assert np.array_equal(calls[0], linalg.pauli_coordinates(mds.validate_density_matrix(rho)))
    assert calls[1] is ctx.moved[2]


@pytest.mark.parametrize(
    "t, validations",
    [
        # rho once, on the state's first read: the moved state and the Bell components of the
        # mixture-intersection check are rotations of its Pauli coordinates. The case
        # ids keep the names they had when the count here was three per stratum.
        pytest.param(bell_t_vector(1), 1, id="t0-3"),
        pytest.param(np.array([0.4, -0.4, 1.0]), 1, id="t1-3"),
        pytest.param(np.array([0.2, 0.1, -0.05]), 1, id="t2-3"),
    ],
)
def test_verify_validation_count_per_stratum(monkeypatch, t, validations):
    calls = []
    validate = mds.validate_density_matrix

    def counted(rho, *args, **kwargs):
        calls.append(rho)
        return validate(rho, *args, **kwargs)

    for module in (mds, twins, schmidt, state):
        if hasattr(module, "validate_density_matrix"):
            monkeypatch.setattr(module, "validate_density_matrix", counted)
    rng = np.random.default_rng(7)
    rho = local_move(build_T(t), random_unitary(rng), random_unitary(rng))
    ctx = state.State(DEFAULT_TOL, 0, matrix=rho)
    results = verify.run_verification(ctx)
    assert all(r.passed for r in results)
    assert len(calls) == validations


def _record_sizes(monkeypatch, module, name):
    """Patch a sampler of module to record the size of each call; returns the record."""
    sizes, draw = [], getattr(module, name)

    def recorded(*args, **kwargs):
        call = inspect.signature(draw).bind(*args, **kwargs)
        call.apply_defaults()
        sizes.append(call.arguments["size"])
        return draw(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return sizes


def test_shared_frame_drawn_once(monkeypatch):
    draw = state.random_unitary
    calls = _record_sizes(monkeypatch, state, "random_unitary")
    rng = np.random.default_rng(11)
    rho = local_move(build_T(np.array([0.4, -0.4, 1.0])), random_unitary(rng), random_unitary(rng))
    ctx = state.State(DEFAULT_TOL, 5, matrix=rho)
    assert all(r.passed for r in verify.run_verification(ctx))
    # canonical-form-roundtrip and local-unitary-covariance share (v1, v2), held as their
    # adjoints and drawn as one stack of two
    assert calls == [2]
    o1, o2, moved = ctx.moved
    fresh = ctx.rng()
    v1, v2 = draw(fresh), draw(fresh)
    assert np.array_equal(o1, linalg.pauli_adjoint(v1)) and np.array_equal(o2, linalg.pauli_adjoint(v2))
    assert np.abs(moved - linalg.pauli_coordinates(local_move(ctx.rho, v1, v2))).max() <= 1e-15


def test_commutant_draws_are_independent_of_the_move(monkeypatch):
    # the move draws (v1, v2) from rng(); pure-state-commutant draws its observables from
    # another stream of the same seed, so none is the Hermitian part of a move draw
    drawn = []
    transport = verify._pure_twin_partners
    monkeypatch.setattr(verify, "_pure_twin_partners", lambda a1, phi: drawn.append(a1) or transport(a1, phi))
    for seed in range(20):
        ctx = state.State(DEFAULT_TOL, seed, t=bell_t_vector(seed % 4))
        assert all(r.passed for r in verify.run_verification(ctx))
        rng = ctx.rng()
        moves = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in "12"]
        for z in moves:
            hermitian = (z + z.conj().T) / 2
            assert np.abs(drawn[-1] - hermitian).max(axis=(1, 2)).min() > 1e-3
    assert len(drawn) == 20


def test_commutant_stream_is_the_seeds_first_child(monkeypatch):
    sizes = _record_sizes(monkeypatch, verify, "random_hermitian")
    observables = []
    transport = verify._pure_twin_partners
    monkeypatch.setattr(
        verify, "_pure_twin_partners", lambda a1, phi: observables.append(a1) or transport(a1, phi)
    )
    for seed in (0, 7, 2**31 - 1):
        ctx = state.State(DEFAULT_TOL, seed, t=bell_t_vector(seed % 4))
        child = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        spawned = ctx.rng().spawn(1)[0]
        assert child.standard_normal(64).tobytes() == spawned.standard_normal(64).tobytes()
        assert all(r.passed for r in verify.run_verification(ctx))
        # the five observables are what five single draws from the spawned child give
        spawned = ctx.rng().spawn(1)[0]
        singles = np.array([linalg.random_hermitian(spawned) for _ in range(5)])
        assert observables[-1].tobytes() == singles.tobytes()
    # in one call per vertex op
    assert sizes == [5, 5, 5]


def test_each_kind_of_draw_is_one_call_per_op(monkeypatch):
    unitaries = _record_sizes(monkeypatch, state, "random_unitary")
    hermitians = _record_sizes(monkeypatch, verify, "random_hermitian")
    rng = np.random.default_rng(17)
    ts = [bell_t_vector(1), np.array([1.0, 0.3, -0.3]), np.array([0.2, -0.1, 0.3])]
    for n, t in enumerate(ts, start=1):
        rho = local_move(build_T(t), random_unitary(rng), random_unitary(rng))
        ctx = state.State(DEFAULT_TOL, n, matrix=rho)
        assert all(r.passed for r in verify.run_verification(ctx))
        assert len(unitaries) == n
    assert unitaries == [2, 2, 2]
    # only the vertex runs pure-state-commutant
    assert hermitians == [5]


def test_a_raw_matrix_meets_the_gate():
    # off-Hermitian by ~7e-3: the gate names that, rather than canonicalization's residual
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    matrix = build_T(np.array([0.4, -0.4, 1.0])) + 1e-3 * (a - a.conj().T)
    message = r"density matrix is not Hermitian \(max deviation 6.986e-03\)"
    with pytest.raises(ValueError, match=message):
        mds.validate_density_matrix(matrix)
    with pytest.raises(ValueError, match=message):
        state.State(DEFAULT_TOL, 0, matrix=matrix).rho
    with pytest.raises(ValueError, match=message):
        verify.run_verification(state.State(DEFAULT_TOL, 0, matrix=matrix))


def _scrambled_edge(seed):
    rng = np.random.default_rng(seed)
    return local_move(build_T(np.array([0.4, -0.4, 1.0])), random_unitary(rng), random_unitary(rng))


def test_make_context_is_a_plain_state():
    # cf is the benchmark's four-argument slot: no caller gives a frame
    rho = _scrambled_edge(17)
    ctx = verify.make_context(rho, None, DEFAULT_TOL, 3)
    assert type(ctx) is state.State and (ctx.tol, ctx.seed) == (DEFAULT_TOL, 3)
    reference = mds.canonicalize(rho)
    for name in reference._fields:
        assert np.asarray(getattr(ctx.frame, name)).tobytes() == np.asarray(getattr(reference, name)).tobytes()
    for cf in (reference, reference._replace(o1=np.eye(4), o2=np.eye(4)), 0, False):
        with pytest.raises(TypeError, match="make_context takes no frame: cf must be None"):
            verify.make_context(rho, cf, DEFAULT_TOL, 3)


def test_verify_names_a_state_with_no_frame():
    # a matrix whose subsystems are not maximally disordered has no frame: verify says so,
    # with the message the CLI gives, not canonicalization's
    ctx = verify.make_context(np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex), None, DEFAULT_TOL, 0)
    assert ctx.frame is None
    with pytest.raises(ValueError, match="^verify expects a state with maximally disordered subsystems$"):
        verify.run_verification(ctx)


def _state_parts():
    """The names a State defines: its methods and properties, and what __init__ binds."""
    tree = package_trees()["state.py"]
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "State"]
    names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    return names | {n.attr for n in ast.walk(init) if isinstance(n, ast.Attribute)}


def test_only_the_state_writes_its_parts():
    # a State computes every part itself: no other module stores to or deletes one
    parts = _state_parts()
    assert {"frame", "canonical", "space", "moved", "tol", "matrix"} <= parts
    writes = []
    for name, tree in package_trees().items():
        if name != "state.py":
            writes += [
                f"{name}:{node.lineno}: {ast.unparse(node)}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and node.attr in parts
            ]
    assert writes == []


def test_pauli_coordinates_once_per_verification(monkeypatch):
    calls = []
    coordinates = linalg.pauli_coordinates

    def counted(rho):
        calls.append(rho)
        return coordinates(rho)

    for module in (mds, schmidt, state):
        monkeypatch.setattr(module, "pauli_coordinates", counted)
    ctx = state.State(DEFAULT_TOL, 0, matrix=_scrambled_edge(13))
    assert all(r.passed for r in verify.run_verification(ctx))
    # the input once, on the state's first read; the moved state is a rotation of its R
    assert len(calls) == 1
    assert calls[0] is ctx.rho


def test_bell_coordinates_match_the_sign_table():
    # converted from the projectors, so they cross-check BELL_SIGNS: 1/sqrt(2) squared rounds
    for k in range(4):
        expected = np.diag(mds.BELL_SIGNS[k]) / 4
        assert np.abs(mds._BELL_COORDS[k] - expected).max() <= np.finfo(float).eps / 2
    assert not mds._BELL_COORDS.flags.writeable


def _complex_twin_residuals(rows, rho):
    """The former complex body: ||(a1 x I) rho - (I x a2) rho||_HS on the (2, 2, 2, 2) view."""
    ops = linalg.from_pauli(rows.reshape(-1, 2, 4))
    r = rho.reshape(2, 2, 2, 2)
    diff = np.einsum("nia,abcd->nibcd", ops[:, 0], r) - np.einsum("njb,abcd->najcd", ops[:, 1], r)
    return np.linalg.norm(diff.reshape(diff.shape[0], -1), axis=1)


def _recording(monkeypatch, name, seen):
    """Patch verify's binding of a kernel so each call's arguments and result land in seen."""
    kernel = getattr(verify, name)

    def recorded(*args):
        seen.append((*args, kernel(*args)))
        return seen[-1][-1]

    monkeypatch.setattr(verify, name, recorded)


def test_r_route_matches_the_complex_route(monkeypatch):
    # the complex route is the reference: Kronecker conjugation, validation, then the oracle
    seen = {name: [] for name in ("_canonical_form", "_twin_residuals", "_simultaneous_twins")}
    for name, calls in seen.items():
        _recording(monkeypatch, name, calls)
    rng = np.random.default_rng(61)
    vectors = [bell_t_vector(k % 4) for k in range(8)]
    vectors += [mds.random_edge_t(rng, k % 3 + 1, "AB"[k % 2]) for k in range(8)]
    vectors += [mds.random_interior_t(rng) for _ in range(8)]
    for n, t in enumerate(vectors):
        rho = local_move(build_T(t), random_unitary(rng), random_unitary(rng))
        ctx = state.State(DEFAULT_TOL, n, matrix=rho)
        for calls in seen.values():
            calls.clear()
        assert all(r.passed for r in verify.run_verification(ctx))
        o1, o2, moved = ctx.moved
        draws = ctx.rng()
        v1, v2 = random_unitary(draws), random_unitary(draws)
        assert np.array_equal(o1, linalg.pauli_adjoint(v1)) and np.array_equal(o2, linalg.pauli_adjoint(v2))
        moved_rho = mds.validate_density_matrix(local_move(ctx.rho, v1, v2))
        # the moved canonical residual
        ((_, (cf, _)),) = seen["_canonical_form"]
        ref = mds.canonicalize(moved_rho)
        u = tensor(ref.u1, ref.u2)
        complex_residual = np.linalg.norm(u @ moved_rho @ u.conj().T - build_T(ref.t))
        assert abs(cf.residual - complex_residual) <= 1e-14
        # the covariance twin residuals
        ((rows, R, residuals),) = seen["_twin_residuals"]
        assert R is moved
        assert np.abs(residuals - _complex_twin_residuals(rows, moved_rho)).max() <= 1e-14
        # the mixture-intersection twin space, from the Bell projectors pulled back onto rho
        ((_, _, via_r),) = seen["_simultaneous_twins"]
        support = [k for k in range(4) if ctx.cls.weights[k] > ctx.tol]
        u1, u2 = ctx.frame.u1.conj().T, ctx.frame.u2.conj().T
        reference = twins.simultaneous_twins(local_move(mds._BELL_PROJECTORS[support], u1, u2))
        assert via_r.dimension == reference.dimension
        assert twins.subspace_residual(via_r, reference) <= linalg.RESIDUAL_TOL


def test_canonical_form_roundtrip_reports_a_missed_bound(monkeypatch, capsys):
    ctx = state.State(DEFAULT_TOL, 0, matrix=_scrambled_edge(19))
    # the state frames itself on first read: the patched bound must reach only the round trip
    assert ctx.frame is ctx.canonical
    monkeypatch.setattr(mds, "_residual_bound", lambda R: 0.0)
    (name,) = [n for n, _, c in verify._CHECKS if c is verify._check_canonical_form_roundtrip]
    passed, _ = verify._check_canonical_form_roundtrip(ctx)
    assert name == "canonical-form-roundtrip" and not passed
    # a --t input keeps the identity frame, so only the round trip canonicalizes
    assert cli.run(["verify", "--t", "0.4,-0.4,1"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert "- name: canonical-form-roundtrip\n      passed: false" in out
    assert "failed: 1" in out


def test_checks_are_one_table():
    # run_verification records every check under its _CHECKS row's name: no check names itself
    tree = package_trees()["verify.py"]
    builds = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult"
    ]
    (run,) = [n for n in tree.body if getattr(n, "name", None) == "run_verification"]
    assert len(builds) == 1 and builds[0] in list(ast.walk(run))
    names = [name for name, _, _ in verify._CHECKS]
    assert len(set(names)) == len(names)
    written = []
    for tree in package_trees().values():
        written += [
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in names
        ]
    assert sorted(written) == sorted(names)


def _failed_checks(out):
    """Names of the checks a verify report marks passed: false."""
    lines = out.splitlines()
    return [
        line.split(": ", 1)[1]
        for line, after in zip(lines, lines[1:])
        if line.lstrip().startswith("- name: ") and after.strip() == "passed: false"
    ]


def _moved_off_stratum(ctx):
    """Fault: the seeded move lands on an edge instead of a local image of the input."""
    eye = np.eye(4)
    return eye, eye, linalg.pauli_coordinates(build_T(np.array([0.4, -0.4, 1.0])))


def _vertex_for_every_state(t, tol, verdict):
    """Fault: classify calls every state Bell vertex 2."""
    cls = mds.classify(t, tol, verdict)
    return cls._replace(kind=BELL_VERTEX, vertex=2, axis=None, case=None, edge_parameter=None)


def _first_block(rho, keep):
    """Fault: the reduced state is read as twice the first diagonal block of rho."""
    return 2 * np.asarray(rho)[:2, :2]


def _oracle_with_a2_scaled(scale):
    """Fault: the a2 half of c of the first nontrivial oracle row is scaled by `scale`."""

    def oracle(rho, tol):
        space = twins._twin_space(rho, tol)
        rows = space.rows.copy()
        rows[1, 5:] *= scale
        return twins.TwinSpace(rows=rows, singular_value_gap=space.singular_value_gap)

    return oracle


def _sign_flipped_t(w):
    """Fault: t_from_weights returns -t."""
    return -mds.t_from_weights(w)


def _T_of_minus_t(t):
    """Fault: build_T builds T(-t)."""
    return mds.build_T(-np.asarray(t))


def _edge_weights_swapped(cls):
    """Fault: edge_mixture gives each Bell index of the edge the other's weight."""
    (i, wi), (j, wj) = mds.edge_mixture(cls).items()
    return {i: wj, j: wi}


@pytest.mark.parametrize(
    "attribute, fault, t, check, detail, failed",
    [
        (
            "moved",
            property(_moved_off_stratum),
            "1,-1,1",
            verify._check_local_unitary_covariance,
            "dimension changed 4 -> 2",
            ["canonical-form-roundtrip", "local-unitary-covariance"],
        ),
        (
            "classify",
            _vertex_for_every_state,
            "0.4,-0.4,1",
            verify._check_pure_state_commutant,
            "input is not a rank-one projector",
            [
                "vertex-sign-table",
                "twin-dimension-law",
                "analytic-twins-in-oracle",
                "pure-state-commutant",
            ],
        ),
        (
            "partial_trace",
            _first_block,
            "-1,-1,-1",
            verify._check_pure_state_commutant,
            "random observable fails to commute with I/2",
            ["pure-state-commutant"],
        ),
        (
            "_twin_space",
            _oracle_with_a2_scaled(-1.0),
            "1,-1,1",
            verify._check_perfect_correlation,
            "3 nondegenerate pairs, worst mismatch 1.000e+00",
            [
                "analytic-twins-in-oracle",
                "mixture-intersection-twins",
                "local-unitary-covariance",
                "pure-state-commutant",
                "perfect-correlation",
            ],
        ),
        (
            "_twin_space",
            _oracle_with_a2_scaled(2.0),
            "0.4,-0.4,1",
            verify._check_twin_spectra_match,
            "largest sorted-spectrum deviation 5.000e-01",
            [
                "analytic-twins-in-oracle",
                "mixture-intersection-twins",
                "local-unitary-covariance",
                "twin-spectra-match",
            ],
        ),
        (
            "t_from_weights",
            _sign_flipped_t,
            "0.2,0.1,-0.05",
            verify._check_weights_roundtrip,
            "t residual 4.000e-01",
            ["weights-roundtrip"],
        ),
        (
            "build_T",
            _T_of_minus_t,
            "1,-1,1",
            verify._check_bell_mixture_identity,
            "entrywise residual 1.000e+00",
            ["bell-mixture-identity"],
        ),
        (
            "edge_mixture",
            _edge_weights_swapped,
            "0.4,-0.4,1",
            verify._check_edge_weight_consistency,
            "closed-form edge weights match within 4.000e-01",
            ["edge-weight-consistency"],
        ),
    ],
    ids=[
        "covariance-dimension",
        "commutant-not-rank-one",
        "commutant-not-commuting",
        "anticorrelated-pair",
        "unequal-spectra",
        "weights-sign-flip",
        "mixture-of-minus-t",
        "edge-weights-swapped",
    ],
)
def test_failure_branch_witnesses(monkeypatch, capsys, attribute, fault, t, check, detail, failed):
    target = {"moved": state.State, "classify": state, "_twin_space": state}.get(attribute, verify)
    monkeypatch.setattr(target, attribute, fault)
    ctx = state.State(DEFAULT_TOL, 0, t=np.array([float(v) for v in t.split(",")]))
    passed, reported = check(ctx)
    assert not passed
    assert reported.startswith(detail)
    # verify reports the failed check and exits 2, with no internal error
    assert cli.run(["verify", f"--t={t}"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert _failed_checks(out) == failed
    assert f"failed: {len(failed)}\n" in out


@pytest.mark.parametrize(
    "t", ["1,-1,1", "0.4,-0.4,1", "0.2,0.1,-0.05"], ids=["vertex", "edge", "interior"]
)
def test_pauli_adjoint_formed_once_per_unitary(monkeypatch, capsys, tmp_path, t):
    # a matrix input forms its frame's (u1, u2), the move's (v1, v2) and the moved frame's
    # adjoints once each; a --t input has the identity frame, whose adjoints are np.eye(4)
    calls = []
    adjoint = linalg.pauli_adjoint
    for module in (mds, state):
        monkeypatch.setattr(module, "pauli_adjoint", lambda u: calls.append(u) or adjoint(u))
    rng = np.random.default_rng(31)
    t_vector = np.array([float(v) for v in t.split(",")])
    rho = local_move(build_T(t_vector), random_unitary(rng), random_unitary(rng))
    path = matrix_file(tmp_path / "scrambled.txt", rho)
    counts = []
    for spec in (["--input", path], [f"--t={t}"]):
        calls.clear()
        assert cli.run(["verify", *spec]) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert counts == [6, 4]

