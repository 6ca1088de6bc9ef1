"""classify and the twin oracle near the edges and vertices of the tetrahedron.

States sit at distance d in weight space from a vertex or an edge point:
w = (1 - d) w_target + d w_random, with w_random drawn from Dirichlet(1, 1, 1, 1).
Both sides make their rank decision through linalg.rank_split, classify on
the Bell weights and the oracle on its own singular values, so where both
answer they must agree, and neither may report an internal fault.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twinscope.linalg import RankDecisionError
from twinscope.mds import DEFAULT_TOL, build_T, classify, t_from_weights
from twinscope.twins import twin_space
from twinscope.verify import EXPECTED_TWIN_DIMENSION

# the 4 Bell vertices and the 6 edges, as the Bell indices that survive
TARGETS = [(k,) for k in range(4)] + list(itertools.combinations(range(4), 2))
DISTANCES = np.logspace(-13, -6, 19)


def near_boundary_weights(target, distance, rng):
    """Weights at `distance` from a seeded point of a vertex or an edge."""
    w = np.zeros(4)
    if len(target) == 1:
        w[target[0]] = 1.0
    else:
        lam = rng.uniform(0.05, 0.95)
        w[list(target)] = lam, 1 - lam
    return (1 - distance) * w + distance * rng.dirichlet(np.ones(4))


def _answer(fn):
    """The function's answer, or None when its rank decision is ambiguous."""
    try:
        return fn()
    except RankDecisionError:
        return None


def compare(w):
    """(stratum dimension from classify, oracle dimension); None where ambiguous."""
    t = t_from_weights(w)
    cls = _answer(lambda: classify(t))
    space = _answer(lambda: twin_space(build_T(t)))
    return (
        None if cls is None else EXPECTED_TWIN_DIMENSION[cls.kind],
        None if space is None else space.dimension,
    )


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(TARGETS),
    st.floats(min_value=-13, max_value=-6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_classify_and_oracle_agree_near_boundary(target, log_distance, seed):
    w = near_boundary_weights(target, 10.0**log_distance, np.random.default_rng(seed))
    expected, oracle = compare(w)
    if expected is not None and oracle is not None:
        assert expected == oracle
    second, third = np.sort(w)[1:3]
    tol = DEFAULT_TOL
    if all(x <= tol / 20 or x >= 20 * tol for x in (second, third)):
        assert expected is not None and oracle is not None


def test_boundary_grid_counts():
    # 10 targets x 19 distances x 18 seeded directions = 3420 states
    rng = np.random.default_rng(4)
    one_sided = 0
    for target, d in itertools.product(TARGETS, DISTANCES):
        for _ in range(18):
            expected, oracle = compare(near_boundary_weights(target, d, rng))
            if expected is not None and oracle is not None:
                assert expected == oracle
            one_sided += (expected is None) != (oracle is None)
    assert one_sided <= 0.05 * 3420
