"""Property-based tests for the CCD solver invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy_init import greedy_init, random_init
from repro.core.svd_ccd import (
    ccd_sweep,
    ccd_sweep_reference,
    objective_value,
)


@st.composite
def factorization_problems(draw):
    """Random (F, B, k) triples sized so the reference loop stays fast."""
    n = draw(st.integers(4, 14))
    d = draw(st.integers(3, 8))
    k = 2 * draw(st.integers(1, min(n, d) // 2 or 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    forward = rng.random((n, d)) * draw(st.sampled_from([0.5, 1.0, 3.0]))
    backward = rng.random((n, d))
    return forward, backward, k, int(rng.integers(0, 1000))


class TestCCDInvariants:
    @given(factorization_problems())
    @settings(max_examples=30, deadline=None)
    def test_sweep_never_increases_objective(self, problem):
        """Coordinate descent on a quadratic-per-coordinate objective is
        monotone regardless of the starting point."""
        forward, backward, k, seed = problem
        state = random_init(forward, backward, k, seed=seed)
        before = objective_value(forward, backward, state)
        ccd_sweep(state)
        after = objective_value(forward, backward, state)
        assert after <= before + 1e-8

    @given(factorization_problems())
    @settings(max_examples=25, deadline=None)
    def test_vectorized_equals_reference(self, problem):
        """The vectorized sweep equals the literal Alg. 4 loop on any input."""
        forward, backward, k, seed = problem
        a = random_init(forward, backward, k, seed=seed)
        b = random_init(forward, backward, k, seed=seed)
        ccd_sweep(a)
        ccd_sweep_reference(b)
        assert np.allclose(a.x_forward, b.x_forward, atol=1e-10)
        assert np.allclose(a.y, b.y, atol=1e-10)

    @given(
        factorization_problems(),
        st.sampled_from([1, 2, 3, None]),
        st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_equals_literal_reference(
        self, block_reference_sweep, problem, block_size, n_threads
    ):
        """Every (B, threads) pair reproduces its residual-space ground truth
        (``ccd_sweep_reference`` for B = 1, block Gauss–Seidel for B > 1) and
        returns the objective it ends at, without writing the affinities."""
        forward, backward, k, seed = problem
        forward.flags.writeable = backward.flags.writeable = False
        block_size = block_size or k // 2
        produced = random_init(forward, backward, k, seed=seed)
        expected = random_init(forward, backward, k, seed=seed)
        returned = ccd_sweep(
            produced, n_threads=n_threads, block_size=block_size
        )
        if block_size == 1:
            ccd_sweep_reference(expected)
        else:
            block_reference_sweep(expected, block_size)
        for name in ("x_forward", "x_backward", "y"):
            assert np.allclose(
                getattr(produced, name), getattr(expected, name), atol=1e-10
            ), name
        assert np.isclose(
            returned, objective_value(forward, backward, produced), rtol=1e-10
        )

    @given(
        factorization_problems(),
        st.sampled_from([1, 2, None]),
        st.sampled_from([1, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_objective_exact_after_20_sweeps(self, problem, block_size, n_threads):
        """Nothing is cached between sweeps, so nothing drifts: the 20th
        sweep's return value is still Eq. (4) recomputed from scratch."""
        forward, backward, k, seed = problem
        state = greedy_init(forward, backward, k, seed=seed)
        for _ in range(20):
            returned = ccd_sweep(
                state, n_threads=n_threads, block_size=block_size or k // 2
            )
        expected = objective_value(forward, backward, state)
        # Relative to the data: an (almost) exact fit leaves O at rounding level.
        scale = np.sum(forward**2) + np.sum(backward**2)
        assert abs(returned - expected) <= 1e-10 * max(expected, 1e-3 * scale)

    @given(factorization_problems())
    @settings(max_examples=25, deadline=None)
    def test_greedy_init_not_worse_than_random(self, problem):
        forward, backward, k, seed = problem
        greedy = greedy_init(forward, backward, k, seed=seed)
        random = random_init(forward, backward, k, seed=seed)
        greedy_obj = objective_value(forward, backward, greedy)
        random_obj = objective_value(forward, backward, random)
        assert greedy_obj <= random_obj + 1e-6
