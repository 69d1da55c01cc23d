"""Property-based tests for the CCD solver invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.greedy_init import InitState, greedy_init, random_init
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


_FIELDS = ("x_forward", "x_backward", "y")


def _clone(state: InitState) -> InitState:
    """Copy the factors; the affinities are read-only and shared."""
    return InitState(
        state.x_forward.copy(),
        state.x_backward.copy(),
        state.y.copy(),
        state.forward,
        state.backward,
    )


@st.composite
def sweep_problems(draw):
    """A planted-spectrum problem for ``ccd_sweeps``, ``d`` below and above ``n``.

    ``F′`` has spectrum ``σ_j = 10^(−j/decay)`` up to a true rank that may
    fall below ``min(n, d)`` and below ``h``; ``Y`` may carry a dead column
    or two near-collinear ones (``cond(Y) > 1e10``).
    """
    half = draw(st.integers(1, 4))
    n_sweeps = draw(st.integers(0, 8))
    d = draw(st.integers(max(half, 2), 16))
    n = draw(st.integers(half, 40))
    true_rank = draw(st.integers(1, min(n, d)))
    decay = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0, 16.0, np.inf]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    left, _ = np.linalg.qr(rng.standard_normal((n, true_rank)))
    right, _ = np.linalg.qr(rng.standard_normal((d, true_rank)))
    forward = (left * 10.0 ** (-np.arange(true_rank) / decay)) @ right.T
    backward = rng.random((n, d))
    init = greedy_init if draw(st.booleans()) else random_init
    state = init(forward, backward, 2 * half, seed=int(rng.integers(1000)))
    degenerate = draw(st.sampled_from([None, "dead", "collinear"]))
    if degenerate == "dead":
        state.y[:, draw(st.integers(0, half - 1))] = 0.0
    elif degenerate == "collinear" and half >= 2:
        column = draw(st.integers(0, half - 2))
        state.y[:, column + 1] = state.y[:, column] + 1e-12 * rng.normal(size=d)
        assert np.linalg.cond(state.y) > 1e10
    block_size = draw(st.integers(1, half))
    n_threads = draw(st.integers(1, 3))
    return state, n_sweeps, block_size, n_threads


@pytest.mark.contract
class TestCoefficientSpace:
    """``ccd_sweeps(state, s)`` is ``s`` calls of ``ccd_sweep``, to rounding.

    Contract: The two CCD tests guard the fit's refinement: ccd_sweeps must
    match a loop of single ccd_sweep calls on planted spectra, dead and
    near-collinear Y columns, 0-8 sweeps, d below and above n, and must
    multiply by F'/B' as often for 8 sweeps as for 1 and 2 (a per-sweep pass
    over the affinities creeping back fails here).
    """

    @given(sweep_problems())
    @settings(max_examples=150, deadline=None)
    def test_matches_a_loop_of_single_sweeps(self, problem):
        state, n_sweeps, block_size, n_threads = problem
        forward, backward = state.forward, state.backward
        originals = forward.copy(), backward.copy()
        forward.flags.writeable = backward.flags.writeable = False
        scale = float(np.sum(forward**2) + np.sum(backward**2))
        kwargs = dict(block_size=block_size, n_threads=n_threads)

        produced, again, expected = _clone(state), _clone(state), _clone(state)
        returned = kernels.ccd_sweeps(produced, n_sweeps, **kwargs)
        assert kernels.ccd_sweeps(again, n_sweeps, **kwargs) == returned
        values = [objective_value(forward, backward, state)]
        for _ in range(n_sweeps):
            kernels.ccd_sweep(expected, **kwargs)
            values.append(objective_value(forward, backward, expected))

        # Relative to the data: an (almost) exact fit leaves O at rounding
        # level.  A square Y (h = d) fits any F′, B′ exactly with a factor
        # pair that is not unique; both paths then end at rounding-level
        # objectives, up to ≈ 2e-11 of the data apart (the loop's own
        # returned objective is off by up to ≈ 1e-11 there).
        square = state.y.shape[0] == state.y.shape[1]
        tol, floor = (1e-8, scale) if square else (1e-10, 1e-3 * scale)
        assert len(returned) == n_sweeps + 1
        for name in _FIELDS:
            got, want = getattr(produced, name), getattr(expected, name)
            assert np.all(np.isfinite(got)), name
            assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max()), name
            assert np.array_equal(got, getattr(again, name)), name
        for got, want in zip(returned, values):
            assert abs(got - want) <= 1e-10 * max(want, floor)
        for before, after in zip(returned, returned[1:]):
            assert after <= before + 1e-2 * tol * scale
        assert np.array_equal(forward, originals[0])
        assert np.array_equal(backward, originals[1])
