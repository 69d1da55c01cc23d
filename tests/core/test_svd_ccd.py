"""Tests for the CCD solver (Alg. 4 / Alg. 8)."""

import copy

import numpy as np
import pytest

from repro.core.affinity import apmi
from repro.core.greedy_init import InitState, greedy_init, random_init
from repro.core.svd_ccd import (
    ccd_sweep,
    ccd_sweep_reference,
    objective_value,
    refine,
)


@pytest.fixture(scope="module")
def affinities(sbm_graph):
    pair = apmi(sbm_graph, alpha=0.5, epsilon=0.05)
    return pair.forward, pair.backward


def _clone(state: InitState) -> InitState:
    """Copy the factors; the affinities are read-only and shared."""
    return InitState(
        state.x_forward.copy(),
        state.x_backward.copy(),
        state.y.copy(),
        state.forward,
        state.backward,
    )


@pytest.fixture()
def small_state():
    """A tiny random problem where the O(ndk) reference loop is affordable."""
    rng = np.random.default_rng(0)
    forward = rng.random((12, 7))
    backward = rng.random((12, 7))
    return forward, backward, random_init(forward, backward, k=4, seed=1)


class TestVectorizationEquivalence:
    """The GEMM sweep must reproduce the literal Alg. 4 loop to rounding."""

    def test_matches_reference_one_sweep(self, small_state):
        _, _, state = small_state
        vectorized = _clone(state)
        reference = _clone(state)
        ccd_sweep(vectorized)
        ccd_sweep_reference(reference)
        assert np.allclose(vectorized.x_forward, reference.x_forward, atol=1e-12)
        assert np.allclose(vectorized.x_backward, reference.x_backward, atol=1e-12)
        assert np.allclose(vectorized.y, reference.y, atol=1e-12)

    def test_matches_reference_three_sweeps(self, small_state):
        _, _, state = small_state
        vectorized = _clone(state)
        reference = _clone(state)
        for _ in range(3):
            ccd_sweep(vectorized)
            ccd_sweep_reference(reference)
        assert np.allclose(vectorized.y, reference.y, atol=1e-10)

    @pytest.mark.parametrize("n_threads", [2, 3])
    def test_parallel_matches_serial(self, small_state, n_threads):
        _, _, state = small_state
        serial = _clone(state)
        parallel = _clone(state)
        ccd_sweep(serial)
        ccd_sweep(parallel, n_threads=n_threads)
        assert np.allclose(serial.x_forward, parallel.x_forward, atol=1e-12)
        assert np.allclose(serial.x_backward, parallel.x_backward, atol=1e-12)
        assert np.allclose(serial.y, parallel.y, atol=1e-12)


class TestConvergence:
    def test_objective_monotonically_decreases(self, affinities):
        forward, backward = affinities
        state = greedy_init(forward, backward, k=16, seed=0)
        values = [objective_value(forward, backward, state)]
        for _ in range(5):
            ccd_sweep(state)
            values.append(objective_value(forward, backward, state))
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-8)

    def test_objective_decreases_from_random_init(self, affinities):
        forward, backward = affinities
        state = random_init(forward, backward, k=16, seed=0)
        before = objective_value(forward, backward, state)
        refine(state, 3)
        after = objective_value(forward, backward, state)
        assert after < before

    def test_sweep_returns_the_objective(self, affinities):
        """Each sweep's return value is Eq. (4) recomputed from scratch."""
        forward, backward = affinities
        state = greedy_init(forward, backward, k=16, seed=0)
        for n_threads in (1, 2, 3):
            returned = ccd_sweep(state, n_threads=n_threads)
            assert returned == pytest.approx(
                objective_value(forward, backward, state), rel=1e-10
            )

    def test_greedy_init_converges_faster_than_random(self, affinities):
        """Sec. 5.7: same sweep count, greedy init reaches lower objective."""
        forward, backward = affinities
        greedy = greedy_init(forward, backward, k=16, seed=0)
        random = random_init(forward, backward, k=16, seed=0)
        refine(greedy, 2)
        refine(random, 2)
        assert objective_value(forward, backward, greedy) < objective_value(
            forward, backward, random
        )


class TestRefine:
    def test_zero_sweeps_is_identity(self, affinities):
        forward, backward = affinities
        state = greedy_init(forward, backward, k=16, seed=0)
        snapshot = _clone(state)
        refine(state, 0)
        assert np.array_equal(state.x_forward, snapshot.x_forward)

    def test_parallel_refine_matches_serial(self, affinities):
        forward, backward = affinities
        serial = greedy_init(forward, backward, k=16, seed=0)
        parallel = _clone(serial)
        refine(serial, 2, n_threads=1)
        refine(parallel, 2, n_threads=3)
        assert np.allclose(serial.y, parallel.y, atol=1e-10)

    def test_dead_coordinate_skipped(self):
        """An all-zero Y column is a zero step: no NaNs, its X columns untouched."""
        rng = np.random.default_rng(0)
        forward = rng.random((6, 4))
        backward = rng.random((6, 4))
        state = random_init(forward, backward, k=4, seed=0)
        state.y[:, 0] = 0.0
        before, reference = _clone(state), _clone(state)
        ccd_sweep(state)
        ccd_sweep_reference(reference)
        assert np.all(np.isfinite(state.x_forward))
        assert np.all(np.isfinite(state.y))
        assert np.array_equal(state.x_forward[:, 0], before.x_forward[:, 0])
        assert np.array_equal(state.x_backward[:, 0], before.x_backward[:, 0])
        assert np.allclose(state.x_forward, reference.x_forward, atol=1e-12)
        assert np.allclose(state.x_backward, reference.x_backward, atol=1e-12)
        assert np.allclose(state.y, reference.y, atol=1e-12)
