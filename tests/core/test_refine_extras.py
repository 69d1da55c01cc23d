"""Tests for CCD early stopping and objective tracking."""

import numpy as np
import pytest

from repro.core.affinity import apmi
from repro.core.greedy_init import greedy_init, random_init
from repro.core.svd_ccd import (
    cached_objective,
    objective_value,
    refine,
    refine_tracked,
)


@pytest.fixture(scope="module")
def problem(sbm_graph):
    pair = apmi(sbm_graph, epsilon=0.05)
    return pair.forward, pair.backward


class TestCachedObjective:
    def test_matches_full_recomputation(self, problem):
        forward, backward = problem
        state = greedy_init(forward, backward, k=16, seed=0)
        assert cached_objective(state) == pytest.approx(
            objective_value(forward, backward, state)
        )

    def test_stays_in_sync_after_sweeps(self, problem):
        forward, backward = problem
        state = greedy_init(forward, backward, k=16, seed=0)
        refine(state, 3)
        assert cached_objective(state) == pytest.approx(
            objective_value(forward, backward, state), rel=1e-10
        )

    def test_any_affinity_layout(self, problem):
        """Fortran-ordered F′ and a row-strided view: same value, nothing copied in."""
        forward, backward = problem
        state = refine(greedy_init(forward, backward, k=16, seed=0), 2)
        expected = objective_value(forward, backward, state)
        state.forward = np.asfortranarray(forward)
        assert cached_objective(state) == pytest.approx(expected, rel=1e-12)
        # Every other node of a twice-as-tall problem: rows 2·d·8 bytes apart.
        tall = np.repeat(backward, 2, axis=0)
        state.backward = tall[::2]
        assert not state.backward.flags.c_contiguous
        assert cached_objective(state) == pytest.approx(expected, rel=1e-12)

    def test_reads_current_arrays_not_a_stored_value(self, problem):
        """Editing the state between sweeps is seen: nothing can go stale."""
        forward, backward = problem
        state = refine(greedy_init(forward, backward, k=16, seed=0), 1)
        state.y *= 0.5
        assert cached_objective(state) == pytest.approx(
            objective_value(forward, backward, state), rel=1e-10
        )


class TestEarlyStopping:
    def test_loose_tolerance_stops_before_budget(self, problem):
        forward, backward = problem
        eager = greedy_init(forward, backward, k=16, seed=0)
        _, history = refine_tracked(eager, 20)
        full_final = history[-1]

        stopped = greedy_init(forward, backward, k=16, seed=0)
        refine(stopped, 20, tolerance=0.5)  # very loose: stop almost at once
        # loose tolerance means strictly less progress than the full run
        assert cached_objective(stopped) >= full_final

    def test_zero_tolerance_equivalent_to_full_run(self, problem):
        forward, backward = problem
        a = greedy_init(forward, backward, k=16, seed=0)
        b = greedy_init(forward, backward, k=16, seed=0)
        refine(a, 5)
        refine(b, 5, tolerance=0.0)
        assert np.allclose(a.x_forward, b.x_forward)


class TestToleranceEdgeCases:
    def test_stops_when_improvement_falls_below_tolerance(self, problem):
        """A loose tolerance must stop after the first sweep."""
        forward, backward = problem
        one_sweep = greedy_init(forward, backward, k=16, seed=0)
        refine(one_sweep, 1)

        stopped = greedy_init(forward, backward, k=16, seed=0)
        refine(stopped, 20, tolerance=0.9)  # relative gain per sweep << 0.9
        assert cached_objective(stopped) == pytest.approx(
            cached_objective(one_sweep), rel=1e-12
        )

    def test_runs_all_sweeps_when_improvement_stays_above(self, problem):
        """With an unreachable tolerance the full budget is spent."""
        forward, backward = problem
        full = greedy_init(forward, backward, k=16, seed=0)
        refine(full, 4)

        tolerant = greedy_init(forward, backward, k=16, seed=0)
        refine(tolerant, 4, tolerance=1e-300)  # never triggers
        assert np.allclose(tolerant.x_forward, full.x_forward)
        assert np.allclose(tolerant.y, full.y)

    def test_zero_initial_objective_does_not_crash(self):
        """An exact factorization (S = 0) must survive tolerance checks."""
        from repro.core.greedy_init import InitState

        rng = np.random.default_rng(0)
        x_forward = rng.random((10, 3))
        x_backward = rng.random((10, 3))
        y = rng.random((5, 3))
        forward = x_forward @ y.T
        backward = x_backward @ y.T
        state = InitState(x_forward.copy(), x_backward.copy(), y.copy(), forward, backward)
        assert cached_objective(state) >= 0.0  # rounding never takes it below
        refine(state, 3, tolerance=0.1)  # previous ~ 0: must not divide
        assert np.all(np.isfinite(state.x_forward))
        assert np.all(np.isfinite(state.y))
        # Zero residuals mean zero updates: the factors are untouched.
        assert np.allclose(state.x_forward, x_forward)
        assert np.allclose(state.y, y)

    def test_tolerance_with_blocked_kernel(self, problem):
        forward, backward = problem
        state = greedy_init(forward, backward, k=16, seed=0)
        refine(state, 20, tolerance=0.9, block_size=4)
        assert np.all(np.isfinite(state.x_forward))


class TestRefineTracked:
    def test_history_length(self, problem):
        forward, backward = problem
        state = greedy_init(forward, backward, k=16, seed=0)
        _, history = refine_tracked(state, 4)
        assert len(history) == 5

    def test_history_is_the_recomputed_objective(self, problem):
        """Each entry (initial, then one per sweep) equals Eq. (4) recomputed."""
        forward, backward = problem
        state = greedy_init(forward, backward, k=16, seed=0)
        expected = [objective_value(forward, backward, state)]
        for _ in range(3):
            refine(state, 1)
            expected.append(objective_value(forward, backward, state))
        _, history = refine_tracked(greedy_init(forward, backward, k=16, seed=0), 3)
        assert history == pytest.approx(expected, rel=1e-10)

    def test_history_monotone_decreasing(self, problem):
        forward, backward = problem
        state = random_init(forward, backward, k=16, seed=0)
        _, history = refine_tracked(state, 6)
        assert all(b <= a + 1e-8 for a, b in zip(history, history[1:]))

    def test_parallel_history_matches_serial(self, problem):
        forward, backward = problem
        serial = greedy_init(forward, backward, k=16, seed=0)
        parallel = greedy_init(forward, backward, k=16, seed=0)
        _, h_serial = refine_tracked(serial, 3, n_threads=1)
        _, h_parallel = refine_tracked(parallel, 3, n_threads=3)
        assert np.allclose(h_serial, h_parallel, rtol=1e-9)
