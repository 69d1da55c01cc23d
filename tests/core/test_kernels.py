"""Tests for the kernel layer (repro.core.kernels)."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.affinity import apmi
from repro.core.greedy_init import InitState, greedy_init, random_init
from repro.core.kernels import (
    propagate_recurrence,
    propagate_recurrence_sparse,
    prune_sparse,
    spmm_into,
)
from repro.core.svd_ccd import (
    cached_objective,
    ccd_sweep,
    ccd_sweep_reference,
    objective_value,
    refine,
)


def _clone(state: InitState) -> InitState:
    """Copy the factors; the affinities are read-only and shared."""
    return InitState(
        state.x_forward.copy(),
        state.x_backward.copy(),
        state.y.copy(),
        state.forward,
        state.backward,
    )


@pytest.fixture(scope="module")
def problem(sbm_graph):
    pair = apmi(sbm_graph, alpha=0.5, epsilon=0.05)
    return pair.forward, pair.backward


class TestSpmmInto:
    def test_matches_matmul_csr(self):
        rng = np.random.default_rng(0)
        matrix = sp.random(40, 40, density=0.2, format="csr", random_state=1)
        dense = rng.random((40, 9))
        out = np.empty((40, 9))
        spmm_into(matrix, dense, out)
        assert np.array_equal(out, np.asarray(matrix @ dense))

    def test_fallback_non_csr(self):
        rng = np.random.default_rng(0)
        matrix = sp.random(30, 30, density=0.2, format="csc", random_state=1)
        dense = rng.random((30, 5))
        out = np.empty((30, 5))
        spmm_into(matrix, dense, out)
        assert np.allclose(out, np.asarray(matrix @ dense))

    def test_overwrites_stale_output(self):
        matrix = sp.identity(10, format="csr")
        dense = np.arange(20.0).reshape(10, 2)
        out = np.full((10, 2), 99.0)
        spmm_into(matrix, dense, out)
        assert np.array_equal(out, dense)

    def test_row_range_writes_only_its_rows(self):
        """``rows=`` computes that slice of the product and leaves the rest."""
        rng = np.random.default_rng(0)
        matrix = sp.random(40, 40, density=0.2, format="csr", random_state=1)
        dense = rng.random((40, 9))
        expected = np.asarray(matrix @ dense)
        for fmt in ("csr", "csc"):  # fast path and fallback
            out = np.full((40, 9), 99.0)
            spmm_into(matrix.asformat(fmt), dense, out, slice(7, 23))
            assert np.allclose(out[7:23], expected[7:23], atol=1e-15)
            if fmt == "csr":
                assert np.array_equal(out[7:23], expected[7:23])
            assert np.all(out[:7] == 99.0) and np.all(out[23:] == 99.0)
        out = np.full((40, 9), 99.0)
        spmm_into(matrix, dense, out, slice(5, 5))  # empty range: a no-op
        assert np.all(out == 99.0)

    def test_shape_mismatch_raises(self):
        """Wrong-shaped buffers must raise, not corrupt the heap."""
        matrix = sp.identity(10, format="csr")
        dense = np.zeros((10, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            spmm_into(matrix, dense, np.empty((4, 2)))
        with pytest.raises(ValueError, match="shape mismatch"):
            spmm_into(matrix, np.zeros((7, 2)), np.empty((10, 2)))


class TestPropagateRecurrence:
    """The ping-pong kernel must reproduce the seed per-hop-allocating loop."""

    def _seed_loop(self, transition, p0, alpha, t):
        p = alpha * p0
        for _ in range(t):
            p = (1.0 - alpha) * np.asarray(transition @ p) + alpha * p0
        return p

    @pytest.mark.parametrize("t", [0, 1, 4])
    def test_matches_seed_loop(self, t):
        rng = np.random.default_rng(2)
        transition = sp.random(25, 25, density=0.3, format="csr", random_state=3)
        p0 = rng.random((25, 6))
        expected = self._seed_loop(transition, p0, 0.5, t)
        produced = propagate_recurrence(transition, p0.copy(), 0.5, t)
        assert np.array_equal(produced, expected)

    @pytest.mark.parametrize("alpha", [0.5, 0.3])
    @pytest.mark.parametrize("n_threads", [2, 3, 40])
    def test_threads_do_not_change_a_bit(self, alpha, n_threads):
        """Row spans cut by ``indptr`` mass, more spans than rows: the seed loop's bits."""
        rng = np.random.default_rng(2)
        # Skewed rows (a few hubs hold most non-zeros), as Tᵀ of a power-law graph.
        dense = rng.random((25, 25)) * (rng.random((25, 1)) ** 4 > rng.random((25, 25)))
        transition = sp.csr_matrix(dense)
        p0 = rng.random((25, 6))
        expected = self._seed_loop(transition, p0, alpha, 4)
        produced = propagate_recurrence(
            transition, p0.copy(), alpha, 4, n_threads=n_threads
        )
        assert np.array_equal(produced, expected)

    def test_scales_seed_in_place(self):
        transition = sp.identity(4, format="csr")
        p0 = np.ones((4, 2))
        propagate_recurrence(transition, p0, 0.25, 2)
        assert np.allclose(p0, 0.25)  # now holds the α-scaled restart term

    def test_caller_buffers_are_used(self):
        rng = np.random.default_rng(4)
        transition = sp.random(12, 12, density=0.4, format="csr", random_state=5)
        p0 = rng.random((12, 3))
        buffers = (np.empty_like(p0), np.empty_like(p0))
        result = propagate_recurrence(transition, p0.copy(), 0.5, 3, buffers=buffers)
        assert result is buffers[0] or result is buffers[1]

    def test_sparse_matches_dense_when_unpruned(self):
        rng = np.random.default_rng(6)
        transition = sp.random(20, 20, density=0.3, format="csr", random_state=7)
        seed = sp.random(20, 5, density=0.5, format="csr", random_state=8)
        alpha, t = 0.5, 3
        dense = propagate_recurrence(transition, seed.toarray(), alpha, t)
        sparse = propagate_recurrence_sparse(
            transition, (alpha * seed).tocsr(), alpha, t
        )
        assert np.allclose(sparse.toarray(), dense, atol=1e-12)

    def test_prune_sparse_drops_small_entries(self):
        matrix = sp.csr_matrix(np.array([[0.5, 1e-6], [0.0, 0.2]]))
        pruned = prune_sparse(matrix, 1e-4)
        assert pruned.nnz == 2
        assert prune_sparse(matrix, 0.0).nnz == pruned.nnz  # no-op threshold


_STATE_FIELDS = ("x_forward", "x_backward", "y")


def _assert_states_close(produced: InitState, expected: InitState, atol: float):
    for name in _STATE_FIELDS:
        assert np.all(np.isfinite(getattr(produced, name))), name
        assert np.allclose(
            getattr(produced, name), getattr(expected, name), atol=atol
        ), name


def _degenerate_state(dead: int, *, dead_x: bool, collinear: bool = False):
    """A small random problem with coordinate ``dead`` zeroed / duplicated."""
    rng = np.random.default_rng(0)
    forward = rng.random((12, 6))
    backward = rng.random((12, 6))
    state = random_init(forward, backward, k=8, seed=0)
    if collinear:  # cond(Y) ~ 1e12: column dead+1 is column dead, perturbed
        state.y[:, dead + 1] = state.y[:, dead] + 1e-12 * rng.normal(size=6)
    else:
        state.y[:, dead] = 0.0
    if dead_x:
        state.x_forward[:, dead] = 0.0
        state.x_backward[:, dead] = 0.0
    return forward, backward, state


class TestBlockedSweep:
    """``block_size=B``: block Gauss–Seidel order, monotone objective."""

    @pytest.mark.parametrize("block_size", [2, 3, 8])
    def test_matches_block_reference(self, problem, block_reference_sweep, block_size):
        """The coefficient-space sweep equals literal rank-B residual updates."""
        forward, backward = problem
        produced = greedy_init(forward, backward, k=16, seed=0)
        expected = _clone(produced)
        for _ in range(2):
            ccd_sweep(produced, block_size=block_size)
            block_reference_sweep(expected, block_size)
        _assert_states_close(produced, expected, atol=1e-10)

    @pytest.mark.parametrize("n_threads", [1, 3])
    def test_row_tiles_cover_every_span(
        self, problem, block_reference_sweep, monkeypatch, n_threads
    ):
        """Tiles of 7 rows (uneven against n and the spans) change nothing."""
        from repro.core import kernels

        forward, backward = problem
        monkeypatch.setattr(kernels, "_TILE_BYTES", 7 * 8 * forward.shape[1])
        produced = greedy_init(forward, backward, k=16, seed=0)
        expected = _clone(produced)
        ccd_sweep(produced, n_threads=n_threads, block_size=3)
        block_reference_sweep(expected, 3)
        _assert_states_close(produced, expected, atol=1e-10)

    def test_invalid_block_size(self, problem):
        forward, backward = problem
        state = greedy_init(forward, backward, k=8, seed=0)
        with pytest.raises(ValueError, match="block_size"):
            ccd_sweep(state, block_size=0)

    def test_block_size_clamped_to_half(self, problem):
        """``B > k/2`` is one block over every coordinate, same as ``B = k/2``."""
        forward, backward = problem
        base = greedy_init(forward, backward, k=8, seed=0)
        # Clone both sides so memory layout matches bit-for-bit.
        whole, oversized = _clone(base), _clone(base)
        ccd_sweep(whole, block_size=4)
        ccd_sweep(oversized, block_size=64)
        assert np.array_equal(whole.x_forward, oversized.x_forward)
        assert np.array_equal(whole.y, oversized.y)

    @pytest.mark.parametrize("block_size", [2, 3, 8, 64])
    def test_objective_monotone_decrease(self, problem, block_size):
        forward, backward = problem
        state = greedy_init(forward, backward, k=16, seed=0)
        values = [objective_value(forward, backward, state)]
        for _ in range(5):
            ccd_sweep(state, block_size=block_size)
            values.append(objective_value(forward, backward, state))
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-8)

    @pytest.mark.parametrize("block_size", [2, 4])
    def test_monotone_from_random_init(self, problem, block_size):
        forward, backward = problem
        state = random_init(forward, backward, k=16, seed=0)
        _, history = _tracked_blocked(state, 6, block_size)
        assert all(b <= a + 1e-8 for a, b in zip(history, history[1:]))

    def test_single_thread_refine_is_bit_reproducible(self, problem):
        """Same inputs, one thread: the same bits, run to run."""
        forward, backward = problem
        base = greedy_init(forward, backward, k=16, seed=0)
        for block_size in (1, 4):
            first, second = _clone(base), _clone(base)
            refine(first, 3, n_threads=1, block_size=block_size)
            refine(second, 3, n_threads=1, block_size=block_size)
            for name in _STATE_FIELDS:
                assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_blocked_tracks_exact_objective(self, problem):
        """Block Gauss–Seidel reaches an objective close to the exact path."""
        forward, backward = problem
        exact = greedy_init(forward, backward, k=16, seed=0)
        blocked = _clone(exact)
        refine(exact, 5)
        refine(blocked, 5, block_size=4)
        exact_obj = objective_value(forward, backward, exact)
        blocked_obj = objective_value(forward, backward, blocked)
        assert blocked_obj <= exact_obj * 1.01 + 1e-12

    def test_returned_objective_exact_after_20_sweeps(self, problem):
        """No cache, so no drift: the 20th sweep's objective is the recomputed one."""
        forward, backward = problem
        base = greedy_init(forward, backward, k=16, seed=0)
        for block_size in (1, 4):
            state = _clone(base)
            for _ in range(20):
                returned = ccd_sweep(state, block_size=block_size)
            expected = objective_value(forward, backward, state)
            assert returned == pytest.approx(expected, rel=1e-10)
            assert cached_objective(state) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_affinities_are_never_written(self, problem, n_threads):
        """``refine`` succeeds on read-only F′/B′ and leaves them as they were."""
        forward, backward = (matrix.copy() for matrix in problem)
        forward.flags.writeable = False
        backward.flags.writeable = False
        state = greedy_init(forward, backward, k=16, seed=0)
        assert state.forward is forward and state.backward is backward
        refine(state, 2, n_threads=n_threads, block_size=4, tolerance=1e-12)
        assert np.array_equal(forward, problem[0])
        assert np.array_equal(backward, problem[1])

    def test_state_has_exactly_five_fields(self, problem):
        state = random_init(*problem, k=8, seed=0)
        assert [field.name for field in dataclasses.fields(state)] == [
            "x_forward", "x_backward", "y", "forward", "backward",
        ]
        assert not hasattr(state, "s_forward")

    @pytest.mark.parametrize("n_threads", [2, 3])
    def test_parallel_blocked_matches_serial_blocked(self, problem, n_threads):
        forward, backward = problem
        serial = greedy_init(forward, backward, k=16, seed=0)
        parallel = _clone(serial)
        for _ in range(2):
            ccd_sweep(serial, block_size=4)
            ccd_sweep(parallel, n_threads=n_threads, block_size=4)
        _assert_states_close(parallel, serial, atol=1e-10)

    def test_parallel_sweep_repeats_bit_for_bit(self, problem):
        """Partial sums are added in span order: a thread count fixes the bits."""
        forward, backward = problem
        base = greedy_init(forward, backward, k=16, seed=0)
        first, second = _clone(base), _clone(base)
        for state in (first, second):
            for _ in range(3):
                ccd_sweep(state, n_threads=3)
        for name in _STATE_FIELDS:
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_dead_coordinate_is_noop(self, block_reference_sweep):
        """A zero Y column inside a block: its X columns stay put, no NaNs."""
        _, _, state = _degenerate_state(1, dead_x=False)
        before, expected = _clone(state), _clone(state)
        ccd_sweep(state, block_size=4)
        block_reference_sweep(expected, 4)
        _assert_states_close(state, expected, atol=1e-10)
        # pinv leaves the dead direction's weight at rounding level, not 0.
        assert np.allclose(state.x_forward[:, 1], before.x_forward[:, 1], atol=1e-12)
        assert np.allclose(state.x_backward[:, 1], before.x_backward[:, 1], atol=1e-12)

    @pytest.mark.parametrize("block_size", [1, 4])
    def test_fully_dead_coordinate_stays_dead(self, block_reference_sweep, block_size):
        """Zero Y column *and* zero Xf/Xb pair: both phases skip it."""
        _, _, state = _degenerate_state(1, dead_x=True)
        expected = _clone(state)
        ccd_sweep(state, block_size=block_size)
        if block_size == 1:
            ccd_sweep_reference(expected)
        else:
            block_reference_sweep(expected, block_size)
        _assert_states_close(state, expected, atol=1e-10)
        for name in ("x_forward", "x_backward", "y"):
            assert np.allclose(getattr(state, name)[:, 1], 0.0, atol=1e-12)
            if block_size == 1:  # the scalar rule is an exact zero step
                assert not getattr(state, name)[:, 1].any()

    @pytest.mark.parametrize("block_size", [1, 2, 4])
    def test_near_collinear_columns_stay_monotone(self, block_size):
        """cond(Y) ~ 1e12 must not turn the recurrence into an ascent step."""
        forward, backward, state = _degenerate_state(1, dead_x=False, collinear=True)
        assert np.linalg.cond(state.y) > 1e10
        values = [objective_value(forward, backward, state)]
        for _ in range(5):
            ccd_sweep(state, block_size=block_size)
            values.append(objective_value(forward, backward, state))
        assert np.all(np.isfinite(values))
        assert all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))

    def test_uneven_tail_block(self, problem):
        """half=8 with B=3 leaves a tail block of 2 — must stay monotone."""
        forward, backward = problem
        state = greedy_init(forward, backward, k=16, seed=0)
        values = [cached_objective(state)]
        for _ in range(3):
            ccd_sweep(state, block_size=3)
            values.append(cached_objective(state))
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))


def _tracked_blocked(state, sweeps, block_size):
    history = [cached_objective(state)]
    for _ in range(sweeps):
        ccd_sweep(state, block_size=block_size)
        history.append(cached_objective(state))
    return state, history


class TestBlockedDownstreamParity:
    """Acceptance: blocked-path AUC within 1% of the exact path."""

    @pytest.mark.parametrize("task_name", ["link", "attribute"])
    def test_auc_within_one_percent(self, sbm_graph, task_name):
        from repro.core.pane import PANE
        from repro.tasks.attribute_inference import AttributeInferenceTask
        from repro.tasks.link_prediction import LinkPredictionTask

        task_cls = (
            LinkPredictionTask if task_name == "link" else AttributeInferenceTask
        )
        exact = task_cls(sbm_graph, seed=0).evaluate(PANE(k=16, seed=0))
        blocked = task_cls(sbm_graph, seed=0).evaluate(
            PANE(k=16, seed=0, ccd_block_size=4)
        )
        assert blocked.auc >= exact.auc - 0.01 * max(exact.auc, 1e-12)


class TestNoLargeTemporaries:
    """Peak traced allocations stay far below one ``n × d`` matrix."""

    n, d, k = 4000, 128, 32

    def _peak(self, fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_refine_allocates_no_n_by_d_temporary(self):
        rng = np.random.default_rng(0)
        forward, backward = rng.random((self.n, self.d)), rng.random((self.n, self.d))
        state = random_init(forward, backward, k=self.k, seed=0)
        peak = self._peak(lambda: refine(state, 2))
        assert peak < 0.25 * self.n * self.d * 8

    def test_apmi_peaks_below_six_matrices(self):
        """Two outputs of one direction + three buffers of the other + sparse."""
        from repro.graph.generators import power_law_attributed

        graph = power_law_attributed(self.n, self.d, seed=0)
        peak = self._peak(lambda: apmi(graph))
        assert peak < 6 * self.n * self.d * 8
