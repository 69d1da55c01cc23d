"""Tests for GreedyInit / SMGreedyInit (Alg. 3, Alg. 7, Lemma 4.2)."""

import numpy as np
import pytest

from repro.core.affinity import apmi
from repro.core.greedy_init import greedy_init, random_init, sm_greedy_init
from repro.core.svd_ccd import cached_objective, objective_value


@pytest.fixture(scope="module")
def affinities(sbm_graph):
    pair = apmi(sbm_graph, alpha=0.5, epsilon=0.015)
    return pair.forward, pair.backward


class TestGreedyInit:
    def test_shapes(self, affinities):
        forward, backward = affinities
        state = greedy_init(forward, backward, k=16, seed=0)
        n, d = forward.shape
        assert state.x_forward.shape == (n, 8)
        assert state.x_backward.shape == (n, 8)
        assert state.y.shape == (d, 8)

    def test_state_references_the_affinities(self, affinities):
        """No residual is built: the state points at F′/B′ themselves."""
        forward, backward = affinities
        for state in (
            greedy_init(forward, backward, k=16, seed=0),
            sm_greedy_init(forward, backward, k=16, n_threads=3, seed=0),
            random_init(forward, backward, k=16, seed=0),
        ):
            assert state.forward is forward and state.backward is backward

    def test_immediately_approximates_forward(self, affinities):
        """Xf·Yᵀ ≈ F′ right after init — the point of GreedyInit."""
        forward, backward = affinities
        state = greedy_init(forward, backward, k=32, seed=0)
        residual = state.x_forward @ state.y.T - forward
        rel_error = np.linalg.norm(residual) / np.linalg.norm(forward)
        assert rel_error < 0.6

    def test_y_orthonormal(self, affinities):
        forward, backward = affinities
        state = greedy_init(forward, backward, k=16, seed=0)
        assert np.allclose(state.y.T @ state.y, np.eye(8), atol=1e-8)

    def test_xb_equals_backward_projected(self, affinities):
        forward, backward = affinities
        state = greedy_init(forward, backward, k=16, seed=0)
        assert np.allclose(state.x_backward, backward @ state.y)

    def test_beats_random_init_objective(self, affinities):
        forward, backward = affinities
        greedy = greedy_init(forward, backward, k=16, seed=0)
        random = random_init(forward, backward, k=16, seed=0)
        assert cached_objective(greedy) < cached_objective(random)


class TestLemma42:
    """With exact SVDs, SMGreedyInit reproduces Xf Yᵀ = F′, Y unitary, Sf = 0."""

    def test_exact_limit_serial(self, affinities):
        forward, backward = affinities
        half = 8
        state = greedy_init(forward, backward, k=2 * half, seed=0, exact=True)
        # rank-limited: Sf equals the optimal rank-half truncation residual
        assert np.allclose(state.y.T @ state.y, np.eye(half), atol=1e-9)

    @pytest.mark.parametrize("n_threads", [2, 3])
    def test_exact_limit_split_merge(self, affinities, n_threads):
        forward, backward = affinities
        half = 8
        state = sm_greedy_init(
            forward, backward, k=2 * half, n_threads=n_threads, exact=True
        )
        # Y unitary
        assert np.allclose(state.y.T @ state.y, np.eye(half), atol=1e-8)
        # Xb = B' Y and Sb·Y = (Xb Yᵀ − B′) Y = Xb − B'Y = 0
        assert np.allclose(state.x_backward, backward @ state.y, atol=1e-8)
        residual_b = state.x_backward @ state.y.T - backward
        assert np.allclose(residual_b @ state.y, 0.0, atol=1e-7)

    def test_exact_limit_full_rank_reconstruction(self):
        """When k/2 covers the full rank, Sf must vanish (Lemma 4.2)."""
        rng = np.random.default_rng(0)
        # build a rank-4 F' so k/2=4 reconstructs it exactly
        forward = rng.standard_normal((24, 4)) @ rng.standard_normal((4, 12))
        backward = rng.standard_normal((24, 4)) @ rng.standard_normal((4, 12))
        state = sm_greedy_init(forward, backward, k=8, n_threads=3, exact=True)
        assert np.allclose(state.x_forward @ state.y.T, forward, atol=1e-7)


class TestSMGreedyInitPractical:
    def test_close_to_serial_quality(self, affinities):
        forward, backward = affinities
        serial = greedy_init(forward, backward, k=16, seed=0)
        parallel = sm_greedy_init(forward, backward, k=16, n_threads=4, seed=0)
        # the paper reports a small degradation; allow 35%
        assert cached_objective(parallel) <= 1.35 * cached_objective(serial)

    def test_thread_clipping_small_graph(self):
        rng = np.random.default_rng(1)
        forward = rng.random((10, 8))
        backward = rng.random((10, 8))
        # k/2 = 4, n=10 -> at most 2 blocks; must not crash with 8 threads
        state = sm_greedy_init(forward, backward, k=8, n_threads=8, seed=0)
        assert state.x_forward.shape == (10, 4)

    def test_int_seed_keeps_its_block_seeds(self, affinities):
        """Block ``i`` draws from ``seed + i``, the merge from ``seed + nb``."""
        from repro.core.randsvd import randsvd

        forward, backward = affinities
        state = sm_greedy_init(forward, backward, k=16, n_threads=2, seed=5)
        half = forward.shape[0] // 2
        blocks = [
            randsvd(forward[rows], 8, 5, seed=5 + i)
            for i, rows in enumerate((slice(0, half), slice(half, None)))
        ]
        stacked = np.vstack([v.T for _, _, v in blocks])
        phi, sigma, y = randsvd(stacked, 8, 5, seed=7)
        assert np.array_equal(state.y, y)
        u0, s0, _ = blocks[0]
        assert np.allclose(state.x_forward[:half], (u0 * s0) @ (phi * sigma)[:8])

    @pytest.mark.parametrize("kind", ["generator", "none"])
    def test_generator_and_none_seeds_accepted(self, affinities, kind):
        """The signature advertises all three seed kinds; ``seed + i`` was int-only."""
        forward, backward = affinities
        seeds = (
            (np.random.default_rng(3), np.random.default_rng(3))
            if kind == "generator"
            else (None, None)
        )
        first, second = (
            sm_greedy_init(forward, backward, k=16, n_threads=3, seed=seed)
            for seed in seeds
        )
        assert np.all(np.isfinite(first.x_forward))
        assert cached_objective(first) == pytest.approx(
            objective_value(forward, backward, first), rel=1e-10
        )
        if kind == "generator":  # equal generators, equal draws
            assert np.array_equal(first.y, second.y)


class TestRandomInit:
    def test_deterministic(self, affinities):
        forward, backward = affinities
        a = random_init(forward, backward, k=16, seed=3)
        b = random_init(forward, backward, k=16, seed=3)
        assert np.array_equal(a.x_forward, b.x_forward)

    def test_shapes(self, affinities):
        forward, backward = affinities
        state = random_init(forward, backward, k=16, seed=0)
        assert state.x_forward.shape == (forward.shape[0], 8)
