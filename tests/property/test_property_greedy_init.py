"""Property-based tests: GreedyInit from the Gram against the ``randsvd`` form.

``greedy_init``/``sm_greedy_init`` take ``Y`` from the subspace iteration on
``C_f = F′ᵀF′`` and set ``X = [F′; B′]·Y``; the reference (``conftest``) is
the ``randsvd(F′)`` form they replaced, with the same Gaussian draw.  In
exact arithmetic the Gram form is never worse: both ``Y`` lie in
``span(C_f^(q+1)·Ω)``, and the Rayleigh–Ritz step on ``C_f`` picks the ``Y``
in that span whose projection ``F′YYᵀ`` fits ``F′`` best.  Rounding ``C_f``
costs up to ``√ε·σ₁``: singular values below it are not told apart.
Measured over 10 500 planted problems (``n, d ≤ 200``, 1–3 spans): the
truncation error was at most ``1.33·√ε·σ₁`` above the reference's, and
thread counts differed by at most ``1.1·√ε·σ₁``; the bound asserted is
``4·√ε·σ₁``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.affinity import iterations_for_epsilon
from repro.core.greedy_init import greedy_init, sm_greedy_init
from repro.core.pane import PANE
from repro.core.svd_ccd import refine
from repro.graph.generators import attributed_sbm, power_law_attributed

#: ``√ε·σ₁`` multiples a Gram init may lose against ``randsvd`` (measured ≤ 1.33).
_FLOOR = 4.0 * np.sqrt(np.finfo(float).eps)


@st.composite
def planted_problems(draw):
    """Tall or wide ``F′``, ``B′`` with spectra ``σ_j = 10^(−j/decay)``.

    The true rank may fall below ``k/2``; ``n_threads`` gives 1–3 spans.
    Half the draws keep ``k/2 + 8`` below ``min(n, d)``, where the power
    iterations decide the subspace rather than the sketch covering it.
    """
    n = draw(st.integers(2, 80))
    d = draw(st.integers(2, 80))
    small = min(n, d)
    true_rank = draw(st.integers(1, small))
    decay = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0, 16.0, np.inf]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    def planted():
        left, _ = np.linalg.qr(rng.standard_normal((n, true_rank)))
        right, _ = np.linalg.qr(rng.standard_normal((d, true_rank)))
        return (left * 10.0 ** (-np.arange(true_rank) / decay)) @ right.T

    narrow = small > 9 and draw(st.booleans())
    half = draw(st.integers(1, small - 8 if narrow else small))
    return (
        planted(),
        planted(),
        2 * half,
        draw(st.integers(0, 6)),  # svd_iterations
        draw(st.integers(1, 3)),  # n_threads
        draw(st.integers(0, 2**31 - 1)),  # seed
    )


def _truncation_error(forward, x_forward, y) -> float:
    return float(np.linalg.norm(forward - x_forward @ y.T))


class TestGramInit:
    @given(planted_problems())
    @settings(max_examples=80, deadline=None)
    def test_y_orthonormal_and_x_is_the_projection(self, problem):
        forward, backward, k, iterations, n_threads, seed = problem
        state = sm_greedy_init(
            forward, backward, k,
            n_threads=n_threads, svd_iterations=iterations, seed=seed,
        )
        half = k // 2
        assert state.y.shape == (forward.shape[1], half)
        assert np.abs(state.y.T @ state.y - np.eye(half)).max() <= 1e-12
        for x, affinity in ((state.x_forward, forward), (state.x_backward, backward)):
            assert np.abs(x - affinity @ state.y).max() <= 1e-12 * max(
                1.0, np.abs(affinity).max()
            )
        again = sm_greedy_init(
            forward, backward, k,
            n_threads=n_threads, svd_iterations=iterations, seed=seed,
        )
        assert np.array_equal(state.y, again.y)
        assert np.array_equal(state.x_forward, again.x_forward)

    @given(planted_problems())
    @settings(max_examples=80, deadline=None)
    def test_truncation_error_within_the_floor_of_reference(
        self, greedy_init_reference, problem
    ):
        forward, backward, k, iterations, n_threads, seed = problem
        state = sm_greedy_init(
            forward, backward, k,
            n_threads=n_threads, svd_iterations=iterations, seed=seed,
        )
        ref = greedy_init_reference(
            forward, backward, k, svd_iterations=iterations, seed=seed
        )
        sigma1 = float(np.linalg.norm(forward, 2))
        got = _truncation_error(forward, state.x_forward, state.y)
        want = _truncation_error(forward, ref.x_forward, ref.y)
        assert got <= want + _FLOOR * sigma1

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_slow_spectrum_uses_every_iteration(self, greedy_init_reference, iterations):
        """``σ_j = 10^(−j/16)``, ``k/2 + 8 ≪ d``: the iterations set the subspace.

        One Gram product fewer than ``randsvd``'s span fails here for every
        seed (measured at 1 and 2 iterations).
        """
        for seed in range(5):
            rng = np.random.default_rng(seed)
            left, _ = np.linalg.qr(rng.standard_normal((80, 60)))
            right, _ = np.linalg.qr(rng.standard_normal((60, 60)))
            forward = (left * 10.0 ** (-np.arange(60) / 16)) @ right.T
            backward = forward[::-1].copy()
            state = greedy_init(
                forward, backward, 8, svd_iterations=iterations, seed=seed
            )
            ref = greedy_init_reference(
                forward, backward, 8, svd_iterations=iterations, seed=seed
            )
            sigma1 = float(np.linalg.norm(forward, 2))
            got = _truncation_error(forward, state.x_forward, state.y)
            want = _truncation_error(forward, ref.x_forward, ref.y)
            assert got <= want + _FLOOR * sigma1

    @given(planted_problems())
    @settings(max_examples=60, deadline=None)
    def test_thread_counts_agree(self, problem):
        """Only the order the span partials are added in differs."""
        forward, backward, k, iterations, _, seed = problem
        errors = [
            _truncation_error(forward, state.x_forward, state.y)
            for state in (
                sm_greedy_init(
                    forward, backward, k, n_threads=n_threads,
                    svd_iterations=iterations, seed=seed,
                )
                for n_threads in (1, 2, 3)
            )
        ]
        sigma1 = float(np.linalg.norm(forward, 2))
        assert max(errors) - min(errors) <= _FLOOR * sigma1

    @given(planted_problems())
    @settings(max_examples=30, deadline=None)
    def test_one_thread_is_greedy_init(self, problem):
        forward, backward, k, iterations, _, seed = problem
        serial = greedy_init(forward, backward, k, svd_iterations=iterations, seed=seed)
        split = sm_greedy_init(
            forward, backward, k, n_threads=1, svd_iterations=iterations, seed=seed
        )
        assert np.array_equal(serial.y, split.y)
        assert np.array_equal(serial.x_backward, split.x_backward)


def _graphs():
    yield attributed_sbm(n_nodes=150, n_communities=3, n_attributes=30, seed=3)
    yield power_law_attributed(
        500, 48, out_degree=8, n_communities=8, attrs_per_node=6, seed=1
    )


class TestFitIsInitThenRefine:
    """``PANE.fit``'s Gram start equals ``greedy_init`` followed by ``refine``."""

    @pytest.mark.parametrize("block_size", [1, 16])
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_fit_matches(self, block_size, n_threads):
        for graph in _graphs():
            model = PANE(k=32, n_threads=n_threads, ccd_block_size=block_size, seed=4)
            cfg = model.config
            fitted = model.fit(graph, compute_objective=True)
            pair = model.compute_affinity(graph)
            state = sm_greedy_init(
                pair.forward, pair.backward, cfg.k, n_threads=n_threads,
                svd_iterations=cfg.svd_power_iterations, seed=cfg.seed,
            )
            refine(
                state,
                iterations_for_epsilon(cfg.epsilon, cfg.alpha),
                n_threads=n_threads,
                block_size=block_size,
            )
            for got, want in (
                (fitted.x_forward, state.x_forward),
                (fitted.x_backward, state.x_backward),
                (fitted.y, state.y),
            ):
                assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
