"""Tests for PAPMI (Alg. 6), which is ``apmi(n_threads=, pool=)``:
parallel/serial equivalence (Lemma 4.1), bitwise."""

import numpy as np
import pytest

from repro.core.affinity import apmi

_ARRAYS = ("forward", "backward")


def _assert_same_bits(serial, parallel):
    for name in _ARRAYS:
        assert np.array_equal(getattr(serial, name), getattr(parallel, name)), name


class TestLemma41:
    """PAPMI must return exactly the serial APMI matrices — the same bits."""

    @pytest.mark.parametrize("n_threads", [1, 2, 3, 7])
    def test_parallel_equals_serial(self, citation, n_threads):
        for alpha in (0.5, 0.3):
            serial = apmi(citation, alpha=alpha, epsilon=0.05)
            parallel = apmi(citation, alpha=alpha, epsilon=0.05, n_threads=n_threads)
            _assert_same_bits(serial, parallel)

    def test_more_threads_than_attributes(self, tiny_graph):
        """16 threads, 4 nodes, 3 attributes: one block, empty spans are dropped."""
        serial = apmi(tiny_graph, epsilon=0.1)
        parallel = apmi(tiny_graph, epsilon=0.1, n_threads=16)
        _assert_same_bits(serial, parallel)

    def test_probabilities_identical(self, sbm_graph):
        """On a persistent pool, as ``PANE.fit`` calls it: F′ and B′ (the
        probabilities are not kept; ``apmi_probabilities`` is serial)."""
        from repro.parallel.pool import WorkerPool

        serial = apmi(sbm_graph, epsilon=0.05)
        with WorkerPool(4) as pool:
            parallel = apmi(sbm_graph, epsilon=0.05, n_threads=4, pool=pool)
        _assert_same_bits(serial, parallel)

    def test_explicit_iterations(self, sbm_graph):
        serial = apmi(sbm_graph, n_iterations=3)
        parallel = apmi(sbm_graph, n_iterations=3, n_threads=2)
        _assert_same_bits(serial, parallel)
