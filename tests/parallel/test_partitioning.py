"""Tests for block partitioning."""

import numpy as np
import pytest

from repro.parallel.partitioning import partition_indices, partition_spans


class TestPartitionIndices:
    def test_covers_all_indices_exactly_once(self):
        blocks = partition_indices(17, 4)
        combined = np.concatenate(blocks)
        assert sorted(combined.tolist()) == list(range(17))

    def test_near_equal_sizes(self):
        blocks = partition_indices(17, 4)
        sizes = [b.size for b in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_blocks(self):
        blocks = partition_indices(2, 5)
        assert len(blocks) == 2
        assert all(b.size == 1 for b in blocks)

    def test_single_block(self):
        blocks = partition_indices(10, 1)
        assert len(blocks) == 1
        assert blocks[0].size == 10

    def test_empty_total(self):
        assert partition_indices(0, 3) == []

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            partition_indices(-1, 2)
        with pytest.raises(ValueError):
            partition_indices(5, 0)


class TestPartitionSpans:
    def test_matches_partition_indices(self):
        spans = partition_spans(17, 4)
        blocks = partition_indices(17, 4)
        assert len(spans) == len(blocks)
        for span, block in zip(spans, blocks):
            assert np.array_equal(np.arange(17)[span], block)

    def test_spans_give_views(self):
        matrix = np.zeros((10, 2))
        for span in partition_spans(10, 3):
            block = matrix[span]
            assert block.base is matrix  # a view, not a fancy-index copy
            block += 1.0
        assert np.all(matrix == 1.0)

    def test_empty_total(self):
        assert partition_spans(0, 3) == []
