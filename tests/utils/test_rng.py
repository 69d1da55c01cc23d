"""Tests for repro.utils.rng."""

import numpy as np

from repro.utils.rng import ensure_rng


def test_ensure_rng_from_int_is_deterministic():
    a = ensure_rng(42).integers(0, 1000, size=10)
    b = ensure_rng(42).integers(0, 1000, size=10)
    assert np.array_equal(a, b)


def test_ensure_rng_passthrough_generator():
    gen = np.random.default_rng(0)
    assert ensure_rng(gen) is gen


def test_ensure_rng_none_gives_generator():
    assert isinstance(ensure_rng(None), np.random.Generator)
