"""Tests for repro.core.config."""

import numpy as np
import pytest

from repro.core.config import PANEConfig


class TestDefaults:
    def test_paper_defaults(self):
        cfg = PANEConfig()
        assert cfg.k == 128
        assert cfg.alpha == 0.5
        assert cfg.epsilon == 0.015
        assert cfg.n_threads == 1

    def test_half_dim(self):
        assert PANEConfig(k=64).half_dim == 32


@pytest.mark.contract
class TestValidation:
    """Contract: TestValidation rejects bad PANEConfig fields at construction."""

    @pytest.mark.parametrize("bad_k", [0, -2, 7, 15])
    def test_bad_k_rejected(self, bad_k):
        with pytest.raises(ValueError):
            PANEConfig(k=bad_k)

    @pytest.mark.parametrize("bad_alpha", [0.0, 1.0, -0.1, 2.0])
    def test_bad_alpha_rejected(self, bad_alpha):
        with pytest.raises(ValueError):
            PANEConfig(alpha=bad_alpha)

    @pytest.mark.parametrize("bad_eps", [0.0, 1.0, -0.5])
    def test_bad_epsilon_rejected(self, bad_eps):
        with pytest.raises(ValueError):
            PANEConfig(epsilon=bad_eps)

    def test_bad_threads_rejected(self):
        with pytest.raises(ValueError):
            PANEConfig(n_threads=0)

    def test_negative_ccd_iterations_rejected(self):
        with pytest.raises(ValueError):
            PANEConfig(ccd_iterations=-1)

    @pytest.mark.parametrize("bad_k", [16.0, True, "16", None])
    def test_non_integral_k_rejected(self, bad_k):
        """``k=16.0`` used to pass and make ``half_dim`` the float ``8.0``."""
        with pytest.raises(ValueError, match="k must be an integer"):
            PANEConfig(k=bad_k)

    @pytest.mark.parametrize("bad", [True, 2.0, 1.5, None])
    def test_non_integral_threads_rejected(self, bad):
        with pytest.raises(ValueError, match="n_threads must be an integer"):
            PANEConfig(n_threads=bad)

    @pytest.mark.parametrize("bad", [True, 16.0, 0, -1])
    def test_bad_ccd_block_size_rejected(self, bad):
        with pytest.raises(ValueError, match="ccd_block_size"):
            PANEConfig(ccd_block_size=bad)

    @pytest.mark.parametrize("bad", [True, 5.0, -1])
    def test_bad_svd_power_iterations_rejected(self, bad):
        with pytest.raises(ValueError, match="svd_power_iterations"):
            PANEConfig(svd_power_iterations=bad)

    @pytest.mark.parametrize("bad", [False, 1.5, 2.0, -1, "0"])
    def test_bad_seed_rejected(self, bad):
        """Used to fail only in RandSVD, as a ``TypeError``."""
        with pytest.raises(ValueError, match="seed"):
            PANEConfig(seed=bad)

    @pytest.mark.parametrize("bad", [True, 2.5, 3.0])
    def test_non_integral_ccd_iterations_rejected(self, bad):
        with pytest.raises(ValueError, match="ccd_iterations"):
            PANEConfig(ccd_iterations=bad)

    @pytest.mark.parametrize("bad", ["none", "ZERO", "", None])
    def test_unknown_dangling_rejected(self, bad):
        """Used to fail only inside ``random_walk_matrix``."""
        with pytest.raises(ValueError, match="dangling"):
            PANEConfig(dangling=bad)

    @pytest.mark.parametrize("field", ["alpha", "epsilon"])
    @pytest.mark.parametrize("bad", [True, "0.5"])
    def test_non_numeric_rates_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            PANEConfig(**{field: bad})

    def test_numpy_integers_accepted_as_ints(self):
        """Numpy integers pass and are stored as ``int`` (a JSON config)."""
        cfg = PANEConfig(k=np.int64(16), n_threads=np.int32(2), seed=np.uint8(3))
        assert (cfg.k, cfg.n_threads, cfg.seed) == (16, 2, 3)
        assert all(type(v) is int for v in (cfg.k, cfg.n_threads, cfg.seed))
        assert cfg.half_dim == 8

    def test_none_allowed_where_documented(self):
        cfg = PANEConfig(seed=None, ccd_iterations=None)
        assert cfg.seed is None and cfg.ccd_iterations is None

    def test_frozen(self):
        cfg = PANEConfig()
        with pytest.raises(Exception):
            cfg.k = 64
