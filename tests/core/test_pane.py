"""Tests for the PANE facade (Alg. 1 / Alg. 5) and PANEEmbedding."""

import numpy as np
import pytest

from repro.core.pane import PANE, PANEEmbedding
from repro.core.config import PANEConfig


class TestFit:
    def test_output_shapes(self, sbm_graph):
        embedding = PANE(k=16, seed=0).fit(sbm_graph)
        n, d = sbm_graph.n_nodes, sbm_graph.n_attributes
        assert embedding.x_forward.shape == (n, 8)
        assert embedding.x_backward.shape == (n, 8)
        assert embedding.y.shape == (d, 8)
        assert embedding.node_embeddings().shape == (n, 16)

    def test_deterministic_for_seed(self, sbm_graph):
        a = PANE(k=16, seed=5).fit(sbm_graph)
        b = PANE(k=16, seed=5).fit(sbm_graph)
        assert np.allclose(a.x_forward, b.x_forward)
        assert np.allclose(a.y, b.y)

    def test_timings_recorded(self, sbm_graph):
        embedding = PANE(k=16, seed=0).fit(sbm_graph)
        assert set(embedding.timings) == {"affinity", "init", "ccd"}
        assert all(v >= 0 for v in embedding.timings.values())

    def test_objective_computed_on_request(self, sbm_graph):
        embedding = PANE(k=16, seed=0).fit(sbm_graph, compute_objective=True)
        assert embedding.objective is not None and embedding.objective >= 0
        assert PANE(k=16, seed=0).fit(sbm_graph).objective is None

    @pytest.mark.parametrize("ccd_iterations", [None, 0])
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_objective_is_the_recomputed_one(self, sbm_graph, ccd_iterations, n_threads):
        """The last sweep's return value (init's, with no sweeps) is Eq. (4)."""
        from repro.core.affinity import apmi
        from repro.core.svd_ccd import objective_value

        model = PANE(k=16, seed=0, n_threads=n_threads, ccd_iterations=ccd_iterations)
        embedding = model.fit(sbm_graph, compute_objective=True)
        pair = apmi(sbm_graph, model.config.alpha, model.config.epsilon)
        expected = objective_value(pair.forward, pair.backward, embedding)
        assert embedding.objective == pytest.approx(expected, rel=1e-10)

    def test_single_thread_fit_is_bit_reproducible(self, sbm_graph):
        a = PANE(k=16, seed=0, n_threads=1).fit(sbm_graph)
        b = PANE(k=16, seed=0, n_threads=1).fit(sbm_graph)
        for name in ("x_forward", "x_backward", "y"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_k_too_large_rejected(self, sbm_graph):
        # sbm_graph has d=30 attributes; k/2 must be <= 30
        with pytest.raises(ValueError, match="exceeds"):
            PANE(k=128, seed=0).fit(sbm_graph)

    def test_invalid_init_rejected(self):
        with pytest.raises(ValueError, match="init"):
            PANE(k=16, init="bogus")

    def test_config_object_accepted(self, sbm_graph):
        cfg = PANEConfig(k=16, alpha=0.3, epsilon=0.1)
        embedding = PANE(config=cfg).fit(sbm_graph)
        assert embedding.config is cfg

    def test_ccd_iterations_override(self, sbm_graph):
        fast = PANE(k=16, ccd_iterations=0, seed=0).fit(sbm_graph)
        slow = PANE(k=16, ccd_iterations=5, seed=0).fit(sbm_graph)
        # different amounts of refinement must change the embeddings
        assert not np.allclose(fast.x_forward, slow.x_forward)


class TestParallel:
    def test_parallel_close_to_serial(self, sbm_graph):
        serial = PANE(k=16, seed=0).fit(sbm_graph, compute_objective=True)
        parallel = PANE(k=16, seed=0, n_threads=4).fit(
            sbm_graph, compute_objective=True
        )
        # Sec. 5: the degradation from the split-merge SVD is small
        assert parallel.objective <= 1.25 * serial.objective

    def test_parallel_shapes(self, sbm_graph):
        embedding = PANE(k=16, seed=0, n_threads=3).fit(sbm_graph)
        assert embedding.node_embeddings().shape == (sbm_graph.n_nodes, 16)


class TestQuality:
    def test_reconstructs_affinity_better_than_random(self, sbm_graph):
        pane = PANE(k=32, seed=0)
        trained = pane.fit(sbm_graph, compute_objective=True)
        random_model = PANE(k=32, seed=0, init="random", ccd_iterations=0)
        untrained = random_model.fit(sbm_graph, compute_objective=True)
        assert trained.objective < untrained.objective

    def test_embedding_separates_communities(self, sbm_graph):
        """Mean intra-community cosine similarity should beat inter."""
        embedding = PANE(k=32, seed=0).fit(sbm_graph)
        feats = embedding.node_embeddings()
        labels = sbm_graph.labels
        sims = feats @ feats.T
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        intra = sims[same].mean()
        inter = sims[~same & ~np.eye(len(labels), dtype=bool)].mean()
        assert intra > inter


class TestEmbeddingObject:
    def test_node_embeddings_normalized(self, sbm_graph):
        embedding = PANE(k=16, seed=0).fit(sbm_graph)
        feats = embedding.node_embeddings(normalize=True)
        half_norms = np.linalg.norm(feats[:, :8], axis=1)
        # every non-degenerate half-row has unit norm
        assert np.allclose(half_norms[half_norms > 1e-9], 1.0)

    def test_node_embeddings_raw(self, sbm_graph):
        embedding = PANE(k=16, seed=0).fit(sbm_graph)
        raw = embedding.node_embeddings(normalize=False)
        assert np.allclose(raw[:, :8], embedding.x_forward)

    def test_save_load_round_trip(self, sbm_graph, tmp_path):
        embedding = PANE(k=16, seed=0).fit(sbm_graph)
        path = tmp_path / "emb.npz"
        embedding.save(path)
        loaded = PANEEmbedding.load(path)
        assert np.allclose(loaded.x_forward, embedding.x_forward)
        assert np.allclose(loaded.y, embedding.y)
        assert loaded.config.k == 16

    def test_save_is_atomic_no_temp_left(self, sbm_graph, tmp_path):
        """save writes via temp + os.replace: no stray files, suffix appended."""
        embedding = PANE(k=16, seed=0).fit(sbm_graph)
        embedding.save(tmp_path / "emb.npz")
        embedding.save(tmp_path / "emb.npz")  # overwrite is atomic too
        embedding.save(tmp_path / "bare")  # legacy: .npz appended when missing
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["bare.npz", "emb.npz"]
        loaded = PANEEmbedding.load(tmp_path / "emb.npz")
        assert np.allclose(loaded.x_forward, embedding.x_forward)

    def test_save_keeps_default_file_mode(self, sbm_graph, tmp_path):
        """The mkstemp staging file must not leak its 0600 mode: the saved
        archive should be as readable as one written by plain open()."""
        embedding = PANE(k=16, seed=0).fit(sbm_graph)
        control = tmp_path / "control.txt"
        control.write_text("x")
        embedding.save(tmp_path / "emb.npz")
        archive_mode = (tmp_path / "emb.npz").stat().st_mode & 0o777
        assert archive_mode == control.stat().st_mode & 0o777

    def test_save_load_preserves_full_config(self, sbm_graph, tmp_path):
        """Every PANEConfig field must survive the round trip."""
        embedding = PANE(
            k=16,
            alpha=0.4,
            epsilon=0.05,
            n_threads=3,
            ccd_iterations=2,
            svd_power_iterations=7,
            dangling="self",
            seed=11,
            ccd_block_size=4,
        ).fit(sbm_graph)
        path = tmp_path / "emb_full.npz"
        embedding.save(path)
        loaded = PANEEmbedding.load(path)
        assert loaded.config == embedding.config

    def test_save_load_preserves_none_fields(self, sbm_graph, tmp_path):
        """ccd_iterations=None and seed=None must round-trip as None."""
        embedding = PANE(k=16, seed=None, ccd_iterations=None).fit(sbm_graph)
        path = tmp_path / "emb_none.npz"
        embedding.save(path)
        loaded = PANEEmbedding.load(path)
        assert loaded.config.ccd_iterations is None
        assert loaded.config.seed is None

    def test_load_ignores_unknown_config_fields(self, sbm_graph, tmp_path):
        """Archives from newer versions (extra config keys) must still load."""
        import json

        embedding = PANE(k=16, seed=0).fit(sbm_graph)
        path = tmp_path / "emb_future.npz"
        future = dict(
            k=16, alpha=0.5, epsilon=0.015, some_future_field="whatever"
        )
        np.savez_compressed(
            path,
            x_forward=embedding.x_forward,
            x_backward=embedding.x_backward,
            y=embedding.y,
            config_json=np.array(json.dumps(future)),
        )
        loaded = PANEEmbedding.load(path)
        assert loaded.config.k == 16

    def test_load_legacy_archive(self, sbm_graph, tmp_path):
        """Archives written before the full-config format still load."""
        embedding = PANE(k=16, seed=0).fit(sbm_graph)
        path = tmp_path / "emb_legacy.npz"
        np.savez_compressed(  # the seed save() format: scalar keys only
            path,
            x_forward=embedding.x_forward,
            x_backward=embedding.x_backward,
            y=embedding.y,
            k=np.array(embedding.config.k),
            alpha=np.array(embedding.config.alpha),
            epsilon=np.array(embedding.config.epsilon),
        )
        loaded = PANEEmbedding.load(path)
        assert loaded.config.k == 16
        assert loaded.config.alpha == embedding.config.alpha
        assert np.allclose(loaded.x_forward, embedding.x_forward)

    def test_attribute_embeddings_alias(self, sbm_graph):
        embedding = PANE(k=16, seed=0).fit(sbm_graph)
        assert embedding.attribute_embeddings is embedding.y

    def test_score_methods_shapes(self, sbm_graph):
        embedding = PANE(k=16, seed=0).fit(sbm_graph)
        nodes = np.array([0, 1, 2])
        assert embedding.score_attributes(nodes, nodes).shape == (3,)
        assert embedding.score_links(nodes, nodes).shape == (3,)
