"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph.generators import attributed_sbm
from repro.graph.io import save_npz


@pytest.fixture()
def graph_file(tmp_path):
    graph = attributed_sbm(n_nodes=80, n_attributes=20, seed=0)
    path = tmp_path / "graph.npz"
    save_npz(graph, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_embed_defaults(self):
        args = build_parser().parse_args(
            ["embed", "--graph", "g.npz", "--out", "e.npz"]
        )
        assert args.k == 128
        assert args.alpha == 0.5
        assert args.threads == 1
        assert args.ccd_block_size == 1

    def test_embed_block_size_flag(self):
        args = build_parser().parse_args(
            ["embed", "--graph", "g.npz", "--out", "e.npz", "--ccd-block-size", "32"]
        )
        assert args.ccd_block_size == 32

    def test_evaluate_task_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evaluate", "--graph", "g.npz", "--task", "bogus"]
            )


class TestCommands:
    def test_datasets_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cora_sim" in out and "mag_sim" in out

    def test_generate_writes_npz(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        assert main(["generate", "--dataset", "cora_sim", "--out", str(out)]) == 0
        assert out.exists()

    def test_embed_writes_embedding(self, graph_file, tmp_path, capsys):
        out = tmp_path / "emb.npz"
        code = main(
            ["embed", "--graph", str(graph_file), "--out", str(out), "--k", "8"]
        )
        assert code == 0
        assert out.exists()
        assert "objective" in capsys.readouterr().out

    def test_embed_blocked_kernel(self, graph_file, tmp_path, capsys):
        out = tmp_path / "emb_blocked.npz"
        code = main(
            [
                "embed",
                "--graph",
                str(graph_file),
                "--out",
                str(out),
                "--k",
                "8",
                "--ccd-block-size",
                "4",
            ]
        )
        assert code == 0
        assert out.exists()
        from repro.core.pane import PANEEmbedding

        assert PANEEmbedding.load(out).config.ccd_block_size == 4

    def test_evaluate_link(self, graph_file, capsys):
        code = main(
            ["evaluate", "--graph", str(graph_file), "--task", "link", "--k", "8"]
        )
        assert code == 0
        assert "AUC" in capsys.readouterr().out

    def test_evaluate_attribute(self, graph_file, capsys):
        code = main(
            ["evaluate", "--graph", str(graph_file), "--task", "attribute", "--k", "8"]
        )
        assert code == 0
        assert "attribute inference" in capsys.readouterr().out

    def test_evaluate_classify(self, graph_file, capsys):
        code = main(
            ["evaluate", "--graph", str(graph_file), "--task", "classify", "--k", "8"]
        )
        assert code == 0
        assert "micro-F1" in capsys.readouterr().out

    def test_neighbors(self, graph_file, tmp_path, capsys):
        emb = tmp_path / "emb.npz"
        main(["embed", "--graph", str(graph_file), "--out", str(emb), "--k", "8"])
        capsys.readouterr()
        code = main(
            ["neighbors", "--embedding", str(emb), "--node", "0", "--k", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_neighbors_ids_are_query_ids(self, graph_file, tmp_path, capsys):
        """`neighbors` ranks the rows a store serves: its ids are what
        `query --node` answers over the same embedding."""
        emb, store = tmp_path / "emb.npz", tmp_path / "store"
        main(["embed", "--graph", str(graph_file), "--out", str(emb), "--k", "8"])
        main(["serve", "--store", str(store), "--publish", str(emb)])
        for node in (0, 17, 79):
            capsys.readouterr()
            args = ["--node", str(node), "--k", "6"]
            assert main(["neighbors", "--embedding", str(emb), *args]) == 0
            neighbors = capsys.readouterr().out.strip().splitlines()
            assert main(["query", "--store", str(store), *args]) == 0
            served = capsys.readouterr().out.strip().splitlines()[1:]
            assert [line.split("\t")[0] for line in neighbors] == [
                line.split("\t")[0] for line in served
            ]


class TestServeQuery:
    """`embed` → `serve --publish` → `query` round trip (toy-sized graph)."""

    @pytest.fixture()
    def embedding_file(self, graph_file, tmp_path, capsys):
        emb = tmp_path / "emb.npz"
        main(["embed", "--graph", str(graph_file), "--out", str(emb), "--k", "8"])
        capsys.readouterr()
        return emb

    def test_round_trip_matches_knn(self, embedding_file, tmp_path, capsys):
        from repro.core.pane import PANEEmbedding
        from repro.search.knn import top_k_similar

        store = tmp_path / "store"
        assert main(
            ["serve", "--store", str(store), "--publish", str(embedding_file)]
        ) == 0
        assert "published v00000001" in capsys.readouterr().out
        code = main(
            [
                "query", "--store", str(store), "--node", "0", "--k", "5",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# version=v00000001")
        served = [int(line.split("\t")[0]) for line in lines[1:]]
        embedding = PANEEmbedding.load(embedding_file)
        expected, _ = top_k_similar(embedding.node_embeddings(), 0, 5)
        assert served == expected.tolist()

    def test_serve_lists_versions(self, embedding_file, tmp_path, capsys):
        store = tmp_path / "store"
        main(["serve", "--store", str(store), "--publish", str(embedding_file)])
        main(["serve", "--store", str(store), "--publish", str(embedding_file)])
        capsys.readouterr()
        assert main(["serve", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "v00000001" in out
        assert "v00000002 (latest)" in out

    def test_publish_rollback_mutually_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["serve", "--store", str(tmp_path / "s"),
                 "--publish", "emb.npz", "--rollback"]
            )
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_query_defaults_to_exact_backend(self, capsys):
        # The exact engine is the only one: `query` has no backend flag.
        from repro.cli import build_parser

        args = build_parser().parse_args(["query", "--store", "s"])
        assert not hasattr(args, "backend")
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["query", "--store", "s", "--backend", "exact"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_serve_rollback(self, embedding_file, tmp_path, capsys):
        store = tmp_path / "store"
        main(["serve", "--store", str(store), "--publish", str(embedding_file)])
        main(["serve", "--store", str(store), "--publish", str(embedding_file)])
        capsys.readouterr()
        assert main(["serve", "--store", str(store), "--rollback"]) == 0
        assert "rolled back to v00000001" in capsys.readouterr().out

    def test_serve_rollback_oldest_errors_cleanly(
        self, embedding_file, tmp_path, capsys
    ):
        store = tmp_path / "store"
        main(["serve", "--store", str(store), "--publish", str(embedding_file)])
        capsys.readouterr()
        assert main(["serve", "--store", str(store), "--rollback"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_query_attribute_mode(self, embedding_file, tmp_path, capsys):
        store = tmp_path / "store"
        main(["serve", "--store", str(store), "--publish", str(embedding_file)])
        capsys.readouterr()
        code = main(
            [
                "query", "--store", str(store), "--attribute", "0", "--k", "3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + 3 rows

    def test_query_skips_filter_padding(self, embedding_file, tmp_path, capsys):
        """A filter allowing fewer than k rows pads the answer with id -1;
        `query` prints only the real rows."""
        store = tmp_path / "store"
        main(["serve", "--store", str(store), "--publish", str(embedding_file)])
        capsys.readouterr()
        code = main(
            ["query", "--store", str(store), "--node", "0", "--k", "5",
             "--filter-allow", "3,7"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(int(line.split("\t")[0]) for line in lines[1:]) == [3, 7]

    def test_query_empty_store_errors(self, tmp_path, capsys):
        assert main(["query", "--store", str(tmp_path / "empty"), "--node", "0"]) == 2
        assert "no published versions" in capsys.readouterr().err


class TestShardedServeQuery:
    """`serve --shards N` → auto-detected scatter-gather `query`."""

    @pytest.fixture()
    def embedding_file(self, graph_file, tmp_path, capsys):
        emb = tmp_path / "emb.npz"
        main(["embed", "--graph", str(graph_file), "--out", str(emb), "--k", "8"])
        capsys.readouterr()
        return emb

    def _publish(self, store, embedding_file, *extra):
        return main(
            ["serve", "--store", str(store), "--publish", str(embedding_file)]
            + list(extra)
        )

    def test_sharded_publish_and_list(self, embedding_file, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._publish(store, embedding_file, "--shards", "3") == 0
        out = capsys.readouterr().out
        assert "published v00000001 [3 range shards]" in out
        assert main(["serve", "--store", str(store)]) == 0
        assert "[3 range shards]" in capsys.readouterr().out

    def test_sharded_query_matches_plain(self, embedding_file, tmp_path, capsys):
        plain = tmp_path / "plain"
        sharded = tmp_path / "sharded"
        self._publish(plain, embedding_file)
        self._publish(sharded, embedding_file, "--shards", "3", "--partition", "hash")
        capsys.readouterr()
        assert main(["query", "--store", str(plain), "--node", "5", "--k", "5"]) == 0
        plain_out = capsys.readouterr().out.strip().splitlines()[1:]
        assert main(["query", "--store", str(sharded), "--node", "5", "--k", "5"]) == 0
        sharded_out = capsys.readouterr().out.strip().splitlines()[1:]
        assert sharded_out == plain_out  # ids AND printed scores identical

    def test_sharded_rollback(self, embedding_file, tmp_path, capsys):
        store = tmp_path / "store"
        self._publish(store, embedding_file, "--shards", "2")
        self._publish(store, embedding_file)
        capsys.readouterr()
        assert main(["serve", "--store", str(store), "--rollback"]) == 0
        assert "rolled back to v00000001" in capsys.readouterr().out

    def test_shards_on_existing_plain_store_errors(
        self, embedding_file, tmp_path, capsys
    ):
        store = tmp_path / "store"
        self._publish(store, embedding_file)
        capsys.readouterr()
        assert self._publish(store, embedding_file, "--shards", "2") == 2
        assert "existing unsharded store" in capsys.readouterr().err

    def test_partition_without_shards_errors(
        self, embedding_file, tmp_path, capsys
    ):
        # --partition on a would-be plain store must not be silently
        # dropped: the user asked for a sharded layout.
        store = tmp_path / "store"
        assert self._publish(store, embedding_file, "--partition", "hash") == 2
        assert "only applies to sharded stores" in capsys.readouterr().err
        assert not store.exists() or not any(store.iterdir())

    def test_conflicting_layout_on_sharded_store_errors(
        self, embedding_file, tmp_path, capsys
    ):
        store = tmp_path / "store"
        self._publish(store, embedding_file, "--shards", "4")
        capsys.readouterr()
        # Different shard count: refused, not silently reinterpreted.
        assert self._publish(store, embedding_file, "--shards", "8") == 2
        assert "cannot reopen with n_shards=8" in capsys.readouterr().err
        # Different partitioning: refused too.
        assert self._publish(
            store, embedding_file, "--shards", "4", "--partition", "hash"
        ) == 2
        assert "range-partitioned" in capsys.readouterr().err
        # Matching layout (or none at all) still publishes.
        assert self._publish(store, embedding_file, "--shards", "4") == 0

    def test_gc_on_sharded_store(self, embedding_file, tmp_path, capsys):
        store = tmp_path / "store"
        self._publish(store, embedding_file, "--shards", "2")
        self._publish(store, embedding_file)
        capsys.readouterr()
        assert main(["gc", "--store", str(store), "--keep", "1"]) == 0
        assert "deleted 1 version(s)" in capsys.readouterr().out
        assert main(["query", "--store", str(store), "--node", "0", "--k", "3"]) == 0

    def test_gc_is_the_one_retention_command(self, embedding_file, tmp_path, capsys):
        """`repro dataset retain` is gone; `repro gc` keeps and reports
        the versions a dataset pins."""
        store = tmp_path / "store"
        for _ in range(3):
            self._publish(store, embedding_file)
        assert main(["dataset", "assign", "old", "--version", "v00000001",
                     "--store", str(store)]) == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["dataset", "retain", "--store", str(store), "--keep", "1"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        assert main(["gc", "--store", str(store), "--keep", "1", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["protected"] == ["v00000001"]
        assert result["deleted"] == ["v00000002"]
        assert result["kept"] == ["v00000001", "v00000003"]


class TestHTTPServeCli:
    """`serve --http` and `bench-http` (the network-facing subcommands)."""

    @pytest.fixture()
    def embedding_file(self, graph_file, tmp_path, capsys):
        emb = tmp_path / "emb.npz"
        main(["embed", "--graph", str(graph_file), "--out", str(emb), "--k", "8"])
        capsys.readouterr()
        return emb

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--store", "s"])
        assert args.http is None
        assert args.http_host == "127.0.0.1"
        assert args.backend == "exact"
        args = build_parser().parse_args(
            ["bench-http", "--url", "http://h:1", "--url", "http://h:2"]
        )
        assert args.url == ["http://h:1", "http://h:2"]
        assert args.batch == 0

    def test_serve_http_empty_store_errors(self, tmp_path, capsys):
        code = main(["serve", "--store", str(tmp_path / "s"), "--http", "0"])
        assert code == 2
        assert "no published versions" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_ack_replicas_without_wal_dir_rejected(
        self, workers, embedding_file, tmp_path, capsys
    ):
        """Semi-sync without a log used to be silently ignored."""
        store = tmp_path / "store"
        main(["serve", "--store", str(store), "--publish", str(embedding_file)])
        capsys.readouterr()
        code = main(
            ["serve", "--store", str(store), "--http", "0",
             "--workers", workers, "--ack-replicas", "1"]
        )
        assert code == 2
        error = capsys.readouterr().err.strip()
        assert error.startswith("error: --ack-replicas needs --wal-dir")
        assert len(error.splitlines()) == 1

    def test_serve_http_subprocess_round_trip(self, embedding_file, tmp_path):
        """Boot the real CLI server process, query it, SIGTERM it."""
        import json
        import signal
        import urllib.request

        from repro.serving.http.loadgen import spawn_cli_server

        store = tmp_path / "store"
        assert main(
            ["serve", "--store", str(store), "--publish", str(embedding_file)]
        ) == 0
        process, url = spawn_cli_server(store)
        try:
            with urllib.request.urlopen(f"{url}/healthz", timeout=10) as response:
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"

            from repro.serving.http import ServingClient
            from repro.serving.service import QueryService, SearchRequest
            from repro.serving.store import EmbeddingStore

            remote = ServingClient(url).top_k(0, 5)
            with QueryService(EmbeddingStore(store), backend="exact") as local:
                expected = local.search(SearchRequest(node=0, k=5))
            assert np.array_equal(remote.ids, expected.ids)
            assert remote.scores.tobytes() == expected.scores.tobytes()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

    def test_bench_http_command(self, embedding_file, tmp_path, capsys):
        from repro.serving.http import EmbeddingServer
        from repro.serving.service import QueryService
        from repro.serving.store import EmbeddingStore

        store_dir = tmp_path / "store"
        assert main(
            ["serve", "--store", str(store_dir), "--publish", str(embedding_file)]
        ) == 0
        capsys.readouterr()
        with QueryService(EmbeddingStore(store_dir), backend="exact") as service:
            with EmbeddingServer(service) as server:
                code = main(
                    ["bench-http", "--url", server.url, "--requests", "16",
                     "--concurrency", "2", "--k", "3"]
                )
                assert code == 0
                out = capsys.readouterr().out
                assert "req/s" in out and "errors=0" in out


class TestWireAndCoalesceCLI:
    """The serve HTTP wire end to end, bench-http wire selection, and the
    exact answer `query` prints."""

    @pytest.fixture()
    def embedding_file(self, graph_file, tmp_path, capsys):
        emb = tmp_path / "emb.npz"
        main(["embed", "--graph", str(graph_file), "--out", str(emb), "--k", "8"])
        capsys.readouterr()
        return emb

    def test_parser_defaults(self, capsys):
        args = build_parser().parse_args(["bench-http", "--url", "http://h:1"])
        assert args.wire == "auto"
        for command in ("serve", "query"):  # one exact engine, no precision flag
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [command, "--store", "s", "--select-dtype", "float32"]
                )
            capsys.readouterr()
        # `serve --backend exact` still parses; every other kind is refused.
        for kind in ("pq", "ivf", "auto"):
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--store", "s", "--backend", kind])
            assert excinfo.value.code == 2
            assert f"invalid choice: '{kind}'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["bench-http", "--url", "u", "--wire", "msgpack"]
            )

    def test_query_float32_matches_float64(self, embedding_file, tmp_path, capsys):
        """`query` selects over float32 and prints the float64 engine's answer."""
        from repro.search.knn import exact_top_k
        from repro.serving.store import EmbeddingStore

        store = tmp_path / "store"
        assert main(
            ["serve", "--store", str(store), "--publish", str(embedding_file)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["query", "--store", str(store), "--node", "0", "--k", "5"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]  # drop the header
        features = np.asarray(EmbeddingStore(store).open().features)
        ids, scores = exact_top_k(
            features, features[0], 5, assume_normalized=True, exclude=np.array([0])
        )
        assert lines == [f"{node}\t{score:.4f}" for node, score in zip(ids, scores)]

    def test_serve_http_binary_subprocess(self, embedding_file, tmp_path):
        """The real CLI server over the binary wire end to end."""
        import signal

        from repro.serving.http import ServingClient
        from repro.serving.http.loadgen import spawn_cli_server
        from repro.serving.service import QueryService, SearchRequest
        from repro.serving.store import EmbeddingStore

        store = tmp_path / "store"
        assert main(
            ["serve", "--store", str(store), "--publish", str(embedding_file)]
        ) == 0
        process, url = spawn_cli_server(store)
        try:
            client = ServingClient(url, wire="binary")
            info = client.describe()
            assert "coalescing" not in info and "select_dtype" not in info
            remote = client.top_k(0, 5)
            with QueryService(EmbeddingStore(store), backend="exact") as local:
                expected = local.search(SearchRequest(node=0, k=5))
            assert np.array_equal(remote.ids, expected.ids)
            assert remote.scores.tobytes() == expected.scores.tobytes()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

    def test_bench_http_wire_flag(self, embedding_file, tmp_path, capsys):
        from repro.serving.http import EmbeddingServer
        from repro.serving.service import QueryService
        from repro.serving.store import EmbeddingStore

        store_dir = tmp_path / "store"
        assert main(
            ["serve", "--store", str(store_dir), "--publish", str(embedding_file)]
        ) == 0
        capsys.readouterr()
        with QueryService(EmbeddingStore(store_dir), backend="exact") as service:
            with EmbeddingServer(service) as server:
                code = main(
                    ["bench-http", "--url", server.url, "--requests", "8",
                     "--concurrency", "2", "--k", "3", "--wire", "binary",
                     "--batch", "4"]
                )
                assert code == 0
                out = capsys.readouterr().out
                assert "wire=binary" in out and "errors=0" in out
                assert "ms/query p50" in out
