"""Store fsck: torn-publish recovery, corruption detection, repair semantics."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

_PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src"

from repro import cli
from repro.serving.faults import FaultInjector, FaultPlan, InjectedFault
from repro.serving.fsck import (
    QUARANTINE_DIR,
    StoreCorruptionError,
    find_orphans,
    fsck,
    verify_open_target,
    verify_version,
)
from repro.serving.http.client import ServingClient
from repro.serving.http.protocol import ApiError
from repro.serving.http.server import EmbeddingServer
from repro.serving.service import QueryService, SearchRequest
from repro.serving.store import STAGING_PREFIX, EmbeddingStore


def _truncate(path, drop=1024):
    data = path.read_bytes()
    path.write_bytes(data[: max(0, len(data) - drop)])


class TestVerifyVersion:
    def test_clean_version_has_no_issues(self, store):
        assert verify_version(store, store.latest()) == []
        assert store.verify() == []

    def test_truncated_array_detected(self, store):
        version = store.latest()
        _truncate(store.root / "versions" / version / "x_forward.npy")
        issues = verify_version(store, version)
        assert [i.code for i in issues] == ["bad_array"]
        assert "truncated" in issues[0].detail
        assert store.verify(version) == issues

    def test_missing_array_detected(self, store):
        version = store.latest()
        (store.root / "versions" / version / "y.npy").unlink()
        issues = verify_version(store, version)
        assert [i.code for i in issues] == ["bad_array"]
        assert "missing" in issues[0].detail

    def test_shape_mismatch_detected(self, store, trained_embedding):
        version = store.latest()
        path = store.root / "versions" / version / "x_forward.npy"
        np.save(path, np.zeros((3, 3)))
        issues = verify_version(store, version)
        assert [i.code for i in issues] == ["bad_array"]
        assert "manifest records" in issues[0].detail

    def test_manifest_damage_detected(self, store):
        version = store.latest()
        manifest_path = store.root / "versions" / version / "manifest.json"
        manifest_path.write_text("{not json")
        assert [i.code for i in verify_version(store, version)] == ["bad_manifest"]
        manifest = {"schema": "bogus/v9"}
        manifest_path.write_text(json.dumps(manifest))
        issues = verify_version(store, version)
        assert [i.code for i in issues] == ["bad_manifest"]


class TestTornPublish:
    """Publishers killed at each step leave exactly the debris fsck expects."""

    def test_killed_before_manifest_leaves_orphan_staging(self, store, trained_embedding):
        injector = FaultInjector(FaultPlan(torn_publish_step="arrays"), hard=False)
        with pytest.raises(InjectedFault):
            store.publish(trained_embedding, faults=injector)
        orphans = find_orphans(store.root)
        assert len(orphans) == 1
        assert orphans[0].name.startswith(STAGING_PREFIX)
        report = fsck(store.root, repair=True)
        assert [i.code for i in report.issues] == ["orphan_staging"]
        assert report.exit_code() == 1
        assert not orphans[0].exists()
        assert fsck(store.root).exit_code() == 0

    def test_killed_before_rename_leaves_complete_staging(self, store, trained_embedding):
        injector = FaultInjector(FaultPlan(torn_publish_step="manifest"), hard=False)
        with pytest.raises(InjectedFault):
            store.publish(trained_embedding, faults=injector)
        # The staging dir is complete (manifest written) but never renamed:
        # versions() must not see it, fsck must GC it.
        assert store.versions() == ["v00000001"]
        report = fsck(store.root, repair=True)
        assert [i.code for i in report.issues] == ["orphan_staging"]
        assert store.versions() == ["v00000001"]
        assert fsck(store.root).clean

    def test_killed_before_set_latest_leaves_stale_pointer(self, store, trained_embedding):
        injector = FaultInjector(FaultPlan(torn_publish_step="latest"), hard=False)
        with pytest.raises(InjectedFault):
            store.publish(trained_embedding, faults=injector)
        # v2 landed completely; LATEST still names v1 — a valid state
        # (set_latest=False publishes look identical), so fsck is clean
        # and v2 is servable by explicit activation.
        assert store.versions() == ["v00000001", "v00000002"]
        assert store.latest() == "v00000001"
        report = fsck(store.root)
        assert report.clean
        assert report.clean_versions == ["v00000001", "v00000002"]

    def test_hard_kill_publisher_via_env(self, tmp_path):
        """The real thing: a publisher process armed through REPRO_FAULTS
        dies with ``os._exit`` mid-publish; fsck sweeps the wreckage."""
        import subprocess
        import sys

        from repro.serving.faults import FAULTS_ENV, INJECTED_KILL_EXIT

        root = tmp_path / "torn"
        script = (
            "import numpy as np\n"
            "from repro.core.config import PANEConfig\n"
            "from repro.core.pane import PANEEmbedding\n"
            "from repro.serving.store import EmbeddingStore\n"
            "rng = np.random.default_rng(0)\n"
            "emb = PANEEmbedding(x_forward=rng.standard_normal((20, 4)),\n"
            "                    x_backward=rng.standard_normal((20, 4)),\n"
            "                    y=rng.standard_normal((6, 4)),\n"
            "                    config=PANEConfig(k=8))\n"
            f"EmbeddingStore({str(root)!r}).publish(emb)\n"
        )
        env = dict(os.environ)
        env[FAULTS_ENV] = FaultPlan(torn_publish_step="manifest").to_env()
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_PACKAGE_ROOT), env.get("PYTHONPATH", "")])
        )
        process = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True
        )
        assert process.returncode == INJECTED_KILL_EXIT, process.stderr.decode()
        assert len(find_orphans(root)) == 1
        report = fsck(root, repair=True)
        assert [i.code for i in report.issues] == ["orphan_staging"]
        assert fsck(root).clean

    def test_publish_error_cleanup_still_works(self, store):
        class Hostile:
            x_forward = None  # publish blows up reading arrays

        with pytest.raises(Exception):
            store.publish(Hostile())
        # Non-injected failures clean their staging up (the pre-fault
        # contract) — nothing for fsck to find.
        assert find_orphans(store.root) == []


class TestFsckRepair:
    def test_clean_store_exit_0(self, store):
        report = fsck(store.root)
        assert report.clean and report.exit_code() == 0
        assert report.latest == "v00000001"
        assert report.clean_versions == ["v00000001"]

    def test_empty_store_is_clean(self, tmp_path):
        EmbeddingStore(tmp_path / "empty")
        report = fsck(tmp_path / "empty")
        assert report.clean and report.exit_code() == 0

    def test_not_a_store_exit_2_and_no_skeleton(self, tmp_path):
        target = tmp_path / "nothing-here"
        target.mkdir()
        report = fsck(target, repair=True)
        assert report.exit_code() == 2
        assert [i.code for i in report.issues] == ["not_a_store"]
        assert not (target / "versions").exists()  # fsck never creates stores

    def test_torn_newest_version_repairs_to_previous(self, store, trained_embedding):
        """The acceptance scenario: truncated array + stale LATEST.

        v2 publishes fully (LATEST → v2), then loses bytes.  fsck must
        quarantine v2, repoint LATEST at v1, and the repaired store must
        serve answers bit-identical to v1's pre-damage answers.
        """
        expected = QueryService(store, backend="exact").search(
            SearchRequest(node=0, k=8)
        )
        v2 = store.publish(trained_embedding, metadata={"doomed": True})
        assert store.latest() == v2
        _truncate(store.root / "versions" / v2 / "x_forward.npy")

        report = fsck(store.root)  # detection pass, no mutation
        assert report.exit_code() == 1
        assert report.corrupt_versions == [v2]
        assert {i.code for i in report.issues} == {"bad_array", "bad_latest"}
        assert store.latest() == v2  # nothing moved yet

        report = fsck(store.root, repair=True)
        assert report.exit_code() == 1 and report.repaired
        assert report.latest == "v00000001"
        assert store.latest() == "v00000001"
        assert store.versions() == ["v00000001"]
        quarantined = store.root / QUARANTINE_DIR / v2
        assert (quarantined / "manifest.json").is_file()  # preserved, not deleted

        after = QueryService(store, backend="exact").search(SearchRequest(node=0, k=8))
        assert after.version == expected.version
        np.testing.assert_array_equal(after.ids, expected.ids)
        assert after.scores.tolist() == expected.scores.tolist()  # bit-identical
        assert fsck(store.root).clean

    def test_dangling_latest_pointer_repaired(self, store):
        (store.root / "LATEST").write_text("v00009999\n")
        report = fsck(store.root)
        assert [i.code for i in report.issues] == ["bad_latest"]
        assert "nonexistent" in report.issues[0].detail
        report = fsck(store.root, repair=True)
        assert report.exit_code() == 1
        assert store.latest() == "v00000001"

    def test_all_versions_corrupt_is_unrecoverable(self, store):
        _truncate(store.root / "versions" / "v00000001" / "x_forward.npy")
        report = fsck(store.root)
        assert report.unrecoverable and report.exit_code() == 2
        report = fsck(store.root, repair=True)
        assert report.exit_code() == 2
        # Repair still quarantines the wreck and drops the dead pointer,
        # but cannot manufacture a servable version.
        assert store.versions() == []
        assert store.latest() is None

    def test_quarantine_name_collisions_get_suffixes(self, store, trained_embedding):
        _truncate(store.root / "versions" / "v00000001" / "x_forward.npy")
        fsck(store.root, repair=True)
        store.publish(trained_embedding)  # a fresh v00000001
        _truncate(store.root / "versions" / "v00000001" / "y.npy")
        fsck(store.root, repair=True)
        names = sorted(p.name for p in (store.root / QUARANTINE_DIR).iterdir())
        assert names == ["v00000001", "v00000001.1"]


class TestShardedFsck:
    """A sharded version is one directory: the same sweep, the same debris."""

    @pytest.fixture()
    def sharded(self, tmp_path, trained_embedding):
        root = tmp_path / "sharded"
        store = EmbeddingStore(root, n_shards=2)
        store.publish(trained_embedding)
        return store

    def test_clean_sharded_store(self, sharded):
        report = fsck(sharded.root)
        assert report.clean and report.exit_code() == 0
        assert report.clean_versions == ["v00000001"]

    def test_corrupt_segment_condemns_logical_version(self, sharded, trained_embedding):
        v2 = sharded.publish(trained_embedding)
        _truncate(sharded.root / "versions" / v2 / "shard-0001" / "x_forward.npy")
        report = fsck(sharded.root)
        assert report.exit_code() == 1
        assert report.corrupt_versions == [v2]
        assert report.clean_versions == ["v00000001"]
        assert "shard-0001/x_forward.npy truncated" in report.issues[0].detail

        report = fsck(sharded.root, repair=True)
        assert report.exit_code() == 1 and report.repaired
        assert sharded.latest() == "v00000001"
        assert sharded.versions() == ["v00000001"]
        # The whole version directory, every shard, went to quarantine.
        assert (sharded.root / QUARANTINE_DIR / v2 / "shard-0000").is_dir()
        # The repaired version still opens and serves.
        assert sharded.open().version == "v00000001"
        assert fsck(sharded.root).clean

    def test_unreadable_logical_manifest(self, sharded):
        (sharded.root / "versions" / "v00000001" / "manifest.json").write_text("{broken")
        report = fsck(sharded.root)
        assert report.exit_code() == 2  # only version is condemned
        assert any(i.code == "bad_manifest" for i in report.issues)

    @pytest.mark.parametrize("step", ["arrays", "manifest"])
    def test_torn_sharded_publish_leaves_only_staging(
        self, sharded, trained_embedding, step
    ):
        """A publisher killed mid-publish leaves one staging directory —
        no shard's rows land anywhere fsck cannot see and GC."""
        before = sorted(p.relative_to(sharded.root) for p in sharded.root.rglob("*"))
        injector = FaultInjector(FaultPlan(torn_publish_step=step), hard=False)
        with pytest.raises(InjectedFault):
            sharded.publish(trained_embedding, faults=injector)
        assert sharded.versions() == ["v00000001"]
        report = fsck(sharded.root, repair=True)
        assert [i.code for i in report.issues] == ["orphan_staging"]
        after = sorted(p.relative_to(sharded.root) for p in sharded.root.rglob("*"))
        assert after == before
        assert fsck(sharded.root).clean

    def test_failed_sharded_publish_leaves_nothing(
        self, sharded, trained_embedding, monkeypatch
    ):
        """A publish that dies before its rename used to leave every
        shard's rows behind as versions no manifest named — invisible to
        fsck and gc.  Now the rows only ever lived in the staging dir."""
        import repro.serving.store as store_module

        before = sorted(p.relative_to(sharded.root) for p in sharded.root.rglob("*"))

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.os, "rename", boom)
        with pytest.raises(OSError):
            sharded.publish(trained_embedding)
        after = sorted(p.relative_to(sharded.root) for p in sharded.root.rglob("*"))
        assert after == before

    def test_missing_shard_directory_detected(self, sharded):
        import shutil

        shutil.rmtree(sharded.root / "versions" / "v00000001" / "shard-0001")
        issues = verify_version(sharded, "v00000001")
        assert {i.code for i in issues} == {"bad_array"}
        assert len(issues) == 3  # every array of the lost shard: Xf, Xb, Y
        assert all("shard-0001/" in i.detail for i in issues)
        with pytest.raises(StoreCorruptionError):
            verify_open_target(sharded, None)

    def test_shard_count_mismatch_is_bad_manifest(self, sharded, trained_embedding):
        other = EmbeddingStore(sharded.root.parent / "three", n_shards=3)
        other.publish(trained_embedding)
        import shutil

        shutil.copytree(
            other.root / "versions" / "v00000001",
            sharded.root / "versions" / "v00000002",
        )
        json_path = sharded.root / "versions" / "v00000002" / "manifest.json"
        manifest = json.loads(json_path.read_text())
        manifest["version"] = "v00000002"
        json_path.write_text(json.dumps(manifest))
        issues = verify_version(sharded, "v00000002")
        assert [i.code for i in issues] == ["bad_manifest"]
        assert "3 shard(s)" in issues[0].detail

    def test_sweep_checks_datasets_on_sharded_roots(self, sharded, trained_embedding):
        from repro.serving.datasets import DatasetRegistry

        v2 = sharded.publish(trained_embedding)
        DatasetRegistry(sharded).assign("prod", v2)
        _truncate(sharded.root / "versions" / v2 / "shard-0000" / "y.npy")
        report = fsck(sharded.root, repair=True)
        # One sweep: quarantining v2 leaves "prod" dangling, and the same
        # pass drops it.
        assert f"quarantined {v2} -> quarantine/{v2}" in report.actions
        assert any("dropped dangling dataset 'prod'" in a for a in report.actions)
        assert DatasetRegistry(sharded).load() == {}
        assert fsck(sharded.root).clean

    def test_old_layout_root_is_unrecoverable(self, tmp_path):
        root = tmp_path / "old"
        (root / "versions").mkdir(parents=True)
        (root / "sharding.json").write_text(
            json.dumps({"schema": "repro.serving.sharding/v1", "n_shards": 2,
                        "partition": "range"})
        )
        report = fsck(root, repair=True)
        assert report.exit_code() == 2
        assert [i.code for i in report.issues] == ["not_a_store"]
        assert "republish" in report.issues[0].detail
        (root / "sharding.json").write_text('{"schema": "repro.serving.sharding/v2"}')
        report = fsck(root)
        assert [i.code for i in report.issues] == ["not_a_store"]
        assert "unreadable" in report.issues[0].detail


class TestServiceRefusal:
    def test_activate_refuses_corrupt_version(self, store, trained_embedding):
        service = QueryService(store, backend="exact")
        v2 = store.publish(trained_embedding)
        _truncate(store.root / "versions" / v2 / "x_backward.npy")
        with pytest.raises(StoreCorruptionError) as excinfo:
            service.activate(v2)
        assert excinfo.value.version == v2
        assert all(i.code == "bad_array" for i in excinfo.value.issues)
        # The previously served snapshot is untouched.
        assert service.version == "v00000001"
        assert service.search(SearchRequest(node=0, k=4)).version == "v00000001"

    def test_verify_open_target_passes_clean_and_missing(self, store):
        verify_open_target(store, None)
        verify_open_target(store, "v00000001")
        verify_open_target(store, "v99999999")  # open() owns this error
        empty = EmbeddingStore(store.root.parent / "virgin")
        verify_open_target(empty, None)

    def test_http_refresh_surfaces_store_corrupt(self, store, trained_embedding):
        with QueryService(store, backend="exact") as service:
            with EmbeddingServer(service) as server:
                client = ServingClient(server.url, retries=0)
                v2 = store.publish(trained_embedding)
                _truncate(store.root / "versions" / v2 / "x_forward.npy")
                with pytest.raises(ApiError) as excinfo:
                    client.refresh()  # follow LATEST → lands on corrupt v2
                error = excinfo.value
                assert error.status == 409 and error.code == "store_corrupt"
                assert error.details["version"] == v2
                assert error.details["issues"][0]["code"] == "bad_array"
                # Server still serves the old snapshot afterwards.
                assert client.top_k(0, k=4).version == "v00000001"
                # Pinning the intact version explicitly still works.
                result = client.refresh(version="v00000001")
                assert result["version"] == "v00000001"
                client.close()


class TestFsckCli:
    def test_cli_clean_exit_0(self, store, capsys):
        code = cli.main(["fsck", "--store", str(store.root)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_detect_and_repair_exit_codes(self, store, trained_embedding, capsys):
        v2 = store.publish(trained_embedding)
        _truncate(store.root / "versions" / v2 / "x_forward.npy")
        assert cli.main(["fsck", "--store", str(store.root)]) == 1
        out = capsys.readouterr().out
        assert "bad_array" in out and "bad_latest" in out
        assert cli.main(["fsck", "--store", str(store.root), "--repair"]) == 1
        assert "repointed LATEST" in capsys.readouterr().out
        assert cli.main(["fsck", "--store", str(store.root)]) == 0

    def test_cli_unrecoverable_exit_2(self, tmp_path):
        (tmp_path / "junk").mkdir()
        assert cli.main(["fsck", "--store", str(tmp_path / "junk")]) == 2

    def test_cli_json_output(self, store, capsys):
        assert cli.main(["fsck", "--store", str(store.root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["exit_code"] == 0
        assert payload["latest"] == "v00000001"
