"""Public-API contract of the packages whose names resolve lazily.

``repro``, ``repro.core``, ``repro.dynamic``, ``repro.serving`` and
``repro.serving.wal`` import their public names on first use
(:mod:`repro._lazy`); everything a caller could do with the eager
packages must still work.
"""

from __future__ import annotations

import importlib
import subprocess
import sys

import numpy as np
import pytest

from repro.serving.http.loadgen import cli_subprocess_env

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.dynamic",
    "repro.serving",
    "repro.serving.wal",
)


# Plain values carry no ``__module__`` to read their home from.
CONSTANT_HOMES = {
    "__version__": "repro",
    "AUTO_EXACT_THRESHOLD": "repro.serving.index",
    "BASE_GRAPH_FILE": "repro.serving.wal.compactor",
    "CHECKPOINT_FILE": "repro.serving.wal.compactor",
    "CHECKPOINT_SCHEMA": "repro.serving.wal.compactor",
}


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestLazyPackage:
    def test_every_public_name_is_its_defining_modules_object(self, package_name):
        package = importlib.import_module(package_name)
        assert len(package.__all__) == len(set(package.__all__))
        for name in package.__all__:
            value = getattr(package, name)
            home = importlib.import_module(
                CONSTANT_HOMES.get(name) or value.__module__
            )
            assert getattr(home, name) is value, (package_name, name)
            # Cached in the package namespace: the next read is a plain one.
            assert vars(package)[name] is value

    def test_dir_covers_all(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_in_a_fresh_interpreter(self, package_name):
        probe = (
            f"from {package_name} import *\n"
            f"import {package_name} as package\n"
            "missing = [n for n in package.__all__ if n not in globals()]\n"
            "assert not missing, missing\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=cli_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_unknown_attribute_names_the_package(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match=package_name.replace(".", r"\.")):
            package.no_such_name
        assert not hasattr(package, "no_such_name")


def test_moved_classes_are_one_object_under_every_path():
    import repro
    import repro.core
    import repro.core.embedding
    import repro.core.pane
    import repro.dynamic
    import repro.dynamic.delta
    import repro.dynamic.incremental

    assert (
        repro.PANEEmbedding
        is repro.core.PANEEmbedding
        is repro.core.pane.PANEEmbedding
        is repro.core.embedding.PANEEmbedding
    )
    assert (
        repro.dynamic.GraphDelta
        is repro.dynamic.incremental.GraphDelta
        is repro.dynamic.delta.GraphDelta
    )


def test_lazy_name_wins_over_the_submodule_of_the_same_name():
    """``repro.core.randsvd`` is the function, as it was with eager imports,
    whichever of the package attribute and the submodule is touched first."""
    probe = (
        "import repro.core.greedy_init\n"  # loads the randsvd submodule first
        "import sys, repro.core\n"
        "from repro.core import randsvd\n"
        "assert callable(randsvd), randsvd\n"
        "assert randsvd is sys.modules['repro.core.randsvd'].randsvd\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=cli_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_archive_written_before_the_move_still_loads(tmp_path):
    """``PANEEmbedding.save`` stores arrays and a JSON config — no class
    path — so an ``.npz`` from before ``core/embedding.py`` existed loads."""
    import json

    from repro.core.embedding import PANEEmbedding

    rng = np.random.default_rng(0)
    arrays = {
        "x_forward": rng.standard_normal((6, 2)),
        "x_backward": rng.standard_normal((6, 2)),
        "y": rng.standard_normal((4, 2)),
    }
    # Byte-for-byte the key set the pre-move ``save`` wrote.
    old_style = tmp_path / "old.npz"
    np.savez_compressed(
        old_style,
        **arrays,
        config_json=np.array(json.dumps({"k": 4, "alpha": 0.4, "n_threads": 2})),
        k=np.array(4),
        alpha=np.array(0.4),
        epsilon=np.array(0.015),
    )
    loaded = PANEEmbedding.load(old_style)
    assert loaded.config.k == 4 and loaded.config.alpha == 0.4
    assert loaded.config.n_threads == 2
    for name, expected in arrays.items():
        assert np.array_equal(getattr(loaded, name), expected)
    # And the archive with only the legacy scalar keys.
    legacy = tmp_path / "legacy.npz"
    np.savez_compressed(
        legacy, **arrays, k=np.array(4), alpha=np.array(0.4), epsilon=np.array(0.02)
    )
    assert PANEEmbedding.load(legacy).config.epsilon == 0.02
