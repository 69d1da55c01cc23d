"""The trained embedding: ``Xf``, ``Xb``, ``Y`` and the config that made them.

:class:`PANEEmbedding` is what :meth:`repro.core.pane.PANE.fit` returns
and what the serving store publishes and loads.  It lives apart from the
estimator so that reading an embedding — all a ``repro serve`` process
does with it — imports neither the fit kernels nor scipy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from repro.core.config import PANEConfig
from repro.core.scoring import attribute_scores, link_scores
from repro.search.knn import normalize_rows
from repro.utils.fs import atomic_write


@dataclass
class PANEEmbedding:
    """Trained PANE embeddings.

    Attributes
    ----------
    x_forward / x_backward:
        ``n × k/2`` forward / backward node embeddings.
    y:
        ``d × k/2`` attribute embeddings.
    config:
        The configuration that produced this embedding.
    timings:
        Per-phase wall-clock seconds (``affinity``, ``init``, ``ccd``).
    objective:
        Final value of the Eq. (4) objective, if it was computed.

    ``n × k`` floats in all; the affinities ``F′``, ``B′`` (``n × d`` each,
    the fit's only ``n × d`` arrays) are dropped when the fit returns.
    """

    x_forward: np.ndarray
    x_backward: np.ndarray
    y: np.ndarray
    config: PANEConfig
    timings: dict[str, float] = field(default_factory=dict)
    objective: float | None = None

    @property
    def n_nodes(self) -> int:
        return self.x_forward.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.y.shape[0]

    @property
    def attribute_embeddings(self) -> np.ndarray:
        """Alias for ``y`` matching the paper's terminology."""
        return self.y

    def node_embeddings(self, *, normalize: bool = True) -> np.ndarray:
        """Concatenated ``[Xf ‖ Xb]`` feature matrix for downstream tasks.

        With ``normalize=True`` each half is L2-normalized row-wise first,
        the preprocessing the paper uses for node classification (Sec. 5.4).
        """
        forward, backward = self.x_forward, self.x_backward
        if normalize:
            forward = normalize_rows(forward)
            backward = normalize_rows(backward)
        return np.hstack([forward, backward])

    def score_attributes(self, nodes: np.ndarray, attributes: np.ndarray) -> np.ndarray:
        """Eq. (21) attribute-inference scores for index pairs."""
        return attribute_scores(
            self.x_forward, self.x_backward, self.y, nodes, attributes
        )

    def score_links(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Eq. (22) directed link-prediction scores for index pairs."""
        return link_scores(self.x_forward, self.x_backward, self.y, sources, targets)

    def save(self, path: str | Path) -> None:
        """Persist the embedding to ``.npz``.

        The full :class:`PANEConfig` is serialized (as JSON) so the
        round trip preserves every hyper-parameter — including
        ``n_threads``, ``ccd_iterations``, ``svd_power_iterations``,
        ``dangling``, and ``ccd_block_size``.  The legacy scalar keys
        are written too so older readers keep working.

        The archive is written to a temporary file in the destination
        directory and moved into place with ``os.replace``, so a crash
        mid-save can never leave a truncated archive at ``path`` (the
        same atomic-publish semantics as
        :meth:`repro.serving.store.EmbeddingStore.publish`).
        """
        path = Path(path)
        if path.suffix != ".npz":
            # np.savez appends ".npz" when missing; do the same up front so
            # the atomic rename targets the file a reader will load.
            path = Path(str(path) + ".npz")
        atomic_write(
            path,
            lambda handle: np.savez_compressed(
                handle,
                x_forward=self.x_forward,
                x_backward=self.x_backward,
                y=self.y,
                config_json=np.array(json.dumps(asdict(self.config))),
                k=np.array(self.config.k),
                alpha=np.array(self.config.alpha),
                epsilon=np.array(self.config.epsilon),
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "PANEEmbedding":
        """Load an embedding previously written by :meth:`save`.

        Archives written before the full-config format (no
        ``config_json`` key) fall back to the legacy scalar fields with
        defaults for the rest.
        """
        with np.load(Path(path)) as archive:
            if "config_json" in archive.files:
                stored = json.loads(str(archive["config_json"]))
                # Ignore fields added by newer versions so their archives
                # still load (mirrors the legacy keys kept for old readers).
                known = {f.name for f in dataclass_fields(PANEConfig)}
                config = PANEConfig(
                    **{key: value for key, value in stored.items() if key in known}
                )
            else:
                config = PANEConfig(
                    k=int(archive["k"]),
                    alpha=float(archive["alpha"]),
                    epsilon=float(archive["epsilon"]),
                )
            return cls(
                x_forward=archive["x_forward"],
                x_backward=archive["x_backward"],
                y=archive["y"],
                config=config,
            )
