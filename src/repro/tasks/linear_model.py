"""Linear classifiers trained from scratch (the paper uses a linear SVM).

No sklearn is available in this environment, so we provide:

- :class:`LogisticRegression` — binary logistic regression with L2
  regularization, optimized with scipy's L-BFGS on the exact gradient
  (``scipy.optimize`` loads on the first fit, so a process that imports
  this module but never trains a classifier does not carry it);
- :class:`LinearSVM` — L2-regularized squared-hinge SVM, same optimizer;
- :class:`OneVsRestClassifier` — multi-class / multi-label wrapper that
  trains one binary model per label and predicts by argmax (single-label)
  or by top-``cardinality`` scores per node (multi-label, the standard
  protocol for multi-label node classification benchmarks).
"""

from __future__ import annotations

import numpy as np


class _BinaryLinearModel:
    """Shared machinery: weights, bias, L-BFGS fit over a loss closure."""

    def __init__(self, regularization: float = 1.0, max_iter: int = 200) -> None:
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        self.regularization = float(regularization)
        self.max_iter = int(max_iter)
        self.weights: np.ndarray | None = None
        self.bias: float = 0.0

    def _loss_grad(self, params, features, targets):  # pragma: no cover - abstract
        raise NotImplementedError

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "_BinaryLinearModel":
        """Fit on ``features`` (n × p) and binary ``labels`` (0/1)."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.where(np.asarray(labels).ravel() > 0, 1.0, -1.0)
        if features.shape[0] != targets.size:
            raise ValueError("features and labels disagree on sample count")
        from scipy.optimize import minimize

        p = features.shape[1]
        x0 = np.zeros(p + 1)
        result = minimize(
            self._loss_grad,
            x0,
            args=(features, targets),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.weights = result.x[:p]
        self.bias = float(result.x[p])
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Signed distance to the separating hyperplane."""
        if self.weights is None:
            raise RuntimeError("model is not fitted")
        return np.asarray(features, dtype=np.float64) @ self.weights + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Binary 0/1 predictions."""
        return (self.decision_function(features) > 0).astype(np.int64)


class LogisticRegression(_BinaryLinearModel):
    """L2-regularized binary logistic regression."""

    def _loss_grad(self, params, features, targets):
        p = features.shape[1]
        w, b = params[:p], params[p]
        margins = targets * (features @ w + b)
        # log(1 + exp(-m)) computed stably
        loss = np.logaddexp(0.0, -margins).sum()
        loss += 0.5 * self.regularization * (w @ w)
        sigma = 1.0 / (1.0 + np.exp(np.clip(margins, -500, 500)))
        coef = -targets * sigma
        grad_w = features.T @ coef + self.regularization * w
        grad_b = coef.sum()
        return loss, np.concatenate([grad_w, [grad_b]])

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """P(label = 1) per sample."""
        scores = self.decision_function(features)
        return 1.0 / (1.0 + np.exp(-np.clip(scores, -500, 500)))


class LinearSVM(_BinaryLinearModel):
    """L2-regularized squared-hinge linear SVM (smooth, L-BFGS-friendly)."""

    def _loss_grad(self, params, features, targets):
        p = features.shape[1]
        w, b = params[:p], params[p]
        margins = targets * (features @ w + b)
        slack = np.maximum(0.0, 1.0 - margins)
        loss = (slack**2).sum() + 0.5 * self.regularization * (w @ w)
        coef = -2.0 * slack * targets
        grad_w = features.T @ coef + self.regularization * w
        grad_b = coef.sum()
        return loss, np.concatenate([grad_w, [grad_b]])


class OneVsRestClassifier:
    """One-vs-rest reduction for multi-class and multi-label problems.

    Parameters
    ----------
    base:
        ``"svm"`` or ``"logistic"``.
    regularization, max_iter:
        Forwarded to the binary models.
    """

    def __init__(
        self,
        base: str = "svm",
        *,
        regularization: float = 1.0,
        max_iter: int = 200,
    ) -> None:
        if base not in ("svm", "logistic"):
            raise ValueError(f"base must be 'svm' or 'logistic', got {base!r}")
        self.base = base
        self.regularization = regularization
        self.max_iter = max_iter
        self.models: list[_BinaryLinearModel] = []
        self.multilabel = False
        self.n_labels = 0

    def _make_model(self) -> _BinaryLinearModel:
        cls = LinearSVM if self.base == "svm" else LogisticRegression
        return cls(regularization=self.regularization, max_iter=self.max_iter)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "OneVsRestClassifier":
        """Fit per-label binary models.

        ``labels`` is a 1-D class-id vector or a 2-D binary indicator
        matrix; the shape is remembered so ``predict`` matches it.
        """
        labels = np.asarray(labels)
        self.multilabel = labels.ndim == 2
        self.n_labels = labels.shape[1] if self.multilabel else int(labels.max()) + 1
        self.models = []
        for label in range(self.n_labels):
            binary = labels[:, label] if self.multilabel else (labels == label)
            model = self._make_model()
            if binary.sum() == 0 or binary.sum() == binary.size:
                # degenerate label: constant decision at the majority value
                model.weights = np.zeros(features.shape[1])
                model.bias = 1.0 if binary.sum() == binary.size else -1.0
            else:
                model.fit(features, binary.astype(np.int64))
            self.models.append(model)
        return self

    def decision_matrix(self, features: np.ndarray) -> np.ndarray:
        """``n × n_labels`` matrix of per-label scores."""
        if not self.models:
            raise RuntimeError("classifier is not fitted")
        return np.column_stack(
            [model.decision_function(features) for model in self.models]
        )

    def predict(self, features: np.ndarray, *, cardinality: np.ndarray | None = None):
        """Predict labels.

        Single-label: argmax over per-label scores.  Multi-label: mark the
        top-``cardinality[i]`` scoring labels of sample ``i`` (defaults to
        1), the usual protocol when the true label count is known.
        """
        scores = self.decision_matrix(features)
        if not self.multilabel:
            return scores.argmax(axis=1)
        n = scores.shape[0]
        if cardinality is None:
            cardinality = np.ones(n, dtype=np.int64)
        cardinality = np.minimum(np.maximum(cardinality, 1), self.n_labels)
        predictions = np.zeros_like(scores, dtype=np.int64)
        order = np.argsort(-scores, axis=1)
        for i in range(n):
            predictions[i, order[i, : cardinality[i]]] = 1
        return predictions
