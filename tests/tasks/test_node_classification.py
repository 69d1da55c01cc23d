"""Tests for the node-classification task (Fig. 2 protocol)."""

import numpy as np
import pytest

from repro.baselines import RandomEmbedding
from repro.core.pane import PANE
from repro.graph.generators import attributed_sbm
from repro.tasks.node_classification import NodeClassificationTask


class TestProtocol:
    def test_pane_beats_chance(self, sbm_graph):
        task = NodeClassificationTask(
            sbm_graph, train_fractions=(0.5,), n_repeats=1, seed=0
        )
        result = task.evaluate(PANE(k=16, seed=0))
        chance = 1.0 / sbm_graph.n_labels
        assert result.micro[0] > chance + 0.2

    def test_random_embedding_near_chance(self, sbm_graph):
        task = NodeClassificationTask(
            sbm_graph, train_fractions=(0.5,), n_repeats=2, seed=0
        )
        result = task.evaluate(RandomEmbedding(k=16, seed=0))
        chance = 1.0 / sbm_graph.n_labels
        assert result.micro[0] < chance + 0.25

    def test_multilabel_graph(self, undirected_graph):
        task = NodeClassificationTask(
            undirected_graph, train_fractions=(0.5,), n_repeats=1, seed=0
        )
        result = task.evaluate(PANE(k=16, seed=0))
        assert 0.0 <= result.micro[0] <= 1.0
        assert 0.0 <= result.macro[0] <= 1.0

    def test_more_training_data_helps(self, citation):
        task = NodeClassificationTask(
            citation, train_fractions=(0.1, 0.9), n_repeats=3, seed=0
        )
        result = task.evaluate(PANE(k=16, seed=0))
        assert result.micro[1] >= result.micro[0] - 0.05

    def test_unlabeled_graph_rejected(self, sbm_graph):
        unlabeled = sbm_graph.with_adjacency(sbm_graph.adjacency)
        unlabeled.labels = None
        with pytest.raises(ValueError, match="label"):
            NodeClassificationTask(unlabeled)

    def test_as_series(self, sbm_graph):
        task = NodeClassificationTask(
            sbm_graph, train_fractions=(0.3, 0.7), n_repeats=1, seed=0
        )
        series = task.evaluate(PANE(k=16, seed=0)).as_series()
        assert set(series) == {0.3, 0.7}

    def test_accepts_precomputed_features(self, sbm_graph):
        task = NodeClassificationTask(
            sbm_graph, train_fractions=(0.5,), n_repeats=1, seed=0
        )
        features = PANE(k=16, seed=0).fit(sbm_graph).node_embeddings()
        result = task.evaluate_features(features)
        assert result.micro[0] > 0.5

    def test_rejects_object_without_features(self, sbm_graph):
        task = NodeClassificationTask(
            sbm_graph, train_fractions=(0.5,), n_repeats=1, seed=0
        )

        class Bogus:
            def fit(self, graph):
                return self

        with pytest.raises(TypeError):
            task.evaluate(Bogus())

    def test_logistic_classifier_option(self, sbm_graph):
        task = NodeClassificationTask(
            sbm_graph,
            train_fractions=(0.5,),
            n_repeats=1,
            classifier="logistic",
            seed=0,
        )
        result = task.evaluate(PANE(k=16, seed=0))
        assert result.micro[0] > 0.5


class TestPinnedScores:
    """Exact F1 on a seeded graph's attribute rows: a change to when or
    how the classifiers load their optimizer must not move a prediction."""

    @pytest.mark.parametrize(
        "classifier, micro, macro",
        [
            ("svm", (0.9678571428571429, 0.9833333333333333),
             (0.9671435502159291, 0.9825502335179754)),
            ("logistic", (0.9678571428571429, 0.9916666666666667),
             (0.9674887857522776, 0.9921798631476051)),
        ],
    )
    def test_f1_equal_to_pinned(self, classifier, micro, macro):
        graph = attributed_sbm(n_nodes=200, n_attributes=32, seed=7)
        task = NodeClassificationTask(
            graph, train_fractions=(0.3, 0.7), n_repeats=2,
            classifier=classifier, seed=0,
        )
        result = task.evaluate_features(graph.attributes.toarray())
        assert result.micro == micro
        assert result.macro == macro
