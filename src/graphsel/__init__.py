"""Evaluation-free model selection for graph learning tasks.

Given a corpus of graphs with observed model performances, this package
learns to rank candidate models for a new graph from its structure alone:
meta-features in, best model out, no trial evaluations on the new graph.
"""

from .features import FEATURE_DIM, SCHEMA_VERSION, meta_graph_features
from .graphs import Graph, load_edge_list
from .learner import (LearnerConfig, MetaLearnerState, load_state, save_state,
                      select_model, train)
from .perf import PerformanceMatrix, factorize, fit_factor_estimator
from .ranking import ScoreSheet

__version__ = "0.1.0"

__all__ = [
    "FEATURE_DIM", "SCHEMA_VERSION", "meta_graph_features",
    "Graph", "load_edge_list",
    "LearnerConfig", "MetaLearnerState", "load_state", "save_state",
    "select_model", "train",
    "PerformanceMatrix", "factorize", "fit_factor_estimator",
    "ScoreSheet",
    "__version__",
]
