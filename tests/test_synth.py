"""Synthetic corpus generator: planted structure, determinism, validation."""

import numpy as np
import pytest

from graphsel.synth import (
    BACKGROUND_LEVEL,
    DOMINANT_LEVEL,
    FAMILY_NAMES,
    CorpusShape,
    generate_synthetic_corpus,
)


def test_shapes_ids_and_labels():
    corpus = generate_synthetic_corpus(
        CorpusShape(n_graphs=12, families=3, n_models=5, noise=0.05),
        seed=1, min_size=20, max_size=40)
    assert len(corpus.graphs) == 12
    assert corpus.perf.shape == (12, 5)
    assert list(corpus.perf.graph_ids) == [f"g{i:03d}" for i in range(12)]
    assert list(corpus.perf.model_ids) == [f"model{j}" for j in range(5)]
    assert np.array_equal(corpus.family_labels, np.arange(12) % 3)
    assert corpus.perf.observed.all()
    assert corpus.perf.values.min() >= 0.0 and corpus.perf.values.max() <= 1.0
    assert corpus.seed == 1
    assert len(FAMILY_NAMES) == 3


def test_planted_dominant_model_per_family():
    corpus = generate_synthetic_corpus(
        CorpusShape(n_graphs=30, families=3, n_models=6, noise=0.05),
        seed=2, min_size=20, max_size=40)
    values = corpus.perf.values
    for fam in range(3):
        rows = corpus.family_labels == fam
        dom_mean = values[rows, fam].mean()
        others = np.delete(np.arange(6), fam)
        back_mean = values[np.ix_(rows, others)].mean()
        assert abs(dom_mean - DOMINANT_LEVEL) < 0.05
        assert abs(back_mean - BACKGROUND_LEVEL) < 0.05
        assert dom_mean - back_mean > 0.2
        # the planted model wins every row of its family
        assert np.all(values[rows].argmax(axis=1) == fam)


def test_graph_sizes_respect_bounds():
    corpus = generate_synthetic_corpus(
        CorpusShape(n_graphs=9, families=3, n_models=3, noise=0.0),
        seed=3, min_size=15, max_size=25)
    sizes = [g.node_count for g in corpus.graphs]
    assert min(sizes) >= 15 and max(sizes) <= 25
    for g in corpus.graphs:
        assert g.edge_array.shape[0] > 0


def test_zero_noise_plants_exact_levels():
    corpus = generate_synthetic_corpus(
        CorpusShape(n_graphs=6, families=2, n_models=4, noise=0.0),
        seed=0, min_size=10, max_size=20)
    values = corpus.perf.values
    for i in range(6):
        dom = i % 2
        assert values[i, dom] == DOMINANT_LEVEL
        others = np.delete(np.arange(4), dom)
        assert np.all(values[i, others] == BACKGROUND_LEVEL)


def test_determinism_and_seed_sensitivity():
    a = generate_synthetic_corpus(
        CorpusShape(n_graphs=8, families=2, n_models=4), seed=5, min_size=12, max_size=20)
    b = generate_synthetic_corpus(
        CorpusShape(n_graphs=8, families=2, n_models=4), seed=5, min_size=12, max_size=20)
    assert np.array_equal(a.perf.values, b.perf.values)
    for ga, gb in zip(a.graphs, b.graphs):
        assert ga.node_count == gb.node_count
        assert np.array_equal(ga.edge_array, gb.edge_array)

    c = generate_synthetic_corpus(
        CorpusShape(n_graphs=8, families=2, n_models=4), seed=6, min_size=12, max_size=20)
    assert not np.array_equal(a.perf.values, c.perf.values)


def test_parameter_validation():
    with pytest.raises(ValueError, match="families"):
        CorpusShape(families=0)
    with pytest.raises(ValueError, match="families"):
        CorpusShape(families=4)
    with pytest.raises(ValueError, match="graph per family"):
        CorpusShape(n_graphs=2, families=3)
    with pytest.raises(ValueError, match="model per family"):
        CorpusShape(n_graphs=6, families=3, n_models=2)
    with pytest.raises(ValueError, match="noise"):
        CorpusShape(noise=0.3)


def test_meta_features_are_one_finite_row_per_graph():
    corpus = generate_synthetic_corpus(
        CorpusShape(n_graphs=4, families=2, n_models=3), seed=7, min_size=10, max_size=15)
    feats = corpus.meta_features()
    assert feats.shape[0] == 4
    assert np.all(np.isfinite(feats))
