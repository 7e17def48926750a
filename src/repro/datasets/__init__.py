"""Datasets: interaction containers, splits, sampling and generators.

The paper evaluates on MovieLens-100K, MovieLens-1M and Amazon Digital
Music (Table VIII). Raw files are loaded when present on disk
(:mod:`repro.datasets.loaders`); otherwise a calibrated long-tail
synthetic generator (:mod:`repro.datasets.synthetic`) reproduces each
dataset's statistics, optionally scaled down.
"""

from repro.datasets.base import InteractionDataset
from repro.datasets.loaders import DATASET_STATS, DatasetStats, load_dataset
from repro.datasets.sampling import sample_negatives
from repro.datasets.synthetic import generate_longtail_dataset

__all__ = [
    "InteractionDataset",
    "DatasetStats",
    "DATASET_STATS",
    "load_dataset",
    "generate_longtail_dataset",
    "sample_negatives",
]
