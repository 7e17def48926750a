"""Evaluation metrics: exposure ratio, hit ratio, distribution closeness."""

from repro.metrics.divergence import pairwise_kl, user_coverage_ratio
from repro.metrics.ranking import exposure_ratio_at_k, hit_ratio_at_k

__all__ = [
    "exposure_ratio_at_k",
    "hit_ratio_at_k",
    "pairwise_kl",
    "user_coverage_ratio",
]
