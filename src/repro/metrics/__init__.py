"""Evaluation metrics: exposure ratio, hit ratio, distribution closeness."""

from repro.metrics.divergence import pairwise_kl, user_coverage_ratio

__all__ = [
    "pairwise_kl",
    "user_coverage_ratio",
]
