"""Defense registry: build server/client defense components by name."""

from __future__ import annotations

from typing import Callable

from repro.config import DefenseConfig
from repro.defenses.coordinated import ItemScaleClip
from repro.defenses.regularization import ClientRegularizer
from repro.defenses.robust import (
    BulyanAggregator,
    KrumAggregator,
    MedianAggregator,
    MultiKrumAggregator,
    NormBoundFilter,
    TrimmedMeanAggregator,
)
from repro.federated.aggregation import Aggregator, SumAggregator

__all__ = [
    "DEFENSE_NAMES",
    "build_server_defense",
    "client_defense",
    "client_regularizer_factory",
]

#: All defenses runnable by name. "hybrid" is the *naive* future-work
#: composition (client regularization + server NormBound — measured as
#: a negative result); "scale_clip" is the server-side per-row scale
#: clip alone, and "coordinated" composes it with the client-side
#: regularization (see repro.defenses.coordinated).
DEFENSE_NAMES = (
    "none",
    "norm_bound",
    "median",
    "trimmed_mean",
    "krum",
    "multi_krum",
    "bulyan",
    "regularization",
    "hybrid",
    "scale_clip",
    "coordinated",
)


def build_server_defense(config: DefenseConfig):
    """Return ``(aggregator, update_filter)`` for a defense config.

    The client-side ``regularization`` defense leaves the server
    undefended (plain sum, no filter) — its protection happens inside
    benign clients (see :func:`client_defense`).
    """
    name = config.name
    if name not in DEFENSE_NAMES:
        raise ValueError(f"unknown defense {name!r}; expected one of {DEFENSE_NAMES}")
    aggregator: Aggregator = SumAggregator()
    update_filter = None
    if name in ("norm_bound", "hybrid"):
        update_filter = NormBoundFilter(config.norm_bound)
    elif name in ("scale_clip", "coordinated"):
        update_filter = ItemScaleClip(config.scale_clip_factor)
    elif name == "median":
        aggregator = MedianAggregator()
    elif name == "trimmed_mean":
        aggregator = TrimmedMeanAggregator(config.assumed_malicious_ratio)
    elif name == "krum":
        aggregator = KrumAggregator(config.assumed_malicious_ratio)
    elif name == "multi_krum":
        aggregator = MultiKrumAggregator(config.assumed_malicious_ratio)
    elif name == "bulyan":
        aggregator = BulyanAggregator(config.assumed_malicious_ratio)
    return aggregator, update_filter


def client_defense(config: DefenseConfig) -> DefenseConfig | None:
    """The config benign clients regularise with, or ``None``.

    Only ``regularization``, ``hybrid`` and ``coordinated`` have a
    client-side component.
    """
    if config.name not in ("regularization", "hybrid", "coordinated"):
        return None
    return config


def client_regularizer_factory(
    config: DefenseConfig, num_items: int
) -> Callable[[], ClientRegularizer] | None:
    """Factory creating one per-client :class:`ClientRegularizer` oracle.

    Returns ``None`` for every defense without a client-side component
    (see :func:`client_defense`); each client needs its *own* miner
    state, hence a factory rather than a shared instance.
    """
    if client_defense(config) is None:
        return None
    return lambda: ClientRegularizer(num_items, config)
