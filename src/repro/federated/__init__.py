"""Federated recommendation core: client state, server, round simulation.

The training protocol follows Section III-A of the paper: each round
the server samples a batch of users, sends them the global model (item
embeddings, plus MLP parameters for DL-FRS), receives per-parameter
gradients back, aggregates them with ``Agg`` (a plain sum, or a defense
aggregator) and applies one SGD step. User embeddings stay on clients.
"""

from repro.federated.aggregation import Aggregator, SumAggregator, scatter_sum
from repro.federated.async_engine import AsyncFederationEngine, AsyncStats
from repro.federated.audit import ItemRoundRecord, ServerAuditLog
from repro.federated.batch_engine import BatchClientEngine
from repro.federated.clock import AsyncPlan, EventQueue, VirtualClock
from repro.federated.faults import (
    FaultController,
    FaultPlan,
    FaultStats,
    StalenessBuffer,
)
from repro.federated.payload import ClientUpdate
from repro.federated.server import Server
from repro.federated.simulation import EvalRecord, FederatedSimulation, SimulationResult
from repro.federated.shards import ShardedStateStore
from repro.federated.update_batch import UpdateBatch

__all__ = [
    "ClientUpdate",
    "UpdateBatch",
    "Aggregator",
    "SumAggregator",
    "scatter_sum",
    "BatchClientEngine",
    "ShardedStateStore",
    "Server",
    "FaultController",
    "FaultPlan",
    "FaultStats",
    "StalenessBuffer",
    "AsyncFederationEngine",
    "AsyncStats",
    "AsyncPlan",
    "EventQueue",
    "VirtualClock",
    "FederatedSimulation",
    "SimulationResult",
    "EvalRecord",
    "ServerAuditLog",
    "ItemRoundRecord",
]
