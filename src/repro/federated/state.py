"""The client state store's historical module path.

The one store class is :class:`~repro.federated.shards.ShardedStateStore`;
``ShardingConfig(num_shards=0)`` builds it as one in-process heap shard.
"""

from repro.federated.shards import ShardedStateStore

__all__ = ["ClientStateStore"]

# Kept only because the ledger's tracer (benchmarks/ledger/tracer.py,
# inside the benchmark fence) hooks the store under this name; remove
# with the fence clause (ROADMAP item 9).
ClientStateStore = ShardedStateStore
