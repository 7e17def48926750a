"""The per-client reference round, as a drop-in simulation.

:class:`LoopSimulation` is a :class:`FederatedSimulation` whose rounds
run one pure-Python ``participate`` call per sampled client, then the
per-upload fault, audit and server twins of :mod:`reference.updates`.
Everything else — construction, the store, the malicious team's
objects, evaluation, checkpoints — is the package's own code, so a
parity test compares two runs that differ only in how a round is
executed.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.defenses.registry import client_regularizer_factory
from repro.federated.simulation import FederatedSimulation
from repro.federated.shards import ShardedStateStore

from reference.client import BenignClient
from reference.updates import apply_to_updates, apply_updates

__all__ = ["ClientViewList", "LoopSimulation"]


class ClientViewList:
    """Lazy sequence of store-backed ``BenignClient`` views.

    Indexing materialises (and caches) a view object on demand, so a
    reference run over a large store pays only for the users it
    samples.  With a ``regularizer_factory`` each view gets its own
    per-client defense oracle when it is first materialised.
    """

    def __init__(self, store: ShardedStateStore, regularizer_factory=None):
        self._store = store
        self._regularizer_factory = regularizer_factory
        self._views: dict[int, BenignClient] = {}

    def __len__(self) -> int:
        return self._store.num_users

    def __getitem__(self, user_id: int):
        if isinstance(user_id, slice):
            return [self[i] for i in range(*user_id.indices(len(self)))]
        if user_id < 0:
            user_id += len(self)
        if not 0 <= user_id < len(self):
            raise IndexError("client index out of range")
        try:
            return self._views[user_id]
        except KeyError:
            view = BenignClient.from_store(self._store, user_id)
            if self._regularizer_factory is not None:
                view.regularizer = self._regularizer_factory()
            self._views[user_id] = view
            return view

    def __iter__(self):
        return (self[user_id] for user_id in range(len(self)))


class LoopSimulation(FederatedSimulation):
    """A simulation whose rounds run the per-client reference loop.

    The malicious clients are driven through their own ``participate``
    methods, so no cohort is kept (the cohort would otherwise own
    their counters and mining state).  Likewise each defended benign
    client carries its own ``ClientRegularizer`` oracle instead of a
    row of the store's miner block; those objects are not part of a
    checkpoint, so resuming a defended loop run is not supported.
    Worker processes and the
    asynchronous event loop reuse batched wave math the reference does
    not have, so configs enabling either are refused.
    """

    def __init__(self, config, dataset=None, *, audit: bool = False):
        if config.sharding.uses_executor or config.asynchrony.enabled:
            raise ValueError(
                "sharding.round_workers >= 2 and asynchronous federation "
                "run only on the batch engine: the reference loop has no "
                "batched wave math for workers or the event loop to reuse"
            )
        super().__init__(config, dataset, audit=audit)
        self.malicious_cohort = None
        self.benign_clients = ClientViewList(
            self.state,
            client_regularizer_factory(config.defense, self.dataset.num_items),
        )

    def run_round(self, round_idx: int) -> None:
        sampled = self.server.sample_users(
            self.total_users, self.config.train.users_per_round, round_idx
        )
        with kernels.use(self.kernel_backend):
            self._run_round_loop(round_idx, sampled)

    def _run_round_loop(self, round_idx: int, sampled: np.ndarray) -> None:
        updates = []
        num_benign = len(self.benign_clients)
        for user_id in sampled:
            user_id = int(user_id)
            if user_id < num_benign:
                update = self.benign_clients[user_id].participate(
                    self.model, self.config.train, round_idx
                )
            else:
                update = self.malicious_clients[user_id - num_benign].participate(
                    self.model, self.config.train, round_idx
                )
            if update is not None:
                updates.append(update)
        if self.fault_controller is not None:
            updates = apply_to_updates(
                self.fault_controller, updates, [int(u) for u in sampled], round_idx
            )
        apply_updates(self.server, updates)
