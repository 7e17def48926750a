"""Popular item mining from embedding changes (Algorithm 1, Section IV-B).

The core observation of the paper: popular items' embeddings undergo
larger and longer-lasting changes during FRS training (Properties 1-2),
so accumulating the per-item L2 change of the received item matrix
across the rounds a client is sampled (Δ-Norm, Eq. 7) ranks popular
items at the top — with no prior knowledge whatsoever.

:class:`CohortMiner` runs Algorithm 1 for a team of clients — the
malicious team, every benign client under the client-side defense, or
a team of one (the per-client defense oracle ``ClientRegularizer``,
the mining-window analysis) — as struct-of-arrays state (one
``(num_clients, num_items)`` accumulator matrix, vectorised
observation counters) plus a shared per-round observation ledger:
each round's received item matrix is snapshotted **once** for the
whole team, ``||v_j^r − v_j^{r'}||`` is computed once per distinct
previous-observation round ``r'`` and fancy-indexed into every
sampled client's accumulator row.  Bit-identical to one Δ-Norm
accumulator per client (``tests/reference/attack.ReferenceMiner``,
asserted by ``tests/test_attack_cohort.py``) at O(1) item-matrix
copies per round instead of O(num_clients).
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.stateful import Stateful

__all__ = ["CohortMiner"]


class CohortMiner(Stateful):
    """Struct-of-arrays Algorithm 1 for a whole team of clients.

    The malicious team's miners live in one (``MaliciousCohort``), and
    so do all benign clients' under the client-side defense (the client
    store's ``miner``).  Per-client state is held as flat arrays:

    * ``accumulated`` — ``(num_clients, num_items)``; row ``i`` is
      client ``i``'s Δ-Norm accumulator (Eq. 7), ``None`` until the
      first observation;
    * ``observations`` / ``last_round`` — per-client observation count
      and the round of the client's previous observation;
    * ``ready`` / ``mined`` — frozen-set flags and the mined popular
      ids (``min(num_popular, num_items)`` wide, mined order; ``-1``
      until the client is ready).

    The **shared observation ledger** is the pair of dicts
    ``_snapshots`` / ``_refs``: round ``r``'s received item matrix is
    copied once (Algorithm 1 line 3, for every sampled client at once)
    and kept alive only while some still-mining client's last
    observation was round ``r``.  Each ``observe`` computes
    ``||v_j^r − v_j^{r'}||`` (line 4) once per *distinct* previous
    round ``r'`` among the sampled clients and adds the resulting
    vector into every matching accumulator row — the arithmetic is the
    per-client reference's, executed once per distinct input instead
    of once per client.
    """

    STATE = (
        "accumulated",
        "observations",
        "last_round",
        "ready",
        "mined",
        "_snapshots",
        "_refs",
        "snapshot_copies",
    )

    #: Temporary-memory budget of one freeze sort block.
    FREEZE_BLOCK_BYTES = 1 << 20

    def __init__(
        self,
        num_items: int,
        mining_rounds: int,
        num_popular: int,
        num_clients: int,
    ):
        if mining_rounds < 1:
            raise ValueError("mining_rounds must be >= 1")
        if num_popular < 1:
            raise ValueError("num_popular must be >= 1")
        self.num_items = num_items
        self.mining_rounds = mining_rounds
        self.num_popular = min(num_popular, num_items)
        #: Allocated by the first observation, so building a team (a
        #: defended store's spans every benign user) costs neither the
        #: memory nor the zeroing until the team plays.
        self.accumulated: np.ndarray | None = None
        self.observations = np.zeros(num_clients, dtype=np.int64)
        self.last_round = np.full(num_clients, -1, dtype=np.int64)
        self.ready = np.zeros(num_clients, dtype=bool)
        self.mined = np.full((num_clients, self.num_popular), -1, dtype=np.int64)
        self._snapshots: dict[int, np.ndarray] = {}
        self._refs: dict[int, int] = {}
        #: Item-matrix copies taken so far — grows with *rounds*, not
        #: with the team size (the bench's O(1)-copies assertion).
        self.snapshot_copies = 0

    @property
    def all_ready(self) -> bool:
        """Whether every client's popular set is frozen."""
        return bool(self.ready.all())

    def live_snapshots(self) -> int:
        """How many round snapshots the ledger currently retains."""
        return len(self._snapshots)

    def observe(
        self, rows: np.ndarray, item_matrix: np.ndarray, round_idx: int
    ) -> None:
        """Feed this round's item matrix to the sampled clients ``rows``.

        Already-ready rows are skipped (their sets are frozen).
        ``round_idx`` keys the shared snapshot, so it must differ
        between observations; a caller without rounds passes its
        observation count.
        """
        rows = np.asarray(rows, dtype=np.int64)
        rows = rows[~self.ready[rows]]
        if not len(rows):
            return
        if item_matrix.shape[0] != self.num_items:
            raise ValueError(
                f"expected {self.num_items} items, got {item_matrix.shape[0]}"
            )
        if self.accumulated is None:
            self.accumulated = np.zeros((len(self.observations), self.num_items))

        # Algorithm 1 line 4: one Δ-Norm vector per distinct previous
        # observation round, fancy-indexed into every matching row.
        seen_before = rows[self.observations[rows] > 0]
        prev_rounds = self.last_round[seen_before]
        for prev in np.unique(prev_rounds).tolist():
            matching = seen_before[prev_rounds == prev]
            norms = kernels.row_diff_norms(item_matrix, self._snapshots[prev])
            self.accumulated[matching] += norms
            self._refs[prev] -= len(matching)

        self.observations[rows] += 1
        num_deltas = self.observations[rows] - 1
        freezing = rows[num_deltas >= self.mining_rounds]
        staying = rows[num_deltas < self.mining_rounds]

        # Algorithm 1 line 3: one shared baseline copy for every client
        # that still needs a next-round delta.
        if len(staying):
            if round_idx not in self._snapshots:
                self._snapshots[round_idx] = item_matrix.copy()
                self._refs[round_idx] = 0
                self.snapshot_copies += 1
            self._refs[round_idx] += len(staying)
            self.last_round[staying] = round_idx

        # A row's argsort needs ~24 B an item of temporaries (the negated
        # copy and the int64 order); bounded row blocks keep a big freeze
        # from spiking peak memory.  Rows sort independently, so the
        # mined sets do not depend on the block size.
        block = max(1, self.FREEZE_BLOCK_BYTES // (24 * max(self.num_items, 1)))
        for lo in range(0, len(freezing), block):
            rows_block = freezing[lo : lo + block]
            order = np.argsort(-self.accumulated[rows_block], axis=1, kind="stable")
            self.mined[rows_block] = order[:, : self.num_popular]
        self.ready[freezing] = True

        for key in [k for k, refs in self._refs.items() if refs <= 0]:
            del self._snapshots[key]
            del self._refs[key]
