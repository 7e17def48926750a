"""Per-client reference implementation of the federated round.

The package runs every round batched: stacked local steps, one
``UpdateBatch`` per round, array-op faults and server ingestion.  This
package keeps the original one-object-per-client formulation of the
same round (Section III-A: sample, local step, upload, aggregate) as
the executable specification the parity suites compare against, bit
for bit:

* :mod:`reference.client` — ``BenignClient``, the per-client local
  step (BCE or BPR, regularizer hooks, per-client learning rates);
* :mod:`reference.attack` — ``ReferenceAttacker``, one attacker
  member's round (participation scale, its own Algorithm 1 miner
  ``ReferenceMiner``, ``ClientUpdate``) around the cohort member's
  payload;
* :mod:`reference.uea` — ``PerClientPieckUEA``, PIECK-UEA's inner
  loop run one client and one target at a time;
* :mod:`reference.updates` — ``ClientUpdate``, the per-client upload,
  and the ``ClientUpdate``-list twins of the server, its update
  filters, audit log and fault controller's batched stages;
* :mod:`reference.loop` — ``LoopSimulation``, a ``FederatedSimulation``
  whose rounds run those pieces one participant at a time.

Tests import it as ``reference`` (pytest puts ``tests/`` on
``sys.path``); benchmark scripts add ``tests/`` to ``sys.path``
themselves.
"""

from reference.attack import ReferenceAttacker, ReferenceMiner, attackers
from reference.client import BenignClient
from reference.loop import ClientViewList, LoopSimulation
from reference.uea import PerClientPieckUEA, per_client
from reference.updates import (
    ClientUpdate,
    apply_to_updates,
    apply_updates,
    filter_updates,
    from_updates,
    record,
    to_updates,
)

__all__ = [
    "BenignClient",
    "ClientUpdate",
    "ClientViewList",
    "LoopSimulation",
    "PerClientPieckUEA",
    "ReferenceAttacker",
    "ReferenceMiner",
    "apply_to_updates",
    "apply_updates",
    "attackers",
    "filter_updates",
    "from_updates",
    "per_client",
    "record",
    "to_updates",
]
