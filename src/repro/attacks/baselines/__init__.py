"""Baseline targeted model-poisoning attacks (Table I / Table III).

Each baseline supports the paper's fair-comparison mode in which its
required prior knowledge is *masked* (FedRecAttack loses the public
interactions, PipAttack loses the popularity levels) — the setting used
in Table III — as well as the original with-prior mode for reference.
"""

from repro.attacks.baselines.fedrecattack import FedRecAttack
from repro.attacks.baselines.interaction import AHum, ARa
from repro.attacks.baselines.pipattack import PipAttack

__all__ = ["FedRecAttack", "PipAttack", "ARa", "AHum"]
