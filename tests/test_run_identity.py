"""What a run *is* and what a run *holds*.

Identity: every config field is either part of the run's identity or a
throughput knob (``metadata=KNOB``).  The field lists are pinned, so a
new config field fails here until its role is decided.

State: a checkpoint is ``{component: state()}`` — arrays and containers
of them.  The pickle scan lists the ``repro.*`` classes a checkpoint
still names; the allow-list may only shrink.
"""

from __future__ import annotations

import dataclasses
import io
import pickle

import pytest

from repro import persistence
from repro.config import (
    AsyncConfig,
    AttackConfig,
    DefenseConfig,
    ExperimentConfig,
    FaultConfig,
    ModelConfig,
    ShardingConfig,
    TrainConfig,
    identity_digest,
    identity_record,
)
from repro.federated.simulation import FederatedSimulation

KNOB_PATHS = ["sharding", "train.eval_chunk_users", "train.kernels"]

IDENTITY_PATHS = [
    "asynchrony.arrival_rate", "asynchrony.buffer_size",
    "asynchrony.compute_mean", "asynchrony.enabled",
    "asynchrony.network_mean", "asynchrony.round_deadline",
    "asynchrony.round_interval", "asynchrony.trace_offsets",
    "asynchrony.traffic",
    "attack.adaptive_margin", "attack.grad_clip", "attack.inner_lr",
    "attack.inner_steps", "attack.ipe_lambda", "attack.ipe_match_norm",
    "attack.ipe_metric", "attack.ipe_use_partition", "attack.ipe_use_weights",
    "attack.malicious_ratio", "attack.mining_rounds",
    "attack.multi_target_strategy", "attack.name", "attack.norm_cap_factor",
    "attack.num_popular", "attack.num_targets", "attack.promotion_margin",
    "attack.seed", "attack.step_norm_factor", "attack.target_items",
    "attack.uea_batch_size", "attack.uea_pseudo_source",
    "attack.uea_refine_count", "attack.uea_refine_lr",
    "attack.uea_refine_negative_ratio", "attack.uea_refine_steps",
    "dataset.min_interactions_per_user", "dataset.name",
    "dataset.popularity_exponent", "dataset.scale", "dataset.seed",
    "defense.assumed_malicious_ratio", "defense.beta", "defense.gamma",
    "defense.mining_rounds", "defense.name", "defense.norm_bound",
    "defense.num_popular", "defense.scale_clip_factor",
    "faults.corruption_mode", "faults.corruption_rate",
    "faults.corruption_scale", "faults.dropout_rate", "faults.max_staleness",
    "faults.max_upload_norm", "faults.min_quorum", "faults.staleness_discount",
    "faults.straggler_max_delay", "faults.straggler_rate",
    "model.embedding_dim", "model.init_scale", "model.kind",
    "model.mlp_layers", "model.seed",
    "seed",
    "train.client_lr", "train.client_lr_range", "train.eval_every",
    "train.eval_num_negatives", "train.loss", "train.lr",
    "train.negative_ratio", "train.rounds", "train.top_k",
    "train.users_per_round",
]

#: ``repro.*`` classes a checkpoint may still reference.  Shrink only.
PICKLE_ALLOW_LIST = {"repro.federated.audit.ItemRoundRecord"}


def _field_roles(config, prefix: str = "") -> tuple[list[str], list[str]]:
    """(identity leaf paths, knob paths) of a config instance's fields."""
    identity, knobs = [], []
    for spec in dataclasses.fields(config):
        path = prefix + spec.name
        value = getattr(config, spec.name)
        if spec.metadata.get("knob"):
            knobs.append(path)
        elif dataclasses.is_dataclass(value):
            sub_identity, sub_knobs = _field_roles(value, path + ".")
            identity += sub_identity
            knobs += sub_knobs
        else:
            identity.append(path)
    return identity, knobs


def _leaf_paths(record: dict, prefix: str = "") -> list[str]:
    paths = []
    for key, value in record.items():
        if isinstance(value, dict):
            paths += _leaf_paths(value, prefix + key + ".")
        else:
            paths.append(prefix + key)
    return paths


class TestIdentity:
    def test_field_roles_are_pinned(self):
        identity, knobs = _field_roles(ExperimentConfig(attack=AttackConfig()))
        assert sorted(identity) == IDENTITY_PATHS
        assert sorted(knobs) == KNOB_PATHS

    def test_identity_record_is_the_identity_fields(self):
        record = identity_record(ExperimentConfig(attack=AttackConfig()))
        assert sorted(_leaf_paths(record)) == IDENTITY_PATHS

    def test_knobs_never_change_the_digest(self):
        base = ExperimentConfig()
        knobbed = dataclasses.replace(
            base,
            train=dataclasses.replace(
                base.train, kernels="numpy", eval_chunk_users=7
            ),
            sharding=ShardingConfig(num_shards=3, round_workers=2),
        )
        assert identity_digest(knobbed) == identity_digest(base)

    def test_identity_fields_change_the_digest(self):
        base = ExperimentConfig()
        for changed in (
            dataclasses.replace(base, seed=1),
            dataclasses.replace(base, train=TrainConfig(lr=0.5)),
            dataclasses.replace(base, attack=AttackConfig()),
            dataclasses.replace(base, faults=FaultConfig(dropout_rate=0.1)),
        ):
            assert identity_digest(changed) != identity_digest(base)


# ----------------------------------------------------------------------
# Checkpoint pickle scan
# ----------------------------------------------------------------------

_FAULTS = FaultConfig(
    dropout_rate=0.15,
    straggler_rate=0.1,
    straggler_max_delay=2,
    corruption_rate=0.05,
    min_quorum=2,
)
_ASYNC = AsyncConfig(
    enabled=True,
    traffic="poisson",
    arrival_rate=4.0,
    compute_mean=0.5,
    network_mean=0.5,
    buffer_size=6,
)


def _scan_config(kind: str = "mf", **kwargs) -> ExperimentConfig:
    kwargs.setdefault(
        "attack", AttackConfig(name="pieck_uea", malicious_ratio=0.2, mining_rounds=2)
    )
    return ExperimentConfig(
        model=ModelConfig(kind=kind, embedding_dim=8, mlp_layers=(16, 8), seed=3),
        train=TrainConfig(
            rounds=10, users_per_round=16, lr=1.0 if kind == "mf" else 0.05
        ),
        seed=3,
        **kwargs,
    )


SCAN_CONFIGS = {
    "pieck-uea": _scan_config(),
    "pieck-ipe-ncf": _scan_config(
        "ncf",
        attack=AttackConfig(name="pieck_ipe", malicious_ratio=0.2, mining_rounds=2),
    ),
    "regdef": _scan_config(defense=DefenseConfig(name="regularization")),
    "faults": _scan_config(faults=_FAULTS),
    "async": _scan_config(asynchrony=_ASYNC, faults=FaultConfig(max_staleness=2)),
    "faults-async": _scan_config(asynchrony=_ASYNC, faults=_FAULTS),
}


class _ClassRecorder(pickle.Unpickler):
    def __init__(self, data: bytes):
        super().__init__(io.BytesIO(data))
        self.referenced: set[str] = set()

    def find_class(self, module: str, name: str):
        if module.split(".")[0] == "repro":
            self.referenced.add(f"{module}.{name}")
        return super().find_class(module, name)


@pytest.mark.parametrize("name", sorted(SCAN_CONFIGS))
def test_checkpoint_references_only_allowed_classes(name, tiny_dataset, tmp_path):
    ckpt_dir = str(tmp_path)
    sim = FederatedSimulation(SCAN_CONFIGS[name], tiny_dataset, audit=True)
    sim.run(rounds=3, checkpoint_dir=ckpt_dir, checkpoint_every=3)
    path = persistence.latest_checkpoint(ckpt_dir)
    with open(path, "rb") as handle:
        envelope = pickle.load(handle)
    recorder = _ClassRecorder(envelope["payload"])
    payload = recorder.load()
    assert recorder.referenced <= PICKLE_ALLOW_LIST
    assert set(payload["state"]) >= {"server", "store", "engine", "cohort"}
