"""Tests for the server audit log and the Eq. 11 empirical validation."""

import numpy as np
import pytest

from reference import ClientUpdate, from_updates
from repro.analysis.audit import poison_share_summary, theory_vs_measured
from repro.experiments import experiment
from repro.federated.audit import ItemRoundRecord, ServerAuditLog
from repro.federated.simulation import FederatedSimulation


def _update(user_id, item_ids, norm=1.0, malicious=False):
    item_ids = np.asarray(item_ids)
    grads = np.zeros((len(item_ids), 2))
    grads[:, 0] = norm
    return ClientUpdate(
        user_id=user_id, item_ids=item_ids, item_grads=grads, malicious=malicious
    )


def _record(log, updates):
    log.record_batch(from_updates(updates))


class TestItemRoundRecord:
    def test_shares(self):
        record = ItemRoundRecord(
            round_idx=0, item_id=3,
            benign_count=1, malicious_count=3,
            benign_norm=0.5, malicious_norm=4.5,
        )
        assert record.total_count == 4
        assert record.poison_count_share == pytest.approx(0.75)
        assert record.poison_mass_share == pytest.approx(0.9)

    def test_zero_contributions(self):
        record = ItemRoundRecord(0, 0, 0, 0, 0.0, 0.0)
        assert record.poison_count_share == 0.0
        assert record.poison_mass_share == 0.0


class TestServerAuditLog:
    def test_records_per_item_counts(self):
        log = ServerAuditLog()
        _record(log, [
            _update(0, [1, 2]),
            _update(1, [2]),
            _update(9, [2], norm=10.0, malicious=True),
        ])
        assert log.rounds_recorded == 1
        item2 = log.for_item(2)
        assert len(item2) == 1
        assert item2[0].benign_count == 2
        assert item2[0].malicious_count == 1
        assert item2[0].malicious_norm == pytest.approx(10.0)
        assert log.for_item(1)[0].malicious_count == 0

    def test_round_index_advances(self):
        log = ServerAuditLog()
        _record(log, [_update(0, [0])])
        _record(log, [_update(0, [0])])
        rounds = [r.round_idx for r in log.for_item(0)]
        assert rounds == [0, 1]

    def test_poisoned_items(self):
        log = ServerAuditLog()
        _record(log, [
            _update(0, [1, 2]),
            _update(9, [5], malicious=True),
            _update(10, [3], malicious=True),
        ])
        assert log.poisoned_items().tolist() == [3, 5]

    def test_empty_round_still_counts(self):
        log = ServerAuditLog()
        _record(log, [])
        assert log.rounds_recorded == 1
        assert log.records == []


class TestPoisonShareSummary:
    def test_summary_over_rounds(self):
        log = ServerAuditLog()
        _record(log, [_update(0, [7]), _update(9, [7], malicious=True)])
        _record(log, [_update(9, [7], malicious=True)])
        summary = poison_share_summary(log, 7)
        assert summary.rounds_contributed == 2
        assert summary.benign_gradients == 1
        assert summary.malicious_gradients == 2
        assert summary.mean_count_share == pytest.approx((0.5 + 1.0) / 2)
        assert summary.overall_count_share == pytest.approx(2 / 3)

    def test_unseen_item_gives_zeros(self):
        summary = poison_share_summary(ServerAuditLog(), 42)
        assert summary.rounds_contributed == 0
        assert summary.overall_count_share == 0.0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def audited_sim(self):
        config = experiment(
            "ml-100k", "mf", attack="pieck_uea", seed=0, rounds=40
        )
        sim = FederatedSimulation(config, audit=True)
        sim.run()
        return sim

    def test_simulation_exposes_audit_log(self, audited_sim):
        assert audited_sim.audit_log is not None
        assert audited_sim.audit_log.rounds_recorded == 40

    def test_target_receives_malicious_gradients(self, audited_sim):
        target = int(audited_sim.targets[0])
        summary = poison_share_summary(audited_sim.audit_log, target)
        assert summary.malicious_gradients > 0
        # Eq. 11's point: the poison share for a cold target is far
        # above the malicious ratio (5%), and the poison dominates the
        # gradient *mass* outright.
        ratio = audited_sim.attack_cfg.malicious_ratio
        assert summary.overall_count_share > 5 * ratio
        assert summary.mean_mass_share > 0.5

    def test_theory_tracks_measurement(self, audited_sim):
        rows = theory_vs_measured(
            audited_sim.audit_log,
            audited_sim.dataset,
            audited_sim.attack_cfg.malicious_ratio,
        )
        assert rows, "the attacked target must appear"
        ratio = audited_sim.attack_cfg.malicious_ratio
        for _, predicted, measured in rows:
            # Both far above the malicious ratio (Eq. 11's blow-up for
            # cold items), and the closed form tracks the measurement.
            assert predicted > 5 * ratio
            assert measured > 5 * ratio
            assert abs(predicted - measured) < 0.15

    def test_audit_disabled_by_default(self):
        config = experiment("ml-100k", "mf", seed=0, rounds=1)
        sim = FederatedSimulation(config)
        assert sim.audit_log is None
