"""Tests for the attack and defense registries."""

import numpy as np
import pytest

from repro.attacks.cohort import MaliciousCohort
from repro.attacks.registry import (
    ATTACK_NAMES,
    build_malicious_cohort,
    num_malicious_for_ratio,
)
from repro.datasets.synthetic import generate_longtail_dataset
from repro.config import AttackConfig, DefenseConfig
from repro.defenses.registry import (
    DEFENSE_NAMES,
    build_server_defense,
    client_regularizer_factory,
)
from repro.defenses.coordinated import ItemScaleClip
from repro.defenses.robust import (
    BulyanAggregator,
    KrumAggregator,
    MedianAggregator,
    MultiKrumAggregator,
    NormBoundFilter,
    TrimmedMeanAggregator,
)
from repro.federated.aggregation import SumAggregator


class TestMaliciousCount:
    def test_ratio_against_total_population(self):
        # 5% of the total population: m / (benign + m) = 0.05.
        benign = 950
        m = num_malicious_for_ratio(benign, 0.05)
        assert m / (benign + m) == pytest.approx(0.05, abs=0.002)

    def test_zero_ratio(self):
        assert num_malicious_for_ratio(100, 0.0) == 0

    def test_at_least_one_for_positive_ratio(self):
        assert num_malicious_for_ratio(5, 0.01) == 1

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            num_malicious_for_ratio(10, 1.0)

    def test_ratio_to_zero_boundary(self):
        """Exact 0.0 means no attackers; any positive ratio means >= 1.

        The floor matters: ``round(num_benign * eps / (1 - eps))`` is 0
        for tiny ratios, and a "3 in a thousand" sweep cell must still
        inject one malicious client rather than silently running clean.
        """
        assert num_malicious_for_ratio(1_000_000, 0.0) == 0
        assert num_malicious_for_ratio(10, 1e-9) == 1
        assert num_malicious_for_ratio(1, 0.003) == 1
        with pytest.raises(ValueError):
            num_malicious_for_ratio(10, -0.003)

    def test_large_population_no_overflow(self):
        # A billion benign users at the paper's 5% p-tilde: the count
        # stays an exact Python int (no float wraparound / negatives).
        count = num_malicious_for_ratio(10**9, 0.05)
        assert count == round(10**9 * 0.05 / 0.95)
        assert count > 0
        # Near the upper ratio boundary the count explodes but must
        # remain finite, positive and monotone in the ratio.
        high = num_malicious_for_ratio(1000, 0.999)
        assert high == 999000
        assert high > num_malicious_for_ratio(1000, 0.99)


class TestAttackRegistry:
    def test_all_names_buildable(self, tiny_dataset):
        for name in ATTACK_NAMES:
            cohort = build_malicious_cohort(
                name,
                dataset=tiny_dataset,
                config=AttackConfig(name=name),
                targets=np.array([3]),
                embedding_dim=4,
                num_malicious=2,
                first_user_id=100,
            )
            if name == "none":
                assert cohort is None
            else:
                assert cohort.num_clients == 2

    def test_single_user_dataset_buildable(self):
        """Every attack builds against a degenerate 1-user dataset.

        Exercises the edge paths that read the benign population at
        construction: FedRecAttack's known-user sample collapses to the
        single user, PipAttack's popularity labels still cover the tiny
        catalogue, and the PIECK miners accept the small item count.
        """
        dataset = generate_longtail_dataset(
            num_users=1, num_items=12, num_interactions=6, seed=0, name="one"
        )
        for name in ATTACK_NAMES:
            cohort = build_malicious_cohort(
                name,
                dataset=dataset,
                config=AttackConfig(name=name),
                targets=np.array([2]),
                embedding_dim=4,
                num_malicious=2,
                first_user_id=1,
            )
            assert (cohort is None) == (name == "none")

    def test_cohort_construction_path(self, tiny_dataset):
        """build_malicious_cohort builds the whole team, or nothing."""
        kwargs = dict(
            dataset=tiny_dataset,
            config=AttackConfig(name="pieck_ipe"),
            targets=np.array([3]),
            embedding_dim=4,
            num_malicious=3,
            first_user_id=tiny_dataset.num_users,
        )
        cohort = build_malicious_cohort("pieck_ipe", **kwargs)
        assert isinstance(cohort, MaliciousCohort)
        assert cohort.num_clients == 3
        assert cohort.team_size == 3
        assert cohort.miner is not None
        assert build_malicious_cohort("none", **kwargs) is None
        assert build_malicious_cohort("pieck_ipe", **{**kwargs, "num_malicious": 0}) is None

    def test_unknown_name_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="unknown attack"):
            build_malicious_cohort(
                "ghost",
                dataset=tiny_dataset,
                config=AttackConfig(),
                targets=np.array([0]),
                embedding_dim=4,
                num_malicious=1,
                first_user_id=100,
            )

    def test_user_ids_sequential(self, tiny_dataset):
        cohort = build_malicious_cohort(
            "pieck_uea",
            dataset=tiny_dataset,
            config=AttackConfig(),
            targets=np.array([3]),
            embedding_dim=4,
            num_malicious=3,
            first_user_id=40,
        )
        assert [c.user_id for c in cohort.clients] == [40, 41, 42]

    def test_team_size_propagated(self, tiny_dataset):
        cohort = build_malicious_cohort(
            "pieck_ipe",
            dataset=tiny_dataset,
            config=AttackConfig(),
            targets=np.array([3]),
            embedding_dim=4,
            num_malicious=4,
            first_user_id=40,
        )
        assert cohort.team_size == 4


class TestDefenseRegistry:
    @pytest.mark.parametrize(
        "name,agg_type,has_filter",
        [
            ("none", SumAggregator, False),
            ("norm_bound", SumAggregator, True),
            ("median", MedianAggregator, False),
            ("trimmed_mean", TrimmedMeanAggregator, False),
            ("krum", KrumAggregator, False),
            ("multi_krum", MultiKrumAggregator, False),
            ("bulyan", BulyanAggregator, False),
            ("regularization", SumAggregator, False),
            ("hybrid", SumAggregator, True),
        ],
    )
    def test_server_components(self, name, agg_type, has_filter):
        aggregator, update_filter = build_server_defense(DefenseConfig(name=name))
        assert isinstance(aggregator, agg_type)
        assert (update_filter is not None) == has_filter
        if has_filter:
            assert isinstance(update_filter, NormBoundFilter)

    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError, match="unknown defense"):
            build_server_defense(DefenseConfig(name="firewall"))

    def test_regularizer_factory_only_for_client_side_defenses(self):
        assert client_regularizer_factory(DefenseConfig(name="median"), 10) is None
        for name in ("regularization", "hybrid"):
            factory = client_regularizer_factory(DefenseConfig(name=name), 10)
            assert factory is not None
            # Each call creates independent per-client state.
            assert factory() is not factory()

    def test_all_names_covered(self):
        assert set(DEFENSE_NAMES) == {
            "none", "norm_bound", "median", "trimmed_mean",
            "krum", "multi_krum", "bulyan", "regularization", "hybrid",
            "scale_clip", "coordinated",
        }

    def test_scale_clip_is_server_side_only(self):
        aggregator, update_filter = build_server_defense(
            DefenseConfig(name="scale_clip")
        )
        assert isinstance(aggregator, SumAggregator)
        assert isinstance(update_filter, ItemScaleClip)
        assert client_regularizer_factory(DefenseConfig(name="scale_clip"), 10) is None

    def test_coordinated_has_both_sides(self):
        _, update_filter = build_server_defense(DefenseConfig(name="coordinated"))
        assert isinstance(update_filter, ItemScaleClip)
        factory = client_regularizer_factory(DefenseConfig(name="coordinated"), 10)
        assert factory is not None
