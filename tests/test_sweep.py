"""Tests for the parallel sweep orchestrator and its result cache."""

import json
import os

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.config import (
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    ShardingConfig,
    TrainConfig,
    replace,
)
from repro.experiments.reporting import TableResult
from repro.experiments.runner import run_cell, run_cells
from repro.experiments.sweep import (
    CellSpec,
    SweepRunner,
    cell_cache_key,
    cells_from_values,
    dataset_fingerprint,
    execute_cell,
)
from repro.datasets.loaders import load_dataset
from repro.metrics.divergence import user_coverage_ratio
from repro.persistence import load_sweep_entry, save_sweep_entry


def _tiny_config(
    attack: str | None = None,
    defense: str = "none",
    *,
    seed: int = 3,
    rounds: int = 6,
    dataset_seed: int = 5,
) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom", scale=0.08, seed=dataset_seed),
        model=ModelConfig(kind="mf", embedding_dim=8, seed=seed),
        train=TrainConfig(rounds=rounds, users_per_round=12, lr=1.0),
        attack=AttackConfig(name=attack, malicious_ratio=0.1) if attack else None,
        defense=DefenseConfig(name=defense),
        seed=seed,
    )


def _tiny_grid() -> tuple[list[CellSpec], dict[str, DatasetConfig]]:
    specs = [
        CellSpec(config=_tiny_config()),
        CellSpec(config=_tiny_config(attack="pieck_uea")),
        CellSpec(config=_tiny_config(attack="pieck_uea", defense="norm_bound")),
        CellSpec(config=_tiny_config(attack="pieck_ipe"), ks=(5, 10)),
    ]
    datasets = {"default": DatasetConfig(name="custom", scale=0.08, seed=5)}
    return specs, datasets


@pytest.fixture(scope="module")
def tiny_grid_sequential():
    """Sequential reference results for the shared tiny grid."""
    specs, datasets = _tiny_grid()
    return SweepRunner(workers=0).run(specs, datasets)


class TestParity:
    def test_pool_matches_sequential_bit_identical(self, tiny_grid_sequential):
        """2-worker pool execution is byte-identical to sequential."""
        specs, datasets = _tiny_grid()
        parallel = SweepRunner(workers=2).run(specs, datasets)
        assert parallel == tiny_grid_sequential

    def test_results_align_with_spec_order(self, tiny_grid_sequential):
        # The ks=(5, 10) cell returns two pairs, the rest one each.
        assert [len(v) for v in tiny_grid_sequential] == [1, 1, 1, 2]

    def test_execute_cell_matches_run_cell(self, tiny_grid_sequential):
        spec, _ = _tiny_grid()
        cell = run_cell(spec[1].config, dataset=load_dataset(spec[1].config.dataset))
        assert [cell.er, cell.hr] == tiny_grid_sequential[1][0]

    def test_materialised_dataset_accepted(self, tiny_grid_sequential):
        specs, datasets = _tiny_grid()
        loaded = {"default": load_dataset(datasets["default"])}
        assert SweepRunner(workers=0).run(specs, loaded) == tiny_grid_sequential


class TestRunCellKs:
    def test_ks_tuple_matches_individual_runs(self, tiny_dataset):
        config = _tiny_config(attack="pieck_uea")
        merged = run_cell(config, dataset=tiny_dataset, ks=(5, 10, 20))
        for k, cell in zip((5, 10, 20), merged):
            alone = run_cell(config, dataset=tiny_dataset, k=k)
            assert (cell.er, cell.hr) == (alone.er, alone.hr)

    def test_run_cells_default_k(self, tiny_dataset):
        config = _tiny_config()
        (cell,) = run_cells(config, dataset=tiny_dataset)
        assert (cell.er, cell.hr) == (
            run_cell(config, dataset=tiny_dataset).er,
            run_cell(config, dataset=tiny_dataset).hr,
        )

    def test_k_and_ks_mutually_exclusive(self, tiny_dataset):
        with pytest.raises(ValueError, match="either k or ks"):
            run_cell(_tiny_config(), dataset=tiny_dataset, k=5, ks=(5,))

    def test_empty_ks_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="at least one"):
            run_cells(_tiny_config(), dataset=tiny_dataset, ks=())


class TestCache:
    def test_miss_then_hit(self, tmp_path, tiny_grid_sequential):
        specs, datasets = _tiny_grid()
        runner = SweepRunner(workers=0, cache_dir=str(tmp_path))
        first = runner.run(specs, datasets)
        assert runner.last_stats.executed == len(specs)
        assert runner.last_stats.cache_hits == 0
        second = runner.run(specs, datasets)
        assert runner.last_stats.cache_hits == len(specs)
        assert runner.last_stats.executed == 0
        assert runner.last_stats.hit_ratio == 1.0
        assert first == second == tiny_grid_sequential

    def test_cached_entries_on_disk(self, tmp_path):
        specs, datasets = _tiny_grid()
        runner = SweepRunner(workers=0, cache_dir=str(tmp_path))
        runner.run(specs, datasets)
        entries = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
        assert len(entries) == len(specs)

    def test_config_change_busts_key(self, tmp_path):
        specs, datasets = _tiny_grid()
        runner = SweepRunner(workers=0, cache_dir=str(tmp_path))
        runner.run(specs, datasets)
        changed = [
            replace(spec, config=replace(spec.config, seed=spec.config.seed + 1))
            for spec in specs
        ]
        runner.run(changed, datasets)
        assert runner.last_stats.cache_hits == 0
        assert runner.last_stats.executed == len(specs)

    def test_dataset_change_busts_key(self, tmp_path):
        specs, datasets = _tiny_grid()
        runner = SweepRunner(workers=0, cache_dir=str(tmp_path))
        runner.run(specs, datasets)
        other = {"default": DatasetConfig(name="custom", scale=0.08, seed=6)}
        runner.run(specs, other)
        assert runner.last_stats.cache_hits == 0

    def test_resume_after_partial_completion(self, tmp_path, tiny_grid_sequential):
        specs, datasets = _tiny_grid()
        runner = SweepRunner(workers=0, cache_dir=str(tmp_path))
        runner.run(specs[:2], datasets)  # "interrupted" after two cells
        results = runner.run(specs, datasets)
        assert runner.last_stats.cache_hits == 2
        assert runner.last_stats.executed == 2
        assert results == tiny_grid_sequential

    def test_corrupt_entry_is_a_miss(self, tmp_path, tiny_grid_sequential):
        specs, datasets = _tiny_grid()
        runner = SweepRunner(workers=0, cache_dir=str(tmp_path))
        runner.run(specs, datasets)
        victim = sorted(tmp_path.glob("*.json"))[0]
        victim.write_text("{ not json")
        results = runner.run(specs, datasets)
        assert runner.last_stats.executed == 1
        assert runner.last_stats.cache_hits == len(specs) - 1
        assert results == tiny_grid_sequential

    def test_shared_datasets_generated_once_per_runner(self, monkeypatch):
        import repro.experiments.sweep as sweep_module

        calls = []
        real_load = sweep_module.load_dataset
        monkeypatch.setattr(
            sweep_module,
            "load_dataset",
            lambda cfg: calls.append(cfg) or real_load(cfg),
        )
        specs, datasets = _tiny_grid()
        runner = SweepRunner(workers=0)
        runner.run(specs, datasets)
        runner.run(specs, datasets)  # e.g. a second table, same dataset
        assert len(calls) == 1

    def test_total_stats_accumulate(self, tmp_path):
        specs, datasets = _tiny_grid()
        runner = SweepRunner(workers=0, cache_dir=str(tmp_path))
        runner.run(specs, datasets)
        runner.run(specs, datasets)
        assert runner.total_stats.total == 2 * len(specs)
        assert runner.total_stats.cache_hits == len(specs)


class TestCacheKeys:
    def test_key_is_stable(self, tiny_dataset):
        spec = CellSpec(config=_tiny_config())
        fp = dataset_fingerprint(tiny_dataset)
        assert cell_cache_key(spec, fp) == cell_cache_key(spec, fp)

    def test_key_covers_ks_and_kind(self, tiny_dataset):
        fp = dataset_fingerprint(tiny_dataset)
        base = CellSpec(config=_tiny_config())
        assert cell_cache_key(base, fp) != cell_cache_key(
            replace(base, ks=(5,)), fp
        )
        assert cell_cache_key(base, fp) != cell_cache_key(
            replace(base, kind="pkl_ucr", payload=(1, 10)), fp
        )

    def test_key_ignores_knobs(self, tiny_dataset):
        # A numpy-run, dense cache serves native, sharded and any
        # evaluation block size verbatim; an identity field still splits.
        fp = dataset_fingerprint(tiny_dataset)
        config = _tiny_config()
        base = CellSpec(config=config)
        knobbed = replace(
            config,
            train=replace(config.train, kernels="native", eval_chunk_users=7),
            sharding=ShardingConfig(num_shards=2, round_workers=2),
        )
        assert cell_cache_key(base, fp) == cell_cache_key(CellSpec(config=knobbed), fp)
        assert cell_cache_key(base, fp) != cell_cache_key(
            CellSpec(config=replace(config, seed=config.seed + 1)), fp
        )

    def test_fingerprint_tracks_content(self, tiny_dataset):
        fp = dataset_fingerprint(tiny_dataset)
        mutated = load_dataset(DatasetConfig(name="custom", scale=0.08, seed=5))
        assert dataset_fingerprint(mutated) == dataset_fingerprint(mutated)
        mutated.test_items = mutated.test_items.copy()
        mutated.test_items[0] = (mutated.test_items[0] + 1) % mutated.num_items
        assert dataset_fingerprint(mutated) != fp

    def test_fingerprint_sees_train_pos_mutation_past_csr_cache(self):
        dataset = load_dataset(DatasetConfig(name="custom", scale=0.08, seed=5))
        before = dataset_fingerprint(dataset)
        dataset.train_csr()  # memoise the CSR view, then mutate behind it
        user = next(u for u in range(dataset.num_users) if len(dataset.train_pos[u]))
        dataset.train_pos[user] = dataset.train_pos[user][:-1]
        assert dataset_fingerprint(dataset) != before


class TestSweepEntryPersistence:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "deep" / "entry.json")
        save_sweep_entry(path, key="abc", kind="er_hr", values=[[1.5, 2.5]])
        entry = load_sweep_entry(path)
        assert entry == {"key": "abc", "kind": "er_hr", "values": [[1.5, 2.5]]}

    def test_missing_returns_none(self, tmp_path):
        assert load_sweep_entry(str(tmp_path / "absent.json")) is None

    def test_malformed_payload_returns_none(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        assert load_sweep_entry(str(path)) is None

    def test_binary_corrupt_entry_returns_none(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00corrupt")
        assert load_sweep_entry(str(path)) is None

    def test_floats_roundtrip_bit_exact(self, tmp_path):
        values = [[100.0 / 3.0, 0.1 + 0.2]]
        path = str(tmp_path / "entry.json")
        save_sweep_entry(path, key="k", kind="er_hr", values=values)
        assert load_sweep_entry(path)["values"] == values


class TestErrors:
    def test_unknown_dataset_key(self):
        specs, datasets = _tiny_grid()
        bad = [replace(specs[0], dataset_key="missing")]
        with pytest.raises(KeyError, match="missing"):
            SweepRunner(workers=0).run(bad, datasets)

    def test_unknown_cell_kind(self, tiny_dataset):
        with pytest.raises(ValueError, match="unknown cell kind"):
            execute_cell(CellSpec(config=_tiny_config(), kind="bogus"), tiny_dataset)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(workers=-1)


class TestCoverageVectorization:
    def test_covered_users_matches_bruteforce(self, tiny_dataset):
        ranking = tiny_dataset.popularity_ranking()
        for size in (1, 5, 17):
            popular = ranking[:size]
            expected = [
                u
                for u in range(tiny_dataset.num_users)
                if set(popular.tolist()) & tiny_dataset.train_set(u)
            ]
            got = tiny_dataset.covered_users(popular)
            assert got.tolist() == expected

    def test_covered_users_empty_items(self, tiny_dataset):
        assert tiny_dataset.covered_users(np.zeros(0, dtype=np.int64)).size == 0

    def test_user_coverage_ratio_matches_bruteforce(self, tiny_dataset):
        popular = tiny_dataset.popularity_ranking()[:7]
        popular_set = set(popular.tolist())
        expected = sum(
            1
            for u in range(tiny_dataset.num_users)
            if popular_set & tiny_dataset.train_set(u)
        ) / tiny_dataset.num_users
        assert user_coverage_ratio(tiny_dataset, popular) == expected

    def test_pkl_ucr_cell_matches_reference_loop(self):
        """The Table II executor equals the original per-user loop."""
        from repro.federated.simulation import FederatedSimulation
        from repro.metrics.divergence import pairwise_kl

        config = _tiny_config()
        dataset = load_dataset(config.dataset)
        spec = CellSpec(config=config, kind="pkl_ucr", payload=(1, 5))
        result = execute_cell(spec, dataset)

        sim = FederatedSimulation(config, dataset=dataset)
        sim.run()
        ranking = sim.dataset.popularity_ranking()
        users = sim.user_embedding_matrix()
        for n, pkl_value in zip((1, 5), result["pkl"]):
            popular = ranking[: min(n, sim.dataset.num_items)]
            covered = [
                u
                for u in range(sim.dataset.num_users)
                if set(popular.tolist()) & sim.dataset.train_set(u)
            ]
            item_vecs = sim.model.item_embeddings[popular]
            user_vecs = users[covered] if covered else users
            assert pkl_value == pairwise_kl(item_vecs, user_vecs)


class TestCliSweep:
    def test_sweep_command_runs_tables_through_runner(
        self, monkeypatch, capsys, tmp_path
    ):
        import repro.cli as cli

        def fake_table(*, runner=None):
            assert runner is not None
            specs, datasets = _tiny_grid()
            values = runner.run(specs[:2], datasets)
            table = TableResult("Tiny", ["Cell", "ER/HR"])
            for index, value in enumerate(values):
                table.add_row(str(index), str(cells_from_values(value)[0]))
            return table

        monkeypatch.setattr(cli, "_TABLES", {"3": fake_table})
        code = cli_main(
            ["sweep", "3", "--workers", "2", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Tiny" in out
        assert "2 executed" in out
        # Second invocation is served from the cache.
        code = cli_main(
            ["sweep", "3", "--workers", "2", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 from cache" in out
        assert "cache hit ratio 100%" in out

    def test_sweep_rejects_unknown_table(self):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "42"])

    def test_sweep_rejects_negative_workers(self):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "5", "--workers", "-1"])

    def test_unknown_table_suggests_close_id(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["sweep", "table3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean '3'" in err

    def test_unknown_table_lists_valid_ids(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "99"])
        assert "choose from" in capsys.readouterr().err

    def test_dry_run_lists_grid_without_executing(
        self, monkeypatch, capsys, tmp_path
    ):
        import repro.cli as cli

        executed = []

        def fake_table(*, runner=None):
            specs, datasets = _tiny_grid()
            values = runner.run(specs[:2], datasets)
            executed.append(values)
            return TableResult("Tiny", ["Cell", "ER/HR"])

        monkeypatch.setattr(cli, "_TABLES", {"3": fake_table})
        # Warm one cell so the dry run shows a cached/pending mix.
        warm = SweepRunner(workers=0, cache_dir=str(tmp_path))
        specs, datasets = _tiny_grid()
        warm.run(specs[:1], datasets)

        code = cli_main(
            ["sweep", "3", "--dry-run", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        assert executed == []  # the generator was stopped pre-execution
        out = capsys.readouterr().out
        assert "1 cached, 1 pending" in out
        assert "nothing executed" in out
        # The cache gained nothing: dry runs never write.
        assert len([n for n in os.listdir(tmp_path) if n.endswith(".json")]) == 1

    def test_dry_run_without_cache_shows_all_pending(
        self, monkeypatch, capsys
    ):
        import repro.cli as cli

        def fake_table(*, runner=None):
            specs, datasets = _tiny_grid()
            runner.run(specs[:2], datasets)
            return TableResult("Tiny", ["Cell", "ER/HR"])

        monkeypatch.setattr(cli, "_TABLES", {"3": fake_table})
        assert cli_main(["sweep", "3", "--dry-run"]) == 0
        assert "0 cached, 2 pending" in capsys.readouterr().out

    def test_shared_backend_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["sweep", "3", "--backend", "shared"])
        assert excinfo.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_shared_backend_runs_table_to_completion(
        self, monkeypatch, capsys, tmp_path
    ):
        import repro.cli as cli

        def fake_table(*, runner=None):
            specs, datasets = _tiny_grid()
            values = runner.run(specs[:2], datasets)
            table = TableResult("Tiny", ["Cell", "ER/HR"])
            for index, value in enumerate(values):
                table.add_row(str(index), str(cells_from_values(value)[0]))
            return table

        monkeypatch.setattr(cli, "_TABLES", {"3": fake_table})
        code = cli_main(
            [
                "sweep", "3",
                "--backend", "shared",
                "--owner", "test-worker",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shared cache, worker test-worker" in out
        assert "2 executed" in out
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".lease")]


class TestQuarantineCounting:
    def test_corrupt_entry_counted_and_reexecuted(self, tmp_path, capsys):
        cache_dir = str(tmp_path)
        specs, datasets = _tiny_grid()
        runner = SweepRunner(workers=0, cache_dir=cache_dir)
        first = runner.run(specs[:1], datasets)
        [entry] = [n for n in os.listdir(cache_dir) if n.endswith(".json")]
        path = os.path.join(cache_dir, entry)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x08
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        rerun = SweepRunner(workers=0, cache_dir=cache_dir)
        second = rerun.run(specs[:1], datasets)
        assert second == first
        assert rerun.last_stats.quarantined == 1
        assert rerun.last_stats.cache_hits == 0
        assert rerun.last_stats.executed == 1
        # The corrupt specimen was moved aside, and the fresh entry is
        # back in place, verified.
        from repro.persistence import read_sweep_entry

        assert os.path.exists(path + ".quarantined")
        assert read_sweep_entry(path)[1] == "verified"
