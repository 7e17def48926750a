"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import _plot_figure, main, parse_async_spec, parse_fault_spec
from repro.experiments.reporting import TableResult


class TestList:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pieck_uea" in out
        assert "regularization" in out
        assert "ml-100k" in out


class TestRun:
    def test_run_tiny_experiment(self, capsys, tmp_path):
        result_path = str(tmp_path / "out" / "result.json")
        model_path = str(tmp_path / "out" / "model.npz")
        code = main(
            [
                "run",
                "--dataset", "ml-100k",
                "--model", "mf",
                "--attack", "none",
                "--rounds", "3",
                "--eval-every", "2",
                "--save-result", result_path,
                "--save-model", model_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ER@10" in out
        assert os.path.exists(result_path)
        assert os.path.exists(model_path)
        payload = json.load(open(result_path))
        assert payload["rounds_run"] == 3
        # eval_every=2 plus the final round evaluation.
        assert [rec["round_idx"] for rec in payload["history"]] == [2, 3]

    def test_run_with_attack(self, capsys):
        code = main(
            ["run", "--attack", "pieck_uea", "--rounds", "3", "--seed", "1"]
        )
        assert code == 0
        assert "pieck_uea" in capsys.readouterr().out

    def test_invalid_attack_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--attack", "not-an-attack"])

    def test_run_with_coordinated_defense(self, capsys):
        code = main(
            ["run", "--attack", "pieck_uea", "--defense", "coordinated",
             "--rounds", "3"]
        )
        assert code == 0
        assert "coordinated" in capsys.readouterr().out

    def test_invalid_table_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "42"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestSpecParsing:
    """key=value spec parsers: aliases, conversion, did-you-mean."""

    def test_fault_spec_parses_aliases_and_full_names(self):
        cfg = parse_fault_spec("dropout=0.2,straggler_rate=0.1,quorum=4")
        assert cfg.dropout_rate == 0.2
        assert cfg.straggler_rate == 0.1
        assert cfg.min_quorum == 4

    def test_async_spec_parses_and_forces_enabled(self):
        cfg = parse_async_spec("traffic=poisson,rate=6,network=0.4,k=8,deadline=1.5")
        assert cfg.enabled is True
        assert cfg.traffic == "poisson"
        assert cfg.arrival_rate == 6.0
        assert cfg.network_mean == 0.4
        assert cfg.buffer_size == 8
        assert cfg.round_deadline == 1.5

    def test_staleness_pair_parses_under_faults_only(self):
        import argparse

        cfg = parse_fault_spec("discount=0.6,max-stale=3")
        assert cfg.staleness_discount == 0.6
        assert cfg.max_staleness == 3
        with pytest.raises(argparse.ArgumentTypeError, match="valid keys"):
            parse_async_spec("discount=0.6")

    def test_async_empty_spec_is_degenerate(self):
        from repro.config import AsyncConfig

        assert parse_async_spec("") == AsyncConfig(enabled=True)

    def test_async_trace_offsets_colon_separated(self):
        cfg = parse_async_spec("traffic=trace,trace=0.0:0.5:1.25")
        assert cfg.trace_offsets == (0.0, 0.5, 1.25)

    def test_fault_typo_suggests_field(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError) as err:
            parse_fault_spec("dropuot=0.2")
        message = str(err.value)
        assert "did you mean 'dropout'" in message
        assert "valid keys" in message
        assert "straggler_rate" in message

    def test_async_typo_suggests_field(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError) as err:
            parse_async_spec("dedline=2")
        assert "did you mean 'deadline'" in str(err.value)

    def test_unknown_key_without_close_match_lists_fields(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError) as err:
            parse_async_spec("zzzzqqq=1")
        message = str(err.value)
        assert "did you mean" not in message
        assert "valid keys" in message

    def test_not_key_value_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="key=value"):
            parse_async_spec("poisson")

    def test_bad_value_type_reported(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="cannot parse"):
            parse_async_spec("rate=fast")

    def test_invalid_config_value_reported(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="buffer_size"):
            parse_async_spec("k=-1")

    def test_cli_rejects_bad_spec_with_clean_exit(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--async", "dedline=2"])
        assert err.value.code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_run_async_prints_counter_table(self, capsys):
        code = main(
            [
                "run", "--attack", "pieck_uea", "--rounds", "3",
                "--async", "traffic=poisson,rate=8,network=0.5",
                "--faults", "dropout=0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime counters:" in out
        assert "waves dispatched" in out
        assert "dropped uploads" in out

    def test_run_degenerate_async_matches_sync_output(self, capsys):
        main(["run", "--rounds", "2", "--seed", "5"])
        sync_out = capsys.readouterr().out
        main(["run", "--rounds", "2", "--seed", "5", "--async", ""])
        async_out = capsys.readouterr().out
        sync_metrics = [ln for ln in sync_out.splitlines() if "ER@10" in ln]
        async_metrics = [ln for ln in async_out.splitlines() if "ER@10" in ln]
        assert sync_metrics == async_metrics


class TestFigurePlots:
    def test_fig6a_series_plot(self):
        table = TableResult("Fig 6a", ["Attack", "r50", "r100"])
        table.add_row("IPE", "90.0 / 50.0", "40.0 / 50.0")
        table.add_row("UEA", "95.0 / 50.0", "80.0 / 50.0")
        out = _plot_figure("6a", table)
        assert "ER@10 over rounds" in out
        assert "IPE" in out and "UEA" in out

    def test_fig6b_bar_chart(self):
        table = TableResult("Fig 6b", ["Model", "clean", "attack"])
        table.add_row("MF", "0.01", "0.02")
        out = _plot_figure("6b", table)
        assert "MF clean" in out
        assert "0.02 s" in out

    def test_fig7_line_plot(self):
        table = TableResult("Fig 7", ["q", "HR@10 (%)"])
        table.add_row("1", "44.0")
        table.add_row("8", "51.0")
        out = _plot_figure("7", table)
        assert "HR@10 vs sampling ratio q" in out

    def test_unplottable_figure_returns_none(self):
        table = TableResult("Fig 3", ["Dataset", "Gini"])
        table.add_row("ml-100k", "0.7")
        assert _plot_figure("3", table) is None


class TestAudit:
    def test_audit_command(self, capsys):
        code = main(["audit", "--attack", "pieck_uea", "--rounds", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Eq.11 predicted" in out
        assert "mass share" in out
        # At least one attacked item row is printed.
        assert len(out.strip().splitlines()) >= 4

    def test_audit_rejects_none_attack(self):
        with pytest.raises(SystemExit):
            main(["audit", "--attack", "none"])
