"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Run one experiment (dataset x model x attack x defense) and print
    ER@K / HR@K; optionally save the result JSON and model checkpoint.

``table`` / ``figure``
    Regenerate one of the paper's tables or figures by id (e.g.
    ``table 3``, ``figure 6a``) at the scaled presets.

``sweep``
    Regenerate one or more tables through the parallel sweep
    orchestrator: cells run on a process pool (``--workers``) and
    completed cells are recalled from a content-addressed on-disk
    cache (``--cache-dir``), so re-runs skip finished work and
    interrupted sweeps resume.

``audit``
    Run one attacked experiment with the server audit log enabled and
    print the Eq. 11 prediction vs the measured poison share for every
    attacked item.

``fsck``
    Walk a cache/checkpoint/result tree and verify every digest-
    stamped file; report verified / corrupt counts, and with
    ``--repair`` move corrupt files aside (quarantine) so the next
    sweep re-executes them instead of tripping over them.

``list``
    Show the available datasets, attacks, defenses and experiment ids.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Callable, Sequence

from repro.attacks.registry import ATTACK_NAMES
from repro.defenses.registry import DEFENSE_NAMES
from repro.experiments import (
    experiment,
    fig3_longtail,
    fig4_delta_norm,
    fig5_ratio_and_n,
    fig6a_trend,
    fig6b_cost,
    fig7_sample_ratio,
    table2_pkl_ucr,
    table3_attacks,
    table4_defenses,
    table5_top_k,
    table6_ablation,
    table7_system_settings,
    table9_multi_target,
    table10_learning_rates,
    table11_bpr_loss,
)
from repro.experiments.presets import EXPERIMENT_SCALES
from repro.federated.simulation import FederatedSimulation

__all__ = ["main"]

_TABLES: dict[str, Callable] = {
    "2": table2_pkl_ucr,
    "3": table3_attacks,
    "4": table4_defenses,
    "5": table5_top_k,
    "6": table6_ablation,
    "7": table7_system_settings,
    "9": table9_multi_target,
    "10": table10_learning_rates,
    "11": table11_bpr_loss,
}

_FIGURES: dict[str, Callable] = {
    "3": fig3_longtail,
    "4": fig4_delta_norm,
    "5": fig5_ratio_and_n,
    "6a": fig6a_trend,
    "6b": fig6b_cost,
    "7": fig7_sample_ratio,
}


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


#: ``--faults`` spec keys → :class:`repro.config.FaultConfig` fields.
#: Full field names are accepted too.
_FAULT_KEYS = {
    "dropout": "dropout_rate",
    "straggler": "straggler_rate",
    "delay": "straggler_max_delay",
    "discount": "staleness_discount",
    "max-stale": "max_staleness",
    "corruption": "corruption_rate",
    "mode": "corruption_mode",
    "scale": "corruption_scale",
    "quorum": "min_quorum",
    "max-norm": "max_upload_norm",
}

#: ``--async`` spec keys → :class:`repro.config.AsyncConfig` fields.
_ASYNC_KEYS = {
    "traffic": "traffic",
    "rate": "arrival_rate",
    "trace": "trace_offsets",
    "compute": "compute_mean",
    "network": "network_mean",
    "k": "buffer_size",
    "buffer": "buffer_size",
    "interval": "round_interval",
    "deadline": "round_deadline",
}


def _convert_spec_value(type_name: str, raw: str, key: str):
    """Convert one key=value spec string to a dataclass field's type."""
    if type_name == "str":
        return raw
    if type_name == "int":
        return int(raw)
    if type_name == "float":
        return float(raw)
    if type_name == "bool":
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise argparse.ArgumentTypeError(
            f"{key}={raw!r} is not a boolean (use true/false)"
        )
    if type_name == "tuple[float, ...]":
        # Colon-separated so the value survives the comma-separated
        # spec, e.g. trace=0.0:0.5:1.25.
        return tuple(float(piece) for piece in raw.split(":") if piece)
    raise argparse.ArgumentTypeError(
        f"{key!r} cannot be set from the command line"
    )  # pragma: no cover - all current fields are convertible


def _parse_spec(spec: str, cls, aliases: dict[str, str], label: str) -> dict:
    """Parse a comma-separated key=value spec into ``cls`` kwargs.

    Keys may be short aliases or full field names.  Unknown keys fail
    with a "did you mean" suggestion and the full list of valid keys —
    a typo must never silently fall through to a bare ``TypeError``.
    """
    import difflib

    fields = {f.name: f for f in dataclasses.fields(cls)}
    valid = sorted(set(aliases) | set(fields))
    kwargs: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"{label} spec entry {part!r} is not key=value"
            )
        key, _, raw = part.partition("=")
        key = key.strip()
        name = aliases.get(key, key)
        if name not in fields:
            close = difflib.get_close_matches(key, valid, n=1)
            hint = f" — did you mean {close[0]!r}?" if close else ""
            raise argparse.ArgumentTypeError(
                f"unknown {label} key {key!r}{hint} "
                f"(valid keys: {', '.join(valid)})"
            )
        try:
            kwargs[name] = _convert_spec_value(fields[name].type, raw.strip(), key)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{label} key {key!r}: cannot parse value {raw.strip()!r} "
                f"as {fields[name].type}"
            ) from None
    return kwargs


def parse_fault_spec(spec: str):
    """Parse a ``--faults`` key=value spec into a :class:`FaultConfig`."""
    from repro.config import FaultConfig

    kwargs = _parse_spec(spec, FaultConfig, _FAULT_KEYS, "fault")
    try:
        return FaultConfig(**kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_async_spec(spec: str):
    """Parse an ``--async`` key=value spec into an :class:`AsyncConfig`.

    The flag's presence opts into the asynchronous engine, so
    ``enabled`` is always forced on; an empty spec (``--async ''``)
    yields the degenerate configuration that reproduces the
    synchronous engine bit for bit.
    """
    from repro.config import AsyncConfig

    kwargs = _parse_spec(spec, AsyncConfig, _ASYNC_KEYS, "async")
    kwargs["enabled"] = True
    try:
        return AsyncConfig(**kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PIECK reproduction harness (ICDE 2024).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--dataset", default="ml-100k", choices=sorted(EXPERIMENT_SCALES))
    run.add_argument("--model", default="mf", choices=("mf", "ncf"))
    run.add_argument("--attack", default="none", choices=ATTACK_NAMES)
    run.add_argument("--defense", default="none", choices=DEFENSE_NAMES)
    run.add_argument("--rounds", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--eval-every", type=int, default=0)
    run.add_argument("--save-result", metavar="PATH", default=None)
    run.add_argument("--save-model", metavar="PATH", default=None)
    run.add_argument(
        "--faults",
        metavar="SPEC",
        type=parse_fault_spec,
        default=None,
        help="fault model as key=value pairs, e.g. "
        "'dropout=0.2,straggler=0.1,corruption=0.05,mode=nan,quorum=8,"
        "discount=0.5,max-stale=4' (applies to --async runs too) "
        f"(keys: {', '.join(sorted(_FAULT_KEYS))})",
    )
    run.add_argument(
        "--async",
        dest="async_spec",
        metavar="SPEC",
        type=parse_async_spec,
        default=None,
        help="run the event-driven asynchronous engine; key=value pairs "
        "e.g. 'traffic=poisson,rate=8,network=0.4,k=16,deadline=1.5' — "
        "composes with --faults, which holds client dropout (churn) and "
        "the staleness discount and cap "
        f"(keys: {', '.join(sorted(set(_ASYNC_KEYS)))}; an empty spec "
        "is the degenerate config that matches the synchronous engine)",
    )
    run.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help="split benign client state into N shards in anonymous shared "
        "mappings (pure throughput knob: the trajectory is bit-identical)",
    )
    run.add_argument(
        "--round-workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="compute benign rounds on N forked worker processes sharing "
        "the shard mappings (requires --shards; bit-identical)",
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        default=None,
        help="write atomic versioned checkpoints here and resume from the newest",
    )
    run.add_argument(
        "--checkpoint-every",
        type=_non_negative_int,
        default=10,
        metavar="N",
        help="rounds between checkpoints (with --checkpoint-dir; default 10)",
    )
    run.add_argument(
        "--checkpoint-keep",
        type=_positive_int,
        default=3,
        metavar="N",
        help="retain only the newest N checkpoints (default 3)",
    )
    run.add_argument(
        "--fresh",
        action="store_true",
        help="ignore an existing checkpoint and restart from round 0",
    )

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("id", choices=sorted(_TABLES, key=lambda x: int(x)))

    sweep = sub.add_parser(
        "sweep",
        help="regenerate tables on the parallel sweep orchestrator",
    )
    # No argparse choices= here: nargs="*" + choices rejects the empty
    # default on Python <= 3.11 (bpo-27227); ids are validated in
    # _command_sweep instead.
    sweep.add_argument(
        "ids",
        nargs="*",
        metavar="id",
        help=f"table ids to regenerate (default: all of "
        f"{', '.join(sorted(_TABLES, key=lambda x: int(x)))})",
    )
    sweep.add_argument(
        "--workers",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="worker processes (default: CPU count; 0/1 = sequential)",
    )
    sweep.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="content-addressed result cache (enables skip/resume)",
    )
    sweep.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=2,
        metavar="N",
        help="extra attempts per cell whose worker crashed or timed out "
        "(default 2)",
    )
    sweep.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry a pooled cell running longer than this",
    )
    sweep.add_argument(
        "--backend",
        choices=("local", "shared"),
        default="local",
        help="'local' = this process only (inline or pool); 'shared' = "
        "cooperate with other workers pointed at the same --cache-dir "
        "through lease files (requires --cache-dir)",
    )
    sweep.add_argument(
        "--owner",
        metavar="ID",
        default=None,
        help="worker identity recorded in lease files (--backend shared; "
        "default: hostname-pid)",
    )
    sweep.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="a lease not heartbeated for this long is considered "
        "abandoned and reclaimed (--backend shared; default 30)",
    )
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="list the cell grid (cached vs pending) without executing",
    )

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("id", choices=sorted(_FIGURES))
    figure.add_argument(
        "--plot",
        action="store_true",
        help="also render an ASCII plot (figures 6a, 6b and 7)",
    )

    audit = sub.add_parser(
        "audit", help="audit an attacked run against the Eq. 11 theory"
    )
    audit.add_argument("--dataset", default="ml-100k", choices=sorted(EXPERIMENT_SCALES))
    audit.add_argument("--model", default="mf", choices=("mf", "ncf"))
    audit.add_argument(
        "--attack",
        default="pieck_uea",
        choices=tuple(n for n in ATTACK_NAMES if n != "none"),
    )
    audit.add_argument("--defense", default="none", choices=DEFENSE_NAMES)
    audit.add_argument("--rounds", type=int, default=None)
    audit.add_argument("--seed", type=int, default=0)

    fsck = sub.add_parser(
        "fsck", help="verify cache/checkpoint/result file integrity"
    )
    fsck.add_argument(
        "path", help="file or directory tree to verify (e.g. a --cache-dir)"
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt files (move aside as *.quarantined) so "
        "later runs re-execute them",
    )

    sub.add_parser("list", help="list datasets, attacks, defenses, experiments")
    return parser


def _runtime_stats_table(fault_stats, async_stats) -> str | None:
    """One aligned table of fault + async runtime counters, or ``None``.

    Printed after a ``run`` whenever either subsystem did anything, so
    degraded rounds are visible on stdout, not only in the saved JSON.
    """
    groups = []
    if fault_stats.any_fault:
        groups.append(("faults", fault_stats.to_dict()))
    if async_stats.any_async:
        groups.append(("async", async_stats.to_dict()))
    if not groups:
        return None
    rows = [
        (group, name.replace("_", " "), value)
        for group, counters in groups
        for name, value in counters.items()
    ]
    name_width = max(len(name) for _, name, _ in rows)
    value_width = max(len(str(value)) for _, _, value in rows)
    lines = ["runtime counters:"]
    for group, name, value in rows:
        lines.append(f"  {group:<7} {name:<{name_width}} {value:>{value_width}}")
    return "\n".join(lines)


def _command_run(args: argparse.Namespace) -> int:
    config = experiment(
        args.dataset,
        args.model,
        attack=args.attack,
        defense=args.defense,
        seed=args.seed,
        rounds=args.rounds,
        eval_every=args.eval_every,
    )
    if args.faults is not None:
        config = dataclasses.replace(config, faults=args.faults)
    if args.async_spec is not None:
        config = dataclasses.replace(config, asynchrony=args.async_spec)
    if args.round_workers is not None and args.shards is None:
        print("--round-workers requires --shards", file=sys.stderr)
        return 2
    if args.shards is not None:
        from repro.config import ShardingConfig

        config = dataclasses.replace(
            config,
            sharding=ShardingConfig(
                num_shards=args.shards,
                round_workers=args.round_workers or 0,
            ),
        )
    sim = FederatedSimulation(config)
    print(
        f"Running {args.attack} vs {args.defense} on {args.dataset} "
        f"({args.model.upper()}-FRS, {sim.dataset.num_users} users, "
        f"{sim.dataset.num_items} items) ..."
    )
    result = sim.run(
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        checkpoint_keep=args.checkpoint_keep,
        resume=not args.fresh,
    )
    for record in result.history:
        print(
            f"  round {record.round_idx:4d}: "
            f"ER@10 = {100 * record.exposure:6.2f}%  "
            f"HR@10 = {100 * record.hit_ratio:5.2f}%"
        )
    table = _runtime_stats_table(result.fault_stats, result.async_stats)
    if table:
        print(table)
    if args.save_result:
        from repro.persistence import save_result

        save_result(result, args.save_result)
        print(f"result saved to {args.save_result}")
    if args.save_model:
        from repro.persistence import save_model

        save_model(sim.model, args.save_model)
        print(f"model checkpoint saved to {args.save_model}")
    sim.close()
    return 0


def _plot_figure(fig_id: str, table) -> str | None:
    """ASCII rendering of a regenerated figure, when one makes sense."""
    from repro.experiments.plotting import render_figure

    return render_figure(fig_id, table)


def _command_audit(args: argparse.Namespace) -> int:
    from repro.analysis.audit import poison_share_summary, theory_vs_measured

    config = experiment(
        args.dataset,
        args.model,
        attack=args.attack,
        defense=args.defense,
        seed=args.seed,
        rounds=args.rounds,
    )
    sim = FederatedSimulation(config, audit=True)
    print(
        f"Auditing {args.attack} vs {args.defense} on {args.dataset} "
        f"({args.model.upper()}-FRS) ..."
    )
    result = sim.run()
    print(
        f"final ER@10 = {100 * result.exposure:6.2f}%  "
        f"HR@10 = {100 * result.hit_ratio:5.2f}%\n"
    )
    print(f"{'item':>6} {'Eq.11 predicted':>16} {'measured':>9} {'mass share':>11}")
    for item, predicted, measured in theory_vs_measured(
        sim.audit_log, sim.dataset, config.attack.malicious_ratio
    ):
        mass = poison_share_summary(sim.audit_log, item).mean_mass_share
        print(f"{item:>6} {predicted:16.3f} {measured:9.3f} {mass:11.3f}")
    return 0


def _unknown_table_ids(ids: Sequence[str]) -> str | None:
    """Error text for unknown table ids, with a did-you-mean hint."""
    import difflib

    unknown = [table_id for table_id in ids if table_id not in _TABLES]
    if not unknown:
        return None
    valid = sorted(_TABLES, key=lambda x: int(x))
    hints = []
    for table_id in unknown:
        close = difflib.get_close_matches(table_id, valid, n=1)
        # difflib struggles with one-character ids; strip obvious
        # decorations ("table3", "t3", "#3") as a fallback.
        if not close:
            stripped = table_id.lstrip("table#t ").strip()
            if stripped in _TABLES:
                close = [stripped]
        hints.append(
            f"{table_id!r}" + (f" — did you mean {close[0]!r}?" if close else "")
        )
    return (
        f"unknown table id(s): {'; '.join(hints)} "
        f"(choose from {', '.join(valid)})"
    )


def _print_dry_run_plan(table_id: str, plan: list[dict]) -> None:
    """Render one table's cell grid: cached vs pending, no execution."""
    cached = sum(1 for entry in plan if entry["cached"])
    print(
        f"table {table_id}: {len(plan)} cell(s) — "
        f"{cached} cached, {len(plan) - cached} pending"
    )
    for entry in plan:
        state = "cached " if entry["cached"] else "pending"
        key = entry["key"][:12] if entry["key"] else "-"
        print(
            f"  [{state}] cell {entry['index']:3d}  kind={entry['kind']:<8} "
            f"dataset={entry['dataset_key']:<10} key={key}"
        )


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import (
        SharedCacheBackend,
        SweepDryRun,
        SweepRunner,
    )

    error = _unknown_table_ids(args.ids)
    if error:
        print(error, file=sys.stderr)
        raise SystemExit(2)
    ids = list(args.ids) or sorted(_TABLES, key=lambda x: int(x))
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    backend = None
    if args.backend == "shared":
        if not args.cache_dir:
            print(
                "--backend shared coordinates through the cache directory; "
                "pass --cache-dir",
                file=sys.stderr,
            )
            raise SystemExit(2)
        backend = SharedCacheBackend(owner=args.owner, lease_ttl=args.lease_ttl)
    runner = SweepRunner(
        workers=workers,
        cache_dir=args.cache_dir,
        max_retries=args.max_retries,
        cell_timeout=args.cell_timeout,
        backend=backend,
        dry_run=args.dry_run,
    )
    if args.backend == "shared":
        mode = f"shared cache, worker {backend.owner}"
    elif workers >= 2:
        mode = f"{workers} workers"
    else:
        mode = "sequential"
    cache = args.cache_dir if args.cache_dir else "disabled"
    action = "dry run" if args.dry_run else "sweep"
    print(f"{action}: tables {', '.join(ids)} ({mode}, cache: {cache})\n")
    if args.dry_run:
        total = cached = 0
        for table_id in ids:
            try:
                _TABLES[table_id](runner=runner)
            except SweepDryRun as plan:
                _print_dry_run_plan(table_id, plan.plan)
                total += len(plan.plan)
                cached += sum(1 for entry in plan.plan if entry["cached"])
            print()
        print(
            f"dry run: {total} cell(s) total — {cached} cached, "
            f"{total - cached} pending; nothing executed"
        )
        return 0
    for table_id in ids:
        print(_TABLES[table_id](runner=runner))
        print()
    stats = runner.total_stats
    line = (
        f"sweep finished: {stats.total} cells — "
        f"{stats.cache_hits} from cache, {stats.executed} executed"
    )
    if stats.peer_served:
        line += f", {stats.peer_served} served by peer workers"
    if stats.retries:
        line += f", {stats.retries} retried after worker failures"
    if stats.reclaimed:
        line += f", {stats.reclaimed} leases reclaimed from dead workers"
    if stats.quarantined:
        line += f", {stats.quarantined} corrupt entries quarantined"
    if args.cache_dir:
        line += f" (cache hit ratio {100 * stats.hit_ratio:.0f}%)"
    print(line)
    return 0


def _command_fsck(args: argparse.Namespace) -> int:
    from repro.persistence import fsck_paths

    try:
        report = fsck_paths(args.path, repair=args.repair)
    except FileNotFoundError:
        print(f"fsck: {args.path} does not exist", file=sys.stderr)
        raise SystemExit(2) from None
    print(report.summary())
    for path in report.corrupt_paths:
        print(f"  corrupt: {path}")
    return 0 if report.clean else 1


def _command_list() -> int:
    print("datasets :", ", ".join(sorted(EXPERIMENT_SCALES)))
    print("attacks  :", ", ".join(ATTACK_NAMES))
    print("defenses :", ", ".join(DEFENSE_NAMES))
    print("tables   :", ", ".join(sorted(_TABLES, key=lambda x: int(x))))
    print("figures  :", ", ".join(sorted(_FIGURES)))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "table":
        print(_TABLES[args.id]())
        return 0
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "figure":
        table = _FIGURES[args.id]()
        print(table)
        if args.plot:
            rendering = _plot_figure(args.id, table)
            if rendering is None:
                print(f"(no ASCII plot available for figure {args.id})")
            else:
                print()
                print(rendering)
        return 0
    if args.command == "audit":
        return _command_audit(args)
    if args.command == "fsck":
        return _command_fsck(args)
    if args.command == "list":
        return _command_list()
    return 1  # pragma: no cover - argparse enforces valid commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
