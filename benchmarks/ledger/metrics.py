"""Every metric the ledger reports, as data.

``END_TO_END`` are what a user of the system sees; each carries the
bound by which its median may worsen before a change counts as a
regression.  ``PER_LAYER`` are measured in the traced pass, one group
per module of ``src/repro``; each names the end-to-end metric it should
move and the workloads where its layer does most and least work, which
is written down *before* anything is optimised against it.

``BENCHMARK.json`` at the repository root is generated from these
tables and ``workloads.WORKLOADS`` (``benchmark_json``); a test fails
when they drift.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import WORKLOADS

__all__ = [
    "RUN_SECONDS",
    "Metric",
    "END_TO_END",
    "LEDGER_ONLY",
    "PER_LAYER",
    "SIX",
    "TRACED",
    "EVAL_SPANS",
    "benchmark_json",
]

#: Seconds one run measures (``--seconds``), the same on every commit.
RUN_SECONDS = 10

LOWER, HIGHER = "lower", "higher"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    #: What is measured, and over how many samples.
    definition: str
    #: Which end-to-end metric this should move (per-layer metrics).
    moves: str = ""
    #: "most work on -> little on": where a change to the layer should
    #: show and where the prediction is no change.
    on: str = "all"
    #: Relative worsening of the median that counts as a regression.
    bound: float | None = None
    #: Why a bound is wider than the issue's first proposal, if it is.
    bound_note: str = ""


# The four end-to-end metrics every workload emits.  They are the
# ``end_to_end`` list of BENCHMARK.json, which requires each metric on
# every workload and never zero.
END_TO_END: tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", LOWER, "end_to_end",
        "dataset build + FederatedSimulation construction (kernel resolve, "
        "store/segment build, executor fork); for the sweep: dataset load + "
        "cell specs + SweepRunner construction. Median of the set-up repeats "
        "of a run (3, sweep 25).",
        bound=0.25,
        bound_note="0.15 proposed; the contract asks set-up for the largest "
        "bound, and over ten seeds the quartiles of sharded-1m's 2 s set-up "
        "(segment creation, fork) sit 9-20 % apart",
    ),
    Metric(
        "run_wall_s", "s", LOWER, "end_to_end",
        "wall of one measured section: section_rounds run_round calls plus "
        "the in-loop evaluate() calls (ncf-run: 20 rounds + 1 eval); for "
        "sweep-table4 the cold 12-cell SweepRunner.run. Median over the "
        "sections completed inside the time budget (n stated).",
        bound=0.25,
        bound_note="0.10 proposed; over ten seeds the quartiles of the six "
        "simulation workloads sit 2-5 % apart after speed scaling (ncf-run's "
        "sections 7.5 %) in a quiet hour and up to 10 % in a slow one, and "
        "the cold sweep (two pool workers on two cores) read 4 %, 6 %, 6.5 % "
        "and 13 % in four ten-seed sets; the bound has to be three times the "
        "spread",
    ),
    Metric(
        "round_ms_p50", "ms", LOWER, "end_to_end",
        "median duration of a measured run_round call (n stated); for "
        "sweep-table4, whose rounds run inside pool workers, the cold-run "
        "wall divided by cells x rounds.",
        bound=0.25,
        bound_note="as run_wall_s",
    ),
    Metric(
        "peak_rss_mib", "MiB", LOWER, "end_to_end",
        "ru_maxrss of the workload process plus ru_maxrss of its largest "
        "reaped child (round worker or pool worker).",
        bound=0.10,
        bound_note="0.03 proposed; steady to 0.1 % on six workloads, but on "
        "mf-krum about one seed in eight peaks 12 % higher (multi-Krum group "
        "sizes follow the dataset), which puts its quartiles 3 % apart",
    ),
)

# End-to-end in the ledger's own reports and in ``compare``, but not in
# BENCHMARK.json's ``end_to_end``: ``eval_s_p50`` exists on two
# workloads only, and ``failed_ops_ratio`` is 0 on a healthy run (the
# contract carries it as ``failed`` / ``attempted``).
LEDGER_ONLY: tuple[Metric, ...] = (
    Metric(
        "eval_s_p50", "s", LOWER, "eval",
        "median duration of a measured evaluate() call (n stated); 0 where "
        "evaluation is not measured.",
        moves="run_wall_s",
        on="mf-plain, ncf-run -> others (not measured)",
        bound=0.25,
    ),
    Metric(
        "failed_ops_ratio", "ratio", LOWER, "end_to_end",
        "failed / attempted operations (rounds, evals, sweep cells); a "
        "failed correctness check fails every operation of the run.",
        bound=0.0,
    ),
)


def _layer(layer: str, moves: str, on: str, *rows: tuple[str, str, str, str]):
    return tuple(
        Metric(name, unit, better, layer, definition, moves=moves, on=on)
        for name, unit, better, definition in rows
    )


_PER_ROUND = "per-round self time, median over traced rounds"

PER_LAYER: tuple[Metric, ...] = (
    *_layer(
        "simulation", "setup_s; round_ms_p50", "all",
        ("simulation.init_s", "s", LOWER, "FederatedSimulation(...) construction, median of the set-up repeats"),
        ("simulation.run_round.self_ms", "ms", LOWER, _PER_ROUND + " (glue no hook names)"),
        ("simulation.round_ms_p90", "ms", LOWER, "highest percentile of run_round with >= 10 samples beyond it, p90 at most"),
        ("simulation.rounds_per_s", "1/s", HIGHER, "traced rounds / their total wall"),
        ("simulation.clients_per_s", "1/s", HIGHER, "rounds_per_s x users_per_round"),
    ),
    *_layer(
        "engine", "round_ms_p50; failed_ops_ratio", "mf-plain -> sweep-table4",
        ("engine.run_round.self_ms", "ms", LOWER, _PER_ROUND + " (id split, assemble/splice glue)"),
        ("engine.fallback_rounds", "count", LOWER, "stacked + object-malicious + kernel-fallback rounds of the run"),
    ),
    *_layer(
        "sampling", "round_ms_p50", "mf-plain -> mf-regdef, ncf-run",
        ("sampling.local_batches.self_ms", "ms", LOWER, _PER_ROUND),
        ("sampling.rows", "count", LOWER, "sampled (item, label) rows per round, median"),
    ),
    *_layer(
        "rng", "round_ms_p50", "mf-plain -> mf-krum",
        ("rng.spawn_batch.self_ms", "ms", LOWER, _PER_ROUND),
        ("rng.spawn_batch.streams", "count", LOWER, "generators spawned per round, median"),
    ),
    *_layer(
        "models", "round_ms_p50; eval_s_p50", "ncf-run -> mf-plain",
        ("models.local_step.self_ms", "ms", LOWER, _PER_ROUND),
        ("models.score_blocks.self_ms", "ms", LOWER, "per-evaluate self time, median over traced evals"),
    ),
    *_layer(
        "state", "setup_s; round_ms_p50; eval_s_p50", "mf-plain -> sharded-1m (other store)",
        ("state.build_s", "s", LOWER, "ClientStateStore.build, median of the set-up repeats"),
        ("state.gather_scatter.self_ms", "ms", LOWER, _PER_ROUND + " (gather_rows + scatter_rows + positives_list)"),
        ("state.train_mask.self_ms", "ms", LOWER, "per-evaluate self time of train_mask_block, median"),
    ),
    *_layer(
        "attacks", "round_ms_p50", "ncf-run, mf-krum -> mf-plain (0), sharded-1m",
        ("attacks.compute_uploads.self_ms", "ms", LOWER, _PER_ROUND),
        ("attacks.mining.self_ms", "ms", LOWER, _PER_ROUND + " (CohortMiner.observe)"),
        ("attacks.uploads", "count", LOWER, "malicious uploads per round, median"),
    ),
    *_layer(
        "server", "round_ms_p50; failed_ops_ratio", "mf-krum -> mf-plain (fused scatter)",
        ("server.sample_users.self_ms", "ms", LOWER, _PER_ROUND),
        ("server.apply_batch.self_ms", "ms", LOWER, _PER_ROUND),
        ("server.rejected_uploads", "count", LOWER, "uploads rejected by the sanity gate over the run"),
    ),
    *_layer(
        "defenses.robust", "round_ms_p50", "mf-krum -> mf-plain (0); norm_bound filter on sharded-1m",
        ("defenses.robust.self_ms", "ms", LOWER, _PER_ROUND + " (aggregate_stacks + filter_batch)"),
        ("defenses.robust.groups", "count", LOWER, "item groups aggregated per round, median"),
    ),
    *_layer(
        "defenses.regularization", "round_ms_p50; peak_rss_mib", "mf-regdef -> every other simulation workload (0)",
        ("defenses.regularization.self_ms", "ms", LOWER, _PER_ROUND + " (observe + item/user/param grad terms)"),
        ("defenses.regularization.calls", "count", LOWER, "regularizer hook calls per round, median"),
    ),
    *_layer(
        "kernels", "round_ms_p50; setup_s; failed_ops_ratio", "native: mf-krum -> numpy reference: mf-plain",
        ("kernels.scatter_sum.self_ms", "ms", LOWER, _PER_ROUND),
        ("kernels.segment_div.self_ms", "ms", LOWER, _PER_ROUND),
        ("kernels.segment_sums.self_ms", "ms", LOWER, _PER_ROUND),
        ("kernels.pairwise_sq_dists.self_ms", "ms", LOWER, _PER_ROUND),
        ("kernels.stacked_step_gradients.self_ms", "ms", LOWER, _PER_ROUND),
        ("kernels.row_diff_norms.self_ms", "ms", LOWER, _PER_ROUND),
        ("kernels.calls", "count", LOWER, "dispatched kernel calls per round, median"),
        ("kernels.fallback_calls", "count", LOWER, "calls the backend served through its numpy fallback, over the run"),
        ("kernels.compile_s", "s", LOWER, "load_native_backend() into a fresh REPRO_KERNELS_CACHE minus kernels.load_s; 0 on the numpy workloads"),
        ("kernels.load_s", "s", LOWER, "load_native_backend() with the .so cached (hash + dlopen); 0 on the numpy workloads"),
    ),
    *_layer(
        "eval", "eval_s_p50; run_wall_s", "ncf-run -> mf-krum, sharded-1m",
        ("eval.evaluate.self_ms", "ms", LOWER, "per-evaluate self time of evaluate() itself (count accumulation glue), median"),
        ("eval.ranking.self_ms", "ms", LOWER, "per-evaluate self time of exposure_counts_at_k + hit_counts_at_k, median"),
        ("eval.users_per_s", "1/s", HIGHER, "benign users / median traced evaluate() duration"),
        ("eval.first_call_s", "s", LOWER, "the untimed warm-up evaluate(): first-touch page faults included"),
    ),
    *_layer(
        "async", "round_ms_p50", "mf-plain-async only -> mf-plain (0)",
        ("async.run_round.self_ms", "ms", LOWER, _PER_ROUND + " (event-loop glue: queue, dispatch, arrivals, close)"),
        ("async.events", "count", LOWER, "dispatch + arrival events per traced round, from AsyncStats"),
    ),
    *_layer(
        "shards", "setup_s; peak_rss_mib; round_ms_p50", "sharded-1m only",
        ("shards.build_s", "s", LOWER, "ShardedStateStore.build, median of the set-up repeats"),
        ("shards.segment_mib", "MiB", LOWER, "bytes of the shared-memory segments this process created"),
        ("executor.compute.self_ms", "ms", LOWER, _PER_ROUND + " (parent-side wait + reassembly; worker compute shows here as wait)"),
        ("executor.respawns", "count", LOWER, "round workers respawned over the run"),
    ),
    *_layer(
        "sweep", "run_wall_s", "sweep-table4 only",
        ("sweep.cell_cache_key.self_ms", "ms", LOWER, "self time per warm run (12 keys), median"),
        ("sweep.dataset_fingerprint.self_ms", "ms", LOWER, "self time per warm run (1 fingerprint), median"),
        ("sweep.execute_cell.self_ms", "ms", LOWER, "self time per cell of the traced inline cold run, median"),
        ("sweep.backend_overhead_s", "s", LOWER, "traced inline cold wall - sum of execute_cell"),
        ("sweep.cells_per_s", "1/s", HIGHER, "cells / traced inline cold wall"),
        ("sweep.warm_pass_ms_p50", "ms", LOWER, "median wall of a warm 12-cell run; ~2 ms, too short to gate"),
        ("sweep.cache_hits", "count", HIGHER, "cache hits of the last warm run"),
        ("sweep.executed", "count", LOWER, "cells executed by the cold run"),
    ),
    *_layer(
        "persistence", "run_wall_s", "sweep-table4 only",
        ("persistence.save_entry.self_ms", "ms", LOWER, "self time per entry written in the cold run, median"),
        ("persistence.load_entry.self_ms", "ms", LOWER, "self time per warm run (12 verified reads), median"),
        ("persistence.entry_bytes", "bytes", LOWER, "mean size of a cache entry file"),
    ),
    *_layer(
        "datasets", "setup_s", "mf-* (Python per-user generation) -> sharded-1m (vectorised)",
        ("datasets.build_s", "s", LOWER, "dataset generation, median of the set-up repeats"),
    ),
    *_layer(
        "machine", "every duration (each is divided by it)", "all",
        ("machine.slowdown", "ratio", LOWER, "median reference-kernel duration over the run / SpeedReference.NOMINAL_S; raw wall-clock = reported duration x this"),
    ),
    *_layer(
        "trace", "", "all",
        ("trace.overhead_pct", "%", LOWER, "traced / untraced round_ms_p50 - 1 in the same run (sweep: warm-pass medians)"),
        ("trace.spans", "count", LOWER, "spans recorded by the run"),
    ),
)

#: The issue's six end-to-end metrics: what the full ledger and
#: ``compare`` report per workload.
SIX: tuple[Metric, ...] = END_TO_END + LEDGER_ONLY

#: What a ``--trace 1`` run emits: BENCHMARK.json's ``per_layer`` list.
TRACED: tuple[Metric, ...] = (LEDGER_ONLY[0],) + PER_LAYER

#: Spans that belong to an evaluate() call, not to a round.
EVAL_SPANS = (
    "eval.evaluate", "eval.ranking", "models.score_blocks", "state.train_mask"
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why} for workload in WORKLOADS
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in TRACED
        ],
    }
