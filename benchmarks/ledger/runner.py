"""Runs one workload in the calling process and returns its record.

Protocol of a simulation workload: timed set-up (repeated, median) ->
untimed warm-up (``WARMUP_ROUNDS`` rounds, plus one ``evaluate()``
where evaluation is measured) -> measured sections for the time budget,
driving ``FederatedSimulation.run_round`` / ``evaluate`` exactly as
``analysis.cost.measure_round_cost`` does -> correctness check.  With
``trace`` every third section runs untraced and the others under the
tracer, so every traced run reports its own tracing overhead.

Every duration is reported *at reference speed* (see
:class:`SpeedReference`): divided by how much slower than nominal a
fixed reference kernel ran right beside it.  The raw wall-clock is the
reported value times ``machine.slowdown``.

The program only ever receives the generated dataset and config; the
seed goes nowhere else.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import tempfile
import threading
import time
from contextlib import nullcontext
from typing import Callable

import numpy as np

from metrics import EVAL_SPANS, TRACED
from stats import median, percentile, tail_percentile
from tracer import (
    SIM_HOOKS,
    SWEEP_HOOKS,
    Tracer,
    round_self_times,
    span_self_times,
)
from workloads import (
    WARMUP_ROUNDS,
    SimWorkload,
    SweepWorkload,
    build_config,
    build_dataset,
)

__all__ = ["SpeedReference", "run_workload", "write_trace", "per_op"]

#: In a traced run, sections 1, 4, 7, ... run without the hooks, to
#: measure the tracing overhead against: the middle one of every three,
#: so a cost that drifts as training proceeds weighs on both sides alike.
TRACE_PERIOD = 3
#: Fewest timed evaluate() calls where evaluation is measured post-loop.
MIN_POST_EVALS = 3
#: Tolerance of "a round's self times sum to its run_round span".
SELF_SUM_TOLERANCE = 0.01
#: tracer.round_id of work that belongs to no measured operation.
_NO_OP = -1
_FINITE_BLOCK_ROWS = 100_000
_SETUP_SPANS = {"state.build": "state.build_s", "shards.build": "shards.build_s"}


class SpeedReference:
    """A fixed kernel whose duration says how fast the machine is *now*.

    On the 2-core VM this ledger was built on, the same round reads 23 ms
    or 40 ms depending on the minute: the CPU itself slows (process CPU
    time swings with the wall clock) in regimes that last from seconds
    to whole runs, so no statistic *within* a run removes it and ten
    runs spread by 15-30 %.  A change that costs 10 % cannot be seen
    through that.  The reference is a few milliseconds of the same kind
    of work the program does (RNG draws, gather, sort, a sigmoid,
    ``np.add.at``, an interpreter loop; no BLAS call, whose thread pool
    has moods of its own), run right beside every timed
    operation; dividing a duration by ``reference now / NOMINAL_S``
    cancels the regime and leaves a few percent of spread.  The
    benchmark owns the reference, so no change to the program moves it.

    A round is scaled by the two samples on either side of it (over 15
    runs of 120-350 rounds that was as steady as, or steadier than, one
    factor per section).  The cold sweep is one ~7 s wait on two busy
    pool workers, and samples taken before and after it say little about
    the seconds in between (scaling by them took its spread from 0.25 to
    0.31), so :meth:`timed_beside` samples from a thread while the
    calling thread waits.
    """

    #: The reference's duration on the reference box in its fast regime;
    #: reported durations read as wall-clock on that box at that speed.
    NOMINAL_S = 0.0017
    #: Rows the kernel works on: small enough (~128 KiB) to stay in cache,
    #: so the reference runs the same after a round that flushed it.
    ROWS = 1000
    REPEATS = 20
    #: Seconds between the samples :meth:`timed_beside` takes (~3 % of
    #: one core goes to them).
    BESIDE_INTERVAL_S = 0.05

    def __init__(self) -> None:
        rng = np.random.default_rng(20240930)
        self._rng = rng
        self._table = rng.random((self.ROWS, 16))
        self._idx = rng.integers(0, self.ROWS, size=self.ROWS)
        self.samples: list[float] = []

    def sample(self) -> float:
        started = time.perf_counter()
        table, idx, rows = self._table, self._idx, self.ROWS
        for _ in range(self.REPEATS):
            self._rng.integers(0, 6000, size=rows)
            gathered = table[idx]
            np.sort(idx[: rows // 2])
            1.0 / (1.0 + np.exp(-gathered[: 2 * rows // 5]))
            np.add.at(table, idx[: 3 * rows // 20], 0.0)
        acc = 0
        for i in range(6000):
            acc += i * i
        self.samples.append(time.perf_counter() - started)
        return self.samples[-1]

    def slowdown(self, first: int = 0) -> float:
        """How much slower than nominal the samples from ``first`` on ran."""
        return median(self.samples[first:]) / self.NOMINAL_S

    def timed(
        self, operation: Callable[[], object], brackets: int = 3
    ) -> tuple[float, float]:
        """``(duration at reference speed, slowdown)`` of one operation,
        with ``brackets`` reference samples on each side of it."""
        first = len(self.samples)
        for _ in range(brackets):
            self.sample()
        started = time.perf_counter()
        operation()
        raw = time.perf_counter() - started
        for _ in range(brackets):
            self.sample()
        slowdown = self.slowdown(first)
        return raw / slowdown, slowdown

    def timed_beside(self, operation: Callable[[], object]) -> tuple[float, float]:
        """As :meth:`timed`, for an operation the calling thread spends
        waiting on other processes: a thread samples every
        ``BESIDE_INTERVAL_S`` while it runs.  The slowdown is the lower
        quartile of those samples over nominal — a sample that had to
        share a core with a busy worker reads long, and the quartile
        scaled sixteen cold sweeps to a spread of 0.10 where the median
        left 0.12."""
        first = len(self.samples)
        done = threading.Event()

        def sample_until_done() -> None:
            while not done.wait(self.BESIDE_INTERVAL_S):
                self.sample()

        sampler = threading.Thread(target=sample_until_done)
        sampler.start()
        started = time.perf_counter()
        try:
            operation()
            raw = time.perf_counter() - started
        finally:
            done.set()
            sampler.join()
        # Too short an operation to have a sample beside it gets one after.
        beside = self.samples[first:] or [self.sample()]
        del self.samples[first:]  # another scale than the bracketed samples
        slowdown = percentile(beside, 25) / self.NOMINAL_S
        return raw / slowdown, slowdown


def _self_time_metrics() -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """``*.self_ms`` metric -> the span names it sums, per round and per eval."""
    per_round: dict[str, list[str]] = {}
    per_eval: dict[str, list[str]] = {}
    for span in dict.fromkeys(hook.span for hook in SIM_HOOKS):
        if span in _SETUP_SPANS:
            continue
        table = per_eval if span in EVAL_SPANS else per_round
        table.setdefault(span + ".self_ms", []).append(span)
    return per_round, per_eval


ROUND_SELF_MS, EVAL_SELF_MS = _self_time_metrics()


def _zero_per_layer() -> dict[str, float]:
    return {metric.name: 0.0 for metric in TRACED}


def _peak_rss_mib() -> float:
    """This process's high-water mark plus its largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _kernel_load_times(scratch: str, reference: SpeedReference) -> dict[str, float]:
    """Cold (compile) and warm (dlopen) cost of the native backend."""
    from repro.kernels import load_native_backend

    fresh = tempfile.mkdtemp(prefix="kernels-", dir=scratch)
    configured = os.environ.get("REPRO_KERNELS_CACHE")
    os.environ["REPRO_KERNELS_CACHE"] = fresh
    try:
        cold, _ = reference.timed(load_native_backend)
    finally:
        if configured is None:
            del os.environ["REPRO_KERNELS_CACHE"]
        else:
            os.environ["REPRO_KERNELS_CACHE"] = configured
        shutil.rmtree(fresh, ignore_errors=True)
    load, _ = reference.timed(load_native_backend)
    return {"kernels.compile_s": max(cold - load, 0.0), "kernels.load_s": load}


def _model_digest(sim) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(sim.model.item_embeddings).tobytes())
    for param in sim.model.interaction_params():
        digest.update(np.ascontiguousarray(param).tobytes())
    return digest.hexdigest()


def _all_finite(sim) -> bool:
    if not np.isfinite(sim.model.item_embeddings).all():
        return False
    users = sim.dataset.num_users
    for lo in range(0, users, _FINITE_BLOCK_ROWS):
        block = sim.state.embedding_block(lo, min(lo + _FINITE_BLOCK_ROWS, users))
        if not np.isfinite(block).all():
            return False
    return True


def _fits(deadline: float, last: float) -> bool:
    """Whether one more section like the last ends nearer the deadline."""
    return time.perf_counter() + last / 2 < deadline


def _async_events(sim) -> int:
    stats = sim.async_stats()
    return stats.waves_dispatched + stats.uploads_arrived


class _SimRun:
    """The mutable state of one simulation-workload run."""

    def __init__(
        self,
        workload: SimWorkload,
        seed: int,
        tracer: Tracer | None,
        reference: SpeedReference,
    ):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.reference = reference
        self.sim = None
        self.round_idx = 0
        self.eval_count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Durations at reference speed, kept apart by whether the
        # tracer's hooks were in.
        self.round_s: dict[bool, list[float]] = {False: [], True: []}
        self.section_s: dict[bool, list[float]] = {False: [], True: []}
        self.eval_s: dict[bool, list[float]] = {False: [], True: []}
        #: Slowdown beside each traced operation, to scale its spans by.
        self.op_slowdown: dict[int, float] = {}
        self.traced_rounds: list[int] = []
        self.traced_evals: list[int] = []
        self.first_eval_s = 0.0
        #: Dispatch + arrival events the async engine processed while traced.
        self.traced_events = 0
        self.digest = ""
        self.quality: dict[str, float] = {}

    # -- set-up ----------------------------------------------------------

    def setup(self) -> dict[str, float]:
        from repro.federated.simulation import FederatedSimulation

        workload = self.workload
        config = build_config(workload, self.seed)
        dataset_s, init_s, slowdowns = [], [], []
        marks: dict[str, float] = {}

        def build() -> None:
            started = time.perf_counter()
            dataset = build_dataset(workload.dataset, self.seed)
            marks["dataset"] = time.perf_counter() - started
            self.sim = FederatedSimulation(config, dataset=dataset)

        for _ in range(workload.setup_repeats):
            if self.sim is not None:
                self.sim.close()
                self.sim = None
                gc.collect()
            total, slowdown = self.reference.timed(build)
            dataset_s.append(marks["dataset"] / slowdown)
            init_s.append(total - dataset_s[-1])
            slowdowns.append(slowdown)
        return {
            "setup_s": median([a + b for a, b in zip(dataset_s, init_s)]),
            "datasets.build_s": median(dataset_s),
            "simulation.init_s": median(init_s),
            "slowdown": median(slowdowns),
        }

    # -- operations ------------------------------------------------------

    def _mark(self, op_id: int) -> None:
        if self.tracer is not None:
            self.tracer.round_id = op_id

    def untimed_round(self) -> None:
        self._mark(_NO_OP)
        self.sim.run_round(self.round_idx)
        self.round_idx += 1

    def _raw_round(self) -> float | None:
        self._mark(self.round_idx)
        self.attempted += 1
        started = time.perf_counter()
        try:
            self.sim.run_round(self.round_idx)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            self.failed += 1
            self.problems.append(f"round {self.round_idx} raised {exc!r}")
            return None
        elapsed = time.perf_counter() - started
        self.round_idx += 1
        return elapsed

    def timed_eval(self, traced: bool) -> float | None:
        # Evaluations get ids below _NO_OP so they never collide with rounds.
        op_id = _NO_OP - 1 - self.eval_count
        self.eval_count += 1
        self._mark(op_id)
        self.attempted += 1
        try:
            elapsed, slowdown = self.reference.timed(self.sim.evaluate, brackets=2)
        except Exception as exc:  # noqa: BLE001
            self.failed += 1
            self.problems.append(f"evaluate raised {exc!r}")
            return None
        self.eval_s[traced].append(elapsed)
        if traced:
            self.traced_evals.append(op_id)
            self.op_slowdown[op_id] = slowdown
        return elapsed

    def section(self, traced: bool) -> bool:
        """One measured section; the reference runs between the rounds and
        each round is scaled by the samples on either side of it."""
        workload, reference = self.workload, self.reference
        wall = 0.0
        before = reference.sample()
        for _ in range(workload.section_rounds):
            op_id = self.round_idx
            elapsed = self._raw_round()
            if elapsed is None:
                return False
            after = reference.sample()
            slowdown = (before + after) / 2 / reference.NOMINAL_S
            before = after
            self.round_s[traced].append(elapsed / slowdown)
            wall += elapsed / slowdown
            if traced:
                self.traced_rounds.append(op_id)
                self.op_slowdown[op_id] = slowdown
        for _ in range(workload.section_evals):
            elapsed = self.timed_eval(traced)
            if elapsed is None:
                return False
            wall += elapsed
        self.section_s[traced].append(wall)
        if self.round_idx == workload.check_round:
            self.check_model()
        return True

    # -- correctness -----------------------------------------------------

    def check_model(self) -> None:
        """Digest and quality at ``check_round``, the same on any machine."""
        workload = self.workload
        self._mark(_NO_OP)
        self.digest = _model_digest(self.sim)
        if not workload.eval_num_negatives:
            return
        exposure, hit_ratio = self.sim.evaluate()
        self.quality = {"er_at_10": float(exposure), "hr_at_10": float(hit_ratio)}
        if workload.hr_floor is not None and hit_ratio < workload.hr_floor:
            self.problems.append(
                f"HR@10 {hit_ratio:.3f} below the floor {workload.hr_floor}"
            )
        if workload.er_floor is not None and exposure < workload.er_floor:
            self.problems.append(
                f"ER@10 {exposure:.3f} below the floor {workload.er_floor} "
                f"(the attack should succeed here)"
            )
        if workload.er_ceiling is not None and exposure > workload.er_ceiling:
            self.problems.append(
                f"ER@10 {exposure:.3f} above the ceiling {workload.er_ceiling} "
                f"(the defense should hold here)"
            )

    def counters(self) -> dict[str, int]:
        sim = self.sim
        engine = sim._batch_engine
        counters = {
            "stacked_rounds": engine.stacked_rounds,
            "object_malicious_rounds": engine.object_malicious_rounds,
            "kernel_fallback_rounds": engine.kernel_fallback_rounds,
            "materialized_rounds": sim.server.materialized_rounds,
            "rejected_uploads": sim.server.rejected_uploads,
            "kernel_fallback_calls": sim.kernel_backend.fallback_calls,
            "executor_respawns": sim.executor.respawns if sim.executor else 0,
        }
        for name, value in counters.items():
            if value:
                self.problems.append(f"silent degradation: {name} = {value}")
        if sim.executor is not None and engine.process_rounds != self.round_idx:
            self.problems.append(
                f"process_rounds {engine.process_rounds} != rounds {self.round_idx}"
            )
        counters["process_rounds"] = engine.process_rounds
        return counters


def _run_sim(
    workload: SimWorkload, seed: int, seconds: float, trace: bool, scratch: str
) -> dict:
    tracer = Tracer() if trace else None
    reference = SpeedReference()
    per_layer = _zero_per_layer()
    if trace and workload.kernels == "native":
        per_layer.update(_kernel_load_times(scratch, reference))

    run = _SimRun(workload, seed, tracer, reference)
    setup_hooks = [h for h in SIM_HOOKS if h.span in _SETUP_SPANS]
    with tracer.install(setup_hooks) if trace else nullcontext():
        setup = run.setup()
    sim = run.sim
    try:
        if trace:
            from repro.federated.shards import list_repro_segments

            per_layer["shards.segment_mib"] = sum(
                record["bytes"]
                for record in list_repro_segments()
                if record["pid"] == os.getpid()
            ) / 2**20

        for _ in range(WARMUP_ROUNDS):
            run.untimed_round()
        if workload.measures_evals:
            run.first_eval_s, _ = reference.timed(sim.evaluate, brackets=2)

        started = time.perf_counter()
        rounds_end = started + seconds * (1.0 - workload.post_eval_share)
        evals_end = started + seconds
        # Sections until the budget is used; a traced run leaves every
        # third one untraced.
        alive = True
        done = 0
        while alive:
            traced = trace and done % TRACE_PERIOD != 1
            began = time.perf_counter()
            with tracer.install(SIM_HOOKS) if traced else nullcontext():
                events_before = _async_events(sim)
                alive = run.section(traced)
                if traced:
                    run.traced_events += _async_events(sim) - events_before
            done += 1
            if done >= (2 if trace else 1) and not _fits(
                rounds_end, time.perf_counter() - began
            ):
                break
        if alive and workload.post_eval_share:
            with tracer.install(SIM_HOOKS) if trace else nullcontext():
                while alive and (
                    len(run.eval_s[trace]) < MIN_POST_EVALS
                    or time.perf_counter() < evals_end
                ):
                    alive = run.timed_eval(trace) is not None
        # A machine too slow to reach the check round inside the budget
        # tops up untimed, so digest and quality never depend on speed.
        while alive and run.round_idx < workload.check_round:
            run.untimed_round()
            if run.round_idx == workload.check_round:
                run.check_model()
        if not _all_finite(sim):
            run.problems.append("non-finite embeddings")
        counters = run.counters()
    finally:
        sim.close()

    if trace:
        per_layer.update(_sim_per_layer(run, tracer, setup))
        per_layer["engine.fallback_rounds"] = float(
            counters["stacked_rounds"]
            + counters["object_malicious_rounds"]
            + counters["kernel_fallback_rounds"]
        )
        per_layer["server.rejected_uploads"] = float(counters["rejected_uploads"])
        per_layer["kernels.fallback_calls"] = float(counters["kernel_fallback_calls"])
        per_layer["executor.respawns"] = float(counters["executor_respawns"])
    round_s = run.round_s[False]
    tail = tail_percentile(round_s)
    return {
        "end_to_end": {
            "setup_s": setup["setup_s"],
            "run_wall_s": median(run.section_s[False]),
            "round_ms_p50": median(round_s) * 1e3,
            "peak_rss_mib": _peak_rss_mib(),
            "eval_s_p50": median(run.eval_s[False]),
        },
        "samples": {
            "setup": workload.setup_repeats,
            "sections": len(run.section_s[False]),
            "rounds": len(round_s),
            "evals": len(run.eval_s[False]),
            "traced_rounds": len(run.round_s[True]),
            "traced_evals": len(run.eval_s[True]),
        },
        "traced_round_ms_p50": median(run.round_s[True]) * 1e3,
        "round_ms_tail": [tail[0], tail[1] * 1e3] if tail else None,
        "slowdown": reference.slowdown(),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "digest": run.digest,
        "quality": run.quality,
        "counters": counters,
        "per_layer": per_layer if trace else None,
        "spans": tracer.finished() if trace else None,
    }


def per_op(op_ids, table, names, slowdown=None) -> float:
    """Median over operations of a layer's per-operation total.

    A layer absent from an operation counts as zero there, so a layer
    that runs every other round reads half its cost, not all of it.
    ``slowdown`` maps an operation to the factor its times are divided by.
    """
    return median(
        [
            sum(table[op].get(n, 0) for n in names) / (slowdown[op] if slowdown else 1)
            for op in op_ids
        ]
    )


def _sim_per_layer(run: _SimRun, tracer: Tracer, setup: dict) -> dict[str, float]:
    """Per-layer metrics of a traced simulation run."""
    workload = run.workload
    spans = tracer.finished()
    self_s, calls, work = round_self_times(spans)
    out: dict[str, float] = {
        "datasets.build_s": setup["datasets.build_s"],
        "simulation.init_s": setup["simulation.init_s"],
        "eval.first_call_s": run.first_eval_s,
        "trace.spans": float(len(spans)),
        "machine.slowdown": run.reference.slowdown(),
    }
    for name, key in _SETUP_SPANS.items():
        out[key] = (
            median([s.duration for s in spans if s.name == name]) / setup["slowdown"]
        )

    rounds = run.traced_rounds
    for metric, names in ROUND_SELF_MS.items():
        out[metric] = per_op(rounds, self_s, names, run.op_slowdown) * 1e3
    for metric, names in EVAL_SELF_MS.items():
        out[metric] = per_op(run.traced_evals, self_s, names, run.op_slowdown) * 1e3
    out["sampling.rows"] = per_op(rounds, work, ["sampling.local_batches"])
    out["rng.spawn_batch.streams"] = per_op(rounds, work, ["rng.spawn_batch"])
    out["attacks.uploads"] = per_op(rounds, work, ["attacks.compute_uploads"])
    out["defenses.robust.groups"] = per_op(rounds, work, ["defenses.robust"])
    out["defenses.regularization.calls"] = per_op(
        rounds, calls, ["defenses.regularization"]
    )
    out["async.events"] = run.traced_events / max(len(rounds), 1)
    out["kernels.calls"] = per_op(
        rounds, calls, [h.span for h in SIM_HOOKS if h.span.startswith("kernels.")]
    )

    traced, untraced = run.round_s[True], run.round_s[False]
    tail = tail_percentile(traced, candidates=(90, 75))
    out["simulation.round_ms_p90"] = (tail[1] if tail else max(traced, default=0.0)) * 1e3
    if traced:
        out["simulation.rounds_per_s"] = len(traced) / sum(traced)
        out["simulation.clients_per_s"] = (
            out["simulation.rounds_per_s"] * workload.users_per_round
        )
    if untraced and traced:
        out["trace.overhead_pct"] = (median(traced) / median(untraced) - 1.0) * 100.0
    evals = run.eval_s[True]
    if evals:
        out["eval_s_p50"] = median(evals)
        out["eval.users_per_s"] = workload.dataset.users / median(evals)

    # Nothing double-counted, nothing lost: the self times of a round
    # must add up to its root span.
    roots = {s.round_id: s.duration for s in spans if s.name == "simulation.run_round"}
    for op in rounds:
        total = sum(self_s[op].values())
        if abs(total - roots[op]) > SELF_SUM_TOLERANCE * roots[op]:
            run.problems.append(
                f"round {op}: self times sum to {total:.6f}s, span is {roots[op]:.6f}s"
            )
            break
    return out


# ----------------------------------------------------------------------
# The sweep workload
# ----------------------------------------------------------------------


def _sweep_cells(workload: SweepWorkload, seed: int):
    from repro.experiments.presets import experiment
    from repro.experiments.sweep import CellSpec

    return [
        CellSpec(
            config=experiment(
                workload.dataset,
                workload.model_kind,
                attack=attack,
                defense=defense,
                rounds=workload.rounds,
                seed=seed,
            )
        )
        for attack in workload.attacks
        for defense in workload.defenses
    ]


def _run_sweep(
    workload: SweepWorkload, seed: int, seconds: float, trace: bool, scratch: str
) -> dict:
    from repro.datasets.loaders import load_dataset
    from repro.experiments.sweep import SweepRunner

    problems: list[str] = []
    reference = SpeedReference()
    cache_root = tempfile.mkdtemp(prefix="sweep-", dir=scratch)
    built: dict = {}

    def fresh_runner(workers: int):
        return SweepRunner(
            workers=workers, cache_dir=tempfile.mkdtemp(dir=cache_root)
        )

    def build() -> None:
        built["cells"] = _sweep_cells(workload, seed)
        built["dataset"] = load_dataset(built["cells"][0].config.dataset)
        built["runner"] = fresh_runner(workload.workers)

    setup_s = [reference.timed(build)[0] for _ in range(workload.setup_repeats)]
    cells, runner = built["cells"], built["runner"]
    datasets = {"default": built["dataset"]}
    num_cells = len(cells)

    attempted = failed = 0
    cold_s: list[float] = []
    warm_s: dict[bool, list[float]] = {False: [], True: []}
    table = None

    def check_stats(stats, *, cold: bool) -> None:
        expect = (0, num_cells) if cold else (num_cells, 0)
        if (stats.cache_hits, stats.executed) != expect:
            problems.append(
                f"{'cold' if cold else 'warm'} run: {stats.cache_hits} hits, "
                f"{stats.executed} executed of {num_cells}"
            )
        for name in ("failed", "retries", "quarantined"):
            if getattr(stats, name):
                problems.append(f"silent degradation: sweep {name} = {getattr(stats, name)}")

    def warm_runs(runner, traced: bool) -> None:
        """Warm re-runs as one bracketed batch (each is ~2 ms)."""
        raw: list[float] = []

        def batch() -> None:
            for _ in range(workload.warm_runs):
                started = time.perf_counter()
                again = runner.run(cells, datasets)
                raw.append(time.perf_counter() - started)
                if again != table:
                    problems.append("warm sweep results differ from the cold run")
                    break

        _, slowdown = reference.timed(batch)
        warm_s[traced] += [elapsed / slowdown for elapsed in raw]

    def one_pass(runner, traced: bool) -> bool:
        """One cold run on the runner's empty cache, then warm re-runs."""
        nonlocal attempted, failed, table
        attempted += num_cells
        results: list = []

        def cold_run() -> None:
            results.extend(runner.run(cells, datasets))

        try:
            # Through the pool the calling thread waits; inline (the
            # traced pass) it does the work itself.
            if traced:
                elapsed, _ = reference.timed(cold_run, brackets=5)
            else:
                elapsed, _ = reference.timed_beside(cold_run)
        except Exception as exc:  # noqa: BLE001 - failed cells are a result
            failed += num_cells
            problems.append(f"cold sweep raised {exc!r}")
            return False
        cold_s.append(elapsed)
        check_stats(runner.last_stats, cold=True)
        if table is not None and results != table:
            problems.append("cold sweep results differ between passes")
        table = results
        warm_runs(runner, traced)
        check_stats(runner.last_stats, cold=False)
        return True

    per_layer = _zero_per_layer()
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    try:
        if trace:
            # Pool children are other processes: the traced pass runs inline.
            runner = fresh_runner(0)
            with tracer.install(SWEEP_HOOKS):
                one_pass(runner, True)
            warm_runs(runner, False)
            per_layer.update(
                _sweep_per_layer(tracer, runner, cold_s, warm_s, num_cells)
            )
            per_layer["machine.slowdown"] = reference.slowdown()
        else:
            while True:
                started = time.perf_counter()
                if not one_pass(runner, False):
                    break
                if len(cold_s) >= workload.min_cold_runs and not _fits(
                    deadline, time.perf_counter() - started
                ):
                    break
                runner = fresh_runner(workload.workers)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    quality: dict[str, float] = {}
    digest = ""
    if table is not None:
        digest = hashlib.sha256(json.dumps(table).encode()).hexdigest()
        if not np.isfinite(np.asarray(table, dtype=float)).all():
            problems.append("non-finite sweep cells")
        by_cell = {
            (
                cell.config.attack.name if cell.config.attack else "none",
                cell.config.defense.name,
            ): values[0]
            for cell, values in zip(cells, table)
        }
        undefended = by_cell.get(("pieck_uea", "none"))
        defended = by_cell.get(("pieck_uea", "regularization"))
        if undefended and defended:
            quality = {
                "er_undefended_pct": undefended[0],
                "er_regularization_pct": defended[0],
            }
            gap = undefended[0] - defended[0]
            if workload.er_gap_floor is not None and gap < workload.er_gap_floor:
                problems.append(
                    f"ER@10 gap {gap:.1f} points below the floor {workload.er_gap_floor}"
                )

    cold = median(cold_s)
    return {
        "end_to_end": {
            "setup_s": median(setup_s),
            "run_wall_s": cold,
            "round_ms_p50": cold * 1e3 / (num_cells * workload.rounds),
            "peak_rss_mib": _peak_rss_mib(),
            "eval_s_p50": 0.0,
        },
        "samples": {
            "setup": workload.setup_repeats,
            "sections": len(cold_s),
            "rounds": 0,
            "evals": 0,
            "warm_runs": len(warm_s[False]),
            "traced_rounds": 0,
            "traced_evals": 0,
        },
        "traced_round_ms_p50": 0.0,
        "round_ms_tail": None,
        "slowdown": reference.slowdown(),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digest,
        "quality": quality,
        "counters": {},
        "per_layer": per_layer if trace else None,
        "spans": tracer.finished() if trace else None,
    }


def _sweep_per_layer(tracer, runner, cold_s, warm_s, num_cells) -> dict[str, float]:
    """Per-layer metrics of the traced inline sweep pass.

    Span times are scaled like the run they belong to: by the cold run's
    bracket, or by the warm batch's.
    """
    spans = tracer.finished()
    # The runner marks nothing: a span belongs to the SweepRunner.run
    # root it descends from.  Run 0 is the cold one.
    runs = [i for i, s in enumerate(spans) if s.name == "sweep.run"]
    root: dict[int, int] = {}
    per_run: dict[int, dict[str, float]] = {i: {} for i in runs}
    cold_calls: dict[str, list[float]] = {}
    for index, (span, own) in enumerate(zip(spans, span_self_times(spans))):
        root[index] = index if span.parent < 0 else root[span.parent]
        bucket = per_run[root[index]]
        bucket[span.name] = bucket.get(span.name, 0.0) + own
        if root[index] == runs[0]:
            cold_calls.setdefault(span.name, []).append(own)
    warm_roots = runs[1:]
    cold = cold_s[0] if cold_s else 0.0
    cold_scale = cold / spans[runs[0]].duration
    warm_raw = sum(spans[i].duration for i in warm_roots)
    warm_scale = sum(warm_s[True]) / warm_raw if warm_raw else 1.0

    def per_warm(name: str) -> float:
        values = [per_run[i].get(name, 0.0) for i in warm_roots]
        return median(values) * warm_scale * 1e3

    def per_cold_call(name: str) -> float:
        return median(cold_calls.get(name, [])) * cold_scale * 1e3

    executed = sum(cold_calls.get("sweep.execute_cell", [])) * cold_scale
    entry_sizes = [
        os.path.getsize(os.path.join(runner.cache_dir, name))
        for name in os.listdir(runner.cache_dir)
        if name.endswith(".json")
    ]
    out = {
        "sweep.cell_cache_key.self_ms": per_warm("sweep.cell_cache_key"),
        "sweep.dataset_fingerprint.self_ms": per_warm("sweep.dataset_fingerprint"),
        "persistence.load_entry.self_ms": per_warm("persistence.load_entry"),
        "sweep.execute_cell.self_ms": per_cold_call("sweep.execute_cell"),
        "persistence.save_entry.self_ms": per_cold_call("persistence.save_entry"),
        "sweep.backend_overhead_s": cold - executed,
        "sweep.cells_per_s": num_cells / cold if cold else 0.0,
        "sweep.warm_pass_ms_p50": median(warm_s[False]) * 1e3,
        "sweep.cache_hits": float(runner.last_stats.cache_hits),
        "sweep.executed": float(runner.total_stats.executed),
        "persistence.entry_bytes": float(np.mean(entry_sizes)) if entry_sizes else 0.0,
        "trace.spans": float(len(spans)),
    }
    if warm_s[True] and warm_s[False]:
        out["trace.overhead_pct"] = (
            median(warm_s[True]) / median(warm_s[False]) - 1.0
        ) * 100.0
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_workload(
    workload: SimWorkload | SweepWorkload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: str,
) -> dict:
    """Run one workload here; returns its record (``spans`` kept as objects)."""
    os.makedirs(scratch, exist_ok=True)
    if isinstance(workload, SweepWorkload):
        record = _run_sweep(workload, seed, seconds, trace, scratch)
    else:
        record = _run_sim(workload, seed, seconds, trace, scratch)
    if record["problems"]:
        # A failed correctness check fails every operation of the run.
        record["failed"] = record["attempted"]
    record["correct"] = not record["problems"]
    record["end_to_end"]["failed_ops_ratio"] = record["failed"] / max(
        record["attempted"], 1
    )
    record.update(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        trace=trace,
    )
    return record


def write_trace(record: dict, spans: list, path: str) -> None:
    """Write a traced run's spans, compactly, as ``trace-<workload>.json``.

    Span times are raw ``perf_counter`` readings, not scaled.
    """
    names = sorted({span.name for span in spans})
    index = {name: i for i, name in enumerate(names)}
    payload = {
        "workload": record["workload"],
        "seed": record["seed"],
        "columns": ["name", "start", "end", "parent", "round_id", "count"],
        "names": names,
        "rows": [
            [index[s.name], s.start, s.end, s.parent, s.round_id, s.count]
            for s in spans
        ],
        "per_layer": record["per_layer"],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)
