"""Span tracer that lives entirely outside the program.

The ledger measures every layer *from outside*: it rebinds the public
callables of each module (class attributes, or the names a module
imported into its own namespace) to thin wrappers that record a span
``(name, start, end, parent, round_id, count)`` in memory, and restores
every original on exit.  Nothing under ``src/`` knows it is traced;
in-program phase timers are a later change.

A layer's *self time* is its span's duration minus its direct children,
so the self times of one round sum to the round's root span exactly —
glue that no hook names shows up as the self time of the enclosing
``run_round`` span, never hidden.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "Hook",
    "Span",
    "Tracer",
    "span_self_times",
    "round_self_times",
    "SIM_HOOKS",
    "SWEEP_HOOKS",
]


@dataclass(frozen=True)
class Hook:
    """One callable to wrap: ``module[.owner].attr`` recorded as ``span``.

    ``owner`` names a class in ``module``; ``None`` wraps the module-level
    binding itself (which is how a function imported by name into another
    module's namespace is intercepted at its call site).  ``count`` maps
    the call's return value to a work count stored on the span.
    """

    module: str
    owner: str | None
    attr: str
    span: str
    count: Callable[[Any], int] | None = None


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    round_id: int
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of wrapped callables in the calling process."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        #: Identifier shared by the spans of one operation (a round, an
        #: evaluation, a sweep run); the runner sets it before each call.
        self.round_id = -1
        self._stack: list[int] = []
        # Wrappers inherited by forked workers must not record there:
        # their spans belong to another process and would never be read.
        self._pid = os.getpid()

    # -- recording ------------------------------------------------------

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, count: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = Span(name, start, end, parent, self.round_id, count)

    def _wrap(self, original: Callable, hook: Hook) -> Callable:
        name, counter = hook.span, hook.count

        if inspect.isgeneratorfunction(original):
            # The body of a generator runs inside next(), not inside the
            # call: record one span per resumption.
            def traced_generator(*args, **kwargs):
                inner = original(*args, **kwargs)
                if os.getpid() != self._pid:
                    yield from inner
                    return
                while True:
                    index = self._open()
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index, name, start, 0)
                    yield item

            traced_generator.__wrapped__ = original
            return traced_generator

        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return original(*args, **kwargs)
            index = self._open()
            start = time.perf_counter()
            count = 0
            try:
                result = original(*args, **kwargs)
                if counter is not None:
                    count = int(counter(result))
                return result
            finally:
                self._close(index, name, start, count)

        traced.__wrapped__ = original
        return traced

    # -- installation ---------------------------------------------------

    @contextmanager
    def install(self, hooks: Iterable[Hook]) -> Iterator["Tracer"]:
        """Wrap every hook; restore every original on exit, even on error."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for hook in hooks:
                owner = importlib.import_module(hook.module)
                if hook.owner is not None:
                    owner = getattr(owner, hook.owner)
                raw = vars(owner)[hook.attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, hook))
                else:
                    wrapped = self._wrap(raw, hook)
                saved.append((owner, hook.attr, raw))
                setattr(owner, hook.attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- reading --------------------------------------------------------

    def finished(self) -> list[Span]:
        """Every span, once all have closed (``parent`` indexes this list)."""
        if self._stack:
            raise RuntimeError("spans are still open")
        return self.spans  # type: ignore[return-value]


def span_self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def round_self_times(
    spans: list[Span],
) -> tuple[dict[int, dict[str, float]], dict[int, dict[str, int]], dict[int, dict[str, int]]]:
    """Per ``round_id``: self seconds, call counts and work counts by span name."""
    self_s: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    calls: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    work: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span, own in zip(spans, span_self_times(spans)):
        self_s[span.round_id][span.name] += own
        calls[span.round_id][span.name] += 1
        work[span.round_id][span.name] += span.count
    return self_s, calls, work


def _uploads(result) -> int:
    return sum(1 for upload in result if upload is not None)


_STATE = "repro.federated.state"
_SHARDS = "repro.federated.shards"
_ENGINE = "repro.federated.batch_engine"
_ROBUST = "repro.defenses.robust"
_SIM = "repro.federated.simulation"
_SWEEP = "repro.experiments.sweep"

#: The hooks of a simulation workload.  Each span name is also the stem
#: of the per-layer metric it feeds (``<span>.self_ms``).
SIM_HOOKS: tuple[Hook, ...] = (
    Hook(_SIM, "FederatedSimulation", "run_round", "simulation.run_round"),
    Hook(_SIM, "FederatedSimulation", "evaluate", "eval.evaluate"),
    Hook(_SIM, None, "exposure_counts_at_k", "eval.ranking"),
    Hook(_SIM, None, "hit_counts_at_k", "eval.ranking"),
    Hook("repro.models.base", "RecommenderModel", "score_blocks", "models.score_blocks"),
    Hook(_ENGINE, "BatchClientEngine", "run_round", "engine.run_round"),
    Hook(_ENGINE, "BatchClientEngine", "compute_round_batch", "engine.run_round"),
    Hook(_ENGINE, None, "sample_local_batches", "sampling.local_batches",
         count=lambda result: len(result[0])),
    Hook(_ENGINE, None, "spawn_batch", "rng.spawn_batch", count=len),
    Hook(_ENGINE, "ProcessRoundExecutor", "compute", "executor.compute"),
    Hook("repro.models.base", "RecommenderModel", "batch_local_step", "models.local_step"),
    Hook("repro.models.base", "RecommenderModel", "batch_local_step_bpr", "models.local_step"),
    Hook("repro.models.ncf", "NCFModel", "batch_local_step", "models.local_step"),
    Hook(_STATE, "ClientStateStore", "build", "state.build"),
    Hook(_STATE, "ClientStateStore", "gather_rows", "state.gather_scatter"),
    Hook(_STATE, "ClientStateStore", "scatter_rows", "state.gather_scatter"),
    Hook(_STATE, "ClientStateStore", "positives_list", "state.gather_scatter"),
    Hook(_STATE, "ClientStateStore", "train_mask_block", "state.train_mask"),
    Hook(_SHARDS, "ShardedStateStore", "build", "shards.build"),
    Hook(_SHARDS, "ShardedStateStore", "gather_rows", "state.gather_scatter"),
    Hook(_SHARDS, "ShardedStateStore", "scatter_rows", "state.gather_scatter"),
    Hook(_SHARDS, "ShardedStateStore", "positives_list", "state.gather_scatter"),
    Hook(_SHARDS, "ShardedStateStore", "train_mask_block", "state.train_mask"),
    Hook("repro.attacks.cohort", "MaliciousCohort", "compute_uploads",
         "attacks.compute_uploads", count=_uploads),
    Hook("repro.attacks.mining", "CohortMiner", "observe", "attacks.mining"),
    Hook("repro.federated.server", "Server", "sample_users", "server.sample_users"),
    Hook("repro.federated.server", "Server", "apply_batch", "server.apply_batch"),
    Hook(_ROBUST, "NormBoundFilter", "filter_batch", "defenses.robust"),
    Hook(_ROBUST, "MedianAggregator", "aggregate_stacks", "defenses.robust", count=len),
    Hook(_ROBUST, "TrimmedMeanAggregator", "aggregate_stacks", "defenses.robust", count=len),
    Hook(_ROBUST, "KrumAggregator", "aggregate_stacks", "defenses.robust", count=len),
    Hook(_ROBUST, "MultiKrumAggregator", "aggregate_stacks", "defenses.robust", count=len),
    Hook(_ROBUST, "BulyanAggregator", "aggregate_stacks", "defenses.robust", count=len),
    Hook("repro.defenses.regularization", "ClientRegularizer", "observe", "defenses.regularization"),
    Hook("repro.defenses.regularization", "ClientRegularizer", "item_grad_terms", "defenses.regularization"),
    Hook("repro.defenses.regularization", "ClientRegularizer", "user_grad_term", "defenses.regularization"),
    Hook("repro.defenses.regularization", "ClientRegularizer", "param_grad_terms", "defenses.regularization"),
    Hook("repro.kernels", None, "scatter_sum", "kernels.scatter_sum"),
    Hook("repro.kernels", None, "segment_div", "kernels.segment_div"),
    Hook("repro.kernels", None, "segment_sums", "kernels.segment_sums"),
    Hook("repro.kernels", None, "pairwise_sq_dists", "kernels.pairwise_sq_dists"),
    Hook("repro.kernels", None, "stacked_step_gradients", "kernels.stacked_step_gradients"),
    Hook("repro.kernels", None, "row_diff_norms", "kernels.row_diff_norms"),
    Hook("repro.federated.async_engine", "AsyncFederationEngine", "run_round", "async.run_round"),
)

#: The hooks of the traced (inline) sweep pass.  The simulation hooks
#: stay off there, so ``sweep.execute_cell`` is a whole cell.
SWEEP_HOOKS: tuple[Hook, ...] = (
    Hook(_SWEEP, None, "cell_cache_key", "sweep.cell_cache_key"),
    Hook(_SWEEP, None, "dataset_fingerprint", "sweep.dataset_fingerprint"),
    Hook(_SWEEP, None, "execute_cell", "sweep.execute_cell"),
    Hook(_SWEEP, None, "save_sweep_entry", "persistence.save_entry"),
    Hook(_SWEEP, None, "read_sweep_entry", "persistence.load_entry"),
    Hook(_SWEEP, "SweepRunner", "run", "sweep.run"),
)
