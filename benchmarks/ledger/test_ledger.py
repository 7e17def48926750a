"""Unit tests of the ledger harness (collected by tier-1, a few seconds)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import types

import pytest

import metrics
import run as ledger_run
import runner
import stats
from tracer import Hook, Span, Tracer, round_self_times, span_self_times
from workloads import WORKLOADS, SweepWorkload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected", [(1000, 99), (250, 95), (100, 90), (40, 75), (39, None)]
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(samples, expected):
    tail = stats.tail_percentile(list(range(samples)))
    assert (tail[0] if tail else None) == expected


def test_verdicts():
    steady = [1.00, 1.01, 0.99]
    assert stats.verdict(steady, [1.02, 1.03, 1.01], 0.10)[0] == "ok"
    assert stats.verdict(steady, [1.20, 1.21, 1.19], 0.10)[0] == "regressed"
    # Spread wider than the bound: the medians cannot tell ...
    assert stats.verdict(steady, [0.9, 1.0, 1.3], 0.10)[0] == "unresolved"
    assert stats.verdict([0.8, 1.0, 1.2], [1.3, 1.31, 1.32], 0.10)[0] == "unresolved"
    # ... unless every new pass beats every base pass.
    assert stats.verdict([1.0, 1.2, 1.5], [0.7, 0.8, 0.99], 0.10)[0] == "ok"
    # Direction: for a higher-is-better metric a drop is the regression.
    assert stats.verdict(steady, [0.80, 0.81, 0.79], 0.10, "higher")[0] == "regressed"
    assert stats.verdict(steady, [1.20, 1.21, 1.19], 0.10, "higher")[0] == "ok"
    assert stats.verdict(steady, [1.20, 1.21, 1.19], 0.10)[1] == pytest.approx(1.2)


# ----------------------------------------------------------------------
# Self time and per-round medians
# ----------------------------------------------------------------------


def _spans():
    #   round 0: root 0..10 with children a 1..4 (grandchild b 2..3) and a 5..7
    #   round 1: root 20..26 with no children
    return [
        Span("root", 0.0, 10.0, -1, 0, 0),
        Span("a", 1.0, 4.0, 0, 0, 2),
        Span("b", 2.0, 3.0, 1, 0, 0),
        Span("a", 5.0, 7.0, 0, 0, 3),
        Span("root", 20.0, 26.0, -1, 1, 0),
    ]


def test_self_time_is_span_minus_direct_children():
    spans = _spans()
    # root: 10 - (3 + 2); first a: 3 - 1 (b is a's child, not root's).
    assert span_self_times(spans) == [5.0, 2.0, 1.0, 2.0, 6.0]
    self_s, calls, work = round_self_times(spans)
    assert self_s[0] == {"root": 5.0, "a": 4.0, "b": 1.0}
    assert sum(self_s[0].values()) == spans[0].duration
    assert calls[0]["a"] == 2 and work[0]["a"] == 5


def test_layer_absent_from_a_round_counts_as_zero():
    self_s, _, _ = round_self_times(_spans())
    # "a" costs 4 s in round 0 and does not run in round 1.
    assert runner.per_op([0, 1], self_s, ["a"]) == 2.0
    assert runner.per_op([0, 1, 1], self_s, ["a"]) == 0.0
    assert runner.per_op([0, 1], self_s, ["a", "b"]) == 2.5


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


@pytest.fixture()
def fake_module():
    module = types.ModuleType("ledger_fake_module")

    def helper(x):
        return [x, x]

    class Engine:
        def step(self, x):
            return module.helper(x)

        @classmethod
        def build(cls):
            return cls()

        def blocks(self, n):
            for i in range(n):
                yield module.helper(i)

        def boom(self):
            raise KeyError("boom")

    module.helper = helper
    module.Engine = Engine
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


FAKE_HOOKS = (
    Hook("ledger_fake_module", "Engine", "step", "engine.step"),
    Hook("ledger_fake_module", "Engine", "build", "engine.build"),
    Hook("ledger_fake_module", "Engine", "blocks", "engine.blocks"),
    Hook("ledger_fake_module", "Engine", "boom", "engine.boom"),
    Hook("ledger_fake_module", None, "helper", "helper", count=len),
)


def _originals(module):
    return [vars(module.Engine)[n] for n in ("step", "build", "blocks", "boom")] + [
        module.helper
    ]


def test_tracer_wraps_class_and_module_hooks_and_restores_them(fake_module):
    before = _originals(fake_module)
    tracer = Tracer()
    with tracer.install(FAKE_HOOKS):
        assert all(a is not b for a, b in zip(before, _originals(fake_module)))
        engine = fake_module.Engine.build()
        tracer.round_id = 7
        assert engine.step(3) == [3, 3]
        assert list(engine.blocks(2)) == [[0, 0], [1, 1]]
    after = _originals(fake_module)
    assert all(a is b for a, b in zip(before, after))

    spans = tracer.finished()
    names = [span.name for span in spans]
    assert names.count("engine.build") == 1
    step = names.index("engine.step")
    helper = spans[step + 1]
    assert (helper.name, helper.parent, helper.round_id, helper.count) == ("helper", step, 7, 2)
    # A generator is timed per resumption (two items + the exhausting call),
    # and the work inside each resumption nests under it.
    resumptions = [i for i, n in enumerate(names) if n == "engine.blocks"]
    assert len(resumptions) == 3
    assert [s.parent for s in spans if s.name == "helper"][1:] == resumptions[:2]
    # Calls made after exit are not recorded.
    fake_module.Engine().step(1)
    assert len(tracer.finished()) == len(spans)


def test_tracer_restores_on_exception_and_closes_the_span(fake_module):
    before = _originals(fake_module)
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.install(FAKE_HOOKS):
            fake_module.Engine().boom()
    assert all(a is b for a, b in zip(before, _originals(fake_module)))
    assert [span.name for span in tracer.finished()] == ["engine.boom"]


def test_tracer_restores_when_a_hook_cannot_be_installed(fake_module):
    before = _originals(fake_module)
    hooks = FAKE_HOOKS + (Hook("ledger_fake_module", "Engine", "missing", "x"),)
    with pytest.raises(KeyError):
        with Tracer().install(hooks):
            pass  # pragma: no cover
    assert all(a is b for a, b in zip(before, _originals(fake_module)))


def test_every_traced_self_time_is_a_declared_metric():
    declared = {metric.name for metric in metrics.PER_LAYER}
    assert set(runner.ROUND_SELF_MS) | set(runner.EVAL_SELF_MS) <= declared


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _ledger(tmp_path, name, round_ms, failed=0.0):
    def cell(values):
        return {"median": stats.median(values), "per_pass": values}

    workload = {
        "end_to_end": {
            "setup_s": cell([1.0, 1.0, 1.0]),
            "run_wall_s": cell([2.0, 2.0, 2.0]),
            "round_ms_p50": cell(round_ms),
            "peak_rss_mib": cell([100.0, 100.0, 100.0]),
            "eval_s_p50": cell([0.0, 0.0, 0.0]),
            "failed_ops_ratio": cell([failed] * 3),
        },
        "digests": ["d"],
    }
    path = tmp_path / name
    path.write_text(json.dumps({"workloads": {"mf-plain": workload}}))
    return str(path)


def test_compare_exit_code(tmp_path, capsys):
    base = _ledger(tmp_path, "base.json", [10.0, 10.1, 9.9])
    assert ledger_run.compare(base, _ledger(tmp_path, "same.json", [10.2, 10.0, 10.1])) == 0
    assert ledger_run.compare(base, _ledger(tmp_path, "slow.json", [13.0, 13.1, 12.9])) == 1
    assert "regressed" in capsys.readouterr().out
    assert ledger_run.compare(base, _ledger(tmp_path, "noisy.json", [9.0, 10.0, 14.0])) == 0
    assert "unresolved" in capsys.readouterr().out
    failing = _ledger(tmp_path, "failing.json", [10.0, 10.1, 9.9], failed=0.5)
    assert ledger_run.compare(base, failing) == 1


# ----------------------------------------------------------------------
# BENCHMARK.json and the workloads
# ----------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_is_generated_from_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    assert committed == metrics.benchmark_json()


def test_benchmark_json_meets_the_contract():
    spec = metrics.benchmark_json()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert _UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in spec["end_to_end"])
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


@pytest.fixture(scope="module")
def kernel_cache(tmp_path_factory):
    # Keep the native .so the smoke runs compile inside pytest's tmp tree.
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_KERNELS_CACHE", str(tmp_path_factory.mktemp("kernels")))
    yield
    patch.undo()


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_smoke_run_emits_every_metric_and_passes_its_check(workload, tmp_path, kernel_cache):
    record = runner.run_workload(
        workload.smoke(), seed=0, seconds=0.05, trace=True, scratch=str(tmp_path)
    )
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    end_to_end = {m.name for m in metrics.SIX}
    assert set(record["end_to_end"]) == end_to_end
    assert all(record["end_to_end"][m.name] > 0 for m in metrics.END_TO_END)
    per_layer = {m.name for m in metrics.TRACED}
    assert set(record["per_layer"]) == per_layer
    assert record["per_layer"]["trace.spans"] > 0
    # The contract line carries exactly the declared metrics.
    line = json.loads(ledger_run.contract_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == per_layer
    record["trace"] = False
    assert set(json.loads(ledger_run.contract_line(record))["metrics"]) == {
        m.name for m in metrics.END_TO_END
    }


def test_smoke_sweep_through_the_pool(tmp_path):
    workload = next(w for w in WORKLOADS if isinstance(w, SweepWorkload)).smoke()
    record = runner.run_workload(
        workload, seed=0, seconds=0.05, trace=False, scratch=str(tmp_path)
    )
    assert record["problems"] == [] and record["attempted"] == workload.num_cells
    assert record["samples"]["warm_runs"] == workload.warm_runs


def _session_pids(session: int) -> list[int]:
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session and fields[0] != "Z":
            alive.append(int(entry))
    return alive


@pytest.mark.parametrize("name", ["sharded-1m", "sweep-table4"])
def test_benchmark_run_leaves_no_process_behind(name, tmp_path):
    # Shared memory starts multiprocessing's resource tracker, which ends
    # only once its parent has: run.py has to stop it before it exits.
    # Waited on, not read through a pipe the tracker would hold open.
    with open(tmp_path / "out", "w") as out:
        child = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "benchmarks", "ledger", "run.py"),
             "--workload", name, "--smoke", "--trace", "0"],
            stdout=out, start_new_session=True,
        )
        assert child.wait() == 0
    assert _session_pids(child.pid) == []
    line = json.loads((tmp_path / "out").read_text().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
