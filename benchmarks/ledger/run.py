"""The perf ledger: one command, seven workloads, absolute numbers.

::

    python benchmarks/ledger/run.py                     # the full ledger
    python benchmarks/ledger/run.py --smoke             # same code path, seconds
    python benchmarks/ledger/run.py --workload mf-krum --seed 3 --seconds 10 --trace 0
    python benchmarks/ledger/run.py compare BASE.json NEW.json
    python benchmarks/ledger/run.py pair --base-cmd "..." --new-cmd "..."

Every workload run is a fresh process (so ``peak_rss_mib`` is that
workload's own high-water mark) with the C allocator pinned to keep
freed memory (``ALLOCATOR_ENV``): this VM hands freed pages back to its
host within seconds, and touching them again costs ~20x a recycled
page, which made ``evaluate()`` read anywhere from 0.26 s to 2.7 s.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS, by_name  # noqa: E402

#: Everything a run writes lands here (gitignored, inside the checkout).
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "ledger")
SMOKE_SECONDS = 0.2
SCHEMA = "ledger-v1"
#: glibc malloc serves every size from the heap and never trims it, so
#: memory a run has touched once stays resident and is reused.  Read by
#: the allocator at process start, hence the re-exec in ``main``.
ALLOCATOR_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(ALLOCATOR_ENV)
    # Each workload pins its backend; the environment must not.
    env.pop("REPRO_KERNELS", None)
    env["REPRO_KERNELS_CACHE"] = os.path.join(BUILD_DIR, "repro-kernels")
    env["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")
    wanted = [os.path.join(ROOT, "src"), HERE]
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(
        wanted + [p for p in inherited if p not in wanted]
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def run_child(
    name: str, *, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    """Run one workload in a fresh process and return its record."""
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(OUT_DIR, f"record-{name}-{os.getpid()}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--record", record_path,
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ] + (["--smoke"] if smoke else [])
    try:
        subprocess.run(
            command, check=True, env=_child_env(), stdout=subprocess.DEVNULL
        )
        with open(record_path) as handle:
            return json.load(handle)
    finally:
        if os.path.exists(record_path):
            os.remove(record_path)


def run_here(args: argparse.Namespace) -> int:
    """``--workload``: run it in this process and print its result."""
    env = _child_env()
    if dict(os.environ) != env:
        # The allocator reads its settings when the process starts.
        sys.stdout.flush()
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
            env,
        )

    from runner import run_workload, write_trace

    workload = by_name(args.workload)
    if args.smoke:
        workload = workload.smoke()
    record = run_workload(
        workload,
        seed=args.seed,
        seconds=SMOKE_SECONDS if args.smoke else args.seconds,
        trace=bool(args.trace),
        scratch=env["TMPDIR"],
    )
    spans = record.pop("spans")
    if spans is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        write_trace(record, spans, os.path.join(OUT_DIR, f"trace-{workload.name}.json"))
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(record, handle)
    print_record(record)
    print(contract_line(record))
    return 0


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def print_record(record: dict) -> None:
    samples = record["samples"]
    print(
        f"[{record['workload']}] seed {record['seed']}, "
        f"{'traced' if record['trace'] else 'untraced'}: "
        f"{samples['rounds']} rounds, {samples['sections']} sections, "
        f"{samples['evals']} evals, {samples['setup']} set-ups"
        + (
            f" untraced beside {samples['traced_rounds']} rounds, "
            f"{samples['traced_evals']} evals traced; "
            if record["trace"]
            else "; "
        )
        + f"{record['failed']}/{record['attempted']} operations failed"
    )
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    declared = metrics.SIX
    for metric in declared:
        print(f"  {metric.name:<40} {_fmt(record['end_to_end'][metric.name]):>12} {metric.unit}")
    if record["round_ms_tail"]:
        pct, value = record["round_ms_tail"]
        print(f"  {'round_ms_p' + str(pct):<40} {_fmt(value):>12} ms")
    if record["per_layer"]:
        for metric in metrics.PER_LAYER:
            print(f"  {metric.name:<40} {_fmt(record['per_layer'][metric.name]):>12} {metric.unit}")
    if record["quality"]:
        print("  quality: " + ", ".join(f"{k} = {v:.4g}" for k, v in record["quality"].items()))
    print(f"  digest: {record['digest']}")
    print(f"  durations are at reference speed; this run's slowdown was {record['slowdown']:.3f}")


def contract_line(record: dict) -> str:
    """The one-line result the benchmark driver reads."""
    if record["trace"]:
        declared = metrics.TRACED
        values = record["per_layer"]
    else:
        declared = metrics.END_TO_END
        values = record["end_to_end"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                metric.name: {"value": values[metric.name], "unit": metric.unit}
                for metric in declared
            },
        }
    )


# ----------------------------------------------------------------------
# The full ledger
# ----------------------------------------------------------------------


def _machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def ledger(args: argparse.Namespace) -> int:
    """All workloads, ``--passes`` untraced passes, then one traced pass."""
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    names = [w.name for w in WORKLOADS]
    common = dict(seed=args.seed, seconds=seconds, smoke=args.smoke)

    # Users compile the native kernels once per machine: warm the .so
    # cache before the first pass so no workload's set-up pays for it.
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "from repro.kernels import resolve; resolve('native')"],
        check=True, env=_child_env(),
    )
    print(f"native kernel cache warmed in {time.perf_counter() - started:.2f} s")

    passes: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(args.passes):
        for name in names:
            record = run_child(name, trace=False, **common)
            print(f"pass {index + 1}/{args.passes} ", end="")
            print_record(record)
            passes[name].append(record)
    traced = {}
    if args.trace:
        for name in names:
            traced[name] = run_child(name, trace=True, **common)
            print("traced pass ", end="")
            print_record(traced[name])

    result = {
        "schema": SCHEMA,
        "claim": None,
        "seed": args.seed,
        "passes": args.passes,
        "run_seconds": seconds,
        "smoke": args.smoke,
        "machine": _machine(),
        "workloads": {
            name: summarise(passes[name], traced.get(name)) for name in names
        },
    }
    problems = cross_checks(result)
    print_summary(result)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    from repro.persistence import save_json_digested

    out = args.out or os.path.join(OUT_DIR, "ledger.json")
    save_json_digested(out, result, indent=1)
    print(f"wrote {os.path.relpath(out)}")
    write_benchmark_json()
    failed = problems or any(
        w["end_to_end"]["failed_ops_ratio"]["median"] for w in result["workloads"].values()
    )
    return 1 if failed else 0


def summarise(records: list[dict], traced: dict | None) -> dict:
    """One workload of a set: each end-to-end value is the median of its passes."""
    end_to_end = {}
    for metric in metrics.SIX:
        values = [record["end_to_end"][metric.name] for record in records]
        end_to_end[metric.name] = {
            "unit": metric.unit,
            "median": stats.median(values),
            "min": min(values),
            "max": max(values),
            "per_pass": values,
        }
    return {
        "end_to_end": end_to_end,
        "samples": [record["samples"] for record in records],
        "round_ms_tail": [record["round_ms_tail"] for record in records],
        "digests": [record["digest"] for record in records],
        "quality": records[-1]["quality"],
        "counters": records[-1]["counters"],
        "problems": sorted({p for record in records for p in record["problems"]}),
        "per_layer": _traced_per_layer(end_to_end, traced) if traced else None,
        "traced_problems": traced["problems"] if traced else [],
    }


def _traced_per_layer(end_to_end: dict, traced: dict) -> dict:
    """The traced pass's metrics, with the tracing overhead taken against
    the untraced passes (more samples than the traced run's own untraced
    sections) where rounds are timed."""
    per_layer = dict(traced["per_layer"])
    untraced = end_to_end["round_ms_p50"]["median"]
    if traced["traced_round_ms_p50"] and untraced:
        per_layer["trace.overhead_pct"] = (
            traced["traced_round_ms_p50"] / untraced - 1.0
        ) * 100.0
    return per_layer


def cross_checks(result: dict) -> list[str]:
    """Determinism across passes, and async == sync."""
    problems = []
    workloads = result["workloads"]
    for name, workload in workloads.items():
        if len(set(workload["digests"])) > 1:
            problems.append(f"{name}: model digest differs between passes")
        problems += [f"{name}: {p}" for p in workload["problems"]]
        problems += [f"{name} (traced): {p}" for p in workload["traced_problems"]]
    sync, asynchronous = workloads["mf-plain"], workloads["mf-plain-async"]
    if sync["digests"][0] != asynchronous["digests"][0]:
        problems.append("mf-plain-async model digest differs from mf-plain")
    return problems


def print_summary(result: dict) -> None:
    print(f"\n== ledger: seed {result['seed']}, {result['passes']} passes "
          f"x {result['run_seconds']} s, claim: none (a baseline) ==")
    print("median of the passes (max - min as a share of it)")
    declared = metrics.SIX
    print(f"{'workload':<16}" + "".join(f"{m.name + ' ' + m.unit:>22}" for m in declared))
    for name, workload in result["workloads"].items():
        row = f"{name:<16}"
        for metric in declared:
            cell = workload["end_to_end"][metric.name]
            spread = stats.spread(cell["per_pass"])
            row += f"{_fmt(cell['median']) + f' ({spread:.0%})':>22}"
        print(row)


def write_benchmark_json() -> None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    text = json.dumps(metrics.benchmark_json(), indent=2) + "\n"
    if os.path.exists(path):
        with open(path) as handle:
            if handle.read() == text:
                return
    with open(path, "w") as handle:
        handle.write(text)
    print("wrote BENCHMARK.json")


# ----------------------------------------------------------------------
# compare / pair
# ----------------------------------------------------------------------


def compare(base_path: str, new_path: str) -> int:
    """One row per (workload, end-to-end metric); non-zero on a regression."""
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    failed = False
    print(f"{'workload':<16}{'metric':<18}{'base':>11}{'new':>11}{'new/base':>10}{'bound':>7}  verdict")
    for name in (w.name for w in WORKLOADS if w.name in base["workloads"]):
        base_workload = base["workloads"][name]
        new_workload = new["workloads"].get(name)
        if new_workload is None:
            print(f"{name:<16}missing from {new_path}")
            failed = True
            continue
        for metric in metrics.SIX:
            old = base_workload["end_to_end"][metric.name]
            cur = new_workload["end_to_end"][metric.name]
            if metric.name == "failed_ops_ratio":
                rose = cur["median"] > old["median"]
                outcome, ratio = ("regressed" if rose else "ok"), 1.0
            elif not old["median"] and not cur["median"]:
                continue  # not measured on this workload
            else:
                outcome, ratio = stats.verdict(
                    old["per_pass"], cur["per_pass"], metric.bound, metric.better
                )
            failed = failed or outcome == "regressed"
            print(
                f"{name:<16}{metric.name:<18}{_fmt(old['median']):>11}"
                f"{_fmt(cur['median']):>11}{ratio:>10.3f}{metric.bound:>7.2f}  {outcome}"
            )
        if base_workload["digests"][:1] != new_workload["digests"][:1]:
            print(f"{name:<16}model digest changed")
    return 1 if failed else 0


def pair(base_cmd: str, new_cmd: str, pairs: int) -> int:
    """Interleaved paired wall-clock runs, alternating which side goes first."""
    walls: dict[str, list[float]] = {"base": [], "new": []}
    commands = {"base": shlex.split(base_cmd), "new": shlex.split(new_cmd)}
    wins = 0
    for index in range(pairs):
        order = ("base", "new") if index % 2 == 0 else ("new", "base")
        for side in order:
            started = time.perf_counter()
            subprocess.run(commands[side], check=True, stdout=subprocess.DEVNULL)
            walls[side].append(time.perf_counter() - started)
        wins += walls["new"][-1] < walls["base"][-1]
        print(f"pair {index + 1}: base {walls['base'][-1]:.3f} s, new {walls['new'][-1]:.3f} s")
    for side, values in walls.items():
        print(
            f"{side}: median {stats.median(values):.3f} s, quartiles "
            f"{stats.percentile(values, 25):.3f}..{stats.percentile(values, 75):.3f} s, n = {len(values)}"
        )
    base_iqr = stats.percentile(walls["base"], 75) - stats.percentile(walls["base"], 25)
    gain = stats.median(walls["base"]) - stats.median(walls["new"])
    claimable = wins >= 0.9 * pairs and gain > base_iqr
    print(
        f"new won {wins}/{pairs} pairs; medians differ by {gain:.3f} s against a base "
        f"inter-quartile spread of {base_iqr:.3f} s: a gain {'may' if claimable else 'may not'} be claimed"
    )
    return 0


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new)
    if argv[:1] == ["pair"]:
        parser = argparse.ArgumentParser(prog="run.py pair")
        parser.add_argument("--base-cmd", required=True)
        parser.add_argument("--new-cmd", required=True)
        parser.add_argument("--pairs", type=int, default=10)
        args = parser.parse_args(argv[1:])
        return pair(args.base_cmd, args.new_cmd, args.pairs)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 1 runs under the tracer")
    parser.add_argument("--no-trace", action="store_true",
                        help="full ledger: skip the traced pass")
    parser.add_argument("--passes", type=int, default=None,
                        help="untraced passes of the full ledger (3; 1 with --smoke)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="where the full ledger writes its JSON")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload:
        return run_here(args)
    args.trace = not args.no_trace
    if args.passes is None:
        args.passes = 1 if args.smoke else 3
    return ledger(args)


def _child_pids() -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, parent = handle.read().rsplit(")", 1)[1].split()[:2]
        except OSError:  # ended while we were looking
            continue
        if int(parent) == os.getpid() and state != "Z":
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this one started, and wait until each has ended.

    The workloads join their own workers (executor, sweep pool).  What
    outlives them is ``multiprocessing``'s resource tracker, started by the
    first shared-memory segment: it ends only once this process has closed
    its pipe, normally by exiting, so it is still running when the caller
    sees us gone.  Anything else still alive is a leak and is killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)  # EOF on its pipe is what ends it
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None
    for pid in _child_pids():
        print(f"run.py: killing leftover child process {pid}", file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:  # already gone, or reaped by its owner
            pass


if __name__ == "__main__":
    try:
        code = main()
    finally:
        sys.stdout.flush()
        stop_children()
    sys.exit(code)
