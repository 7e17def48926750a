"""Machine-readable benchmark artifacts shared by every bench script.

Each benchmark run leaves two artifacts under ``benchmarks/results/``:
the human-readable table/report text (via the ``archive`` fixture) and
a ``BENCH_<name>.json`` emitted through :func:`emit_bench_json` — the
machine-readable record (wall time, throughput numbers, the measured
configuration) that lets the performance trajectory be tracked across
PRs by diffing or plotting the JSON files instead of parsing report
text.

Coverage is automatic: the autouse ``bench_json`` fixture in
``benchmarks/conftest.py`` times every bench test and emits its JSON on
teardown; benches with richer numbers (throughput, speedups, configs)
fill the fixture's payload dict, and standalone ``__main__`` entry
points call :func:`emit_bench_json` directly.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any

from repro.persistence import save_json_digested

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The ratio benches time their slow legs on the per-client reference
#: round in ``tests/reference/``, imported as ``reference``.
TESTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")
if TESTS_DIR not in sys.path:
    sys.path.append(TESTS_DIR)

__all__ = ["RESULTS_DIR", "emit_bench_json", "peak_rss_bytes"]


def peak_rss_bytes() -> int | None:
    """This process's peak resident set size in bytes, if measurable.

    Reads ``VmHWM`` from ``/proc/self/status`` (Linux), falling back to
    ``resource.getrusage`` (``ru_maxrss`` is KiB on Linux, bytes on
    macOS).  Returns ``None`` on platforms exposing neither — callers
    record it as "unmeasured" rather than guessing.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak if sys.platform == "darwin" else peak * 1024
    except Exception:  # pragma: no cover - platform-dependent
        return None


def emit_bench_json(name: str, payload: dict[str, Any]) -> str:
    """Write ``benchmarks/results/BENCH_<name>.json`` and return its path.

    ``payload`` must be JSON-serialisable; the harness adds the bench
    name, a wall-clock timestamp (so runs are orderable across PRs)
    and the process's peak RSS so far (so memory regressions are as
    diffable as throughput ones).  The file goes through the same
    atomic write-temp + ``os.replace`` + sha256-digest path as result
    JSONs, so a bencher killed mid-write can't leave a torn trajectory
    file, and ``repro fsck`` verifies it.
    """
    record = {
        "bench": name,
        "recorded_unix": round(time.time(), 3),
        "peak_rss_bytes": peak_rss_bytes(),
        **payload,
    }
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    save_json_digested(path, record, indent=2)
    return path
