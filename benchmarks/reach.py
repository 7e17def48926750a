"""Reach recorder: which function lines of ``src/repro`` a command set runs.

Runs each command with a ``sitecustomize.py`` on ``PYTHONPATH`` that
installs ``sys.setprofile`` and ``threading.setprofile`` in every
Python process the command starts.  The hook appends each first-seen
``(file, firstlineno)`` code object under ``src/repro/`` to a file of
its own process id, so forked workers (round executors, sweep pools)
are counted too.  An ``ast`` pass then walks every module under
``src/repro/``: a function line counts as reached when the innermost
function holding it was called.  A decorated function's code starts at
its first decorator's line, as its ``co_firstlineno`` does.

The default command set is the paper's user surface: every script
under ``examples/``, ``benchmarks/ledger/run.py --smoke`` and the 19
paper bench tests (``bench_table*``, ``bench_fig*``,
``bench_seed_stability``).  pytest-benchmark's timing clears the
profile hook, so the benches run with ``--benchmark-disable``.
Tier-1 tests are not counted: a function only a test calls is exactly
what this recorder looks for.

Run with::

    python benchmarks/reach.py                    # default set, ~4 min on 2 cores
    python benchmarks/reach.py -- python examples/quickstart.py
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")

SITECUSTOMIZE = '''\
import os
import sys
import threading

_PACKAGE = os.environ["REPRO_REACH_PACKAGE"]
_OUT = os.environ["REPRO_REACH_DIR"]
_seen = set()


def _record(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    key = (code.co_filename, code.co_firstlineno)
    if key in _seen or not code.co_filename.startswith(_PACKAGE):
        return
    _seen.add(key)
    # Unbuffered, one line per first sighting: a forked worker that
    # leaves through os._exit loses nothing.
    with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "a") as handle:
        handle.write(f"{key[0]}\\t{key[1]}\\n")


sys.setprofile(_record)
threading.setprofile(_record)
'''


def default_commands() -> list[list[str]]:
    python = sys.executable
    examples = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
    benches = [
        os.path.relpath(path, ROOT)
        for pattern in ("bench_table*.py", "bench_fig*.py", "bench_seed_stability.py")
        for path in sorted(glob.glob(os.path.join(ROOT, "benchmarks", pattern)))
    ]
    return (
        [[python, path] for path in examples]
        + [[python, os.path.join(ROOT, "benchmarks", "ledger", "run.py"), "--smoke"]]
        + [[python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--benchmark-disable", *benches]]
    )


def record(
    commands: list[list[str]], out_dir: str
) -> tuple[set[tuple[str, int]], list[str]]:
    """Run ``commands`` under the hook: the code objects they called,
    and the commands that exited non-zero."""
    failed = []
    with tempfile.TemporaryDirectory() as hook_dir:
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
            handle.write(SITECUSTOMIZE)
        env = dict(os.environ)
        inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, os.path.join(ROOT, "src")] + inherited
        )
        env["REPRO_REACH_PACKAGE"] = PACKAGE + os.sep
        env["REPRO_REACH_DIR"] = out_dir
        for command in commands:
            print("$", " ".join(command), flush=True)
            done = subprocess.run(command, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL)
            if done.returncode:
                failed.append(" ".join(command))
    reached: set[tuple[str, int]] = set()
    for path in glob.glob(os.path.join(out_dir, "*.txt")):
        with open(path) as handle:
            for line in handle:
                filename, lineno = line.rstrip("\n").split("\t")
                reached.add((filename, int(lineno)))
    return reached, failed


def function_lines(path: str) -> dict[int, int]:
    """Each function line of ``path`` -> first line of its innermost function."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    owner: dict[int, tuple[int, int]] = {}
    for node in functions:
        start = min([d.lineno for d in node.decorator_list] + [node.lineno])
        for line in range(start, node.end_lineno + 1):
            # The innermost function is the one with the latest start.
            if line not in owner or owner[line][0] < start:
                owner[line] = (start, node.end_lineno)
    return {line: span[0] for line, span in owner.items()}


def report(reached: set[tuple[str, int]]) -> int:
    """Print unreached function lines per module and in total."""
    total = unreached = 0
    rows = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        lines = function_lines(path)
        missed = sum(1 for start in lines.values() if (path, start) not in reached)
        total += len(lines)
        unreached += missed
        if missed:
            rows.append((missed, len(lines), os.path.relpath(path, ROOT)))
    for missed, count, name in sorted(rows, reverse=True):
        print(f"{missed:6d} / {count:6d}  {name}")
    print(f"unreached function lines: {unreached} of {total}")
    return unreached


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="one command to record instead of the default set")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    commands = [command] if command else default_commands()
    with tempfile.TemporaryDirectory() as out_dir:
        reached, failed = record(commands, out_dir)
    report(reached)
    for command in failed:
        print(f"FAILED (its reach is still counted): {command}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
