"""Benchmark of ``propeng run`` on four seeded workloads.

    python3 bench/run.py --workload arc --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ``propeng`` is imported from
``src/``.  Every call goes through ``propeng.cli.main`` in this process with
``--format json`` and stdout captured, and every output is checked by
``checks.py``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` a traced run gives the
per-layer ones (see ``tracing.py``) and writes its span file under
``bench/results/``.

Times are speed-normalised: each call's wall time is multiplied by
``REF_NOMINAL_S / (time of the reference loop run around that call)``, which
takes much of the host's slow phases out of the figures (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

# The reference loop does the kind of work the program does (tuples,
# frozensets, a dict of some thousand entries, then a scan over it), so that
# a host slowdown (a busy neighbour, a shared cache) slows both about alike.
# Its median time on the 2-vCPU host the benchmark was tuned on is
# REF_NOMINAL_S; rescaled times are in seconds of that host at that speed.
REF_ITERS = 12_000
REF_NOMINAL_S = 0.0090

SETUP_REPEATS = 9


def reference_loop() -> float:
    t0 = time.perf_counter()
    table = {}
    for i in range(REF_ITERS):
        key = (i % 97, i, i % 13)
        table[key] = frozenset(key)
    sum(1 for key, value in table.items() if key[0] in value)
    return time.perf_counter() - t0


class Clock:
    """Rescales a measured interval by the reference loops run just before
    and just after it; the loop after one interval is the loop before the
    next."""

    def __init__(self):
        self.before = reference_loop()

    def rescale(self, raw_s: float) -> float:
        after = reference_loop()
        factor = REF_NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return raw_s * factor


def load_propeng():
    """The checkout's own ``propeng``, never an installed copy."""
    src = (HERE.parent / "src").resolve()
    try:
        import propeng
        from propeng import cli, csp, reducers, textio
    except ImportError as exc:
        sys.exit(f"bench: cannot import propeng from {src}: {exc}")
    if Path(propeng.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: propeng was imported from {propeng.__file__}, not from {src}")
    return cli, csp, reducers, textio


def invoke(main, argv: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(argv)
        raw = time.perf_counter() - t0
    return raw, code, out.getvalue()


class Runner:
    """Runs passes over a workload's calls and keeps the operation counts.

    A call fails on a non-zero exit code, an outcome other than
    ``converged``, an output that is not the expected JSON or a failed
    check; the last two also make the run incorrect.  Each output is checked
    once: an output identical to one already checked for the same call gets
    the same verdict."""

    def __init__(self, cli, calls, paths):
        self.cli = cli
        self.calls = calls
        self.paths = paths
        self.attempted = self.failed = self.wrong = 0
        self._checked: dict[tuple[int, str], tuple[str, bool] | None] = {}

    def _failure(self, k: int, code: int, stdout: str) -> tuple[str, bool] | None:
        """``None`` for a good call, else the reason and whether the output
        itself is wrong."""
        if code != 0:
            return f"exit code {code}", False
        key = (k, stdout)
        if key not in self._checked:
            call = self.calls[k]
            try:
                out = json.loads(stdout)
                if out["outcome"] != "converged":
                    verdict = (f"outcome {out['outcome']}", False)
                else:
                    reason = call.check(call.model, out)
                    verdict = None if reason is None else (reason, True)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                verdict = (f"malformed output: {type(exc).__name__}: {exc}", True)
            self._checked[key] = verdict
        return self._checked[key]

    def run_pass(self, clock: Clock | None, wrap=None, factors=None) -> tuple[float, float]:
        """One call of each problem; returns the rescaled and raw totals.
        ``wrap(k, main)`` may replace ``cli.main`` for call ``k``; each
        call's rescaling factor is appended to ``factors``."""
        total = raw_total = 0.0
        for k, (call, path) in enumerate(zip(self.calls, self.paths)):
            main = self.cli.main if wrap is None else wrap(k, self.cli.main)
            gc.collect()
            raw, code, stdout = invoke(
                main, ["run", str(path), *call.args, "--format", "json"])
            raw_total += raw
            if clock is not None:
                scaled = clock.rescale(raw)
                total += scaled
                if factors is not None:
                    factors.append(scaled / raw)
            self.attempted += 1
            failure = self._failure(k, code, stdout)
            if failure is not None:
                self.failed += 1
                self.wrong += failure[1]
                print(f"FAIL {call.name}: {failure[0]}", file=sys.stderr)
        return total, raw_total

    def result(self, metrics: dict) -> dict:
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def setup_pass(calls, paths, csp, reducers, textio) -> None:
    """What loading the workload's problems costs, called directly."""
    for call, path in zip(calls, paths):
        problem = textio.parse_csp(path.read_text(encoding="utf-8"))
        if csp.validate(problem):
            raise RuntimeError(f"{call.name}: generated problem is invalid")
        if call.reducers:
            reducers.build_named_reducers(problem, call.reducers)


def end_to_end(runner: Runner, seconds: float, csp, reducers, textio) -> dict:
    runner.run_pass(None)                  # warm-up: caches, first checks

    setup = []
    clock = Clock()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        setup_pass(runner.calls, runner.paths, csp, reducers, textio)
        setup.append(clock.rescale(time.perf_counter() - t0))

    gc.collect()
    tracemalloc.start()
    runner.run_pass(None)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    passes, raw = [], []
    clock = Clock()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        scaled, raw_s = runner.run_pass(clock)
        passes.append(scaled)
        raw.append(raw_s)
    print(f"{len(passes)} passes; raw run_s.p50 {statistics.median(raw):.6f} s",
          file=sys.stderr)
    return runner.result({
        "run_s.p50": {"value": statistics.median(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_mb": {"value": peak / 2**20, "unit": "MB"},
    })


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli, csp, reducers, textio = load_propeng()
    calls = workloads.make_calls(args.workload, args.seed)
    label = f"{args.workload}-seed{args.seed}"
    work = HERE / f"work-{label}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        paths = []
        for call in calls:
            path = work / f"{call.name}.csp"
            path.write_text(call.text, encoding="utf-8")
            paths.append(path)
        runner = Runner(cli, calls, paths)
        if args.trace:
            import tracing
            metrics = tracing.traced_run(runner, Clock, args.seconds,
                                         HERE / "results", label)
            result = runner.result(metrics)
        else:
            result = end_to_end(runner, args.seconds, csp, reducers, textio)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
