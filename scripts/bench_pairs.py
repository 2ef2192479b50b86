"""Time the working tree against a git revision on one benchmark workload.

    python scripts/bench_pairs.py <git-rev> --workload path --pairs 10 --seconds 25 --seed 1

The revision's ``src/`` and ``bench/`` are exported with ``git archive`` into
a temporary directory, and the working tree's are copied beside them
(without ``__pycache__``, ``bench/results/`` or ``bench/work-*``), so both
sides run from fresh copies in the same place: run in place, the working
tree read about 1% slower than the same code exported.  Each pair runs the
revision's ``bench/run.py --workload W --seed N --seconds S --trace 0`` and
the working tree's, each in its own process; odd pairs run the revision
first, even pairs the working tree.  ``--seed`` (default 1) picks the
instance family member both trees run, so a claim can be checked on a seed
other than the one it was tuned on.  Prints each pair's ``run_s.p50``,
``setup_s`` and ``peak_mb`` for both trees with the change/parent ratios;
then, per metric, both medians, their ratio and the quartile spread of the
revision's runs; then the number of pairs in which the working tree's
``run_s.p50`` is lower.  The working tree is copied once, at the start: an
edit made while the script runs is not timed.  Exits 1 if any run fails a
call or is incorrect.  Run it from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_outputs import ROOT, export

METRICS = ("run_s.p50", "setup_s", "peak_mb")


def copy_working_tree(dest: Path) -> Path:
    """Copy the working tree's ``src/`` and ``bench/`` under ``dest``, without
    bytecode caches, results or work directories; returns ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__", "results", "work-*")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    return dest


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run of ``tree``: its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench/run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", type=int, default=1,
                        help="instance seed passed to both trees' runs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    old = {m: [] for m in METRICS}
    new = {m: [] for m in METRICS}
    ok = True
    print("pair  " + "  ".join(f"{m:>29}" for m in METRICS))
    print("      " + "  ".join(f"{'parent':>9} {'change':>9} {'ratio':>9}" for _ in METRICS))
    with tempfile.TemporaryDirectory() as tmp:
        parent = export(args.rev, Path(tmp) / "parent", "src", "bench")
        change = copy_working_tree(Path(tmp) / "change")
        for k in range(1, args.pairs + 1):
            trees = (parent, change) if k % 2 else (change, parent)
            runs = {tree: bench(tree, args.workload, args.seed, args.seconds)
                    for tree in trees}
            ok = ok and all(r["correct"] and r["failed"] == 0 for r in runs.values())
            cells = []
            for m in METRICS:
                a, b = (runs[tree]["metrics"][m]["value"] for tree in (parent, change))
                old[m].append(a)
                new[m].append(b)
                cells.append(f"{a:9.4f} {b:9.4f} {b / a:9.3f}")
            print(f"{k:4}  " + "  ".join(cells), flush=True)
    for m in METRICS:
        a, b = statistics.median(old[m]), statistics.median(new[m])
        q1, _, q3 = statistics.quantiles(old[m], n=4) if len(old[m]) > 1 else (a, a, a)
        print(f"{m}: median parent {a:.4f}, change {b:.4f}, ratio {b / a:.3f}; "
              f"parent quartile spread {q3 - q1:.4f}")
    wins = sum(b < a for a, b in zip(old["run_s.p50"], new["run_s.p50"]))
    print(f"change lower on run_s.p50 in {wins} of {args.pairs} pairs")
    if not ok:
        print("some run failed a call or was incorrect")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
