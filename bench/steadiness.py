"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/steadiness.py --seeds 1-10 [--tag a]

Runs ``bench/run.py`` once per (workload, seed), over every workload, one
run at a time for ``run_seconds`` of ``BENCHMARK.json``, and prints for
every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  The runs (with what each
printed on stderr, the raw pass times among it) and the summary go to
``bench/results/steadiness-<tag>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--tag", default="a")
    args = ap.parse_args()
    root = HERE.parent
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    runs: dict[str, list[dict]] = {}
    report: dict[str, dict] = {}
    for w in WORKLOADS:
        runs[w] = []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["stderr"] = proc.stderr.strip()
            runs[w].append(result)
            print(w, seed, {k: round(v["value"], 6) for k, v in result["metrics"].items()},
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        report[w] = {m: summary([r["metrics"][m]["value"] for r in runs[w]])
                     for m in runs[w][0]["metrics"]}
        report[w]["failed_share"] = sorted({r["failed"] / r["attempted"] for r in runs[w]})
        for m, s in report[w].items():
            if m != "failed_share":
                print(f"{w:7s} {m:10s} median {s['median']:.6f}  q1 {s['q1']:.6f}  "
                      f"q3 {s['q3']:.6f}  spread {s['spread']:.2%}", flush=True)
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / f"steadiness-{args.tag}.json").write_text(
        json.dumps({"seconds": seconds, "seeds": args.seeds, "summary": report,
                    "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
