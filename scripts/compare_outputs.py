"""Check that the working tree's ``propeng run`` prints what a git revision prints.

    python scripts/compare_outputs.py <git-rev>

Every call of the four benchmark workloads (``bench/workloads.make_calls(w, 1)``)
runs under each of the 4 modes and 5 strategies with
``--trace --format json --seed 1``, and once with the benchmark's own
arguments (the call's, then ``--format json``; no ``--trace``).  Each
``path`` call also runs ``--goal dir-path:<n..1>`` and each ``arc`` call
``--goal dir-arc:<n..1>`` (the variables in descending order), and each of
them the reducer lists ``rho@c,~dom<i>,~dom<j>`` and ``rel@<j>,<i>;c,~dom<j>``
(``c`` the call's first constraint, on ``(i,j)``: both join shapes with a
variable), each ``path`` call the list of every ``path@k,l,m`` with
``k < m < l`` (the named route to the path reducers) and each ``arc`` call
the list of ``pi1@c,pi2@c`` over every constraint ``c`` of the call (the
support projections, probed, as the ``dir-arc`` goal's are not), each under
the 4 modes with ``--trace --format json``: 290 runs per tree.  The revision's
``src/`` is exported with ``git archive`` into a temporary directory; each
tree runs all its calls in one subprocess, through ``propeng.cli.main``.
The exit codes, stdout and stderr of the two trees are compared run by
run.  Prints ``N of 290 identical`` and the ids of the runs that differ;
exits 1 if any differ.  Run it from anywhere inside the
repository.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import subprocess
import sys
import tarfile
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("ci", "cii", "ciq", "ciiq")
STRATEGIES = ("det", "seeded", "lifo", "roundrobin", "block")
DIRECTIONAL = {"arc": "dir-arc", "path": "dir-path"}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome(cli, argv: list[str]) -> list:
    """[exit code, stdout digest, stderr digest] of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            # only the exception line: the two trees' tracebacks name
            # different file paths
            code = "exception"
            traceback.print_exc(limit=0)
    return [code, _digest(out.getvalue()), _digest(err.getvalue())]


def run_all(src: Path) -> dict[str, list]:
    """Every workload run against the ``propeng`` under ``src``: run id ->
    [exit code, stdout digest, stderr digest]."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import workloads
    from propeng import cli

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for w in workloads.WORKLOADS:
            for call in workloads.make_calls(w, 1):
                path = Path(tmp) / f"{call.name}.csp"
                path.write_text(call.text, encoding="utf-8")
                # the benchmark's own run: untraced, in the call's own mode
                bench = ["run", str(path), *call.args, "--format", "json"]
                results[f"{w}/{call.name}/bench"] = _outcome(cli, bench)
                args = list(call.args)
                if "--mode" in args:
                    k = args.index("--mode")
                    del args[k:k + 2]
                for mode in MODES:
                    for strategy in STRATEGIES:
                        argv = ["run", str(path), *args, "--mode", mode,
                                "--strategy", strategy, "--trace",
                                "--format", "json", "--seed", "1"]
                        results[f"{w}/{call.name}/{mode}/{strategy}"] = _outcome(cli, argv)
                if w in DIRECTIONAL:
                    order = ",".join(map(str, range(len(call.model.domains), 0, -1)))
                    goal = f"{DIRECTIONAL[w]}:{order}"
                    for mode in MODES:
                        argv = ["run", str(path), "--goal", goal, "--mode", mode,
                                "--trace", "--format", "json"]
                        results[f"{w}/{call.name}/{DIRECTIONAL[w]}/{mode}"] = _outcome(cli, argv)
                    cid, (i, j), _ = call.model.constraints[0]
                    lists = {"rho": f"rho@{cid},~dom{i},~dom{j}",
                             "rel": f"rel@{j},{i};{cid},~dom{j}"}
                    if w == "path":
                        # the named route to the path reducers, over the
                        # call's own constraints on every pair i < j
                        lists["path@"] = ",".join(
                            f"path@{k},{l},{m}" for k, m, l in itertools.combinations(
                                range(1, len(call.model.domains) + 1), 3))
                    else:
                        # both support projections of every constraint,
                        # probed, unlike the dir-arc goal's
                        lists["pi"] = ",".join(
                            f"pi1@{c},pi2@{c}" for c, *_ in call.model.constraints)
                    for kind, names in lists.items():
                        for mode in MODES:
                            argv = ["run", str(path), "--reducers", names, "--mode", mode,
                                    "--trace", "--format", "json"]
                            results[f"{w}/{call.name}/{kind}/{mode}"] = _outcome(cli, argv)
    return results


def results_of(src: Path) -> dict[str, list]:
    proc = subprocess.run([sys.executable, __file__, "--run", str(src)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def export(rev: str, dest: Path, *paths: str) -> Path:
    """Extract ``paths`` of revision ``rev`` under ``dest``; returns ``dest``."""
    data = subprocess.run(["git", "archive", rev, *paths], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against")
    parser.add_argument("--run", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        print(json.dumps(run_all(Path(args.run))))
        return 0
    if not args.rev:
        parser.error("a git revision is required")
    with tempfile.TemporaryDirectory() as tmp:
        old = results_of(export(args.rev, Path(tmp), "src") / "src")
    new = results_of(ROOT / "src")
    ids = old.keys() | new.keys()
    differ = sorted(k for k in ids if old.get(k) != new.get(k))
    print(f"{len(ids) - len(differ)} of {len(ids)} identical")
    for k in differ:
        print(f"differs: {k}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
