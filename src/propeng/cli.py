"""Command-line front end: validate problem files, run goals or explicit
reducer lists, and emit reduced problems, traces and statistics.

Both commands read their problem through ``_load``.  ``main`` alone turns an
error into exit 1: a ``PropagationError`` or ``OSError``, raised while reading
the file or writing the output, prints one ``error: <message>`` line.

Exit status: 0 converged (or stopped early on an emptied component), 1 input,
configuration or usage error (an unreadable or non-UTF-8 file, an unwritable
output), 2 step cap exceeded, 3 equivalence check failed.  ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import consistency, csp as csp_mod, engine, reducers, textio
from .errors import ConfigError, DataError, PropagationError


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the input-error status,
    not argparse's 2, which here means the step cap was exceeded."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: each rebuilt parser left some of its strings
    alive, so ``main`` called in a loop kept more memory with every call."""
    parser = _Parser(
        prog="propeng",
        description="Constraint propagation by generic fixpoint iteration.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="reduce a problem file")
    run_p.add_argument("input", help="problem file")
    run_p.add_argument("--goal", help="arc | path | dir-arc:<order> | "
                                      "dir-path:<order> | rel:<m>")
    run_p.add_argument("--reducers", help="comma-separated reducer names, "
                       "e.g. pi1@c1,lineq@c2,rho@c1,c2")
    run_p.add_argument("--mode", choices=list(engine.MODES), default="ci")
    run_p.add_argument("--strategy", choices=list(engine.STRATEGIES), default="det")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--max-steps", type=int, default=engine.DEFAULT_STEP_CAP)
    run_p.add_argument("--early-exit", action="store_true",
                       help="stop as soon as a component becomes empty")
    run_p.add_argument("--trace", action="store_true", help="print the step log")
    run_p.add_argument("--check-equivalence", action="store_true",
                       help="verify solutions are preserved (brute force)")
    run_p.add_argument("--format", choices=["text", "json"], default="text")

    val_p = sub.add_parser("validate", help="check a problem file")
    val_p.add_argument("input", help="problem file")
    return parser


def _load(path: str) -> csp_mod.CSP:
    """The problem in the file at ``path``: the only place a command opens one.
    A file that is not UTF-8 is a ``DataError`` that names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: byte {exc.start} is not UTF-8 "
                            f"({exc.reason})") from None
    return textio.parse_csp(text)


def cmd_run(args) -> int:
    if (args.goal is None) == (args.reducers is None):
        raise ConfigError("exactly one of --goal / --reducers is required")
    # a text trace prints each step as it is made; a JSON one keeps the
    # steps for the document written after the run
    steps: list[engine.TraceStep] = []
    observer = None
    if args.trace and args.format == "json":
        observer = steps.append
    elif args.trace:
        count = itertools.count(1)

        def observer(s: engine.TraceStep) -> None:
            print(f"step={next(count)} fn={s.fid} changed={int(s.changed)} "
                  f"comps={','.join(map(str, s.changed_components))}")
    problem = _load(args.input)
    issues = csp_mod.validate(problem)
    if issues:
        raise DataError("invalid problem:\n  " + "\n  ".join(issues))
    strategy = engine.make_strategy(args.strategy, args.seed)
    if args.goal is not None:
        goal = consistency.parse_goal(args.goal)
        reduced, trace = consistency.achieve(
            problem, goal, mode=args.mode, strategy=strategy,
            step_cap=args.max_steps, early_exit=args.early_exit,
            observer=observer)
    else:
        names = _regroup_reducer_names([s.strip() for s in args.reducers.split(",")])
        space, functions = reducers.build_named_reducers(problem, names)
        result = engine.run(functions, space.bottom(), mode=args.mode,
                            strategy=strategy, step_cap=args.max_steps,
                            early_exit=args.early_exit, observer=observer)
        reduced, trace = space.rebuild(result.value), result.trace
    equivalence = None
    if args.check_equivalence:
        equivalence = csp_mod.equivalent(problem, reduced)

    if args.format == "json":
        # json.dumps(payload, indent=2, sort_keys=True)'s bytes, with the
        # keys in sorted order and the reduced problem and the step rows
        # from their own writers
        fields = [f'"applications": {json.dumps(trace.total_applications)}',
                  f'"csp": {textio.csp_json(reduced, "  ")}']
        if equivalence is not None:
            verdict = "PASS" if equivalence else "FAIL"
            fields.append(f'"equivalence": {json.dumps(verdict)}')
        fields.append(f'"outcome": {json.dumps(trace.outcome.value)}')
        if args.trace:
            fields.append(f'"trace": {textio.trace_json(steps, "  ")}')
        print("{\n  ", ",\n  ".join(fields), "\n}", sep="")
    else:
        sys.stdout.write(textio.serialize_csp(reduced))
        print(f"# outcome: {trace.outcome.value} applications={trace.total_applications}")
        if equivalence is not None:
            print(f"# equivalence: {'PASS' if equivalence else 'FAIL'}")

    if equivalence is False:
        return 3
    if trace.outcome is engine.Outcome.STEP_LIMIT:
        return 2
    return 0


def _regroup_reducer_names(names: list[str]) -> list[str]:
    """Reducer names themselves contain commas (rho@c1,c2), so rejoin the
    splits: a fragment without '@' belongs to the previous name."""
    out: list[str] = []
    for frag in names:
        if "@" in frag or not out:
            out.append(frag)
        else:
            out[-1] += "," + frag
    return [n for n in out if n]


def cmd_validate(args) -> int:
    problem = _load(args.input)
    issues = csp_mod.validate(problem)
    for issue in issues:
        print(issue, file=sys.stderr)
    if issues:
        return 1
    print(f"ok: {problem.arity} domains, {len(problem.constraints)} constraints")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = cmd_run if args.command == "run" else cmd_validate
    try:
        return command(args)
    except (PropagationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
