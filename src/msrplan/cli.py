"""Command-line front end.

Exit codes: 0 for a positive verdict, 1 for a negative verdict, 2 for usage,
parse, or validation errors.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .certify import verify_witness, witness_from_json, witness_to_json
from .delta import DeltaError, abstract
from .kernel import KernelError
from .reductions import (
    QbfError,
    brute_force_homomorphism,
    evaluate_qbf,
    graph_to_goal_instance,
    parse_graph,
    parse_qdimacs,
    qbf_to_msr_text,
)
from .resilience import ResilienceQuery, check_resilience
from .rules import EngineError, RuleError
from .scenario import (
    PlanningScenario,
    ScenarioError,
    infer_dmax,
    parse_scenario,
    validate_scenario,
)
from .search import find_compliant_goal_trace, successors
from .specs import SpecError, TraceStep, match_spec

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _read(path: str) -> str:
    """The text of an input file; an error names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None


def _load_scenario(path: str) -> PlanningScenario:
    return parse_scenario(_read(path), filename=path)


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    report = validate_scenario(scenario)
    print(report.render())
    return EXIT_YES


def _cmd_trace(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    if args.ticks < 0:
        raise EngineError("tick count must be a natural number")
    rng = random.Random(args.seed)
    print(f"seed: {args.seed}")
    config = scenario.initial
    ticks = 0
    step = 0
    while ticks < args.ticks:
        # the time advance is always among the moves, so the walk never sticks
        taken = TraceStep(*rng.choice(list(successors(config, scenario.system_rules))))
        step += 1
        if taken.is_tick:
            ticks += 1
        marks = []
        if match_spec(scenario.goal_spec, taken.result) is not None:
            marks.append("goal")
        if match_spec(scenario.critical_spec, taken.result) is not None:
            marks.append("critical")
        suffix = f"  [{', '.join(marks)}]" if marks else ""
        print(f"{step}: {taken}{suffix}")
        config = taken.result
    return EXIT_YES


def _cmd_goal(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    trace = find_compliant_goal_trace(scenario, args.budget)
    if trace is None:
        print("no compliant goal trace within budget")
        return EXIT_NO
    for line in trace.format_lines():
        print(line)
    print(f"goal reached at t={trace.final.global_time} with {trace.tick_count()} ticks")
    return EXIT_YES


def _cmd_resilience(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    query = ResilienceQuery(args.n, args.a, args.b)
    if args.verify:
        query.check_root(scenario)
        data = witness_from_json(_read(args.verify))
        ok, violations = verify_witness(scenario, query, data)
        if ok:
            print("witness verified")
            return EXIT_YES
        for v in violations:
            print(v)
        return EXIT_NO
    result = check_resilience(scenario, query)
    if result.resilient:
        # written before any verdict line, so a failed write prints none
        if args.witness:
            Path(args.witness).write_text(
                witness_to_json(result.witness), encoding="utf-8"
            )
        print(f"resilient at (n={query.n}, a={query.a}, b={query.b})")
        if args.witness:
            print(f"witness written to {args.witness}")
        return EXIT_YES
    print(f"not resilient at (n={query.n}, a={query.a}, b={query.b})")
    for line in result.refutation:
        print(f"  {line}")
    return EXIT_NO


def _cmd_qbf_eval(args: argparse.Namespace) -> int:
    q = parse_qdimacs(_read(args.file))
    value = evaluate_qbf(q)
    print("true" if value else "false")
    return EXIT_YES if value else EXIT_NO


def _cmd_qbf_gen(args: argparse.Namespace) -> int:
    q = parse_qdimacs(_read(args.file))
    text = qbf_to_msr_text(q)
    Path(args.output).write_text(text, encoding="utf-8")
    print(f"scenario written to {args.output} (blocks={len(q.blocks)}, clauses={len(q.clauses)})")
    return EXIT_YES


def _cmd_graph_goal(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.pattern))
    k = parse_graph(_read(args.target))
    scenario, config = graph_to_goal_instance(g, k)
    hit = match_spec(scenario.goal_spec, config)
    if args.brute:
        oracle = brute_force_homomorphism(g, k)
        agree = (hit is None) == (oracle is None)
        print(f"oracle agreement: {'yes' if agree else 'NO'}")
        if not agree:
            return EXIT_ERROR
    if hit is None:
        print("no homomorphism")
        return EXIT_NO
    _, sigma = hit
    # every pattern vertex in declaration order; one no edge constrains
    # (the pattern binds no variable for it) maps to the host's first vertex
    k_const = {f"kv_{i}": name for i, name in enumerate(k.vertices)}
    images = [
        k_const[str(sigma[f"x{i}"])] if f"x{i}" in sigma else k.vertices[0]
        for i in range(len(g.vertices))
    ]
    print("homomorphism:", ", ".join(f"{u}->{w}" for u, w in zip(g.vertices, images)))
    return EXIT_YES


def _cmd_delta(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    dmax = args.dmax if args.dmax is not None else infer_dmax(scenario)
    print(abstract(scenario.initial, dmax))
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msrplan",
        description=(
            "Timed multiset-rewriting planning: validation, bounded search, "
            "and time-bounded resilience checking."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and audit a scenario file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("trace", help="print a seeded random walk")
    p.add_argument("file")
    p.add_argument("--ticks", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("goal", help="search for a compliant goal trace")
    p.add_argument("file")
    p.add_argument("--budget", type=int, required=True, help="tick budget")
    p.set_defaults(func=_cmd_goal)

    p = sub.add_parser("resilience", help="decide (n,a,b)-resilience")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-b", type=int, required=True)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--witness", help="write the witness tree to this JSON file")
    out.add_argument("--verify", help="verify a witness JSON file instead of checking")
    p.set_defaults(func=_cmd_resilience)

    p = sub.add_parser("qbf", help="quantified Boolean formula oracle pipeline")
    qsub = p.add_subparsers(dest="qbf_command", required=True)
    pe = qsub.add_parser("eval", help="evaluate a formula by game-tree search")
    pe.add_argument("file")
    pe.set_defaults(func=_cmd_qbf_eval)
    pg = qsub.add_parser("gen", help="generate the planning scenario for a formula")
    pg.add_argument("file")
    pg.add_argument("-o", "--output", required=True)
    pg.set_defaults(func=_cmd_qbf_gen)

    p = sub.add_parser("graph-goal", help="homomorphism check via goal recognition")
    p.add_argument("pattern", help="pattern graph file G")
    p.add_argument("target", help="target graph file K")
    p.add_argument("--brute", action="store_true", help="also run the brute oracle")
    p.set_defaults(func=_cmd_graph_goal)

    p = sub.add_parser("delta", help="print the initial configuration's abstraction")
    p.add_argument("file")
    p.add_argument("--dmax", type=int)
    p.set_defaults(func=_cmd_delta)
    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_YES
    try:
        return args.func(args)
    except ScenarioError as exc:
        for d in exc.diagnostics:
            print(d.render(exc.filename), file=sys.stderr)
        return EXIT_ERROR
    except (EngineError, RuleError, SpecError, KernelError, QbfError, DeltaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
