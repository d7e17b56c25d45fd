"""Shared fixtures: the worked flight example, travel variants, the CLI
runner, random scenario generators, and independent brute-force oracles."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from msrplan.cli import cli_dispatch
from msrplan.kernel import (
    Configuration,
    Constant,
    FreshConstant,
    Role,
    Signature,
    TimedFact,
    Variable,
    make_signature,
)
from msrplan.rules import (
    GLOBAL_TIME_VAR,
    Atom,
    CreatedFact,
    FactPattern,
    Rule,
    RuleError,
    RuleInstance,
    RuleRole,
    TimeConstraint,
    apply_instance,
    find_matches,
    tick,
)
from msrplan.reductions import Qbf
from msrplan.scenario import PlanningScenario, bundled_text, load_bundled, parse_scenario
from msrplan.search import successors
from msrplan.specs import TICK_STEP, ConfigSpec, SpecKind, SpecPair, match_spec
from reference import ground, satisfied

WORKED_EXAMPLE = """
types city loc status eid ref fid;
consts FRA: city, DBV: city, airport: loc, center: loc,
       main: eid, no: status, done: status, id215: ref, id14: fid;
predicates At(city, loc): system, Flight2(fid, city, city): system,
           Event(eid, ref): goal, Attended(eid, status): critical;
init { Time@3d14:42, Attended(main, no)@0, At(FRA, airport)@3d14:05,
       Event(main, id215)@5d12:00, Flight2(id14, FRA, DBV)@3d15:25 }
rule system board {
  pre: Flight2(a, x, y)@T1;
  consume: At(x, airport)@T2;
  create: At(y, airport)@T+120;
  guard: T = T1, T2 + 30 <= T;
}
goal { Attended(main, done)@T1, Event(main, x)@T2 }
critical { Time@T, Attended(main, no)@T1, Event(main, x)@T2 | T > T2 }
"""


@pytest.fixture(scope="session")
def worked_example() -> PlanningScenario:
    return parse_scenario(WORKED_EXAMPLE, "worked_example")


@pytest.fixture(scope="session")
def travel() -> PlanningScenario:
    return load_bundled("travel.msr")


@pytest.fixture(scope="session")
def minimal() -> PlanningScenario:
    return load_bundled("minimal.msr")


def travel_with_start(travel: PlanningScenario, t0: int) -> PlanningScenario:
    """The bundled travel scenario re-based to start time t0."""
    facts = []
    for f in travel.initial:
        if f.pred == "Time":
            facts.append(TimedFact("Time", (), t0))
        elif f.pred == "ClockBeat":
            facts.append(TimedFact("ClockBeat", (), t0 + 1))
        else:
            facts.append(f)
    return travel.with_initial(Configuration(facts))


# ---------------------------------------------------------------------------
# The command line, in-process
# ---------------------------------------------------------------------------

@pytest.fixture()
def bundled_file(tmp_path: Path):
    """Writes a bundled scenario into the test's directory and returns its
    path; `start` re-bases travel.msr (start 45, clock beat at 46) to that
    start time, as `travel_with_start` does."""

    def write(name: str, start: int | None = None) -> str:
        text = bundled_text(name)
        if start is not None:
            text = text.replace("Time@45,", f"Time@{start},").replace(
                "ClockBeat@46,", f"ClockBeat@{start + 1},"
            )
            name = f"{Path(name).stem}{start}.msr"
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv: str) -> tuple[int, str]:
    """The CLI's exit code on `argv` and what it printed, stdout then stderr."""
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


# ---------------------------------------------------------------------------
# Random scenario corpus
# ---------------------------------------------------------------------------

_PRED_POOL = {
    "P": ("obj",),
    "Q": ("obj", "obj"),
    "R": (),
    "S0": ("obj",),
}


def _random_atom(rng: random.Random, pred: str, arity: tuple[str, ...]) -> Atom:
    args = []
    for btype in arity:
        if rng.random() < 0.5:
            args.append(Constant(rng.choice("abc"), btype))
        else:
            args.append(Variable(rng.choice("xyz"), btype))
    return Atom(pred, tuple(args))


def _random_rule(
    rng: random.Random, name: str, role: RuleRole, progressing: bool
) -> Rule:
    preds = list(_PRED_POOL.items())
    size = rng.randint(1, 2)
    consumed = []
    for i in range(size):
        pred, arity = rng.choice(preds)
        consumed.append(FactPattern(_random_atom(rng, pred, arity), f"T{i + 1}"))
    created = []
    for i in range(size):
        pred, arity = rng.choice(preds)
        delay = rng.randint(1, 2) if (progressing and i == 0) else rng.randint(0, 2)
        created.append(CreatedFact(_random_atom(rng, pred, arity), delay))
    guard: list[TimeConstraint] = []
    if not progressing and rng.random() < 0.3:
        # occasionally force a future consumption so the rule is refused the
        # progressing classification
        guard.append(TimeConstraint("T1", ">", GLOBAL_TIME_VAR))
    rule = Rule(name, (), tuple(consumed), tuple(created), tuple(guard), role)
    if progressing:
        rule = rule.with_past_consumption()
    return rule


_RELATIONS = (">", ">=", "=", "<=", "<")


def _random_patterns(
    rng: random.Random, count: int, tvars: list[str]
) -> list[FactPattern]:
    """Patterns that often repeat the previous predicate or time variable."""
    preds = list(_PRED_POOL.items())
    out: list[FactPattern] = []
    for _ in range(count):
        if out and rng.random() < 0.5:
            pred = out[-1].atom.pred
            arity = _PRED_POOL[pred]
        else:
            pred, arity = rng.choice(preds)
        tvar = rng.choice(tvars) if out and rng.random() < 0.2 else f"T{len(out) + 1}"
        out.append(FactPattern(_random_atom(rng, pred, arity), tvar))
        tvars.append(tvar)
    return out


def _random_constraints(
    rng: random.Random, tvars: list[str], pattern_tvars: list[str]
) -> list[TimeConstraint]:
    """All five relations with offsets, plus equality chains T_i = T_{i-1} + k
    and links from the last pattern back to the first, which let a reordering
    matcher move the last pattern forward."""
    out: list[TimeConstraint] = []
    for prev, cur in zip(pattern_tvars, pattern_tvars[1:]):
        if prev != cur and rng.random() < 0.5:
            out.append(TimeConstraint(cur, "=", prev, rng.randint(-1, 1)))
    if len(set(pattern_tvars)) > 2 and rng.random() < 0.5:
        out.append(TimeConstraint(pattern_tvars[-1], "=", pattern_tvars[0]))
    for _ in range(rng.randint(0, 2)):
        left, right = rng.choice(tvars), rng.choice(tvars)
        out.append(TimeConstraint(left, rng.choice(_RELATIONS), right, rng.randint(-2, 2)))
    return out


def random_guarded_rule(rng: random.Random, name: str) -> Rule:
    """A rule for the anchored and multiset matching paths.

    Unlike `_random_rule` it draws side conditions, repeated predicates and
    time variables, guards over all five relations with offsets (including
    anchors on the global time), equality chains between pattern time
    variables, and fresh variables in the created facts.
    """
    while True:
        tvars = [GLOBAL_TIME_VAR]
        patterns = _random_patterns(rng, rng.choice((1, 2, 2, 3)), tvars)
        n_side = rng.randint(0, len(patterns) - 1)
        side, consumed = patterns[:n_side], patterns[n_side:]
        guard = _random_constraints(rng, sorted(set(tvars)), [p.tvar for p in patterns])
        if rng.random() < 0.6:
            anchored = rng.choice(patterns).tvar
            # T1 = T - k and T = T1 + k anchor from either side
            if rng.random() < 0.5:
                guard.append(TimeConstraint(anchored, "=", GLOBAL_TIME_VAR, rng.randint(-2, 0)))
            else:
                guard.append(TimeConstraint(GLOBAL_TIME_VAR, "=", anchored, rng.randint(0, 2)))
        created = []
        for _ in range(len(consumed)):
            pred, arity = rng.choice(list(_PRED_POOL.items()))
            atom = _random_atom(rng, pred, arity)
            if arity and rng.random() < 0.3:
                atom = Atom(pred, (Variable("n", arity[0]),) + atom.args[1:])
            created.append(CreatedFact(atom, rng.randint(0, 2)))
        try:
            return Rule(name, tuple(side), tuple(consumed), tuple(created), tuple(guard))
        except RuleError:
            continue


def random_spec(
    rng: random.Random, kind: SpecKind, sizes: tuple[int, int] = (1, 3)
) -> ConfigSpec:
    """One to three pairs over the random-scenario predicates, with shared
    variables, repeated predicates and constraints over all five relations;
    each pair has `sizes[0]` to `sizes[1]` patterns."""
    pairs = []
    for _ in range(rng.randint(1, 3)):
        tvars: list[str] = []
        patterns = _random_patterns(rng, rng.randint(*sizes), tvars)
        constraints = _random_constraints(
            rng, sorted(set(tvars)), [p.tvar for p in patterns]
        )
        pairs.append(SpecPair(tuple(patterns), tuple(constraints)))
    return ConfigSpec(kind, tuple(pairs))


def explored_states(scenario: PlanningScenario, limit: int) -> list[Configuration]:
    """Up to `limit` configurations reachable by system and update moves,
    breadth first from the initial one."""
    seen = [scenario.initial]
    index = 0
    while index < len(seen) and len(seen) < limit:
        for _, nxt in successors(seen[index], scenario.rules()):
            if nxt not in seen and len(seen) < limit:
                seen.append(nxt)
        index += 1
    return seen


def random_scenario(
    seed: int, *, progressing: bool, with_updates: bool = False
) -> PlanningScenario:
    """A small random scenario over a fixed signature.

    Balanced by construction; when `progressing` every rule also consumes only
    past-or-present facts and creates a strictly-future one.
    """
    rng = random.Random(seed)
    sig = make_signature(
        base_types=["obj"],
        constants={"a": "obj", "b": "obj", "c": "obj"},
        predicates={**_PRED_POOL, "G0": ("obj",), "K0": ()},
        roles={
            **{p: Role.SYSTEM for p in _PRED_POOL},
            "G0": Role.GOAL,
            "K0": Role.CRITICAL,
        },
    )
    n_rules = rng.randint(2, 3)
    rules = [
        _random_rule(rng, f"r{i}", RuleRole.SYSTEM, progressing)
        for i in range(n_rules)
    ]
    updates: list[Rule] = []
    if with_updates:
        for i in range(rng.randint(1, 2)):
            updates.append(
                _random_rule(rng, f"u{i}", RuleRole.SYSTEM_UPDATE, progressing)
            )
    horizon = rng.randint(4, 6)
    facts = [
        TimedFact("Time", (), 0),
        TimedFact("G0", (Constant("a", "obj"),), 0),
        TimedFact("K0", (), horizon),
    ]
    for _ in range(rng.randint(3, 5)):
        pred, arity = rng.choice(list(_PRED_POOL.items()))
        args = tuple(Constant(rng.choice("abc"), t) for t in arity)
        facts.append(TimedFact(pred, args, rng.randint(0, 2)))
    goal = ConfigSpec(
        SpecKind.GOAL,
        (
            SpecPair(
                (
                    FactPattern(Atom("G0", (Variable("x", "obj"),)), "T1"),
                    FactPattern(
                        _random_atom(rng, *rng.choice(list(_PRED_POOL.items()))), "T2"
                    ),
                )
            ),
        ),
    )
    critical = ConfigSpec(
        SpecKind.CRITICAL,
        (SpecPair((FactPattern(Atom("Time"), "T"), FactPattern(Atom("K0"), "T"))),),
    )
    return PlanningScenario(
        signature=sig,
        system_rules=tuple(rules),
        update_rules=tuple(updates),
        goal_spec=goal,
        critical_spec=critical,
        initial=Configuration(facts),
        fact_size_bound=3,
    )


def trace_annotations(trace) -> list | None:
    """A trace's step labels: `Tick` or the instance key; None for no trace."""
    if trace is None:
        return None
    return [s.instance if s.is_tick else s.instance.key() for s in trace.steps]


def reference_goal_trace(
    scenario: PlanningScenario, budget: int, matches=match_spec
) -> list | None:
    """Annotations of the first compliant goal trace in canonical move order,
    by plain recursion over the definition: at most `budget` time advances and
    at most (budget + 1) * m steps; None if there is none.  `matches(spec,
    config)` recognizes a specification, None for no match."""
    limit = (budget + 1) * len(scenario.initial)

    def search(config, remaining, depth):
        if matches(scenario.critical_spec, config) is not None:
            return None
        if matches(scenario.goal_spec, config) is not None:
            return []
        if depth == limit:
            return None
        moves = [
            (inst.key(), apply_instance(config, inst), remaining)
            for rule in scenario.system_rules
            for inst in find_matches(rule, config)
        ]
        if remaining > 0:
            moves.append((TICK_STEP, tick(config), remaining - 1))
        for label, nxt, left in moves:
            rest = search(nxt, left, depth + 1)
            if rest is not None:
                return [label] + rest
        return None

    return search(scenario.initial, budget, 0)


# ---------------------------------------------------------------------------
# QBF generator inputs
# ---------------------------------------------------------------------------

E1_A2_E3 = (("e", (1,)), ("a", (2,)), ("e", (3,)))


def random_formula(
    rng: random.Random, n: int, max_block: int, max_clauses: int
) -> Qbf:
    """Criterion 1's random shape: 2n+1 alternating blocks of 1..max_block
    variables and 1..max_clauses clauses over them."""
    blocks = []
    var = 1
    for i in range(2 * n + 1):
        size = rng.randint(1, max_block)
        blocks.append(("e" if i % 2 == 0 else "a", tuple(range(var, var + size))))
        var += size
    pool = [v for _, vs in blocks for v in vs]
    clauses = tuple(
        tuple(rng.choice(pool) * rng.choice((1, -1)) for _ in range(3))
        for _ in range(rng.randint(1, max_clauses))
    )
    return Qbf(tuple(blocks), clauses)


def qbf_mix(seed: int = 5) -> list[Qbf]:
    """A seeded, shuffled mix of generator inputs.

    It interleaves the `e1 a2 e3` prefix with 0-3 clauses, criterion 1's
    random n=0/1/2 shapes and blocks of 1-4 variables, so that one block
    index, variable offset, clause index and literal position recur under
    other block sizes, round counts and signs.
    """
    rng = random.Random(seed)
    literals = (1, -1, 2, -2, 3, -3)
    clauses = sorted(
        {tuple(sorted(c)) for c in itertools.combinations_with_replacement(literals, 3)}
    )
    formulas = [
        Qbf(E1_A2_E3, tuple(rng.sample(clauses, size)))
        for size in range(4)
        for _ in range(8)
    ]
    for n, max_block, count in ((0, 3, 12), (1, 2, 16), (2, 2, 12)):
        formulas += [random_formula(rng, n, max_block, 4) for _ in range(count)]
    for n in (0, 1, 2):
        formulas += [random_formula(rng, n, 4, 4) for _ in range(10)]
    rng.shuffle(formulas)
    return formulas


# ---------------------------------------------------------------------------
# Brute-force oracles (independent of the engine's matchers)
# ---------------------------------------------------------------------------

def _term_type(sig: Signature, term) -> str:
    return term.base_type


def brute_find_matches(
    rule: Rule, config: Configuration, sig: Signature
) -> set[str]:
    """Instance keys by exhaustive substitution enumeration.

    First-order variables range over all ground terms occurring in the
    configuration (restricted by type), time variables over all occurring
    timestamps, and fresh variables take the canonical fresh constant.
    """
    terms = [v for v in config.values() if not isinstance(v, int)]
    stamps = sorted(v for v in config.values() if isinstance(v, int))
    fo_vars: dict[str, str] = {}
    for p in (*rule.side, *rule.consumed):
        for arg in p.atom.args:
            if isinstance(arg, Variable):
                fo_vars[arg.name] = arg.base_type
    tvars = sorted({p.tvar for p in (*rule.side, *rule.consumed)})
    fresh_sorted = sorted(rule.fresh_vars)
    fresh_types: dict[str, str] = {}
    for c in rule.created:
        for arg in c.atom.args:
            if isinstance(arg, Variable) and arg.name in rule.fresh_vars:
                fresh_types.setdefault(arg.name, arg.base_type)
    taken: dict[str, set[int]] = {}
    for v in terms:
        if isinstance(v, FreshConstant):
            taken.setdefault(v.base_type, set()).add(v.index)
    fresh_assignment: dict[str, FreshConstant] = {}
    for name in fresh_sorted:
        btype = fresh_types.get(name, "")
        used = taken.setdefault(btype, set())
        index = 0
        while index in used:
            index += 1
        used.add(index)
        fresh_assignment[name] = FreshConstant(btype, index)

    names = sorted(fo_vars)
    have = Counter(config.counts())
    keys: set[str] = set()
    candidates = {
        n: [t for t in terms if _term_type(sig, t) == fo_vars[n]] for n in names
    }
    for fo_choice in itertools.product(*(candidates[n] for n in names)):
        for t_choice in itertools.product(stamps, repeat=len(tvars)):
            sigma: dict = dict(zip(names, fo_choice))
            sigma.update(dict(zip(tvars, t_choice)))
            sigma[GLOBAL_TIME_VAR] = config.global_time
            needed = ground((*rule.side, *rule.consumed), sigma)
            if any(have[f] < k for f, k in Counter(needed).items()):
                continue
            times = {v: t for v, t in sigma.items() if isinstance(t, int)}
            if not all(satisfied(c, times) for c in rule.guard):
                continue
            sigma.update(fresh_assignment)
            inst = RuleInstance(rule, tuple(sorted(sigma.items())))
            keys.add(inst.key())
    return keys


def brute_spec_match(spec: ConfigSpec, config: Configuration) -> tuple | None:
    """`brute_match_spec` in the shape of `match_spec`'s result: a placeholder
    match, or None."""
    return ((), {}) if brute_match_spec(spec, config) else None


def brute_match_spec(spec: ConfigSpec, config: Configuration) -> bool:
    """Specification recognition by exhaustive substitution enumeration."""
    terms = [v for v in config.values() if not isinstance(v, int)]
    stamps = sorted(v for v in config.values() if isinstance(v, int))
    counts = config.counts()
    for pair in spec.pairs:
        fo_vars = sorted(
            {
                a.name
                for p in pair.pattern
                for a in p.atom.args
                if isinstance(a, Variable)
            }
        )
        tvars = sorted({p.tvar for p in pair.pattern})
        for fo_choice in itertools.product(terms, repeat=len(fo_vars)):
            for t_choice in itertools.product(stamps, repeat=len(tvars)):
                sigma: dict = dict(zip(fo_vars, fo_choice))
                sigma.update(dict(zip(tvars, t_choice)))
                needed = ground(pair.pattern, sigma)
                # collapsing substitutions are fine: every substituted pattern
                # must occur, occurrences need not be distinct
                if not all(f in counts for f in needed):
                    continue
                times = {v: t for v, t in sigma.items() if isinstance(t, int)}
                if all(satisfied(c, times) for c in pair.constraints):
                    return True
    return False
