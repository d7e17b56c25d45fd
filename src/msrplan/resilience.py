"""Time-bounded resilience: queries, witnesses, serialization, verification.

`check_resilience` runs the search engine (`search.Checker`) at (n, a, b):
is there a compliant goal trace within a + b ticks that survives up to n
adversarial update applications inside the disruption window a, replanning
recursively after each?  Progressing scenarios take any n; other scenarios
only n = 0, goal reachability within a + b ticks, which the same engine
decides by goal distance.  On success the witness tree is rebuilt from the
moves the engine recorded: the certified trace from each state plus, for
every admissible update point on it, the witness one update level down.

The verifier is a separate traversal that replays annotations and re-derives
every obligation; it shares no pruning with the checker and serves as an
internal oracle for it.  `enumerate_update_points` is its own enumeration of
update points, independent of the engine's.  Both match only through the
match plans' interpreter (`interpret_matches`, `specs.interpret_spec`),
never through the functions the engine generates for hot plans.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional, Union

from .kernel import (
    MAX_TIMESTAMP,
    Configuration,
    Constant,
    FreshConstant,
    GroundTerm,
    Signature,
    Term,
)
from .rules import (
    EngineError,
    Rule,
    RuleInstance,
    RuleRole,
    apply_instance,
    interpret_matches,
    reapply,
    tick,
)
from .scenario import PlanningScenario
from .search import Checker, successors
from .specs import TICK_STEP, Trace, TraceStep, check_compliance, interpret_spec

ETA_CAP = 6


@dataclass(frozen=True)
class ResilienceQuery:
    """(n, a, b): updates tolerated, disruption window, recovery time."""

    n: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.a < 0 or self.b < 0:
            raise EngineError("resilience parameters must be natural numbers")


@dataclass(frozen=True)
class WitnessTree:
    """A strategy certificate: a base trace plus a child certificate for every
    admissible update point."""

    query: ResilienceQuery
    trace: Trace
    children: tuple[tuple[int, RuleInstance, "WitnessTree"], ...] = ()


@dataclass(frozen=True)
class ResilienceResult:
    resilient: bool
    witness: Optional[WitnessTree] = None
    refutation: tuple[str, ...] = ()


def enumerate_update_points(
    scenario: PlanningScenario, trace: Trace, window: int
) -> list[tuple[int, RuleInstance, Configuration]]:
    """Every admissible (configuration index, update instance, result).

    Covers every configuration of the trace, including the initial and final
    ones, whose elapsed time lies within the window.  Identical
    (configuration, instance) pairs arising from repeated configurations are
    reported once, at their first index.
    """
    t0 = trace.initial.global_time
    out: list[tuple[int, RuleInstance, Configuration]] = []
    seen: set[tuple[Configuration, str]] = set()
    for index, config in enumerate(trace.configurations()):
        if config.global_time - t0 > window:
            continue
        for rule in scenario.update_rules:
            for inst in interpret_matches(rule, config):
                dedup = (config, inst.key())
                if dedup in seen:
                    continue
                seen.add(dedup)
                out.append((index, inst, apply_instance(config, inst)))
    return out


def _build_witness(
    checker: Checker,
    config: Configuration,
    n: int,
    built: dict[tuple, WitnessTree],
) -> WitnessTree:
    """The canonical witness for a state `checker` proved good: its certified
    trace plus a subtree for every admissible update point on it.

    No (configuration, instance) pair repeats within one trace: a progressing
    trace never revisits a configuration (each instantaneous step lowers the
    number of non-`Time` facts at or before the global time, each time
    advance moves the clock), and other scenarios only reach n = 0, where a
    node has no children."""
    bkey = (config, n)
    witness = built.get(bkey)
    if witness is not None:
        return witness
    trace = checker.trace(config, n)
    children: list[tuple[int, RuleInstance, WitnessTree]] = []
    for index, current in enumerate(trace.configurations()):
        if not checker.admits_updates(current, n):
            break
        updates = successors(current, checker.scenario.update_rules, advance=False)
        for inst, updated in updates:
            subtree = _build_witness(checker, updated, n - 1, built)
            children.append((index, inst, subtree))
    window = checker.deadline - config.global_time
    query = ResilienceQuery(n, window, checker.b)
    witness = WitnessTree(query, trace, tuple(children))
    built[bkey] = witness
    return witness


def check_resilience(
    scenario: PlanningScenario, query: ResilienceQuery
) -> ResilienceResult:
    """Decide (n,a,b)-resilience; emit a witness tree on success.

    Requires a validated planning scenario whose eta measure does not exceed
    `ETA_CAP` (compliance checking costs m^eta), and a progressing one when
    n > 0.
    """
    if query.a < 1:
        raise EngineError("the disruption window a must be positive")
    eta = scenario.eta()
    if eta > ETA_CAP:
        raise EngineError(
            f"critical specification uses {eta} variables per pair; cap is "
            f"{ETA_CAP} (compliance is brute force in m^eta)"
        )
    checker = Checker(scenario, query.a, query.b)
    if not checker.decide(scenario.initial, query.n):
        refutation = checker.refutation or ("no compliant goal trace",)
        return ResilienceResult(False, refutation=refutation)
    witness = _build_witness(checker, scenario.initial, query.n, {})
    return ResilienceResult(True, witness)


# ---------------------------------------------------------------------------
# Witness serialization
# ---------------------------------------------------------------------------

_TERM = re.compile(r"#([A-Za-z_][A-Za-z0-9_]*):(\d+)|[A-Za-z_][A-Za-z0-9_]*")


def parse_ground_term(text: str, sig: Signature) -> GroundTerm:
    """Read a term as the engine writes it: a declared constant of `sig` or
    a fresh constant ``#type:k``."""
    match = _TERM.fullmatch(text)
    if match is None:
        raise EngineError(f"unparseable term {text!r}")
    base, index = match.groups()
    if base is None:
        if text not in sig.constants:
            raise EngineError(f"unknown constant {text!r} in witness")
        return Constant(text, sig.constants[text])
    try:
        return FreshConstant(base, int(index))
    except ValueError:  # more digits than `int` converts
        message = f"fresh constant index of {len(index)} digits out of range"
        raise EngineError(message) from None


def _instance_to_dict(inst: RuleInstance) -> dict:
    sigma = {v: (t if isinstance(t, int) else str(t)) for v, t in inst.bindings}
    return {"rule": inst.rule.name, "sigma": sigma}


def _step_to_dict(step: TraceStep) -> dict:
    if step.is_tick:
        return {"rule": TICK_STEP}
    return _instance_to_dict(step.instance)


def witness_to_dict(witness: WitnessTree) -> dict:
    children = sorted(
        witness.children, key=lambda c: (c[0], c[1].key())
    )
    return {
        "query": {"n": witness.query.n, "a": witness.query.a, "b": witness.query.b},
        "trace": [_step_to_dict(s) for s in witness.trace.steps],
        "children": [
            {
                "step": i,
                "instance": _instance_to_dict(inst),
                "subtree": witness_to_dict(sub),
            }
            for i, inst, sub in children
        ],
    }


def witness_to_json(witness: Union[WitnessTree, dict]) -> str:
    data = witness_to_dict(witness) if isinstance(witness, WitnessTree) else witness
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def witness_from_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EngineError(f"witness file is not JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:  # too many digits, too deep
        raise EngineError(f"witness file exceeds the JSON reader's limits: {exc}") from None
    if not isinstance(data, dict):
        raise EngineError("witness file must contain a JSON object")
    return data


# ---------------------------------------------------------------------------
# Independent witness verification
# ---------------------------------------------------------------------------

def _instance_from_dict(
    scenario: PlanningScenario,
    rules: dict[str, Rule],
    terms: dict[str, Term],
    data: dict,
    where: str,
    violations: list[str],
) -> Optional[RuleInstance]:
    name = data.get("rule")
    rule = rules.get(name) if isinstance(name, str) else None
    if rule is None:
        violations.append(f"{where}: unknown rule {name!r}")
        return None
    sigma = data.get("sigma", {})
    if not isinstance(sigma, dict):
        violations.append(f"{where}: malformed substitution")
        return None
    # the substitution binds exactly the rule's variables, each time
    # variable to a timestamp and each first-order one to a term
    wanted = rule.all_variables
    times = rule.pre_time_vars
    bindings = []
    try:
        for var in sorted(sigma):
            value = sigma[var]
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise EngineError(f"binding {var} is neither timestamp nor term")
            if var not in wanted:
                raise EngineError(f"binding {var} names no variable of rule {rule.name}")
            if isinstance(value, int) != (var in times):
                kind = "a timestamp" if var in times else "a term"
                raise EngineError(f"binding {var} must be {kind}")
            if isinstance(value, str):
                term = terms.get(value)
                if term is None:
                    term = terms[value] = parse_ground_term(value, scenario.signature)
                value = term
            elif not 0 <= value <= MAX_TIMESTAMP:
                raise EngineError(f"binding {var}: timestamp {value} out of range")
            bindings.append((var, value))
    except EngineError as exc:
        violations.append(f"{where}: {exc}")
        return None
    if len(bindings) < len(wanted):
        missing = wanted - dict(bindings).keys()
        violations.append(f"{where}: substitution misses {sorted(missing)}")
        return None
    return RuleInstance(rule, tuple(bindings))


def _replay_node_trace(
    scenario: PlanningScenario,
    rules: dict[str, Rule],
    terms: dict[str, Term],
    start: Configuration,
    steps: list,
    where: str,
    violations: list[str],
) -> Optional[Trace]:
    current = start
    out: list[TraceStep] = []
    for k, raw in enumerate(steps):
        if isinstance(raw, dict) and raw.get("rule") == TICK_STEP:
            current = tick(current)
            out.append(TraceStep(TICK_STEP, current))
            continue
        label = f"{where}.trace[{k}]"
        if not isinstance(raw, dict):
            violations.append(f"{label}: malformed step")
            return None
        inst = _instance_from_dict(scenario, rules, terms, raw, label, violations)
        if inst is None:
            return None
        if inst.rule.role is not RuleRole.SYSTEM:
            violations.append(f"{label}: trace uses non-system rule {inst.rule.name}")
            return None
        current = reapply(inst, current)
        if current is None:
            violations.append(f"{label}: instance does not re-apply")
            return None
        out.append(TraceStep(inst, current))
    return Trace(start, tuple(out))


def verify_witness(
    scenario: PlanningScenario,
    query: ResilienceQuery,
    witness: Union[WitnessTree, dict],
) -> tuple[bool, list[str]]:
    """Re-derive every obligation of a witness tree; no shared state with the
    checker.

    Checks per node: the query matches, annotations re-apply exactly, the
    trace is compliant and goal-terminated within the tick budget, children
    cover exactly the admissible update points, and each child verifies
    against the reduced query from the updated configuration.
    """
    data = witness_to_dict(witness) if isinstance(witness, WitnessTree) else witness
    violations: list[str] = []
    rules = {r.name: r for r in scenario.rules()}
    # each term text is parsed once per call, against this scenario's signature
    terms: dict[str, Term] = {}
    _verify_node(scenario, rules, terms, scenario.initial, query, data, "root", violations)
    return (not violations, violations)


def _verify_node(
    scenario: PlanningScenario,
    rules: dict[str, Rule],
    terms: dict[str, Term],
    start: Configuration,
    query: ResilienceQuery,
    node: dict,
    where: str,
    violations: list[str],
) -> None:
    q = node.get("query", {})
    if not isinstance(q, dict):
        violations.append(f"{where}: malformed query")
        return
    said = (q.get("n"), q.get("a"), q.get("b"))
    # type(), not only ==: a JSON true equals 1
    if said != (query.n, query.a, query.b) or any(type(v) is not int for v in said):
        violations.append(
            f"{where}: query mismatch: node says ({said[0]},{said[1]},{said[2]}), "
            f"expected ({query.n},{query.a},{query.b})"
        )
    steps = node.get("trace", [])
    if not isinstance(steps, list):
        violations.append(f"{where}: malformed trace")
        return
    trace = _replay_node_trace(scenario, rules, terms, start, steps, where, violations)
    if trace is None:
        return
    compliance = check_compliance(trace, scenario.critical_spec)
    if not compliance.ok:
        index = compliance.violation.step_index
        violations.append(f"{where}: not compliant at step {index}")
        return
    if interpret_spec(scenario.goal_spec, trace.final) is None:
        violations.append(f"{where}: trace does not end in a goal configuration")
        return
    if trace.tick_count() > query.a + query.b:
        violations.append(
            f"{where}: tick budget exceeded ({trace.tick_count()} > "
            f"{query.a}+{query.b})"
        )
        return
    children = node.get("children", [])
    if not isinstance(children, list):
        violations.append(f"{where}: malformed children")
        return
    if query.n == 0:
        if children:
            violations.append(f"{where}: children present at n=0")
        return
    expected = enumerate_update_points(scenario, trace, query.a)
    expected_map = {(i, inst.key()): (inst, cfg) for i, inst, cfg in expected}
    seen_keys: set[tuple[int, str]] = set()
    for c_index, child in enumerate(children):
        label = f"{where}.children[{c_index}]"
        step = child.get("step") if isinstance(child, dict) else None
        # type(), not isinstance(): a JSON true is not a step index
        if type(step) is not int or not isinstance(child.get("instance"), dict):
            violations.append(f"{label}: malformed update point")
            continue
        inst = _instance_from_dict(
            scenario, rules, terms, child["instance"], label, violations
        )
        if inst is None:
            continue
        key = (step, inst.key())
        if key not in expected_map:
            violations.append(f"{label}: unknown update point {key}")
            continue
        if key in seen_keys:
            violations.append(f"{label}: duplicate update point {key}")
            continue
        seen_keys.add(key)
        point_inst, updated = expected_map[key]
        d = trace.config_at(step).global_time - start.global_time
        child_query = ResilienceQuery(query.n - 1, query.a - d, query.b)
        subtree = child.get("subtree")
        if not isinstance(subtree, dict):
            violations.append(f"{label}: missing subtree")
            continue
        _verify_node(
            scenario, rules, terms, updated, child_query, subtree, label, violations
        )
    for key in expected_map:
        if key not in seen_keys:
            violations.append(f"{where}: uncovered update point {key}")
