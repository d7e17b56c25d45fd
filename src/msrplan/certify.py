"""Witness files and the independent checker of witnesses and traces.

A witness is the strategy tree `resilience.check_resilience` certifies a
positive verdict with.  Its file format lives here: `witness_to_dict` and
`witness_to_json` write it, `witness_from_json` and `parse_ground_term`
read it.

`verify_witness` re-derives every obligation of a witness, and
`trace_errors` (behind `specs.replay_errors`) checks that each recorded
configuration of a trace is the exact result of its step.  Neither shares a
code path with the engine that found what it checks (McConnell, Mehlhorn,
Näher and Schweitzer, *Certifying algorithms*, 2011).  `verify_witness`
checks the engine's in-memory tree in place, under the same obligations and
with the same messages as its JSON object: one walker (`_Verifier.node`)
reads either through a thin reader.  The tree's reader reads each step's
substitution, never the facts the engine matched or the configurations it
recorded, and takes each term's key after checking the term against the
signature; it writes no JSON and parses no text.  Every substitution, of a
witness or of a trace step, is read by one loop (`_Reader.substitution`).
They keep their own state and matcher:

- A `_State` is a configuration as the checker keeps it: for each predicate
  that has a fact, a dict from (argument keys, timestamp) to the number of
  copies, plus the global time.  A trace is replayed on one state, updated
  in place at each step; a state is copied only at an admissible update
  point, to give each child its start state.  The replay builds no
  `Configuration` and makes no engine move (`rules.apply_instance`,
  `tick`, `Configuration.replace`).  `trace_errors` compares each recorded
  configuration, as the sorted list of its facts' sort keys, with the list
  the replay expects, which it updates by the facts each step changes.
- `_join` is a plain backtracking matcher.  Patterns are matched in
  declaration order, after the names bound from the start: ``T`` of a rule
  is the global time, and a specification's `Time` patterns bind their
  variables to the clock.  A pattern whose arguments and timestamp are
  bound is one dict lookup; an equality with a bound name fixes a
  timestamp.  Each time constraint is checked once both its variables are
  bound, and a precondition claims fact occurrences by count.  Each rule
  and specification pair is compiled once (`_rule_code`, `_spec_code`).
- `verify_witness` checks a trace's first configuration against every
  critical pair, and each step only against the pairs it can make match
  (`_Verifier.recheck`): after a tick, the pairs with a `Time` pattern;
  after a rule step, the pairs that join a predicate the rule creates.  A
  pair matches on facts that are present and on the clock, and the
  configuration before a checked step matched no pair.  A tick changes
  only the clock; a rule step keeps it and adds only facts of the
  predicates it creates.  So no other pair can match after the step.

Terms are handled as their sort keys (`kernel.term_sort_key`), which are
total: equal keys, equal terms.  Sorts are the rule's and the scenario's
business: a rule or pair keeps its time and term variables apart, and a
scenario's configurations are typed, so the matcher tests no type.  Update
points are enumerated as the engine does: each fresh variable gets the
engine's canonical fresh constant, and each configuration in the window
gives its points.
"""

from __future__ import annotations

import json
import operator
import re
import weakref
from bisect import bisect_left, insort
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, NamedTuple, Optional, Union

from .kernel import (
    MAX_TIMESTAMP,
    TIME_PREDICATE,
    Configuration,
    Constant,
    FreshConstant,
    GroundTerm,
    Signature,
    TimedFact,
    Variable,
    term_sort_key,
)
from .rules import (
    GLOBAL_TIME_VAR,
    MAX_JOIN_STEPS,
    TICK_STEP,
    EngineError,
    Rule,
    RuleError,
    RuleInstance,
    RuleRole,
)
from .scenario import PlanningScenario
from .specs import ConfigSpec, SpecPair, Trace

# ---------------------------------------------------------------------------
# Witness serialization
# ---------------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TERM = re.compile(rf"#({_NAME.pattern}):(\d+)|{_NAME.pattern}")


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


def _child_order(child: tuple[int, RuleInstance, Any]) -> tuple[int, str]:
    """A tree's children are listed by update step, then instance key."""
    return child[0], child[1].key()


def witness_to_dict(witness) -> dict:
    """The JSON object of a `resilience.WitnessTree`."""
    children = sorted(witness.children, key=_child_order)
    return {
        "query": {"n": witness.query.n, "a": witness.query.a, "b": witness.query.b},
        "trace": [
            {"rule": TICK_STEP} if s.is_tick else _instance_to_dict(s.instance)
            for s in witness.trace.steps
        ],
        "children": [
            {
                "step": i,
                "instance": _instance_to_dict(inst),
                "subtree": witness_to_dict(sub),
            }
            for i, inst, sub in children
        ],
    }


def witness_to_json(witness) -> str:
    """A witness tree or its JSON object as ``json.dumps(data, indent=2,
    sort_keys=True)`` writes it, plus a newline.  `json` encodes in C only
    without `indent`, so the containers are written here and the strings
    by `json`'s own escaping."""
    data = witness if isinstance(witness, dict) else witness_to_dict(witness)
    out: list[str] = []
    _write(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append `value` as JSON to `out`, its items on lines that start with
    `newline` plus two spaces."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        out.append(int.__repr__(value))
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        head = "{" + inner
        for key in sorted(value):
            out.append(head + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out)
            head = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        head = "[" + inner
        for item in value:
            out.append(head)
            _write(item, inner, out)
            head = "," + inner
        out.append(newline + "]")
    else:  # empty containers and the other scalars need no indentation
        out.append(json.dumps(value))


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
# The checker's state
# ---------------------------------------------------------------------------

# A fact as the state keys it: (argument keys, timestamp), under its predicate
Fact = tuple[tuple[tuple, ...], int]


class _State:
    """A configuration as the checker keeps it.  `groups` maps each
    predicate that has a fact to a dict from (argument keys, timestamp) to
    the number of copies; no group and no count is empty, so equal
    multisets give equal dicts.  `clock` is the global time, the one
    `Time` fact."""

    __slots__ = ("groups", "clock")

    def __init__(self, groups: dict[str, dict[Fact, int]], clock: int):
        self.groups = groups
        self.clock = clock

    @classmethod
    def of(cls, config: Configuration) -> "_State":
        groups: dict[str, dict[Fact, int]] = {}
        for fact in config.others:
            group = groups.setdefault(fact.pred, {})
            # a fact's sort key holds its arguments' keys (`_SORT_KEY`)
            key = (fact.sort_key[3], fact.ts)
            group[key] = group.get(key, 0) + 1
        return cls(groups, config.global_time)

    def copy(self) -> "_State":
        return _State({pred: group.copy() for pred, group in self.groups.items()}, self.clock)

    def advance(self) -> None:
        """Advance the global time by one."""
        if self.clock >= MAX_TIMESTAMP:
            raise EngineError("global time overflow")
        self.clock += 1

    def configuration(self) -> Configuration:
        facts = [TimedFact(TIME_PREDICATE, (), self.clock)]
        for pred, group in self.groups.items():
            for (keys, ts), count in group.items():
                facts += [TimedFact(pred, tuple(map(_term, keys)), ts)] * count
        return Configuration(facts)

    def fresh_taken(self) -> set[tuple]:
        """The keys of the fresh constants some fact holds."""
        return {
            key
            for group in self.groups.values()
            for keys, _ in group
            for key in keys
            if key[0] == 1
        }


def _term(key: tuple) -> GroundTerm:
    """The term whose sort key is `key`: (0, name, type) for a declared
    constant, (1, type, index) for a fresh one."""
    return Constant(key[1], key[2]) if key[0] == 0 else FreshConstant(key[1], key[2])


def _text(value: Union[int, tuple]) -> str:
    """A binding as a witness writes it: a timestamp, or a term's text."""
    if isinstance(value, int):
        return str(value)
    return value[1] if value[0] == 0 else f"#{value[1]}:{value[2]}"


def _instance_text(rule: str, sigma: dict) -> str:
    """`RuleInstance.key` of the instance of `rule` under `sigma`."""
    inner = ",".join(f"{v}={_text(t)}" for v, t in sorted(sigma.items()))
    return f"{rule}{{{inner}}}"


# ---------------------------------------------------------------------------
# Compiled rules and specification pairs
# ---------------------------------------------------------------------------

_OPS = {">": operator.gt, ">=": operator.ge, "=": operator.eq, "<=": operator.le, "<": operator.lt}

# (left, op, right, offset): holds when op(sigma[left], sigma[right] + offset)
Check = tuple[str, Any, str, int]

# How to ground an argument list: per argument (variable name, None) or
# (None, a constant's key), and the keys themselves when all are constants
Slots = tuple[tuple[tuple[Optional[str], Optional[tuple]], ...], Optional[tuple]]


def _slots(args: Iterable) -> Slots:
    slots = tuple(
        (a.name, None) if isinstance(a, Variable) else (None, term_sort_key(a)) for a in args
    )
    whole = None if any(name for name, _ in slots) else tuple(k for _, k in slots)
    return slots, whole


def _ground(slots: Slots, sigma: dict) -> tuple:
    each, whole = slots
    if whole is not None:
        return whole
    return tuple([k if n is None else sigma[n] for n, k in each])


def _checks(constraints: Iterable) -> list[tuple[Check, str]]:
    return [((c.left, _OPS[c.rel], c.right, c.offset), c.rel) for c in constraints]


def _hold(checks: tuple[Check, ...], sigma: dict) -> bool:
    for left, op, right, offset in checks:
        if not op(sigma[left], sigma[right] + offset):
            return False
    return True


class _Step(NamedTuple):
    """One pattern of a join.  `tvar` is bound by this step unless `bound`;
    `pin` is (name, offset) when an equality fixes the timestamp at
    sigma[name] + offset.  `fixed` grounds the arguments known on entry,
    which sit at `positions`; the step is `determined` when they are all
    its arguments.  `binds` lists the first occurrences of new variables as
    (position, name), `dups` their later ones as (position, first
    position)."""

    pred: str
    tvar: str
    bound: bool
    pin: Optional[tuple[str, int]]
    arity: int
    positions: tuple[int, ...]
    fixed: Slots
    determined: bool
    binds: tuple[tuple[int, str], ...]
    dups: tuple[tuple[int, int], ...]
    checks: tuple[Check, ...]  # the constraints whose later variable this step binds
    claims: bool  # claim a fact occurrence of its own
    final: bool


def _compile_join(
    patterns: list, constraints: Iterable, bound: set[str], claims: bool
) -> tuple[tuple[Check, ...], tuple[_Step, ...]]:
    """The constraints over the names in `bound` alone, and the steps that
    match `patterns` in their order after them.  With `claims`, patterns of
    a predicate that several share claim distinct occurrences.  `_join`
    recurses once per step, so a join longer than `rules.MAX_JOIN_STEPS`
    is refused here."""
    if len(patterns) > MAX_JOIN_STEPS:
        raise RuleError(
            f"a join of {len(patterns)} patterns exceeds the limit of "
            f"{MAX_JOIN_STEPS} steps (MAX_JOIN_STEPS)"
        )
    pending = _checks(constraints)
    before = tuple(c for c, _ in pending if c[0] in bound and c[2] in bound)
    pending = [(c, rel) for c, rel in pending if c not in before]
    preds = [p.atom.pred for p in patterns]
    shared = {q for q in preds if preds.count(q) > 1} if claims else set()
    steps = []
    for index, pat in enumerate(patterns):
        tvar, args = pat.tvar, pat.atom.args
        known = tvar in bound
        pin = None
        for c, rel in [] if known else pending:
            left, _, right, offset = c
            if rel == "=" and left == tvar and right in bound:
                pin = (right, offset)
            elif rel == "=" and right == tvar and left in bound:
                pin = (left, -offset)
            else:
                continue
            pending.remove((c, rel))  # the timestamp meets it exactly
            break
        positions, fixed, binds, dups = [], [], [], []
        first: dict[str, int] = {}
        for pos, arg in enumerate(args):
            if isinstance(arg, Variable) and arg.name in first:
                dups.append((pos, first[arg.name]))
            elif isinstance(arg, Variable) and arg.name not in bound:
                first[arg.name] = pos
                binds.append((pos, arg.name))
            else:
                positions.append(pos)
                fixed.append(arg)
        bound |= {tvar, *first}
        ready = [(c, rel) for c, rel in pending if c[0] in bound and c[2] in bound]
        pending = [item for item in pending if item not in ready]
        steps.append(_Step(
            pat.atom.pred, tvar, known, pin, len(args), tuple(positions), _slots(fixed),
            len(fixed) == len(args), tuple(binds), tuple(dups), tuple(c for c, _ in ready),
            pat.atom.pred in shared, index + 1 == len(patterns),
        ))
    return before, tuple(steps)


class _RuleCode(NamedTuple):
    """A rule compiled for the checker.  `pre` grounds the side condition
    then the consumed patterns, the last `consumed` of them, as
    (predicate, time variable, slots); `repeats` tells whether two of them
    share a predicate.  `created` grounds the created facts as (predicate,
    slots, delay).  `before` and `join` match the precondition."""

    rule: Rule
    variables: frozenset[str]
    times: frozenset[str]
    pre: tuple[tuple[str, str, Slots], ...]
    repeats: bool
    consumed: int
    created: tuple[tuple[str, Slots, int], ...]
    guard: tuple[Check, ...]
    fresh: tuple[tuple[str, str], ...]
    before: tuple[Check, ...]
    join: tuple[_Step, ...]


class _PairCode(NamedTuple):
    clocked: tuple[str, ...]  # the variables of its `Time` patterns
    before: tuple[Check, ...]
    join: tuple[_Step, ...]


def _compile_rule(rule: Rule) -> _RuleCode:
    patterns = [*rule.side, *rule.consumed]
    preds = [p.atom.pred for p in patterns]
    before, join = _compile_join(patterns, rule.guard, {GLOBAL_TIME_VAR}, True)
    return _RuleCode(
        rule, rule.all_variables, rule.pre_time_vars,
        tuple((p.atom.pred, p.tvar, _slots(p.atom.args)) for p in patterns),
        len(set(preds)) < len(preds), len(rule.consumed),
        tuple((c.atom.pred, _slots(c.atom.args), c.delay) for c in rule.created),
        tuple(c for c, _ in _checks(rule.guard)), rule.fresh, before, join,
    )


def _compile_pair(pair: SpecPair) -> _PairCode:
    """Binds `SpecPair.clock` to the clock, then matches `SpecPair.joined`."""
    before, join = _compile_join(pair.joined, pair.constraints, set(pair.clock), False)
    return _PairCode(pair.clock, before, join)


# Compiled forms by the id of their rule or pair, dropped when it is freed
_CODES: dict[int, Any] = {}


def _code(owner: object, compile_) -> Any:
    code = _CODES.get(id(owner))
    if code is None:
        code = _CODES[id(owner)] = compile_(owner)
        weakref.finalize(owner, _CODES.pop, id(owner), None)
    return code


def _rule_code(rule: Rule) -> _RuleCode:
    return _code(rule, _compile_rule)


def _spec_code(spec: ConfigSpec) -> tuple[_PairCode, ...]:
    return tuple(_code(pair, _compile_pair) for pair in spec.pairs)


# ---------------------------------------------------------------------------
# Matching and rewriting
# ---------------------------------------------------------------------------

def _join(
    steps: tuple[_Step, ...],
    i: int,
    groups: dict[str, dict[Fact, int]],
    sigma: dict,
    used: Optional[dict],
    out: Optional[list],
) -> bool:
    """Match steps[i:] on `groups`, extending `sigma` in place (a step
    writes only names no earlier step binds).  Every complete binding is
    copied to `out`; with `out` None the first one ends the search and True
    is returned.  `used` counts the occurrences claiming steps hold."""
    (pred, tvar, bound, pin, arity, positions, fixed, determined, binds, dups,
     checks, claims, final) = steps[i]
    group = groups.get(pred)
    if group is None:
        return False
    ts = sigma[tvar] if bound else None if pin is None else sigma[pin[0]] + pin[1]
    known = _ground(fixed, sigma)
    if determined and ts is not None:
        count = group.get((known, ts))
        if not count:
            return False
        facts: Iterable = (((known, ts), count),)
    else:
        facts = group.items()
    for fact, count in facts:
        args, at = fact
        if ts is not None and at != ts:
            continue
        if determined:
            if args != known:
                continue
        elif not _fits(args, arity, positions, known, dups):
            continue
        else:
            for pos, name in binds:
                sigma[name] = args[pos]
        if not bound:
            sigma[tvar] = at
        if checks and not _hold(checks, sigma):
            continue
        if claims:
            held = used.get((pred, fact), 0)
            if held >= count:
                continue
            used[(pred, fact)] = held + 1
        if final:
            if out is None:
                return True
            out.append(dict(sigma))
        elif _join(steps, i + 1, groups, sigma, used, out):
            return True
        if claims:
            used[(pred, fact)] = held
    return False


def _fits(
    args: tuple,
    arity: int,
    positions: tuple[int, ...],
    known: tuple,
    dups: tuple[tuple[int, int], ...],
) -> bool:
    """Do a fact's argument keys have the step's arity, its known keys and
    its repeated variables' keys twice?"""
    if len(args) != arity:
        return False
    for pos, key in zip(positions, known):
        if args[pos] != key:
            return False
    for pos, other in dups:
        if args[pos] != args[other]:
            return False
    return True


def _holds(codes: tuple[_PairCode, ...], state: _State) -> bool:
    """Does some pair of the compiled specification match `state`?"""
    for clocked, before, join in codes:
        sigma = dict.fromkeys(clocked, state.clock)
        if before and not _hold(before, sigma):
            continue
        if not join or _join(join, 0, state.groups, sigma, None, None):
            return True
    return False


def _matches(code: _RuleCode, state: _State) -> list[dict]:
    """Every binding of the rule's variables under which it applies to
    `state`, each fresh variable bound to its canonical fresh constant: in
    name order, the smallest index of its type that no fact holds and no
    earlier fresh variable took."""
    sigma = {GLOBAL_TIME_VAR: state.clock}
    if not _hold(code.before, sigma):
        return []
    if not code.join:
        found = [sigma]
    else:
        found = []
        _join(code.join, 0, state.groups, sigma, {}, found)
    if found and code.fresh:
        taken = state.fresh_taken()
        assigned = {}
        for name, btype in code.fresh:
            index = 0
            while (1, btype, index) in taken:
                index += 1
            taken.add(assigned.setdefault(name, (1, btype, index)))
        for sigma in found:
            sigma.update(assigned)
    return found


def _rewrite(
    code: _RuleCode, sigma: dict, consumed: Iterable[tuple[str, Fact]], groups: dict
) -> list[tuple[str, Fact]]:
    """Take the `consumed` facts, which `groups` holds, out of it and put
    the facts the rule creates under `sigma` in; return those."""
    for pred, fact in consumed:
        group = groups[pred]
        count = group[fact]
        if count > 1:
            group[fact] = count - 1
        elif len(group) > 1:
            del group[fact]
        else:
            del groups[pred]
    now = sigma[GLOBAL_TIME_VAR]
    created = []
    for pred, slots, delay in code.created:
        ts = now + delay
        if ts > MAX_TIMESTAMP:
            raise EngineError("created timestamp overflow")
        fact = (_ground(slots, sigma), ts)
        created.append((pred, fact))
        group = groups.get(pred)
        if group is None:
            groups[pred] = {fact: 1}
        else:
            group[fact] = group.get(fact, 0) + 1
    return created


def _apply(code: _RuleCode, sigma: dict, state: _State) -> None:
    """Apply a binding `_matches` found for the rule on `state`."""
    consumed = [
        (pred, (_ground(slots, sigma), sigma[tvar]))
        for pred, tvar, slots in code.pre[len(code.pre) - code.consumed:]
    ]
    _rewrite(code, sigma, consumed, state.groups)


def _replay(
    code: _RuleCode, sigma: dict, state: _State
) -> Optional[tuple[list[tuple[str, Fact]], list[tuple[str, Fact]]]]:
    """Apply the rule to `state` under `sigma`, a binding of each of its
    variables, when it applies there, and return the facts it consumed and
    created; else return None.  It applies when its ``T`` is the global
    time, its side and consumed facts are in `state` as a multiset, its
    guard holds, and each fresh variable holds a fresh constant of its
    type, no two the same and none held by a fact."""
    if sigma[GLOBAL_TIME_VAR] != state.clock:
        return None
    groups = state.groups
    pre = [(pred, (_ground(slots, sigma), sigma[tvar])) for pred, tvar, slots in code.pre]
    if code.repeats:
        wanted: dict[tuple, int] = {}
        for item in pre:
            wanted[item] = wanted.get(item, 0) + 1
        for (pred, fact), count in wanted.items():
            group = groups.get(pred)
            if group is None or group.get(fact, 0) < count:
                return None
    else:
        for pred, fact in pre:
            group = groups.get(pred)
            if group is None or fact not in group:
                return None
    if code.guard and not _hold(code.guard, sigma):
        return None
    if code.fresh:
        terms = [sigma[name] for name, _ in code.fresh]
        for key, (_, btype) in zip(terms, code.fresh):
            if key[0] != 1 or key[1] != btype:
                return None
        if len(set(terms)) != len(terms) or not state.fresh_taken().isdisjoint(terms):
            return None
    consumed = pre[len(pre) - code.consumed:]
    return consumed, _rewrite(code, sigma, consumed, groups)


def _update_points(codes: list[_RuleCode], state: _State) -> list[tuple[str, _RuleCode, dict]]:
    """The update points of `state` as (instance key, rule, binding), by
    rule and then key.  Within a signature a name identifies a constant, so
    no two bindings share a key."""
    points = []
    for code in codes:
        name = code.rule.name
        found = [(_instance_text(name, sigma), code, sigma) for sigma in _matches(code, state)]
        points += sorted(found, key=lambda point: point[0])
    return points


def enumerate_update_points(
    scenario: PlanningScenario, trace: Trace, window: int
) -> list[tuple[int, RuleInstance, Configuration]]:
    """Every admissible (configuration index, update instance, result).

    Covers every configuration of the trace, including the initial and final
    ones, whose elapsed time lies within the window.  Each gives its points,
    also one that repeats an earlier configuration, as the engine's witness
    lists them (`resilience._build_witness`); a progressing trace repeats
    none, and only a progressing scenario has update rounds.
    """
    t0 = trace.initial.global_time
    codes = [_rule_code(rule) for rule in scenario.update_rules]
    out: list[tuple[int, RuleInstance, Configuration]] = []
    for index, config in enumerate(trace.configurations()):
        if config.global_time - t0 > window:
            continue
        state = _State.of(config)
        for _, code, sigma in _update_points(codes, state):
            updated = state.copy()
            _apply(code, sigma, updated)
            bindings = tuple(sorted(
                (v, t if isinstance(t, int) else _term(t)) for v, t in sigma.items()
            ))
            out.append((index, RuleInstance(code.rule, bindings), updated.configuration()))
    return out


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------

# A fact's sort key as `kernel.TimedFact` builds it: (timestamp, 1 for a
# fact other than the clock, predicate, argument keys)
_SORT_KEY = operator.attrgetter("sort_key")


def trace_errors(trace: Trace) -> list[str]:
    """The steps of `trace` whose recorded configuration is not the exact
    result of its annotation, each replayed on one `_State` from the
    configuration recorded before it.  A tick moves the clock by one and
    keeps the facts.  A rule step's substitution is read as a witness's is
    (`_Reader.substitution`), and one it refuses applies nowhere.  The step
    must apply under its substitution alone (`_replay`), and leaves the
    facts before it without those it consumed and with those it created.
    A recorded configuration must have the replay's clock, and the facts
    other than its clock (`others`) the sort keys the replay expects, kept
    as one sorted list.  A step that does not apply, or whose clock or
    created timestamp passes the timestamp range, is reported with its
    reason; after a failed step the replay goes on from its recorded
    configuration."""
    errors: list[str] = []
    read = _Reader().substitution
    state = _State.of(trace.initial)
    checked = trace.initial.others
    keys = list(map(_SORT_KEY, checked))
    for k, step in enumerate(trace.steps, 1):
        recorded, inst = step.result, step.instance
        others = recorded.others
        try:
            if isinstance(inst, str):  # a tick
                state.advance()
                change = None
            else:
                code = _rule_code(inst.rule)
                try:
                    sigma = read(code, inst.bindings)
                except EngineError:
                    sigma = None
                change = None if sigma is None else _replay(code, sigma, state)
                if change is None:
                    raise EngineError(f"instance {inst.key()} not applicable")
        except EngineError as exc:
            errors.append(f"step {k}: {exc}")
            state, checked = _State.of(recorded), others
            keys = list(map(_SORT_KEY, others))
            continue
        if change is None:
            # a tick keeps the facts, so the very tuple checked last holds them
            got = keys if others is checked else list(map(_SORT_KEY, others))
        else:
            consumed, created = change
            for pred, (args, ts) in consumed:
                del keys[bisect_left(keys, (ts, 1, pred, args))]
            for pred, (args, ts) in created:
                insort(keys, (ts, 1, pred, args))
            got = list(map(_SORT_KEY, others))
        if recorded.global_time != state.clock or got != keys:
            errors.append(f"step {k}: recorded configuration does not match replay")
            state = _State.of(recorded)
        keys, checked = got, others
    return errors


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_witness(
    scenario: PlanningScenario, query, witness
) -> tuple[bool, list[str]]:
    """Re-derive every obligation of a witness tree for `query`, a root
    `resilience.ResilienceQuery`, on the checker's own state and matcher.
    The witness is a `resilience.WitnessTree`, read in place, or its JSON
    object: the same obligations, checked by the same walker, with the same
    messages.

    Checks per node: the query matches, annotations re-apply exactly, the
    trace is compliant and goal-terminated within the tick budget, children
    cover exactly the admissible update points, and each child verifies
    against the reduced query from the updated configuration.  The root
    query must be one checking decides (`ResilienceQuery.check_root`): a
    positive disruption window, and a progressing scenario when n > 0.  A
    refusal is the violation ``root: <reason>``, beside the node's own.
    """
    reader = _JsonReader if isinstance(witness, dict) else _TreeReader
    verifier = _Verifier(scenario, reader)
    try:
        query.check_root(scenario)
    except EngineError as exc:
        verifier.violations.append(f"root: {exc}")
    verifier.node(_State.of(scenario.initial), (query.n, query.a, query.b), witness, "root")
    violations = verifier.violations
    return (not violations, violations)


# A tree's child: (step index, update instance, subtree), or a JSON child
# read as one, each part None where it is malformed
Child = tuple[Any, Any, Any]


class _Reader:
    """How a substitution is read, and how `_Verifier.node` reads one form
    of witness: a node's query, trace and children, and a step's rule and
    substitution, each term as its key.  `terms` are the classes a term is
    written as; `key` gives a term's key or names what is wrong with it.
    The base reader, which knows no rules and no signature, reads a trace
    step's `RuleInstance.bindings`: a term is a `Constant` or a
    `FreshConstant`, and its key is its `term_sort_key`."""

    terms: tuple[type, ...] = (Constant, FreshConstant)
    key = staticmethod(term_sort_key)

    def __init__(
        self, rules: Optional[dict[str, _RuleCode]] = None, signature: Optional[Signature] = None
    ):
        self.rules = rules
        self.signature = signature

    def substitution(self, code: _RuleCode, items: Iterable[tuple[str, Any]]) -> dict:
        """The substitution `items`, (variable, value) pairs, bind: exactly
        the rule's variables, each time variable to a timestamp and each
        first-order one to a term.  An `EngineError` names what is wrong;
        of the bindings, the failing one whose variable sorts first."""
        wanted, times, terms, key = code.variables, code.times, self.terms, self.key
        sigma = {}
        failed: Optional[tuple[str, EngineError]] = None
        for var, value in items:
            try:
                stamp = value.__class__ is int
                if not stamp and value.__class__ not in terms:  # a subclass, or neither
                    if isinstance(value, bool) or not isinstance(value, (int, *terms)):
                        raise EngineError(f"binding {var} is neither timestamp nor term")
                    stamp = isinstance(value, int)
                if var not in wanted:
                    raise EngineError(f"binding {var} names no variable of rule {code.rule.name}")
                if stamp != (var in times):
                    want = "a timestamp" if var in times else "a term"
                    raise EngineError(f"binding {var} must be {want}")
                if not stamp:
                    value = key(value)
                elif not 0 <= value <= MAX_TIMESTAMP:
                    raise EngineError(f"binding {var}: timestamp {value} out of range")
                sigma[var] = value
            except EngineError as exc:
                if failed is None or var < failed[0]:
                    failed = (var, exc)
        if failed is not None:
            raise failed[1]
        if len(sigma) < len(wanted):
            raise EngineError(f"substitution misses {sorted(wanted - sigma.keys())}")
        return sigma

    def rule(self, name: Any) -> _RuleCode:
        code = self.rules.get(name) if isinstance(name, str) else None
        if code is None:
            raise EngineError(f"unknown rule {name!r}")
        return code


class _JsonReader(_Reader):
    """Reads a witness's JSON object: terms are their text, each parsed
    once against the scenario's signature (`keys`)."""

    terms = (str,)

    def __init__(self, rules: dict[str, _RuleCode], signature: Signature):
        super().__init__(rules, signature)
        self.keys: dict[str, tuple] = {}

    def key(self, text: str) -> tuple:
        key = self.keys.get(text)
        if key is None:
            key = self.keys[text] = term_sort_key(parse_ground_term(text, self.signature))
        return key

    @staticmethod
    def query(node: dict) -> Optional[tuple]:
        q = node.get("query", {})
        return (q.get("n"), q.get("a"), q.get("b")) if isinstance(q, dict) else None

    @staticmethod
    def trace(node: dict) -> Optional[list]:
        steps = node.get("trace", [])
        return steps if isinstance(steps, list) else None

    def step(self, raw: Any) -> Optional[tuple[_RuleCode, dict]]:
        """None for a tick, else the step's rule and substitution."""
        if not isinstance(raw, dict):
            raise EngineError("malformed step")
        return None if raw.get("rule") == TICK_STEP else self.instance(raw)

    def instance(self, data: dict) -> tuple[_RuleCode, dict]:
        code = self.rule(data.get("rule"))
        sigma = data.get("sigma", {})
        if not isinstance(sigma, dict):
            raise EngineError("malformed substitution")
        return code, self.substitution(code, sigma.items())

    @staticmethod
    def children(node: dict) -> Optional[list[Child]]:
        children = node.get("children", [])
        if not isinstance(children, list):
            return None
        out = []
        for child in children:
            if not isinstance(child, dict):
                out.append((None, None, None))
                continue
            inst, subtree = child.get("instance"), child.get("subtree")
            out.append((
                child.get("step"),
                inst if isinstance(inst, dict) else None,
                subtree if isinstance(subtree, dict) else None,
            ))
        return out


class _TreeReader(_Reader):
    """Reads a `resilience.WitnessTree` in place: a step's
    `RuleInstance.bindings`, never its matched facts or its recorded
    configuration.  A term is checked once (`known`): a declared constant
    of its declared type, or a fresh constant whose type is a name and
    whose index a natural number, which are the terms a witness file can
    write.  A term its JSON form could write gets that form's message."""

    def __init__(self, rules: dict[str, _RuleCode], signature: Signature):
        super().__init__(rules, signature)
        self.known: set[tuple] = set()

    def key(self, term: GroundTerm) -> tuple:
        key = term_sort_key(term)
        if key not in self.known:
            if isinstance(term, Constant):
                name, btype = term.name, term.base_type
                declared = self.signature.constants.get(name)
                if declared is None:
                    if isinstance(name, str) and _NAME.fullmatch(name):
                        raise EngineError(f"unknown constant {name!r} in witness")
                    raise EngineError(f"unparseable term {str(name)!r}")
                if declared != btype:
                    raise EngineError(f"constant {name} is of type {declared}, not {btype}")
            else:
                btype, index = term.base_type, term.index
                if not (
                    isinstance(btype, str) and _NAME.fullmatch(btype)
                    and isinstance(index, int) and not isinstance(index, bool) and index >= 0
                ):
                    raise EngineError(f"unparseable term {str(term)!r}")
            self.known.add(key)
        return key

    @staticmethod
    def query(node) -> tuple:
        q = node.query
        return (q.n, q.a, q.b)

    @staticmethod
    def trace(node) -> tuple:
        return node.trace.steps

    def step(self, raw) -> Optional[tuple[_RuleCode, dict]]:
        """None for a tick, else the step's rule and substitution."""
        inst = raw.instance
        return None if isinstance(inst, str) else self.instance(inst)

    def instance(self, inst: RuleInstance) -> tuple[_RuleCode, dict]:
        code = self.rule(inst.rule.name)
        return code, self.substitution(code, inst.bindings)

    @staticmethod
    def children(node) -> list[Child]:
        """The children in the order a witness file lists them."""
        return sorted(node.children, key=_child_order)


class _Verifier:
    """One `verify_witness` call: the scenario's compiled rules by name and
    specifications, the reader of the witness's form and the violations
    found.  `recheck` holds, by step name, the critical pairs a step can
    make match: for a tick those with a `Time` pattern, for a rule those
    that join a predicate it creates."""

    def __init__(self, scenario: PlanningScenario, reader: type[_Reader] = _JsonReader):
        self.rules = {r.name: _rule_code(r) for r in scenario.rules()}
        self.updates = [_rule_code(rule) for rule in scenario.update_rules]
        self.critical = critical = _spec_code(scenario.critical_spec)
        self.goal = _spec_code(scenario.goal_spec)
        self.recheck = {TICK_STEP: tuple(pair for pair in critical if pair.clocked)}
        for name, code in self.rules.items():
            made = {pred for pred, _, _ in code.created}
            self.recheck[name] = tuple(
                pair for pair in critical if any(step.pred in made for step in pair.join)
            )
        self.read = reader(self.rules, scenario.signature)
        self.violations: list[str] = []

    def node(self, state: _State, query: tuple[int, int, int], node: Any, where: str) -> None:
        """Verify `node` against `query` (n, a, b) from `state`, which the
        replay of its trace updates in place."""
        violations, read = self.violations, self.read
        n, a, b = query
        said = read.query(node)
        if said is None:
            violations.append(f"{where}: malformed query")
            return
        # type(), not only ==: a JSON true equals 1
        if said != query or any(type(v) is not int for v in said):
            violations.append(
                f"{where}: query mismatch: node says ({said[0]},{said[1]},{said[2]}), "
                f"expected ({n},{a},{b})"
            )
        steps = read.trace(node)
        if steps is None:
            violations.append(f"{where}: malformed trace")
            return
        # One pass replays the trace.  Each configuration is checked against
        # the critical specification until one is critical, and, while
        # updates are left and the window is open, its update points are
        # kept; both are reported only once the whole trace re-applies.
        # The configuration before a checked step matched no critical pair,
        # so the step checks again only the pairs it can make match.
        start, recheck, read_step = state.clock, self.recheck, read.step
        unsafe = 0 if _holds(self.critical, state) else None
        points: dict[tuple[int, str], tuple[_RuleCode, dict, _State]] = {}
        open_ = n > 0 and a >= 0 and unsafe is None
        if open_:
            self._collect(state, 0, points)
        ticks = 0
        for k, raw in enumerate(steps):
            try:
                found = read_step(raw)
                if found is None:
                    state.advance()
                    ticks += 1
                    open_ = open_ and state.clock - start <= a
                    pairs = recheck[TICK_STEP]
                else:
                    code, sigma = found
                    if code.rule.role is not RuleRole.SYSTEM:
                        raise EngineError(f"trace uses non-system rule {code.rule.name}")
                    if _replay(code, sigma, state) is None:
                        raise EngineError("instance does not re-apply")
                    pairs = recheck[code.rule.name]
            except EngineError as exc:
                violations.append(f"{where}.trace[{k}]: {exc}")
                return
            if unsafe is None and pairs and _holds(pairs, state):
                unsafe, open_ = k + 1, False
            if open_:
                self._collect(state, k + 1, points)
        if unsafe is not None:
            violations.append(f"{where}: not compliant at step {unsafe}")
            return
        if not _holds(self.goal, state):
            violations.append(f"{where}: trace does not end in a goal configuration")
            return
        if ticks > a + b:
            violations.append(f"{where}: tick budget exceeded ({ticks} > {a}+{b})")
            return
        children = read.children(node)
        if children is None:
            violations.append(f"{where}: malformed children")
            return
        if n == 0:
            if children:
                violations.append(f"{where}: children present at n=0")
            return
        seen_keys: set[tuple[int, str]] = set()
        for c_index, (step, inst, subtree) in enumerate(children):
            label = f"{where}.children[{c_index}]"
            # type(), not isinstance(): a JSON true is not a step index
            if type(step) is not int or inst is None:
                violations.append(f"{label}: malformed update point")
                continue
            try:
                code, sigma = read.instance(inst)
            except EngineError as exc:
                violations.append(f"{label}: {exc}")
                continue
            key = (step, _instance_text(code.rule.name, sigma))
            if key not in points:
                violations.append(f"{label}: unknown update point {key}")
                continue
            if key in seen_keys:
                violations.append(f"{label}: duplicate update point {key}")
                continue
            seen_keys.add(key)
            code, sigma, snapshot = points[key]
            child_query = (n - 1, a - (snapshot.clock - start), b)
            if subtree is None:
                violations.append(f"{label}: missing subtree")
                continue
            updated = snapshot.copy()
            try:
                _apply(code, sigma, updated)
            except EngineError as exc:
                violations.append(f"{label}: {exc}")
                continue
            self.node(updated, child_query, subtree, label)
        for key in points:
            if key not in seen_keys:
                violations.append(f"{where}: uncovered update point {key}")

    def _collect(
        self,
        state: _State,
        index: int,
        points: dict[tuple[int, str], tuple[_RuleCode, dict, _State]],
    ) -> None:
        """Add the update points of `state`, configuration `index` of the
        trace, to `points`, each with a copy of `state` to apply it to."""
        found = _update_points(self.updates, state)
        if found:
            snapshot = state.copy()
            for text, code, sigma in found:
                points[(index, text)] = (code, sigma, snapshot)
