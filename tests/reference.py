"""Reference implementations the tests compare the package against.

Each computes what a package function computes, along a plainer path or
on the engine's side of a checker: the applicability check of a rule
instance and trace replay through it, the progressing check for one
abstract step, the inverse of `clock_convert`, and rule matching on the
interpreter alone.  The package uses none of them.  They import only
public names from the package: grounding a pattern or a created atom and
deciding a time constraint are done here again, plainly, so an oracle
shares no such code with the engine it checks.
"""

from __future__ import annotations

from collections import Counter
from operator import eq, ge, gt, le, lt
from typing import Optional

from msrplan.delta import DeltaError, DeltaRep, INF, UntimedFact, tock
from msrplan.kernel import (
    MINUTES_PER_DAY,
    MINUTES_PER_HOUR,
    Configuration,
    FreshConstant,
    KernelError,
    TimedFact,
    Variable,
)
from msrplan.rules import (
    GLOBAL_TIME_VAR,
    Atom,
    EngineError,
    FactPattern,
    Rule,
    RuleInstance,
    TimeConstraint,
    tick,
)


_RELATIONS = {">": gt, ">=": ge, "=": eq, "<=": le, "<": lt}


def satisfied(c: TimeConstraint, binding: dict[str, int]) -> bool:
    """Does ``left REL right + offset`` hold under `binding`?"""
    return _RELATIONS[c.rel](binding[c.left], binding[c.right] + c.offset)


def _fill(atom: Atom, sigma: dict, ts: int) -> TimedFact:
    args = tuple(sigma[a.name] if isinstance(a, Variable) else a for a in atom.args)
    return TimedFact(atom.pred, args, ts)


def ground(patterns: tuple[FactPattern, ...], sigma: dict) -> list[TimedFact]:
    """The facts `patterns` denote under `sigma`, in pattern order."""
    return [_fill(p.atom, sigma, sigma[p.tvar]) for p in patterns]


def created(rule: Rule, sigma: dict) -> list[TimedFact]:
    """The facts `rule` creates under `sigma`, in declaration order."""
    now = sigma[GLOBAL_TIME_VAR]
    return [_fill(c.atom, sigma, now + c.delay) for c in rule.created]


def reapply(inst: RuleInstance, config: Configuration) -> Optional[Configuration]:
    """`inst` applied to `config` when it applies there, else None.  It
    applies when its `T` is the global time, its side and consumed facts
    are in `config` as a multiset, its guard holds, and each fresh variable
    holds a fresh constant of its own type, no two the same and none
    already in `config`.  It removes the consumed facts it grounded from the
    bindings, so facts an instance carries are never read.  A substitution
    that misses a variable, or binds a pattern's variable to a value of the
    other sort, raises."""
    rule = inst.rule
    sigma = dict(inst.bindings)
    if sigma[GLOBAL_TIME_VAR] != config.global_time:
        return None
    consumed = ground(rule.consumed, sigma)
    if not Counter(ground(rule.side, sigma) + consumed) <= Counter(config.counts()):
        return None
    # every guard variable occurs in the precondition, so grounding found
    # it bound to a timestamp
    if not all(satisfied(c, sigma) for c in rule.guard):
        return None
    if rule.fresh:
        fresh = [sigma.get(v) for v, _ in rule.fresh]
        for term, (_, btype) in zip(fresh, rule.fresh):
            if not isinstance(term, FreshConstant) or term.base_type != btype:
                return None
        distinct = set(fresh)
        if len(distinct) != len(fresh) or distinct & config.values():
            return None
    return config.replace(consumed, created(rule, sigma))


def engine_replay_errors(trace) -> list[str]:
    """`specs.replay_errors` on the engine's path: each step is re-applied
    with `reapply` or `rules.tick` to the configuration recorded before
    it, and the result compared with the recorded one.  A substitution
    that misses or mistypes a variable raises here."""
    errors = []
    current = trace.initial
    for i, step in enumerate(trace.steps):
        if step.is_tick:
            expected = tick(current)
        else:
            expected = reapply(step.instance, current)
            if expected is None:
                errors.append(f"step {i + 1}: instance {step.instance.key()} not applicable")
                current = step.result
                continue
        if expected != step.result:
            errors.append(f"step {i + 1}: recorded configuration does not match replay")
        current = step.result
    return errors


def _future_profile(d: DeltaRep) -> tuple[list[tuple[UntimedFact, int]], int]:
    """Strictly-future facts with their distance to the global time, plus the
    total future spread (the sum of those distances over all later facts)."""
    i = d.time_index
    out: list[tuple[UntimedFact, int]] = []
    cum = 0
    spread = 0
    for k in range(i, len(d.facts) - 1):
        gap = d.gaps[k]
        if gap is INF:
            raise EngineError("future profile requires a future-bounded abstraction")
        cum += int(gap)
        spread += cum
        if cum > 0:
            out.append((d.facts[k + 1], cum))
    return out, spread


def is_progressing_delta(before: DeltaRep, after: DeltaRep) -> bool:
    """Progressing check for one abstract step.

    Holds when (i) the length is preserved, (ii) every strictly-future fact of
    the enabling abstraction survives with the same distance to the global
    time, and (iii) the global-time fact moves left while the total future
    spread strictly grows.  Time advancement steps (Tock) count as progressing.
    """
    if before.dmax != after.dmax:
        raise DeltaError("abstractions compare only at equal dmax")
    if not before.future_bounded() or not after.future_bounded():
        raise EngineError("progressing check requires future-bounded abstractions")
    if tock(before) == after:
        return True
    if len(before.facts) != len(after.facts):
        return False
    before_future, before_total = _future_profile(before)
    after_future, after_total = _future_profile(after)
    remaining = list(after_future)
    for item in before_future:
        if item in remaining:
            remaining.remove(item)
        else:
            return False
    if after.time_index >= before.time_index:
        return False
    return before_total < after_total


def clock_invert(total: int) -> tuple[int, int, int]:
    """Exact inverse of `kernel.clock_convert`."""
    if total < 0:
        raise KernelError("time units must be non-negative")
    days, rem = divmod(total, MINUTES_PER_DAY)
    hours, minutes = divmod(rem, MINUTES_PER_HOUR)
    return (days, hours, minutes)


def canonical_fresh(rule, config) -> dict[str, FreshConstant]:
    """The fresh assignment of every match of `rule` on `config`: each fresh
    variable, in name order, takes the smallest index of its type that no
    fact holds and no earlier fresh variable took."""
    if not rule.fresh:
        return {}
    taken: dict[str, set[int]] = {}
    for v in config.values():
        if isinstance(v, FreshConstant):
            taken.setdefault(v.base_type, set()).add(v.index)
    out: dict[str, FreshConstant] = {}
    for name, btype in rule.fresh:
        used = taken.setdefault(btype, set())
        index = 0
        while index in used:
            index += 1
        used.add(index)
        out[name] = FreshConstant(btype, index)
    return out


def interpret_matches(rule, config) -> list[RuleInstance]:
    """`rules.find_matches` on the plan's interpreter alone, which never runs
    generated code, so the two tiers can be compared.  Its instances are
    built by the constructor and carry no facts, so `rules.apply_instance`
    refuses them; `reapply` applies them."""
    fresh = canonical_fresh(rule, config)
    instances = [
        RuleInstance(rule, tuple(sorted({**sigma, **fresh}.items())))
        for sigma, _ in rule.plan.interpret(config)
    ]
    return sorted(instances, key=RuleInstance.key)
