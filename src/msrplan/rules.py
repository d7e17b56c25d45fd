"""Guarded rewrite rules: matching, application, and classification.

A rule rewrites a configuration instantaneously.  Its precondition is the
implicit ``Time@T`` pattern plus a side condition (matched but untouched) and
a consumed multiset; its postcondition recreates the side condition and adds
created facts at fixed delays from the global time.  The distinguished time
variable ``T`` always denotes the global time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

from .kernel import (
    MAX_TIMESTAMP,
    TIME_PREDICATE,
    Configuration,
    Constant,
    FreshConstant,
    FuncApp,
    Role,
    Signature,
    Term,
    TimedFact,
    Variable,
    is_ground,
    term_variables,
)

GLOBAL_TIME_VAR = "T"


class RuleError(ValueError):
    """Raised for ill-formed rules or inapplicable instances."""


class EngineError(RuntimeError):
    """Raised for runtime misuse: stale instances, overflow, bad inputs."""


class RuleRole(enum.Enum):
    SYSTEM = "system"
    SYSTEM_UPDATE = "system_update"
    GOAL_UPDATE = "goal_update"


@dataclass(frozen=True)
class Atom:
    """An atomic formula; arguments may contain variables."""

    pred: str
    args: tuple[Term, ...] = ()

    def variables(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= term_variables(a)
        return out

    def __str__(self) -> str:
        if self.args:
            return f"{self.pred}({','.join(str(a) for a in self.args)})"
        return self.pred


@dataclass(frozen=True)
class FactPattern:
    """A timestamped atomic formula ``atom@tvar`` in a precondition."""

    atom: Atom
    tvar: str

    def __str__(self) -> str:
        return f"{self.atom}@{self.tvar}"


@dataclass(frozen=True)
class CreatedFact:
    """A postcondition entry ``atom@(T+delay)``."""

    atom: Atom
    delay: int

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise RuleError("created-fact delay must be a natural number")

    def __str__(self) -> str:
        if self.delay:
            return f"{self.atom}@{GLOBAL_TIME_VAR}+{self.delay}"
        return f"{self.atom}@{GLOBAL_TIME_VAR}"


_REL_SET = {">", ">=", "=", "<=", "<"}


@dataclass(frozen=True)
class TimeConstraint:
    """``left REL right + offset`` over time variables, offset a signed integer.

    Surface relations >=, <=, < are accepted and normalize to the primitive
    > / = forms over naturals (``a >= b + n`` iff ``a > b + n - 1``).
    """

    left: str
    rel: str
    right: str
    offset: int = 0
    implicit: bool = False  # injected past-consumption constraint, not written

    def __post_init__(self) -> None:
        if self.rel not in _REL_SET:
            raise RuleError(f"unknown relation {self.rel!r}")

    def normalized(self) -> "TimeConstraint":
        """Equivalent constraint using only > or =."""
        if self.rel in (">", "="):
            return self
        if self.rel == ">=":
            return TimeConstraint(self.left, ">", self.right, self.offset - 1, self.implicit)
        if self.rel == "<":
            return TimeConstraint(self.right, ">", self.left, -self.offset, self.implicit)
        # a <= b + n  iff  b > a - n - 1
        return TimeConstraint(self.right, ">", self.left, -self.offset - 1, self.implicit)

    def variables(self) -> set[str]:
        return {self.left, self.right}

    def satisfied(self, binding: dict[str, int]) -> bool:
        lhs = binding[self.left]
        rhs = binding[self.right] + self.offset
        if self.rel == ">":
            return lhs > rhs
        if self.rel == ">=":
            return lhs >= rhs
        if self.rel == "=":
            return lhs == rhs
        if self.rel == "<=":
            return lhs <= rhs
        return lhs < rhs

    def __str__(self) -> str:
        if self.offset > 0:
            tail = f" + {self.offset}"
        elif self.offset < 0:
            tail = f" - {-self.offset}"
        else:
            tail = ""
        return f"{self.left} {self.rel} {self.right}{tail}"


class _Dbm:
    """Difference-bound closure over a constraint set, for entailment checks."""

    def __init__(self, constraints: Iterable[TimeConstraint]):
        self.vars: set[str] = {"__zero__"}
        bounds: dict[tuple[str, str], int] = {}

        def add(u: str, v: str, w: int) -> None:
            # upper bound on u - v
            key = (u, v)
            if key not in bounds or w < bounds[key]:
                bounds[key] = w

        for c in constraints:
            n = c.normalized()
            self.vars.update((n.left, n.right))
            if n.rel == ">":
                # left > right + off  iff  right - left <= -(off + 1)
                add(n.right, n.left, -(n.offset + 1))
            else:
                add(n.left, n.right, n.offset)
                add(n.right, n.left, -n.offset)
        for v in self.vars:
            if v != "__zero__":
                add("__zero__", v, 0)  # timestamps are naturals: v >= 0
        names = sorted(self.vars)
        idx = {v: i for i, v in enumerate(names)}
        n = len(names)
        inf = float("inf")
        dist = [[inf] * n for _ in range(n)]
        for i in range(n):
            dist[i][i] = 0
        for (u, v), w in bounds.items():
            i, j = idx[u], idx[v]
            if w < dist[i][j]:
                dist[i][j] = w
        for k in range(n):
            dk = dist[k]
            for i in range(n):
                dik = dist[i][k]
                if dik == inf:
                    continue
                di = dist[i]
                for j in range(n):
                    alt = dik + dk[j]
                    if alt < di[j]:
                        di[j] = alt
        self._idx = idx
        self._dist = dist

    def satisfiable(self) -> bool:
        return all(self._dist[i][i] >= 0 for i in range(len(self._idx)))

    def entails_ge(self, a: str, b: str) -> bool:
        """Does the constraint set entail a >= b?"""
        if a == b:
            return True
        if a not in self._idx or b not in self._idx:
            return False
        # a >= b  iff  b - a <= 0 is forced
        return self._dist[self._idx[b]][self._idx[a]] <= 0


@dataclass(frozen=True)
class Rule:
    """An instantaneous guarded rewrite with a role tag."""

    name: str
    side: tuple[FactPattern, ...]
    consumed: tuple[FactPattern, ...]
    created: tuple[CreatedFact, ...]
    guard: tuple[TimeConstraint, ...]
    role: RuleRole = RuleRole.SYSTEM

    def __post_init__(self) -> None:
        for p in (*self.side, *self.consumed):
            if p.atom.pred == TIME_PREDICATE:
                raise RuleError(
                    f"rule {self.name}: the global-time fact cannot appear in "
                    "side conditions or be consumed; rules do not modify the "
                    "global time"
                )
        for c in self.created:
            if c.atom.pred == TIME_PREDICATE:
                raise RuleError(
                    f"rule {self.name}: the global-time fact cannot be created"
                )
        pre_tvars = self.pre_time_vars()
        for c in self.guard:
            for v in c.variables():
                if v not in pre_tvars:
                    raise RuleError(
                        f"rule {self.name}: guard variable {v} does not occur "
                        "in the precondition"
                    )
        # No timestamped atomic formula may appear with equal multiplicity on
        # the consumed and created lists (bans pure no-op rewrites).  Consumed
        # entries at @T compare equal to created entries at delay 0.
        consumed_at_t: dict[Atom, int] = {}
        for p in self.consumed:
            if p.tvar == GLOBAL_TIME_VAR:
                consumed_at_t[p.atom] = consumed_at_t.get(p.atom, 0) + 1
        created_at_t: dict[Atom, int] = {}
        for c in self.created:
            if c.delay == 0:
                created_at_t[c.atom] = created_at_t.get(c.atom, 0) + 1
        for atom, n in consumed_at_t.items():
            if created_at_t.get(atom, 0) == n:
                raise RuleError(
                    f"rule {self.name}: {atom}@T occurs with equal multiplicity "
                    "in consumed and created; write it as a side condition"
                )

    def pre_time_vars(self) -> set[str]:
        out = {GLOBAL_TIME_VAR}
        for p in (*self.side, *self.consumed):
            out.add(p.tvar)
        return out

    def pre_fo_vars(self) -> set[str]:
        out: set[str] = set()
        for p in (*self.side, *self.consumed):
            out |= p.atom.variables()
        return out

    def fresh_vars(self) -> set[str]:
        created_vars: set[str] = set()
        for c in self.created:
            created_vars |= c.atom.variables()
        return created_vars - self.pre_fo_vars()

    def all_variables(self) -> set[str]:
        out = self.pre_time_vars() | self.pre_fo_vars()
        for c in self.created:
            out |= c.atom.variables()
        return out

    def with_past_consumption(self) -> "Rule":
        """Add the implicit constraints T >= T_i for every consumed fact."""
        present = {(c.left, c.rel, c.right, c.offset) for c in self.guard}
        extra = []
        for p in self.consumed:
            if p.tvar == GLOBAL_TIME_VAR:
                continue
            key = (GLOBAL_TIME_VAR, ">=", p.tvar, 0)
            if key in present:
                continue
            present.add(key)
            extra.append(
                TimeConstraint(GLOBAL_TIME_VAR, ">=", p.tvar, 0, implicit=True)
            )
        if not extra:
            return self
        return replace(self, guard=self.guard + tuple(extra))

    def __str__(self) -> str:
        parts = []
        if self.side:
            parts.append("pre: " + ", ".join(str(p) for p in self.side))
        if self.consumed:
            parts.append("consume: " + ", ".join(str(p) for p in self.consumed))
        if self.created:
            parts.append("create: " + ", ".join(str(c) for c in self.created))
        written = [c for c in self.guard if not c.implicit]
        if written:
            parts.append("guard: " + ", ".join(str(c) for c in written))
        return f"rule {self.role.value} {self.name} {{ " + "; ".join(parts) + " }"


Binding = dict[str, Union[Term, int]]


def substitute(term: Term, sigma: Binding) -> Term:
    if isinstance(term, Variable):
        value = sigma.get(term.name)
        if value is None:
            raise RuleError(f"unbound variable {term.name}")
        if isinstance(value, int):
            raise RuleError(f"time value bound to first-order variable {term.name}")
        return value
    if isinstance(term, FuncApp):
        return FuncApp(term.func, tuple(substitute(a, sigma) for a in term.args))
    return term


def ground_atom(atom: Atom, sigma: Binding, ts: int) -> TimedFact:
    args = tuple(substitute(a, sigma) for a in atom.args)
    return TimedFact(atom.pred, args, ts)


@dataclass(frozen=True)
class RuleInstance:
    """A rule paired with a total ground substitution.

    The substitution maps every rule variable: time variables (including the
    global ``T``) to timestamps and first-order variables to ground terms,
    with fresh variables sent injectively to fresh constants absent from the
    matched configuration.
    """

    rule: Rule
    bindings: tuple[tuple[str, Union[Term, int]], ...]

    @property
    def sigma(self) -> Binding:
        return dict(self.bindings)

    @property
    def fresh_assignment(self) -> dict[str, FreshConstant]:
        fresh = self.rule.fresh_vars()
        return {
            v: t for v, t in self.bindings if v in fresh and isinstance(t, FreshConstant)
        }

    def key(self) -> str:
        inner = ",".join(f"{v}={t}" for v, t in sorted(self.bindings))
        return f"{self.rule.name}{{{inner}}}"

    def consumed_facts(self) -> list[TimedFact]:
        sigma = self.sigma
        return [ground_atom(p.atom, sigma, _ts_of(sigma, p.tvar)) for p in self.rule.consumed]

    def side_facts(self) -> list[TimedFact]:
        sigma = self.sigma
        return [ground_atom(p.atom, sigma, _ts_of(sigma, p.tvar)) for p in self.rule.side]

    def created_facts(self) -> list[TimedFact]:
        sigma = self.sigma
        now = _ts_of(sigma, GLOBAL_TIME_VAR)
        out = []
        for c in self.rule.created:
            ts = now + c.delay
            if ts > MAX_TIMESTAMP:
                raise EngineError("created timestamp overflow")
            out.append(ground_atom(c.atom, sigma, ts))
        return out

    def __str__(self) -> str:
        inner = ", ".join(f"{v}={t}" for v, t in sorted(self.bindings))
        return f"{self.rule.name} σ={{{inner}}}"


def _ts_of(sigma: Binding, tvar: str) -> int:
    value = sigma[tvar]
    if not isinstance(value, int):
        raise RuleError(f"time variable {tvar} bound to non-timestamp {value}")
    return value


def _unify(pattern: Term, ground: Term, sigma: Binding) -> Optional[Binding]:
    if isinstance(pattern, Variable):
        bound = sigma.get(pattern.name)
        if bound is None:
            if pattern.base_type and _ground_type_mismatch(pattern, ground):
                return None
            out = dict(sigma)
            out[pattern.name] = ground
            return out
        return sigma if bound == ground else None
    if isinstance(pattern, FuncApp):
        if not isinstance(ground, FuncApp) or pattern.func != ground.func:
            return None
        if len(pattern.args) != len(ground.args):
            return None
        for p, g in zip(pattern.args, ground.args):
            next_sigma = _unify(p, g, sigma)
            if next_sigma is None:
                return None
            sigma = next_sigma
        return sigma
    return sigma if pattern == ground else None


def _ground_type_mismatch(var: Variable, ground: Term) -> bool:
    if isinstance(ground, (Constant, FreshConstant)):
        return ground.base_type != var.base_type
    return False  # function results are type-checked at construction


def _guard_ok_so_far(guard: tuple[TimeConstraint, ...], sigma: Binding) -> bool:
    for c in guard:
        left = sigma.get(c.left)
        right = sigma.get(c.right)
        if isinstance(left, int) and isinstance(right, int):
            if not c.satisfied({c.left: left, c.right: right}):
                return False
    return True


def _match_patterns(
    patterns: list[FactPattern],
    by_pred: dict[str, list[TimedFact]],
    available: Optional[dict[TimedFact, int]],
    sigma: Binding,
    guard: tuple[TimeConstraint, ...],
    out: list[Binding],
) -> None:
    """Backtracking pattern embedding.

    With `available` set, pattern occurrences claim distinct fact occurrences
    (multiset inclusion, as rule preconditions require).  With `available`
    None, several patterns may collapse onto one fact (specification matching
    asks only that every substituted pattern occurs).
    """
    if not patterns:
        out.append(dict(sigma))
        return
    pat, rest = patterns[0], patterns[1:]
    bound_ts = sigma.get(pat.tvar)

    # fast path: all arguments already determined, so candidates are filtered
    # by tuple equality without trial substitutions
    ground_args: Optional[list[Term]] = []
    for a in pat.atom.args:
        if isinstance(a, Variable):
            b = sigma.get(a.name)
            if b is None or isinstance(b, int):
                ground_args = None
                break
            ground_args.append(b)
        elif is_ground(a):
            ground_args.append(a)
        else:
            ground_args = None
            break
    if ground_args is not None:
        wanted = tuple(ground_args)
        for fact in by_pred.get(pat.atom.pred, ()):
            if fact.args != wanted:
                continue
            if bound_ts is not None and bound_ts != fact.ts:
                continue
            if available is not None and available[fact] <= 0:
                continue
            if bound_ts is None:
                next_sigma = dict(sigma)
                next_sigma[pat.tvar] = fact.ts
                if not _guard_ok_so_far(guard, next_sigma):
                    continue
            else:
                next_sigma = sigma  # nothing new bound; frames copy on bind
            if available is None:
                _match_patterns(rest, by_pred, None, next_sigma, guard, out)
            else:
                available[fact] -= 1
                _match_patterns(rest, by_pred, available, next_sigma, guard, out)
                available[fact] += 1
        return

    for fact in by_pred.get(pat.atom.pred, ()):
        if available is not None and available[fact] <= 0:
            continue
        if len(fact.args) != len(pat.atom.args):
            continue
        if bound_ts is not None and bound_ts != fact.ts:
            continue
        next_sigma: Optional[Binding] = dict(sigma)
        next_sigma[pat.tvar] = fact.ts
        for p_arg, g_arg in zip(pat.atom.args, fact.args):
            next_sigma = _unify(p_arg, g_arg, next_sigma)
            if next_sigma is None:
                break
        if next_sigma is None:
            continue
        if not _guard_ok_so_far(guard, next_sigma):
            continue
        if available is None:
            _match_patterns(rest, by_pred, None, next_sigma, guard, out)
        else:
            available[fact] -= 1
            _match_patterns(rest, by_pred, available, next_sigma, guard, out)
            available[fact] += 1


def _canonical_fresh(
    rule: Rule, config: Configuration, sigma: Binding, sig: Optional[Signature]
) -> Binding:
    fresh_vars = sorted(rule.fresh_vars())
    if not fresh_vars:
        return sigma
    taken: dict[str, set[int]] = {}
    for v in config.values():
        if isinstance(v, FreshConstant):
            taken.setdefault(v.base_type, set()).add(v.index)
    var_types = _fresh_var_types(rule, sig)
    out = dict(sigma)
    for name in fresh_vars:
        btype = var_types.get(name, "")
        used = taken.setdefault(btype, set())
        index = 0
        while index in used:
            index += 1
        used.add(index)
        out[name] = FreshConstant(btype, index)
    return out


def _fresh_var_types(rule: Rule, sig: Optional[Signature]) -> dict[str, str]:
    types: dict[str, str] = {}
    for c in rule.created:
        _collect_var_types(c.atom, sig, types)
    for p in (*rule.side, *rule.consumed):
        _collect_var_types(p.atom, sig, types)
    return types


def _collect_var_types(atom: Atom, sig: Optional[Signature], types: dict[str, str]) -> None:
    expected: tuple[str, ...] = ()
    if sig is not None and atom.pred in sig.predicates:
        expected = sig.predicates[atom.pred]
    for i, arg in enumerate(atom.args):
        if isinstance(arg, Variable):
            if arg.base_type:
                types.setdefault(arg.name, arg.base_type)
            elif i < len(expected):
                types.setdefault(arg.name, expected[i])


def find_matches(
    rule: Rule, config: Configuration, sig: Optional[Signature] = None
) -> list[RuleInstance]:
    """All instances of `rule` applicable to `config`, canonically ordered.

    Instances are identified up to fresh-constant renaming: each match gets
    the deterministic fresh assignment, so the returned set is finite and
    reproducible.  The precondition (side condition plus consumed facts) must
    embed into the configuration as a multiset and the guard must be
    satisfied.
    """
    now = config.global_time
    base: Binding = {GLOBAL_TIME_VAR: now}
    guard = rule.guard
    if not _guard_ok_so_far(guard, base):
        return []
    by_pred = config.by_pred()
    available = config.counts()
    patterns = [*rule.side, *rule.consumed]
    raw: list[Binding] = []
    _match_patterns(patterns, by_pred, available, base, guard, raw)
    instances: dict[str, RuleInstance] = {}
    for sigma in raw:
        if not all(c.satisfied(_time_view(sigma)) for c in guard):
            continue
        sigma = _canonical_fresh(rule, config, sigma, sig)
        inst = RuleInstance(rule, tuple(sorted(sigma.items(), key=lambda kv: kv[0])))
        instances.setdefault(inst.key(), inst)
    return [instances[k] for k in sorted(instances)]


def _time_view(sigma: Binding) -> dict[str, int]:
    return {v: t for v, t in sigma.items() if isinstance(t, int)}


def is_applicable(inst: RuleInstance, config: Configuration) -> bool:
    sigma = inst.sigma
    if _ts_of(sigma, GLOBAL_TIME_VAR) != config.global_time:
        return False
    needed = inst.side_facts() + inst.consumed_facts()
    if not config.contains(needed):
        return False
    if not all(c.satisfied(_time_view(sigma)) for c in inst.rule.guard):
        return False
    values = config.values()
    fresh = set(inst.fresh_assignment.values())
    if len(fresh) != len(inst.fresh_assignment):
        return False
    return not (fresh & values)


def apply_instance(
    config: Configuration, inst: RuleInstance, *, trusted: bool = False
) -> Configuration:
    """Apply a rule instance: remove consumed facts, add created ones.

    Side-condition facts and the global-time fact are untouched.  A stale
    instance (no longer applicable to `config`) is rejected; `trusted` skips
    that re-check for instances just produced by find_matches on `config`.
    """
    if not trusted and not is_applicable(inst, config):
        raise EngineError(f"stale instance {inst.key()} on {config}")
    return config.replace(inst.consumed_facts(), inst.created_facts())


def tick(config: Configuration) -> Configuration:
    """Advance the global time by one."""
    now = config.global_time
    if now >= MAX_TIMESTAMP:
        raise EngineError("global time overflow")
    old = TimedFact(TIME_PREDICATE, (), now)
    new = TimedFact(TIME_PREDICATE, (), now + 1)
    return config.replace([old], [new])


@dataclass(frozen=True)
class RuleClassification:
    balanced: bool
    progressing: bool
    role_valid: bool
    violations: tuple[str, ...] = ()


def classify_rule(rule: Rule, sig: Signature) -> RuleClassification:
    """Balanced / progressing / role checks with named violations.

    A rule is balanced when precondition and postcondition have equal fact
    counts; progressing when additionally every consumed fact is constrained
    to the past or present and at least one created fact lies strictly in the
    future.  Role validity enforces which predicate classes the rule may
    consume or create given its role tag.
    """
    violations: list[str] = []
    balanced = len(rule.consumed) == len(rule.created)
    if not balanced:
        violations.append(
            f"progressing(i)/balanced: {len(rule.consumed)} consumed vs "
            f"{len(rule.created)} created"
        )

    dbm = _Dbm(rule.guard)
    past_ok = True
    if not dbm.satisfiable():
        past_ok = False
        violations.append("progressing(ii): guard is unsatisfiable")
    else:
        for p in rule.consumed:
            if not dbm.entails_ge(GLOBAL_TIME_VAR, p.tvar):
                past_ok = False
                violations.append(
                    f"progressing(ii): consumed fact {p} may lie in the future"
                )
    future_created = any(c.delay >= 1 for c in rule.created)
    if not future_created:
        violations.append(
            "progressing(iii): no created fact with timestamp greater than the "
            "global time"
        )
    progressing = balanced and past_ok and future_created

    role_violations = _role_violations(rule, sig)
    violations.extend(role_violations)
    return RuleClassification(
        balanced=balanced,
        progressing=progressing,
        role_valid=not role_violations,
        violations=tuple(violations),
    )


def _role_violations(rule: Rule, sig: Signature) -> list[str]:
    out: list[str] = []
    touched: list[tuple[str, Role]] = []
    for p in rule.consumed:
        touched.append((f"consumes {p.atom}", sig.role(p.atom.pred)))
    for c in rule.created:
        touched.append((f"creates {c.atom}", sig.role(c.atom.pred)))
    if rule.role is RuleRole.SYSTEM:
        for what, role in touched:
            if role in (Role.GOAL, Role.CRITICAL):
                out.append(f"role(system): {what}, a planning fact")
    elif rule.role is RuleRole.SYSTEM_UPDATE:
        for what, role in touched:
            if role in (Role.GOAL, Role.CRITICAL):
                out.append(
                    f"role(system-update): {what}; planning facts may only "
                    "occur in the side condition"
                )
    else:
        if not any(role is Role.GOAL for _, role in touched):
            out.append(
                "role(goal-update): rule neither consumes nor creates a goal fact"
            )
        for what, role in touched:
            if role is Role.CRITICAL:
                out.append(
                    f"role(goal-update): {what}; critical facts may only occur "
                    "in the side condition"
                )
    return out
