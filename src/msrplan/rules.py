"""Guarded rewrite rules: matching, application, and classification.

A rule rewrites a configuration instantaneously.  Its precondition is the
implicit ``Time@T`` pattern plus a side condition (matched but untouched) and
a consumed multiset; its postcondition recreates the side condition and adds
created facts at fixed delays from the global time.  The distinguished time
variable ``T`` always denotes the global time.

Matching runs on a `MatchPlan`, compiled once per rule (`Rule.plan`) and per
specification pair (`specs.SpecPair.plan`) and kept on that object.  The
plan fixes the order in which patterns bind their variables, so it knows
statically which arguments are ground or bound at each step and turns every
guard constraint into a bound on one step's fact timestamp: an ``=``
constraint against a bound variable anchors the timestamp exactly, and
candidates are filtered on it before any binding is made.  A rule plan may
put anchored patterns first because `find_matches` sorts its instances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union

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
    subterms,
    term_variables,
)

GLOBAL_TIME_VAR = "T"
TICK_STEP = "Tick"  # a time advance's step label, so no rule may take the name


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


class ProgressCheck(NamedTuple):
    """The classification checks that read only the rule (`Rule.progress`)."""

    balanced: bool
    progressing: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class Rule:
    """An instantaneous guarded rewrite with a role tag.

    A rule may be shared by several scenarios (the QBF generator reuses its
    rules across formulas).  Its cached properties, `plan`, `progress` and
    `fresh`, are computed from the rule alone, so sharing them is sound;
    anything that depends on a signature is computed per call.
    """

    name: str
    side: tuple[FactPattern, ...]
    consumed: tuple[FactPattern, ...]
    created: tuple[CreatedFact, ...]
    guard: tuple[TimeConstraint, ...]
    role: RuleRole = RuleRole.SYSTEM

    def __post_init__(self) -> None:
        if self.name == TICK_STEP:
            raise RuleError(f"rule name {TICK_STEP} is reserved for the time advance")
        for p in (*self.side, *self.consumed):
            if p.atom.pred == TIME_PREDICATE:
                raise RuleError(
                    f"rule {self.name}: rules may not mention the global-time "
                    "fact in pre or consume; it is matched implicitly and never "
                    "modified"
                )
        for c in self.created:
            if c.atom.pred == TIME_PREDICATE:
                raise RuleError(
                    f"rule {self.name}: rules may not create the global-time fact"
                )
        for name, btype in self.fresh:
            if not btype:
                raise RuleError(f"rule {self.name}: fresh variable {name} has no type")
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

    @cached_property
    def plan(self) -> "MatchPlan":
        """The compiled matcher for the precondition and guard, built on
        first use and kept with the rule."""
        return MatchPlan((*self.side, *self.consumed), self.guard, precondition=True)

    @cached_property
    def fresh(self) -> tuple[tuple[str, str], ...]:
        """Fresh variables by name, each typed by its first created occurrence."""
        names = self.fresh_vars()
        types: dict[str, str] = {}
        for c in self.created:
            for arg in c.atom.args:
                for t in subterms(arg):
                    if isinstance(t, Variable) and t.name in names:
                        types.setdefault(t.name, t.base_type)
        return tuple(sorted(types.items()))

    @cached_property
    def progress(self) -> ProgressCheck:
        """The balanced and progressing checks of `classify_rule`, with their
        violations, computed on first use and kept with the rule."""
        violations: list[str] = []
        balanced = len(self.consumed) == len(self.created)
        if not balanced:
            violations.append(
                f"progressing(i)/balanced: {len(self.consumed)} consumed vs "
                f"{len(self.created)} created"
            )

        dbm = _Dbm(self.guard)
        past_ok = True
        if not dbm.satisfiable():
            past_ok = False
            violations.append("progressing(ii): guard is unsatisfiable")
        else:
            for p in self.consumed:
                if not dbm.entails_ge(GLOBAL_TIME_VAR, p.tvar):
                    past_ok = False
                    violations.append(
                        f"progressing(ii): consumed fact {p} may lie in the future"
                    )
        future_created = any(c.delay >= 1 for c in self.created)
        if not future_created:
            violations.append(
                "progressing(iii): no created fact with timestamp greater than the "
                "global time"
            )
        progressing = balanced and past_ok and future_created
        return ProgressCheck(balanced, progressing, tuple(violations))

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
        """The rule's block in a scenario file, without implicit constraints."""
        written = tuple(c for c in self.guard if not c.implicit)
        lines = [f"rule {self.role.value} {self.name} {{"]
        for clause, items in zip(
            ("pre", "consume", "create", "guard"),
            (self.side, self.consumed, self.created, written),
        ):
            if items:
                lines.append(f"  {clause}: " + ", ".join(map(str, items)) + ";")
        return "\n".join([*lines, "}"])


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
    def fresh_assignment(self) -> dict[str, Union[Term, int]]:
        """What each bound fresh variable of the rule holds."""
        fresh = dict(self.rule.fresh)
        return {v: t for v, t in self.bindings if v in fresh}

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


class MatchPlan:
    """A pattern list plus time constraints compiled into a backtracking join.

    Each step matches one pattern against the facts of its predicate.  The
    binding order is fixed, so which of a pattern's arguments are ground or
    already bound is known at compile time.  Every constraint is attached to
    the step where the later of its two variables is bound, as a bound on
    that step's fact timestamp computed from values bound earlier: each
    constraint is checked exactly once.  An ``=`` constraint whose other
    side is already bound (``T1 = T``, ``T1 + 30 = T``, ``T1 = T + 1``)
    pins the timestamp exactly; this is the step's anchor.  Candidates come
    in canonical order, which is ascending timestamp, so a step skips facts
    below its lower bound and stops at the first fact above its upper bound
    before looking at any argument.  Constraints over a single variable are
    decided at compile time.

    One binding dict is extended in place.  A step writes only names that no
    earlier step binds, so backtracking needs no undo.
    """

    __slots__ = ("steps", "preds", "claims", "never", "precondition")

    def __init__(
        self,
        patterns: Iterable[FactPattern],
        constraints: Iterable[TimeConstraint],
        *,
        precondition: bool = False,
    ):
        """With `precondition` the plan matches a rule precondition: the
        global time ``T`` is bound before matching starts, patterns of a
        predicate that several patterns share claim distinct fact occurrences
        (multiset inclusion), and anchored patterns go first, since callers
        sort what they find.  Otherwise it matches a specification pair:
        patterns keep declaration order, so the first binding found is the
        first in that order, and several patterns may collapse onto one fact
        (recognition asks only that every substituted pattern occurs)."""
        self.precondition = precondition
        prebound = (GLOBAL_TIME_VAR,) if precondition else ()
        remaining = list(patterns)
        self.never = False  # no binding can ever complete
        by_var: dict[str, list[TimeConstraint]] = {}
        for c in constraints:
            c = c.normalized()
            if c.left != c.right:
                by_var.setdefault(c.left, []).append(c)
                by_var.setdefault(c.right, []).append(c)
            elif not (0 > c.offset if c.rel == ">" else c.offset == 0):
                self.never = True
        time_names = set(prebound)
        fo_names: set[str] = set()
        for p in remaining:
            time_names.add(p.tvar)
            for a in p.atom.args:
                if isinstance(a, Variable):
                    fo_names.add(a.name)
                elif isinstance(a, FuncApp):
                    fo_names |= term_variables(a)
        if not fo_names.isdisjoint(time_names):
            self.never = True  # a timestamp never equals a term
        preds = [p.atom.pred for p in remaining]
        shared = {q for q in preds if preds.count(q) > 1} if precondition else ()
        self.preds = tuple(dict.fromkeys(preds))
        self.claims = bool(shared)
        bound = set(prebound)
        steps = []
        while remaining:
            pat = remaining.pop(_next_pattern(remaining, bound, by_var) if precondition else 0)
            steps.append(_Step.compile(pat, bound, by_var, pat.atom.pred in shared))
        self.steps = tuple(steps)

    def bindings(self, config: Configuration) -> list[Binding]:
        """The complete bindings in step order over the configuration's
        canonical order.  A precondition's plan starts from ``T`` bound to the
        global time and finds every binding; a specification pair's plan
        starts empty and stops at the first."""
        by_pred = config.by_pred()
        if self.never:
            return []
        for pred in self.preds:
            if pred not in by_pred:
                return []
        sigma = {GLOBAL_TIME_VAR: config.global_time} if self.precondition else {}
        if not self.steps:
            return [sigma]
        out: list[Binding] = []
        available = config.counts() if self.claims else None
        _extend(self.steps, 0, by_pred, sigma, available, out, not self.precondition)
        return out


class _Step(NamedTuple):
    """One pattern of a plan, compiled after the names bound before it.

    `lows` and `highs` hold (name, k) pairs meaning ``ts >= binding[name] +
    k`` and ``ts <= binding[name] + k`` for the candidate fact's timestamp.
    `fixed` lists the arguments determined on entry as (position, bound name
    or None, ground term); `binds` the first occurrences of new variables as
    (position, name, base type); `dups` their later occurrences as
    (position, first position).  `whole` is the argument tuple itself when
    every argument is ground.  A pattern with a non-ground function term
    instead unifies its `nested` arguments one by one from the `known` names.
    """

    tvar: Optional[str]  # None when an earlier step binds it
    pred: str
    arity: int
    lows: tuple[tuple[str, int], ...]
    highs: tuple[tuple[str, int], ...]
    determined: bool  # every argument is in `fixed`
    whole: Optional[tuple[Term, ...]]
    fixed: tuple[tuple[int, Optional[str], Optional[Term]], ...]
    binds: tuple[tuple[int, str, str], ...]
    dups: tuple[tuple[int, int], ...]
    nested: Optional[tuple[Term, ...]]
    known: tuple[str, ...]
    claims: bool  # claim a distinct fact occurrence

    @classmethod
    def compile(
        cls,
        pat: FactPattern,
        bound: set[str],
        by_var: dict[str, list[TimeConstraint]],
        claims: bool,
    ) -> "_Step":
        """Compile `pat` after the names in `bound`, then add its names to
        `bound`.  A constraint lands on the step binding its second variable."""
        lows: list[tuple[str, int]] = []
        highs: list[tuple[str, int]] = []
        tvar: Optional[str] = pat.tvar
        if tvar in bound:
            lows.append((tvar, 0))
            highs.append((tvar, 0))
            tvar = None
        else:
            for c in by_var.get(tvar, ()):
                # c reads `left > right + offset` or `left = right + offset`
                if c.left == tvar and c.right in bound:
                    lows.append((c.right, c.offset + (c.rel == ">")))
                    if c.rel == "=":
                        highs.append((c.right, c.offset))
                elif c.right == tvar and c.left in bound:
                    highs.append((c.left, -c.offset - (c.rel == ">")))
                    if c.rel == "=":
                        lows.append((c.left, -c.offset))
            bound.add(tvar)
        args = pat.atom.args
        fixed: list[tuple[int, Optional[str], Optional[Term]]] = []
        binds: list[tuple[int, str, str]] = []
        dups: list[tuple[int, int]] = []
        first_pos: dict[str, int] = {}
        nested = None
        known: tuple[str, ...] = ()
        for pos, a in enumerate(args):
            if isinstance(a, Variable):
                if a.name in first_pos:
                    dups.append((pos, first_pos[a.name]))
                elif a.name in bound:
                    fixed.append((pos, a.name, None))
                else:
                    first_pos[a.name] = pos
                    binds.append((pos, a.name, a.base_type))
            elif is_ground(a):
                fixed.append((pos, None, a))
            else:
                nested = args
        if nested is not None:
            names = pat.atom.variables()
            known = tuple(sorted(names & bound))
            bound |= names
            fixed, binds, dups = [], [], []
        else:
            bound.update(first_pos)
        determined = nested is None and len(fixed) == len(args)
        whole = args if determined and all(n is None for _, n, _ in fixed) else None
        return cls(
            tvar, pat.atom.pred, len(args), tuple(lows), tuple(highs), determined,
            whole, tuple(fixed), tuple(binds), tuple(dups), nested, known, claims,
        )


def _extend(
    steps: tuple[_Step, ...],
    i: int,
    by_pred: dict[str, list[TimedFact]],
    sigma: Binding,
    available: Optional[dict[TimedFact, int]],
    out: list[Binding],
    first: bool,
) -> bool:
    """Match steps[i:] in place on `sigma`, appending a copy of every
    complete binding to `out`; True once `first` is set and one is found."""
    (tvar, pred, arity, lows, highs, determined, whole, fixed, binds, dups,
     nested, known, claims) = steps[i]
    final = i + 1 == len(steps)
    lo, hi = 0, MAX_TIMESTAMP
    for name, k in lows:
        x = sigma[name] + k
        if x > lo:
            lo = x
    for name, k in highs:
        x = sigma[name] + k
        if x < hi:
            hi = x
    if lo > hi:
        return False
    if determined:
        if whole is None:
            whole = tuple([g if n is None else sigma[n] for _, n, g in fixed])
    else:
        checks = [(pos, g if n is None else sigma[n]) for pos, n, g in fixed]
    for fact in by_pred[pred]:
        ts = fact.ts
        if ts < lo:
            continue
        if ts > hi:
            break  # ascending timestamps: no later fact fits
        args = fact.args
        if determined:
            if args != whole:
                continue
        elif nested is not None:
            view = _unify_args(nested, args, {n: sigma[n] for n in known})
            if view is None:
                continue
        elif len(args) != arity or not _fits(args, checks, dups, binds):
            continue
        if claims:
            if available[fact] <= 0:
                continue
            available[fact] -= 1
        if tvar is not None:
            sigma[tvar] = ts
        for pos, name, _ in binds:
            sigma[name] = args[pos]
        if nested is not None:
            sigma.update(view)
        if final:
            out.append(dict(sigma))
            stop = first
        else:
            stop = _extend(steps, i + 1, by_pred, sigma, available, out, first)
        if claims:
            available[fact] += 1
        if stop:
            return True
    return False


def _fits(
    args: tuple[Term, ...],
    checks: list[tuple[int, Term]],
    dups: tuple[tuple[int, int], ...],
    binds: tuple[tuple[int, str, str], ...],
) -> bool:
    for pos, value in checks:
        if args[pos] != value:
            return False
    for pos, first in dups:
        if args[pos] != args[first]:
            return False
    for pos, _, btype in binds:
        if btype:
            g = args[pos]
            if isinstance(g, (Constant, FreshConstant)) and g.base_type != btype:
                return False
    return True


def _unify_args(
    patterns: tuple[Term, ...], args: tuple[Term, ...], sigma: Binding
) -> Optional[Binding]:
    if len(patterns) != len(args):
        return None
    for p, g in zip(patterns, args):
        sigma = _unify(p, g, sigma)
        if sigma is None:
            return None
    return sigma


def _next_pattern(
    patterns: list[FactPattern], bound: set[str], by_var: dict[str, list[TimeConstraint]]
) -> int:
    """Index of the pattern to match next: the first whose timestamp is
    anchored, else the first whose timestamp is bounded at all, else the
    first."""
    bounded = None
    for index, pat in enumerate(patterns):
        tvar = pat.tvar
        if tvar in bound:
            return index
        for c in by_var.get(tvar, ()):
            if (c.right if c.left == tvar else c.left) in bound:
                if c.rel == "=":
                    return index
                if bounded is None:
                    bounded = index
    return bounded or 0


def _canonical_fresh(rule: Rule, config: Configuration) -> dict[str, FreshConstant]:
    """The fresh assignment every match of `rule` on `config` gets: each fresh
    variable, in name order, takes the smallest index of its type absent
    from the configuration and from earlier fresh variables."""
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


def find_matches(rule: Rule, config: Configuration) -> list[RuleInstance]:
    """All instances of `rule` applicable to `config`, canonically ordered.

    Instances are identified up to fresh-constant renaming: each match gets
    the deterministic fresh assignment, so the returned set is finite and
    reproducible.  The precondition (side condition plus consumed facts) must
    embed into the configuration as a multiset and the guard must be
    satisfied; `rule.plan` does both in one pass.
    """
    raw = rule.plan.bindings(config)
    if not raw:
        return []
    fresh = _canonical_fresh(rule, config)
    instances = []
    for sigma in raw:
        sigma.update(fresh)
        instances.append(RuleInstance(rule, tuple(sorted(sigma.items()))))
    return sorted(instances, key=RuleInstance.key)


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
    if not inst.rule.fresh:
        return True
    # each fresh variable holds a fresh constant of its own type, no two the
    # same, and none already in the configuration
    fresh = [sigma.get(v) for v, _ in inst.rule.fresh]
    for term, (_, btype) in zip(fresh, inst.rule.fresh):
        if not isinstance(term, FreshConstant) or term.base_type != btype:
            return False
    distinct = set(fresh)
    return len(distinct) == len(fresh) and not (distinct & config.values())


def apply_instance(
    config: Configuration, inst: RuleInstance, *, trusted: bool = False
) -> Configuration:
    """Apply a rule instance: remove consumed facts, add created ones.

    Side-condition facts and the global-time fact are untouched.  A stale
    instance (no longer applicable to `config`) is rejected; `trusted` skips
    that re-check for instances just produced by find_matches on `config` or
    just checked by the caller.
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
    consume or create given its role tag.  The first two read only the rule
    and are kept on it (`Rule.progress`); roles come from `sig`, so they are
    checked on every call.
    """
    balanced, progressing, violations = rule.progress
    role_violations = _role_violations(rule, sig)
    return RuleClassification(
        balanced=balanced,
        progressing=progressing,
        role_valid=not role_violations,
        violations=violations + tuple(role_violations),
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
