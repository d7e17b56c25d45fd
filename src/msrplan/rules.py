"""Guarded rewrite rules: matching, application, and classification.

A rule rewrites a configuration instantaneously.  Its precondition is the
implicit ``Time@T`` pattern plus a side condition (matched but untouched) and
a consumed multiset; its postcondition recreates the side condition and adds
created facts at fixed delays from the global time.  The distinguished time
variable ``T`` always denotes the global time.

Matching runs on a `MatchPlan`, compiled once per rule (`Rule.plan`) and per
specification pair (`specs.SpecPair.plan`) and kept on that object.  The
plan binds its clock names (``T``, `specs.SpecPair.clock`) to the global
time, then patterns in declaration order, so it knows statically which
arguments are ground or bound at each step and turns every guard constraint
into a bound on one step's fact timestamp: an ``=`` constraint against a
bound variable anchors the timestamp exactly, and candidates are filtered
on it before any binding is made.  A guard's difference-bound closure is
likewise computed once per rule and pair (`Rule.closure`,
`specs.SpecPair.closure`) and read by every analysis of the guard.

A plan runs in two tiers.  A cold plan is interpreted: `_extend` walks its
steps.  After `HOT_CALLS` calls the plan emits Python source from the same
steps, one function with one ``for`` loop per step and bounds, positions
and argument keys as locals or constants, and compiles it.  Both tiers test
a fact's arguments by comparing sort keys, never calling a term's
``__eq__``.  Generation costs as much as a few hundred interpreted calls, so
a specification built for a single query (the graph reduction builds one
per pair) stays interpreted.  So does a plan of more than `MAX_LOOPS`
steps, since CPython rejects more nested loops.  The plan chooses its own
tier: `find_matches` and `specs.match_spec` call `MatchPlan.bindings` and
test no tier.  On a cold plan that is the counting method; on a hot one it
is the generated function, stored under the same name, so a (state, rule)
or (state, pair) match costs one call into the layer and one into that
function, which reads the configuration's groups and clock from their
slots.  `MatchPlan.interpret` runs the interpreter alone and is the
reference the tests hold the generated tier to.  The witness verifier and
trace replay (`certify`) use none of this module's matching or
application: they have their own matcher and state.

A pattern's arguments are variables and constants, so a match compares
every argument by its sort key or binds it to a variable, and never
unifies.  Sorts are decided once, when a rule or pair is built: a name is
a time or a term variable, never both (`Rule`, `specs.SpecPair`), and a
term variable's type is fixed by its positions.  Configurations are typed
(`scenario.PlanningScenario`), so no matcher tests a type.

A move is what its match found.  A rule's plan returns each binding with
the fact objects it matched for the consumed patterns, and the instances
of `find_matches` carry them, so `apply_instance` hands them to
`Configuration.replace`; nothing here grounds a pattern from a
substitution.  Created facts are filled into a template each rule compiles
once (`Rule.creation`).  `apply_instance` is the only way to apply a move,
and it checks nothing: its instance must be one `find_matches` found on
the configuration it applies to, and one built without carried facts is
refused.  An instance read from outside, a trace step or a witness file,
is checked by replaying its substitution in `certify`
(`specs.replay_errors`, `certify.verify_witness`), which reads no carried
fact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .kernel import (
    MAX_TIMESTAMP,
    TIME_PREDICATE,
    Configuration,
    FreshConstant,
    Role,
    Signature,
    Term,
    TimedFact,
    Variable,
)

GLOBAL_TIME_VAR = "T"
TICK_STEP = "Tick"  # a time advance's step label, so no rule may take the name

# Emitting and compiling a plan's function takes 0.2-1.2 ms, as long as about
# 200 interpreted calls (1-4 us each), so a plan is generated on its 200th
# call: one matched once per query never pays for generation.
HOT_CALLS = 200

# CPython rejects more than 20 statically nested blocks, and a generated
# function nests one loop per step, so a longer plan stays interpreted.
MAX_LOOPS = 20

# The interpreter (`_extend`) and the witness checker's join (`certify`)
# recurse one Python frame per step, and CPython's default recursion limit
# is 1,000 frames, part of which the caller's own stack holds.  A longer
# join is refused when it is compiled, with an error, where it would
# otherwise fail mid-match with `RecursionError`.
MAX_JOIN_STEPS = 256


class RuleError(ValueError):
    """Raised for ill-formed rules, created facts and time constraints."""


class EngineError(RuntimeError):
    """Raised for runtime misuse: overflow, bad inputs."""


class RuleRole(enum.Enum):
    SYSTEM = "system"
    SYSTEM_UPDATE = "system_update"
    GOAL_UPDATE = "goal_update"


@dataclass(frozen=True)
class Atom:
    """An atomic formula whose arguments are variables and constants."""

    pred: str
    args: tuple[Term, ...] = ()

    def variables(self) -> set[str]:
        return {a.name for a in self.args if isinstance(a, Variable)}

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


# the relations a time constraint may use, as written in a scenario
RELATIONS = frozenset({">", ">=", "=", "<=", "<"})


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
        if self.rel not in RELATIONS:
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

    def __str__(self) -> str:
        if self.offset > 0:
            tail = f" + {self.offset}"
        elif self.offset < 0:
            tail = f" - {-self.offset}"
        else:
            tail = ""
        return f"{self.left} {self.rel} {self.right}{tail}"


class _Dbm:
    """The difference-bound closure of a constraint set over named time
    variables: the all-pairs shortest paths of its simple temporal network
    (Dechter, Meiri and Pearl, *Temporal constraint networks*, AIJ 1991).
    Every name in `names` is registered, constrained or not, together with
    ``__zero__``, the origin that keeps timestamps natural; the constraints
    name no other variable.  `idx` maps a name to its row and column, and
    ``dist[idx[a]][idx[b]]`` is the least upper bound on a - b the
    constraints force, inf when they force none.
    Each rule and specification pair closes its guard once (`Rule.closure`,
    `specs.SpecPair.closure`), and every analysis reads that closure."""

    def __init__(self, constraints: Iterable[TimeConstraint], names: Iterable[str]):
        known: set[str] = {"__zero__", *names}
        bounds: dict[tuple[str, str], int] = {}

        def add(u: str, v: str, w: int) -> None:
            # upper bound on u - v
            key = (u, v)
            if key not in bounds or w < bounds[key]:
                bounds[key] = w

        for c in constraints:
            n = c.normalized()
            if n.rel == ">":
                # left > right + off  iff  right - left <= -(off + 1)
                add(n.right, n.left, -(n.offset + 1))
            else:
                add(n.left, n.right, n.offset)
                add(n.right, n.left, -n.offset)
        for v in known:
            if v != "__zero__":
                add("__zero__", v, 0)  # timestamps are naturals: v >= 0
        idx = {v: i for i, v in enumerate(sorted(known))}
        n = len(idx)
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
        self.idx = idx
        self.dist = dist

    def satisfiable(self) -> bool:
        return all(self.dist[i][i] >= 0 for i in range(len(self.idx)))

    def upper(self, a: str, b: str) -> float:
        """The least upper bound on a - b the constraint set forces, inf
        when it forces none."""
        if a == b:  # 0 even where an unsatisfiable closure's diagonal is negative
            return 0
        return self.dist[self.idx[a]][self.idx[b]]


class ProgressCheck(NamedTuple):
    """The classification checks that read only the rule (`Rule.progress`)."""

    balanced: bool
    progressing: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class Rule:
    """An instantaneous guarded rewrite with a role tag.

    A rule may be shared by several scenarios (the QBF generator reuses its
    rules across formulas).  Its cached properties, `plan`, `closure`,
    `progress` and `fresh`, are computed from the rule alone, so sharing
    them is sound; anything that depends on a signature is computed per
    call.
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
        # a name has one sort: a timestamp never equals a term
        clash = self.pre_time_vars & (self.pre_fo_vars | self.fresh_vars)
        if clash:
            raise RuleError(
                f"rule {self.name}: {min(clash)} is both a time variable and a term variable"
            )
        pre_tvars = self.pre_time_vars
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

    @cached_property
    def pre_time_vars(self) -> frozenset[str]:
        return frozenset({GLOBAL_TIME_VAR, *(p.tvar for p in (*self.side, *self.consumed))})

    @cached_property
    def pre_fo_vars(self) -> frozenset[str]:
        return frozenset().union(*(p.atom.variables() for p in (*self.side, *self.consumed)))

    @cached_property
    def fresh_vars(self) -> frozenset[str]:
        return frozenset().union(*(c.atom.variables() for c in self.created)) - self.pre_fo_vars

    @cached_property
    def all_variables(self) -> frozenset[str]:
        return self.pre_time_vars | self.pre_fo_vars | self.fresh_vars

    @cached_property
    def plan(self) -> "MatchPlan":
        """The compiled matcher for the precondition and guard, built on
        first use and kept with the rule."""
        return MatchPlan(
            (*self.side, *self.consumed), self.guard, clock=(GLOBAL_TIME_VAR,),
            precondition=True, consumed=len(self.consumed),
        )

    @cached_property
    def closure(self) -> _Dbm:
        """The guard's closure over the precondition's time variables, built
        on first use and kept with the rule.  The progressing check, the
        expiry table (`scenario.PlanningScenario.expiry`) and the timed
        relaxation (`relax.Relaxation`) all read it."""
        return _Dbm(self.guard, self.pre_time_vars)

    @cached_property
    def creation(self) -> tuple[tuple[str, tuple, int], ...]:
        """The created atoms compiled once, as (predicate, slots, delay):
        each slot is (variable name, None) or (None, ground term)."""
        return tuple(
            (c.atom.pred, tuple(
                (a.name, None) if isinstance(a, Variable) else (None, a) for a in c.atom.args
            ), c.delay)
            for c in self.created
        )

    @cached_property
    def fresh(self) -> tuple[tuple[str, str], ...]:
        """Fresh variables by name, each typed by its first created occurrence."""
        names = self.fresh_vars
        types: dict[str, str] = {}
        for c in self.created:
            for a in c.atom.args:
                if isinstance(a, Variable) and a.name in names:
                    types.setdefault(a.name, a.base_type)
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

        closure = self.closure
        past_ok = True
        if not closure.satisfiable():
            past_ok = False
            violations.append("progressing(ii): guard is unsatisfiable")
        else:
            for p in self.consumed:
                # the guard entails T >= tvar iff it bounds tvar - T by 0
                if closure.upper(p.tvar, GLOBAL_TIME_VAR) > 0:
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


@dataclass(frozen=True, slots=True)
class RuleInstance:
    """A rule paired with a total ground substitution.

    The substitution maps every rule variable: time variables (including the
    global ``T``) to timestamps and first-order variables to ground terms,
    with fresh variables sent injectively to fresh constants absent from the
    matched configuration.

    An instance from `find_matches` also carries `facts`: the fact objects
    its match found for the consumed patterns, in the rule's consumed
    order.  They are neither compared nor shown, and only `apply_instance`
    reads them; it refuses an instance built without them.  Trace replay
    and the witness verifier read only the substitutions a trace or a
    witness file holds.
    """

    rule: Rule
    bindings: tuple[tuple[str, Union[Term, int]], ...]
    facts: Optional[tuple[TimedFact, ...]] = field(default=None, compare=False, repr=False)

    @property
    def sigma(self) -> Binding:
        return dict(self.bindings)

    def key(self) -> str:
        inner = ",".join(f"{v}={t}" for v, t in sorted(self.bindings))
        return f"{self.rule.name}{{{inner}}}"

    def __str__(self) -> str:
        inner = ", ".join(f"{v}={t}" for v, t in sorted(self.bindings))
        return f"{self.rule.name} σ={{{inner}}}"


def _created(rule: Rule, sigma: Binding) -> list[TimedFact]:
    """The created facts, filled into the rule's `creation` template."""
    now = sigma[GLOBAL_TIME_VAR]
    out = []
    for pred, slots, delay in rule.creation:
        ts = now + delay
        if ts > MAX_TIMESTAMP:
            raise EngineError("created timestamp overflow")
        out.append(TimedFact(pred, tuple([g if n is None else sigma[n] for n, g in slots]), ts))
    return out


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
    before looking at any argument.  Constraints over a single variable or
    two clock names are decided at compile time; one no timestamp meets
    makes the plan `never` match.  A plan tests no sort: the rule or pair it
    is built from keeps time and term variables apart, and a variable binds
    an argument of a typed configuration, which is of the variable's type.

    The interpreter extends one binding dict in place.  A step writes only
    names that no earlier step binds, so backtracking needs no undo.  It
    also checks ahead (forward checking, Haralick and Elliott, AIJ 1980).
    A step is determined when each argument is ground or bound earlier.  A
    determined step j with a variable argument is checked by the step i
    that binds the last of its names through its `binds`, when i <= j - 2.
    Once a candidate of step i passes its own tests and writes its
    bindings, each of its checks looks the later step's argument keys up in
    the set of its predicate's argument keys, built once per `interpret`
    call on first use, and the candidate is dropped, before it claims, when
    they are absent.  Only existence is tested: step j still applies its
    timestamp bounds and claims.  So a check drops only candidates no
    complete binding extends, and the bindings, their order and the facts
    they carry do not change.  The generated tier runs no checks (`_emit`).

    A precondition's plan knows which of its patterns the rule consumes and
    returns each binding with the fact objects matched for them, in the
    rule's consumed order; both tiers return the same objects.  A
    specification pair's plan returns bindings alone and keeps no facts.

    A plan chooses its own tier behind one entry, `bindings`.  On a cold
    plan that is the method, which counts its calls and interprets until the
    count reaches `HOT_CALLS`, then generates the plan's function
    (`generate`).  The function is stored under the same name and shadows
    the method, so a hot plan costs one attribute read and one call.  The
    plan never holds a bound method of itself, so it is no reference cycle
    and its last reference frees it (the graph reduction builds one plan per
    query).  A plan that cannot be generated has `generable` false and
    interprets for good.  `interpret` never counts and never generates: it
    is the cold tier alone, the reference for the generated one.  The count
    is the plan's only state that changes during matching, besides the
    generated function set once; a lost increment under concurrent use only
    delays generation.
    """

    def __init__(
        self,
        patterns: Iterable[FactPattern],
        constraints: Iterable[TimeConstraint],
        *,
        clock: Iterable[str] = (),
        precondition: bool = False,
        consumed: int = 0,
    ):
        """The `clock` names are bound to the global time, then patterns
        bind in the order given, one step each; a `Time` pattern is refused.
        With `precondition` the plan matches a rule precondition: patterns
        of a predicate that several share claim distinct fact occurrences
        (multiset inclusion).  Otherwise it matches a specification pair, so
        the first binding found is the first in declaration order, and
        several patterns may collapse onto one fact (recognition asks only
        that every substituted pattern occurs).  The last `consumed`
        patterns of a precondition are the rule's consumed ones, whose
        matched facts each binding returns.  More than `MAX_JOIN_STEPS`
        patterns raise `RuleError`."""
        self.clock = tuple(clock)
        self.precondition = precondition
        self.consumed = consumed
        self.patterns = tuple(patterns)
        if len(self.patterns) > MAX_JOIN_STEPS:
            raise RuleError(
                f"a join of {len(self.patterns)} patterns exceeds the limit of "
                f"{MAX_JOIN_STEPS} steps (MAX_JOIN_STEPS)"
            )
        first_consumed = len(self.patterns) - consumed
        self.never = False  # no binding can ever complete
        by_var: dict[str, list[TimeConstraint]] = {}
        for c in constraints:
            c = c.normalized()
            if c.left != c.right and not {c.left, c.right} <= set(self.clock):
                by_var.setdefault(c.left, []).append(c)
                by_var.setdefault(c.right, []).append(c)
            elif not (0 > c.offset if c.rel == ">" else c.offset == 0):
                self.never = True  # both sides hold one value
        preds = [p.atom.pred for p in self.patterns]
        if TIME_PREDICATE in preds:
            raise RuleError(f"a plan binds the global time by `clock`, not a {TIME_PREDICATE} step")
        shared = {q for q in preds if preds.count(q) > 1} if precondition else ()
        self.preds = tuple(dict.fromkeys(preds))
        self.claims = bool(shared)
        bound = set(self.clock)
        steps: list[_Step] = []
        binder: dict[str, int] = {}  # name -> the step whose `binds` bind it
        compile_step = _Step.compile
        for index, pat in enumerate(self.patterns):
            claims = pat.atom.pred in shared
            # the pattern's index in the consumed order, None for the others
            slot = index - first_consumed if index >= first_consumed else None
            steps.append(compile_step(pat, bound, binder, by_var, claims, slot, steps))
        self.steps = tuple(steps)
        self.calls = 0
        self.source: Optional[str] = None  # the generated source, once hot
        self.generable = not self.never and 0 < len(self.steps) <= MAX_LOOPS

    def bindings(self, config: Configuration) -> list:
        """The complete bindings in step order over the configuration's
        canonical order, from the clock names bound to the global time.  A
        precondition's plan finds every binding, each paired with the facts
        it matched for the consumed patterns, in their order: a list of
        (binding, facts).  A specification pair's plan stops at the first
        binding, which it returns alone.  Both tiers return the
        same list, key order and fact objects included.  This method is the
        cold tier; once the plan is generated, its function takes the name."""
        if self.generable:
            self.calls += 1
            if self.calls >= HOT_CALLS:
                return self.generate()(config)
        return self.interpret(config)

    def generate(self) -> Callable[[Configuration], list]:
        """Emit and compile this plan's function, keep it and its source on
        the plan, as `bindings` and `source`, and return it.  Only a
        `generable` plan may be generated: one that can match and has one to
        `MAX_LOOPS` steps.  The code is compiled under a file name that
        lists the plan's patterns in step order, so profiles tell plans
        apart."""
        source, namespace = _emit(self)
        filename = f"<match plan {', '.join(map(str, self.patterns))}>"
        exec(compile(source, filename, "exec"), namespace)
        self.source = source
        # taken out of its own globals, so the function is no cycle either
        self.bindings = match = namespace.pop("match")
        return match

    def interpret(self, config: Configuration) -> list:
        """`bindings` on the interpreter alone."""
        by_pred = config.by_pred()
        if self.never:
            return []
        for pred in self.preds:
            if pred not in by_pred:
                return []
        sigma = dict.fromkeys(self.clock, config.global_time)
        held = [None] * self.consumed if self.precondition else None
        if not self.steps:
            return [sigma if held is None else (sigma, ())]
        out: list = []
        available = config.counts() if self.claims else None
        _extend(self.steps, 0, by_pred, sigma, available, held, out, {})
        return out


class _Step(NamedTuple):
    """One pattern of a plan, compiled after the names bound before it.

    `lows` and `highs` hold (name, k) pairs meaning ``ts >= binding[name] +
    k`` and ``ts <= binding[name] + k`` for the candidate fact's timestamp.
    `fixed` lists the arguments determined on entry as (position, bound name,
    None) or (position, None, the ground term's sort key); `binds` the first
    occurrences of new variables as (position, name), with no type to test,
    since a typed configuration holds a term of the variable's type there;
    `dups` their later occurrences as (position, first position).  `whole`
    is the tuple of the arguments' keys when every argument is ground.
    `slot` is the pattern's index among a rule's consumed patterns, None for
    a side condition or a specification pattern.  `checks` holds the
    forward checks this step runs for later determined steps, each as that
    step's (predicate, `fixed`); the plan appends them as it compiles them.
    """

    tvar: Optional[str]  # None when an earlier step binds it
    pred: str
    arity: int
    lows: tuple[tuple[str, int], ...]
    highs: tuple[tuple[str, int], ...]
    determined: bool  # every argument is in `fixed`
    whole: Optional[tuple[tuple, ...]]
    fixed: tuple[tuple[int, Optional[str], Optional[tuple]], ...]
    binds: tuple[tuple[int, str], ...]
    dups: tuple[tuple[int, int], ...]
    claims: bool  # claim a distinct fact occurrence
    slot: Optional[int]
    checks: list[tuple[str, tuple]]  # (pred, fixed) of later steps

    @classmethod
    def compile(
        cls,
        pat: FactPattern,
        bound: set[str],
        binder: dict[str, int],
        by_var: dict[str, list[TimeConstraint]],
        claims: bool,
        slot: Optional[int],
        earlier: list["_Step"],
    ) -> "_Step":
        """Compile `pat` after the names in `bound` and the steps `earlier`,
        then add its names to `bound`.  A constraint lands on the step
        binding its second variable.  `binder` maps each name an earlier
        step binds through its `binds` to that step's index, and gets this
        step's.  A determined step whose last such name is bound two or more
        steps back appends its forward check to that step's `checks`."""
        tvar: Optional[str] = pat.tvar
        if tvar in bound:
            lows = highs = ((tvar, 0),)
            tvar = None
        else:
            lows, highs = [], []
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
            lows, highs = tuple(lows), tuple(highs)
        atom = pat.atom
        args = atom.args
        fixed: list[tuple[int, Optional[str], Optional[tuple]]] = []
        binds: list[tuple[int, str]] = []
        dups: list[tuple[int, int]] = []
        first_pos: dict[str, int] = {}
        index = len(earlier)
        # the latest step whose `binds` bind a name of `fixed`, -1 for no
        # name; a name bound otherwise counts as this step, which checks none
        last = -1
        pos = 0
        for a in args:
            if a.__class__ is Variable:
                name = a.name
                if name in first_pos:
                    dups.append((pos, first_pos[name]))
                elif name in bound:
                    fixed.append((pos, name, None))
                    step = binder.get(name, index)
                    if step > last:
                        last = step
                else:
                    first_pos[name] = pos
                    binds.append((pos, name))
            else:
                fixed.append((pos, None, a._key))
            pos += 1
        if first_pos:
            bound.update(first_pos)
            for name in first_pos:
                binder[name] = index
        determined = len(fixed) == pos
        whole = None
        fixed = tuple(fixed)
        if determined:
            if last < 0:
                whole = tuple([g for _, _, g in fixed])
            elif last <= index - 2:
                earlier[last].checks.append((atom.pred, fixed))
        return tuple.__new__(cls, (
            tvar, atom.pred, pos, lows, highs, determined, whole, fixed, tuple(binds),
            tuple(dups), claims, slot, [],
        ))


def _extend(
    steps: tuple[_Step, ...],
    i: int,
    by_pred: dict[str, list[TimedFact]],
    sigma: Binding,
    available: Optional[dict[TimedFact, int]],
    held: Optional[list[Optional[TimedFact]]],
    out: list,
    seen: dict[str, set[tuple]],
) -> bool:
    """Match steps[i:] in place on `sigma`, which starts with the clock
    names bound.  A precondition's plan passes `held`, where each consumed
    step puts its fact, and gets a copy of every complete binding with the
    held facts appended to `out`; a specification pair's plan passes None,
    gets the first binding alone, and True once it is found.  Arguments are
    compared through sort keys, a bound term's kept in its ``_key``.  A
    candidate that leaves a later step's arguments without a fact is dropped
    after writing its bindings and before claiming (`_possible`, with the
    argument keys of each predicate's facts kept in `seen`)."""
    (tvar, pred, arity, lows, highs, determined, whole, fixed, binds, dups,
     claims, slot, checks) = steps[i]
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
            whole = tuple([g if n is None else sigma[n]._key for _, n, g in fixed])
    else:
        tests = [(pos, g if n is None else sigma[n]._key) for pos, n, g in fixed]
    for fact in by_pred[pred]:
        ts = fact.ts
        if ts < lo:
            continue
        if ts > hi:
            break  # ascending timestamps: no later fact fits
        args = fact.args
        if determined:
            if fact.sort_key[3] != whole:
                continue
        elif len(args) != arity or not _fits(fact.sort_key[3], tests, dups):
            continue
        if tvar is not None:
            sigma[tvar] = ts
        for pos, name in binds:
            sigma[name] = args[pos]
        if checks and not _possible(checks, by_pred, sigma, seen):
            continue
        if claims:
            if available[fact] <= 0:
                continue
            available[fact] -= 1
        if slot is not None:
            held[slot] = fact
        if final:
            stop = held is None
            out.append(dict(sigma) if stop else (dict(sigma), tuple(held)))
        else:
            stop = _extend(steps, i + 1, by_pred, sigma, available, held, out, seen)
        if claims:
            available[fact] += 1
        if stop:
            return True
    return False


def _possible(
    checks: list[tuple[str, tuple]],
    by_pred: dict[str, list[TimedFact]],
    sigma: Binding,
    seen: dict[str, set[tuple]],
) -> bool:
    """Does each checked step's predicate hold a fact with the arguments
    `sigma` gives that step?  Timestamps and claims are left to the step
    itself.  A predicate's set of argument keys is built on first use."""
    for pred, fixed in checks:
        keys = seen.get(pred)
        if keys is None:
            keys = seen[pred] = {f.sort_key[3] for f in by_pred[pred]}
        if tuple([g if n is None else sigma[n]._key for _, n, g in fixed]) not in keys:
            return False
    return True


def _fits(
    keys: tuple[tuple, ...],
    tests: list[tuple[int, tuple]],
    dups: tuple[tuple[int, int], ...],
) -> bool:
    for pos, key in tests:
        if keys[pos] != key:
            return False
    for pos, first in dups:
        if keys[pos] != keys[first]:
            return False
    return True


def _emit(plan: MatchPlan) -> tuple[str, dict[str, object]]:
    """Python source of `plan`'s function ``match(config)`` and the namespace
    it runs in, which holds the sort keys of the plan's ground terms.

    The function does what `interpret` does, step for step, but runs no
    forward checks (`MatchPlan`).  A check drops only candidates that no
    complete binding extends, so both tiers still return the same list.
    Among the engine's generated plans only travel's ``attend`` would get a
    check, and generated checks moved criterion 6's runtime only within its
    noise when measured.  The function has one ``for`` loop per step over
    the facts of its predicate, nested in the previous step's loop, the
    step's timestamp bounds and argument keys computed before its loop,
    each bound name kept in a local, and one dict literal per complete
    binding, whose keys follow the order in which the interpreter inserts
    them.  A fact's arguments are tested as the
    interpreter tests them, by comparing their keys (`TimedFact.sort_key`
    holds them) with the keys the step stores for its ground arguments and
    the ``_key`` of each bound term: keys are total, so this is term
    equality, decided on built-in tuples.  It reads the configuration's
    groups from their slot, calling `by_pred` only when they were never
    computed, and the global time from the clock's slot, one local per
    clock name.  A precondition's plan pairs each binding with the tuple of
    its consumed steps' loop variables."""
    namespace: dict[str, object] = {}
    facts = {pred: f"p{j}" for j, pred in enumerate(plan.preds)}
    names: dict[str, str] = {}  # binding name -> local, in binding order
    carried: dict[int, str] = {}  # consumed slot -> loop variable
    first = not plan.precondition

    def const(value: object) -> str:
        name = f"k{len(namespace)}"
        namespace[name] = value
        return name

    def local(name: str) -> str:
        names[name] = f"v{len(names)}"
        return names[name]

    def bound(
        lines: list[str],
        pad: str,
        target: str,
        pairs: tuple[tuple[str, int], ...],
        pick: Callable[[int, int], int],
    ) -> Optional[str]:
        """A local or expression holding one side of a step's timestamp
        bound, computed before its loop; None for no bound.  Of several
        offsets from one name only the tightest is kept."""
        tightest: dict[str, int] = {}
        for n, k in pairs:
            tightest[n] = pick(k, tightest.get(n, k))
        terms = [
            f"{names[n]} + {k}" if k > 0 else f"{names[n]} - {-k}" if k else names[n]
            for n, k in tightest.items()
        ]
        if not terms:
            return None
        if terms[0].isidentifier() and len(terms) == 1:
            return terms[0]
        value = terms[0] if len(terms) == 1 else f"{pick.__name__}({', '.join(terms)})"
        lines.append(f"{pad}{target} = {value}")
        return target

    def emit(lines: list[str], i: int, depth: int) -> None:
        """Steps i.. at `depth`."""
        pad = "    " * depth
        if i == len(plan.steps):
            items = ", ".join(f"{n!r}: {v}" for n, v in names.items())
            if first:
                lines += [f"{pad}out.append({{{items}}})", f"{pad}return out"]
            else:
                held = ", ".join(carried[k] for k in range(plan.consumed))
                comma = "," if plan.consumed == 1 else ""
                lines.append(f"{pad}out.append(({{{items}}}, ({held}{comma})))")
            return
        step = plan.steps[i]
        lo = bound(lines, pad, f"lo{i}", step.lows, max)
        hi = bound(lines, pad, f"hi{i}", step.highs, min)
        # the key of a bound term is read before the loop
        whole = None
        keys: list[str] = []
        if step.whole is not None:
            whole = const(step.whole)
        else:
            for pos, n, g in step.fixed:
                if n is None:
                    keys.append(const(g))
                else:
                    keys.append(f"x{i}_{pos}")
                    lines.append(f"{pad}x{i}_{pos} = {names[n]}._key")
            if step.determined:
                whole = f"w{i}"
                comma = "," if len(keys) == 1 else ""
                lines.append(f"{pad}{whole} = ({', '.join(keys)}{comma})")
        fact = f"f{i}"
        if step.slot is not None:
            carried[step.slot] = fact
        lines.append(f"{pad}for {fact} in {facts[step.pred]}:")
        pad += "    "
        ts = f"t{i}" if step.tvar is None else local(step.tvar)
        lines.append(f"{pad}{ts} = {fact}.ts")
        if lo is not None:
            lines += [f"{pad}if {ts} < {lo}:", f"{pad}    continue"]
        if hi is not None:
            lines += [f"{pad}if {ts} > {hi}:", f"{pad}    break"]
        if whole is not None:
            lines += [f"{pad}if {fact}.sort_key[3] != {whole}:", f"{pad}    continue"]
        else:
            args, held = f"a{i}", f"s{i}"
            tests = [f"len({held}) != {step.arity}"]
            tests += [f"{held}[{pos}] != {key}" for (pos, _, _), key in zip(step.fixed, keys)]
            tests += [f"{held}[{pos}] != {held}[{other}]" for pos, other in step.dups]
            lines += [
                f"{pad}{held} = {fact}.sort_key[3]",
                f"{pad}if {' or '.join(tests)}:",
                f"{pad}    continue",
            ]
            if step.binds:
                lines.append(f"{pad}{args} = {fact}.args")
            for pos, name in step.binds:
                lines.append(f"{pad}{local(name)} = {args}[{pos}]")
        if step.claims:
            lines += [
                f"{pad}if available[{fact}] <= 0:",
                f"{pad}    continue",
                f"{pad}available[{fact}] -= 1",
            ]
        emit(lines, i + 1, depth + 1)
        if step.claims:
            lines.append(f"{pad}available[{fact}] += 1")

    lines = [
        "def match(config):",
        "    by_pred = config._by_pred",
        "    if by_pred is None:",
        "        by_pred = config.by_pred()",
    ]
    for pred, var in facts.items():
        lines += [
            f"    {var} = by_pred.get({pred!r})",
            f"    if {var} is None:",
            "        return []",
        ]
    lines.append("    out = []")
    for name in plan.clock:
        lines.append(f"    {local(name)} = config._clock.ts")
    if plan.claims:
        lines.append("    available = config.counts()")
    emit(lines, 0, 1)
    del emit  # a recursive closure refers to itself and, through it, to the plan
    lines.append("    return out")
    return "\n".join(lines) + "\n", namespace


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
    satisfied; `rule.plan` does both in one pass, on the tier the plan
    chose.  Each instance carries the facts its match consumes, for
    `apply_instance`.
    """
    raw = rule.plan.bindings(config)
    return _instances(rule, config, raw) if raw else []


def _instances(rule: Rule, config: Configuration, raw: list) -> list[RuleInstance]:
    """Instances from a rule plan's nonempty list of (binding, facts) pairs,
    each built by the constructor and carrying its facts."""
    fresh = _canonical_fresh(rule, config)
    instances = []
    for sigma, facts in raw:
        if fresh:
            sigma.update(fresh)
        instances.append(RuleInstance(rule, tuple(sorted(sigma.items())), facts))
    if len(instances) > 1:
        instances.sort(key=RuleInstance.key)
    return instances


def apply_instance(config: Configuration, inst: RuleInstance) -> Configuration:
    """Apply a rule instance: remove consumed facts, add created ones.

    Side-condition facts and the global-time fact are untouched.  The
    instance must be one `find_matches` found on `config`; nothing here
    checks it.  It removes the consumed facts the instance carries, which
    `replace` finds without building them again.  An instance that carries
    none, one built without them, raises `EngineError`; a consumed
    fact `config` lacks raises `KernelError`.  An instance from anywhere
    else, a trace or a witness file, is checked by replaying it in
    `certify`.
    """
    if inst.facts is None:
        raise EngineError(
            f"instance {inst.key()} carries no matched facts: only an instance "
            "find_matches returned can be applied"
        )
    return config.replace(inst.facts, _created(inst.rule, inst.sigma))


def tick(config: Configuration) -> Configuration:
    """Advance the global time by one: the same facts under the next clock."""
    later = config.global_time + 1
    if later > MAX_TIMESTAMP:
        raise EngineError("global time overflow")
    return config.at(later)


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
