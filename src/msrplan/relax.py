"""A timed relaxation that proves a state cannot reach the goal in time.

This is h_max (Bonet and Geffner, *Planning as heuristic search*, AIJ 2001)
with time, as in Haslum and Geffner (*Heuristic planning with time and
resources*, ECP 2001).  `Relaxation.possible(config, horizon)` answers False
only when no compliant goal trace of system moves and time advances leads
from `config` to a goal state by `horizon`.  Such a trace never needs the
critical specification, consumption or update rules, so the relaxation
drops all three and over-approximates the (fact, timestamp) pairs the trace
can hold:

- only goal-relevant predicates count: those of the goal pairs, then the
  pattern predicates of every system rule that creates a relevant one,
  until nothing changes;
- a fact of a predicate that some relevant rule creates holds at every
  timestamp from its earliest one onward, taken from the configuration or
  from a firing at its least feasible global time T in [t, horizon] plus
  the created fact's delay;
- a fact of any other relevant predicate keeps its exact timestamps, since
  no move can create it.

Guards and goal constraints are difference constraints, closed once by
`rules._Dbm`.  With the closure d, unary bounds lo <= v <= hi are feasible
iff lo[u] - hi[v] <= d[u][v] for every pair, and the least T is the maximum
over v of lo[v] - d[v][T].  Every rule fires again, in a plain loop, until
no fact gets an earlier timestamp; the least fixpoint is unique, so the
order of firing changes no answer.  The state is refuted when no goal
pair then has a relaxed match at a global time in [t, horizon], which is
what a `Time` pattern binds.  A relevant rule with a fresh variable could
build unboundedly many facts, so with one the relaxation always answers
True.

The answer is monotone in time.  `project` splits what `possible` reads of
a configuration into a time-free signature (the exact-predicate facts with
their timestamps, and the argument keys of the creatable-predicate facts)
and the earliest timestamp of each such key.  Take two configurations with
one signature, where the second has a clock t >= t0 and no earliest
timestamp before the first's.  Firing times lie in [t, horizon] and a
creatable fact holds on [earliest, oo), so every relaxed derivation from
the second is one from the first; the fixpoint computes the least earliest
times, so if `possible` refutes the first by a horizon it refutes the
second by that horizon too.  `search.Checker` answers from its refutations
through this lemma instead of calling `possible` again.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .kernel import TIME_PREDICATE, Configuration, Variable
from .rules import GLOBAL_TIME_VAR, FactPattern, Rule, TimeConstraint, _Dbm
from .specs import ConfigSpec

INF = float("inf")


class _Join:
    """Patterns matched against relaxed facts under closed time constraints.

    The relaxed facts of a predicate map argument keys to a list of
    (args, lo, hi): that fact holds at every timestamp in [lo, hi].  `clock`
    names the variables bound to the global time, which lies in
    [t, horizon].  A pattern whose arguments are all ground or bound by an
    earlier one is looked up by its keys, so such patterns go first."""

    def __init__(
        self,
        patterns: Iterable[FactPattern],
        constraints: Iterable[TimeConstraint],
        clock: Iterable[str],
    ):
        patterns, clock = list(patterns), tuple(clock)
        tvars = {p.tvar for p in patterns} | set(clock)
        # v >= v adds every time variable to the closure without constraining it
        dbm = _Dbm((*constraints, *(TimeConstraint(v, ">=", v) for v in sorted(tvars))))
        self.feasible = dbm.satisfiable()
        idx, dist = dbm._idx, dbm._dist
        self.size, self.zero = len(idx), idx["__zero__"]
        self.clock = tuple(idx[v] for v in clock)
        self.pairs = [
            (u, v, d) for u, row in enumerate(dist) for v, d in enumerate(row) if d < INF
        ]
        self.least = [(v, row[self.clock[0]]) for v, row in enumerate(dist)] if clock else []
        steps, bound = [], set()
        while patterns:
            p = next((p for p in patterns if _known(p.atom.args, bound)), patterns[0])
            patterns.remove(p)
            tests = tuple(map(_arg_test, p.atom.args))
            if _known(p.atom.args, bound):
                steps.append((p.atom.pred, idx[p.tvar], tests, None))
            else:
                steps.append((p.atom.pred, idx[p.tvar], None, tests))
            bound |= p.atom.variables()
        self.steps = tuple(steps)

    def matches(self, store: dict, t: int, horizon: int) -> list[tuple[dict, int]]:
        """Every relaxed binding whose constraints hold, with the least value
        of the first clock variable (0 when there is none)."""
        lo, hi = [0] * self.size, [INF] * self.size
        hi[self.zero] = 0
        for k in self.clock:
            lo[k], hi[k] = t, horizon
        out: list[tuple[dict, int]] = []
        self._extend(0, {}, lo, hi, store, out)
        return out

    def _extend(self, i, sigma, lo, hi, store, out) -> None:
        if i == len(self.steps):
            for u, v, d in self.pairs:
                if lo[u] - hi[v] > d:
                    return
            out.append((sigma, max([lo[v] - d for v, d in self.least], default=0)))
            return
        pred, k, probe, tests = self.steps[i]
        facts = store[pred]
        if probe is not None:
            keys = tuple([g if n is None else sigma[n]._key for n, g in probe])
            found = ((sigma, facts[keys]),) if keys in facts else ()
        else:
            found = [
                (bound, entries) for keys, entries in facts.items()
                if (bound := _bind(tests, entries[0][0], keys, sigma)) is not None
            ]
        low, high = lo[k], hi[k]
        for bound, entries in found:
            for _, flo, fhi in entries:
                lo[k] = flo if flo > low else low
                hi[k] = fhi if fhi < high else high
                if lo[k] <= hi[k]:
                    self._extend(i + 1, bound, lo, hi, store, out)
        lo[k], hi[k] = low, high


def _known(args: tuple, bound: set[str]) -> bool:
    """Are all of a pattern's variables in `bound`?  Its other arguments
    are constants."""
    return all(a.name in bound for a in args if isinstance(a, Variable))


def _arg_test(arg) -> tuple:
    """(variable name, None) or (None, ground key)."""
    if isinstance(arg, Variable):
        return (arg.name, None)
    return (None, arg._key)


def _bind(tests: tuple, args: tuple, keys: tuple, sigma: dict) -> Optional[dict]:
    """`sigma` extended so the pattern's arguments equal `args`, or None.
    A variable binds an argument of any type: a type test could only drop
    bindings, and the relaxation may over-approximate."""
    if len(args) != len(tests):
        return None
    out = sigma
    for (name, want), arg, key in zip(tests, args, keys):
        if name is None:
            if key != want:
                return None
            continue
        bound = out.get(name)
        if bound is not None:
            if bound._key != key:
                return None
            continue
        if out is sigma:
            out = dict(sigma)
        out[name] = arg
    return out


class Relaxation:
    """The relaxation of one scenario's system rules and goal, prepared once."""

    def __init__(self, system_rules: tuple[Rule, ...], goal: ConfigSpec):
        relevant = {p.atom.pred for pair in goal.pairs for p in pair.pattern}
        relevant.discard(TIME_PREDICATE)
        chosen: set[str] = set()
        while True:
            grown = [
                r for r in system_rules
                if r.name not in chosen and any(c.atom.pred in relevant for c in r.created)
            ]
            if not grown:
                break
            for r in grown:
                chosen.add(r.name)
                relevant.update(p.atom.pred for p in (*r.side, *r.consumed))
        rules = [r for r in system_rules if r.name in chosen]
        self.relevant = frozenset(relevant)
        self.creatable = frozenset(c.atom.pred for r in rules for c in r.created) & relevant
        self.exact = self.relevant - self.creatable
        self._order = (tuple(sorted(self.exact)), tuple(sorted(self.creatable)))
        # the system moves that can change a relevant predicate
        self.touching = frozenset(
            r.name for r in system_rules
            if any(p.atom.pred in relevant for p in (*r.consumed, *r.created))
        )
        self.trivial = any(r.fresh for r in rules)
        if self.trivial:
            return
        self.rules = [
            (join, [c for c in r.creation if c[0] in relevant])
            for r in rules
            if (join := _Join((*r.side, *r.consumed), r.guard, (GLOBAL_TIME_VAR,))).feasible
        ]
        self.goals = [
            join
            for pair in goal.pairs
            if (join := _Join(
                (p for p in pair.pattern if p.atom.pred != TIME_PREDICATE),
                pair.constraints,
                sorted({p.tvar for p in pair.pattern if p.atom.pred == TIME_PREDICATE}),
            )).feasible
        ]

    def project(self, config: Configuration) -> tuple[tuple, tuple[int, ...]]:
        """What `possible` reads of `config` besides its clock: a time-free
        signature, and the earliest timestamp of each creatable key in the
        signature's order (see the module docstring)."""
        groups = config.by_pred()
        exact_preds, creatable_preds = self._order
        exact = tuple(f.sort_key for p in exact_preds for f in groups.get(p, ()))
        earliest: dict[tuple, int] = {}
        for pred in creatable_preds:
            for f in groups.get(pred, ()):
                # ascending timestamps: the first copy is the earliest
                earliest.setdefault((pred, f.sort_key[3]), f.ts)
        keys = tuple(sorted(earliest))
        return (exact, keys), tuple([earliest[k] for k in keys])

    def possible(self, config: Configuration, horizon: int) -> bool:
        """False only if no compliant goal trace of system moves and time
        advances leads from `config` to a goal state by `horizon`."""
        if self.trivial:
            return True
        t = config.global_time
        store: dict[str, dict] = {}
        groups = config.by_pred()
        for pred in self.exact:
            facts = store[pred] = {}
            for f in groups.get(pred, ()):
                facts.setdefault(f.sort_key[3], []).append((f.args, f.ts, f.ts))
        for pred in self.creatable:
            facts = store[pred] = {}
            for f in groups.get(pred, ()):
                keys = f.sort_key[3]
                if keys not in facts:  # ascending timestamps: the earliest copy
                    facts[keys] = [(f.args, f.ts, INF)]
        changed = True
        while changed:
            changed = False
            for join, created in self.rules:
                for sigma, now in join.matches(store, t, horizon):
                    for pred, slots, delay in created:
                        args = tuple([g if n is None else sigma[n] for n, g in slots])
                        keys = tuple([a._key for a in args])
                        ts, facts = now + delay, store[pred]
                        old = facts.get(keys)
                        if old is None or ts < old[0][1]:
                            facts[keys] = [(args, ts, INF)]
                            changed = True
        return any(join.matches(store, t, horizon) for join in self.goals)
