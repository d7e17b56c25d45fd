"""Time-abstracted canonical states: fact sequences with truncated gaps.

Two configurations are equivalent (for a given truncation bound) exactly when
their abstractions coincide; the abstraction is invariant under uniform time
shifts.  For progressing scenarios concrete traces and traces over
abstractions are bisimilar.  The search does not key its memo on these
abstractions: it keys on concrete configurations, whose clock fixes the
window left, so the abstraction could never merge two of its keys.  They
serve the `delta` command and the bisimulation checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .kernel import TIME_PREDICATE, Configuration, GroundTerm, TimedFact
from .rules import EngineError, tick

INF = float("inf")
Gap = Union[int, float]

UntimedFact = tuple[str, tuple[GroundTerm, ...]]


class DeltaError(ValueError):
    pass


def _render_untimed(fact: UntimedFact) -> str:
    pred, args = fact
    if args:
        return f"{pred}({','.join(str(a) for a in args)})"
    return pred


@dataclass(frozen=True)
class DeltaRep:
    """Alternating fact/gap sequence ``[Q1, d(Q1,Q2), Q2, ...]`` plus its bound.

    Facts appear in the canonical order of any generating configuration; each
    gap is a natural number at most `dmax`, or infinity when the true
    difference exceeds the bound.
    """

    facts: tuple[UntimedFact, ...]
    gaps: tuple[Gap, ...]
    dmax: int

    def __post_init__(self) -> None:
        if self.dmax < 1:
            raise DeltaError("dmax must be at least 1")
        if len(self.gaps) != max(len(self.facts) - 1, 0):
            raise DeltaError("gap count must be one less than fact count")
        if sum(1 for f in self.facts if f[0] == TIME_PREDICATE) != 1:
            raise DeltaError("exactly one global-time fact required")
        for g in self.gaps:
            if g is not INF and (not isinstance(g, int) or g < 0 or g > self.dmax):
                raise DeltaError(f"gap {g} out of range for dmax={self.dmax}")

    @property
    def time_index(self) -> int:
        for i, f in enumerate(self.facts):
            if f[0] == TIME_PREDICATE:
                return i
        raise DeltaError("missing global-time fact")  # pragma: no cover

    def future_bounded(self) -> bool:
        """No infinite gap at or after the global-time fact."""
        return INF not in self.gaps[self.time_index :]

    def __str__(self) -> str:
        # Prints like `[P |2| Time |inf| Q]`.
        out = [_render_untimed(self.facts[0])]
        for gap, fact in zip(self.gaps, self.facts[1:]):
            out.append(f"|{'inf' if gap is INF else int(gap)}|")
            out.append(_render_untimed(fact))
        return "[" + " ".join(out) + "]"

    __repr__ = __str__


def abstract(config: Configuration, dmax: int) -> DeltaRep:
    """Abstract a configuration into its canonical gap sequence."""
    if dmax < 1:
        raise DeltaError("dmax must be at least 1")
    ordered = config.canonical_order()
    facts = tuple(f.untimed for f in ordered)
    gaps: list[Gap] = []
    for a, b in zip(ordered, ordered[1:]):
        diff = b.ts - a.ts
        gaps.append(diff if diff <= dmax else INF)
    return DeltaRep(facts=facts, gaps=tuple(gaps), dmax=dmax)


def delta_key(d: DeltaRep) -> tuple:
    """Hashable key, injective on abstractions: equal key iff equal abstraction."""
    return (d.dmax, d.facts, d.gaps)


def lift(d: DeltaRep, base_time: int = 0) -> Configuration:
    """Canonical concrete representative of an abstraction.

    The first fact is placed at `base_time`; finite gaps place successors at
    the exact difference and infinite gaps at ``dmax + 1``.  Abstracting the
    result reproduces the input.
    """
    ts = base_time
    facts: list[TimedFact] = []
    for i, (pred, args) in enumerate(d.facts):
        if i > 0:
            gap = d.gaps[i - 1]
            ts += d.dmax + 1 if gap is INF else int(gap)
        facts.append(TimedFact(pred, args, ts))
    return Configuration(facts)


def tock(d: DeltaRep) -> DeltaRep:
    """Advance the global time by one directly on the abstraction.

    Defined only for future-bounded abstractions.  The contract is agreement
    with tick on any concrete representative; this is the case-analysis fast
    path, and `tock_oracle` realizes the same contract by lifting.
    """
    if not d.future_bounded():
        raise EngineError("tock requires a future-bounded abstraction")
    n = len(d.facts)
    i = d.time_index
    if n == 1:
        return d
    gaps = list(d.gaps)
    facts = list(d.facts)

    # Facts tied to the current instant (zero gaps after Time) end up strictly
    # in the past of the advanced clock, so they move in front of it.
    j = i
    while j + 1 < n and gaps[j] == 0:
        j += 1

    def bump(gap: Gap) -> Gap:
        if gap is INF:
            return INF
        return gap + 1 if gap + 1 <= d.dmax else INF

    if j == i:
        # No tied facts: only the gaps around Time change.
        if i > 0:
            gaps[i - 1] = bump(gaps[i - 1])
        if i < n - 1:
            gaps[i] = int(gaps[i]) - 1
        return DeltaRep(tuple(facts), tuple(gaps), d.dmax)

    moved = facts[i + 1 : j + 1]
    moved_gaps = gaps[i + 1 : j]  # all zeros, between the moved facts
    before_facts = facts[:i]
    before_gaps = gaps[: max(i - 1, 0)]
    bridge = [] if i == 0 else [gaps[i - 1]]  # Time..first moved had gap 0
    after_facts = facts[j + 1 :]
    new_facts = before_facts + moved + [facts[i]] + after_facts
    new_gaps: list[Gap] = list(before_gaps) + bridge + list(moved_gaps) + [1]
    if after_facts:
        new_gaps.append(int(gaps[j]) - 1)
        new_gaps.extend(gaps[j + 1 :])
    return DeltaRep(tuple(new_facts), tuple(new_gaps), d.dmax)


def tock_oracle(d: DeltaRep) -> DeltaRep:
    """Reference Tock: lift to a concrete configuration, tick, re-abstract."""
    if not d.future_bounded():
        raise EngineError("tock requires a future-bounded abstraction")
    return abstract(tick(lift(d)), d.dmax)


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
