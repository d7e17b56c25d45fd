"""Time-abstracted canonical states: fact sequences with truncated gaps.

Two configurations are equivalent (for a given truncation bound) exactly when
their abstractions coincide; the abstraction is invariant under uniform time
shifts.  For progressing scenarios concrete traces and traces over
abstractions are bisimilar.  Time moves on an abstraction by `tock`, the
tick of `lift`'s representative abstracted again, defined when no infinite
gap follows the clock.  The search does not key its memo on these
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


def lift(d: DeltaRep) -> Configuration:
    """Canonical concrete representative of an abstraction.

    The first fact is placed at time 0; finite gaps place successors at
    the exact difference and infinite gaps at ``dmax + 1``.  Abstracting the
    result reproduces the input.
    """
    ts = 0
    facts: list[TimedFact] = []
    for i, (pred, args) in enumerate(d.facts):
        if i > 0:
            gap = d.gaps[i - 1]
            ts += d.dmax + 1 if gap is INF else int(gap)
        facts.append(TimedFact(pred, args, ts))
    return Configuration(facts)


def tock(d: DeltaRep) -> DeltaRep:
    """Advance the global time by one on the abstraction: the tick of
    `lift`'s representative, abstracted again.  Defined when no infinite
    gap follows the clock, where every representative's tick abstracts to
    the same result."""
    if not d.future_bounded():
        raise EngineError("tock requires a future-bounded abstraction")
    return abstract(tick(lift(d)), d.dmax)
