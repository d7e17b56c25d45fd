"""Terms, timestamped facts, and configurations for timed multiset rewriting.

A ground term is a constant: a declared one, or a fresh constant ``#type:k``
that a rule mints; a pattern's term may also be a variable, typed by the
positions it fills.  There are no function terms: no scenario file,
reduction or rule can build one.  A scenario checks its initial
configuration against its `Signature` once, and moves keep facts typed.

A configuration is a multiset of timestamped facts containing exactly one
occurrence of the global-time fact ``Time@t``, its clock.  It is stored as the
tuple of its other facts in sort-key order, the clock apart, and a multiset
hash, the sum of all its fact hashes.  A ground term computes its sort key
when it is built, and a fact its own from those, and its hash; facts and
configurations are slotted and fill their slots through member descriptors,
not per-field ``object.__setattr__`` calls.  Each successor is built from its
parent plus the change (Zobrist's incremental hashing applied to the whole
state).  As in the timed MSR, where only the tick advances global time,
only `Configuration.at` moves the clock: a time advance swaps the clock
alone, shares the parent's tuple and groups, and its hash is the parent's
with the two clocks' hashes swapped.  A rule application (`replace`) keeps
the clock, bisects the parent's tuple, updates its hash by the removed and
added facts, and copies its per-predicate groups, when computed, with only
the changed predicates' lists rebuilt.  All values here are immutable and
safe to share between concurrent searches: a parent's tuple and lists are
never mutated.  The match plans that rules and specifications keep
(`rules.MatchPlan`) change in one way only: each counts its calls and, once
hot, sets its generated function once, in place of its cold entry.  The
counter is not locked, since a lost increment only delays generation.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Union

TIME_PREDICATE = "Time"

# Timestamps are naturals; a 64-bit range is declared sufficient and overflow
# is a checked error rather than silent wraparound.
MAX_TIMESTAMP = 2**63 - 1

MINUTES_PER_HOUR = 60
MINUTES_PER_DAY = 24 * 60


class KernelError(ValueError):
    """Raised for ill-formed terms, facts, or configurations."""


class Role(enum.Enum):
    SYSTEM = "system"
    GOAL = "goal"
    CRITICAL = "critical"
    TIME = "time"


@dataclass(frozen=True)
class Constant:
    """A declared constant of some base type."""

    name: str
    base_type: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (0, self.name, self.base_type))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FreshConstant:
    """A ground constant minted for a fresh rule variable.

    Rendered ``#type:k``.  Generation indices are allocated deterministically
    (smallest index absent from the matched configuration) so runs are
    reproducible.
    """

    base_type: str
    index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (1, self.base_type, self.index))

    def __str__(self) -> str:
        return f"#{self.base_type}:{self.index}"


@dataclass(frozen=True)
class Variable:
    """A first-order variable; its type is fixed by the positions it fills."""

    name: str
    base_type: str

    def __str__(self) -> str:
        return self.name


Term = Union[Constant, FreshConstant, Variable]
GroundTerm = Union[Constant, FreshConstant]

# A ground term's sort key, computed when the term is built; a variable has
# none
_TERM_KEY = attrgetter("_key")


def term_sort_key(term: Term) -> tuple:
    """Total order on ground terms.

    Declared constants compare before fresh constants; declared constants
    compare by name then base type, fresh constants by base type then
    generation index.  Two terms have equal keys exactly when they are equal.
    Each ground term computes its key once, when it is built.
    """
    key = getattr(term, "_key", None)
    if key is not None:
        return key
    raise KernelError(f"cannot order non-ground term {term}")


@dataclass(frozen=True)
class Signature:
    """Base type, constant and predicate declarations plus the role partition.

    The role partition is total over predicates and houses the goal, critical,
    and system predicate classes next to the distinguished nullary ``Time``
    predicate.
    """

    base_types: frozenset[str]
    constants: dict[str, str]
    predicates: dict[str, tuple[str, ...]]
    predicate_roles: dict[str, Role]

    def __post_init__(self) -> None:
        time_preds = [p for p, r in self.predicate_roles.items() if r is Role.TIME]
        if time_preds != [TIME_PREDICATE]:
            raise KernelError(
                f"exactly one predicate must have role time and be named "
                f"{TIME_PREDICATE!r}, got {time_preds}"
            )
        if self.predicates.get(TIME_PREDICATE) != ():
            raise KernelError(f"{TIME_PREDICATE} must have arity 0")
        for pred in self.predicates:
            if pred not in self.predicate_roles:
                raise KernelError(f"predicate {pred} has no role")
        for pred in self.predicate_roles:
            if pred not in self.predicates:
                raise KernelError(f"role given for undeclared predicate {pred}")
        for name, btype in self.constants.items():
            if btype not in self.base_types:
                raise KernelError(f"constant {name}: unknown type {btype}")
        for name, args in self.predicates.items():
            for t in args:
                if t not in self.base_types:
                    raise KernelError(f"predicate {name}: unknown type {t}")

    def role(self, pred: str) -> Role:
        return self.predicate_roles[pred]

    def check_fact_args(self, pred: str, args: tuple[Term, ...]) -> None:
        if pred not in self.predicates:
            raise KernelError(f"undeclared predicate {pred}")
        expected = self.predicates[pred]
        if len(args) != len(expected):
            raise KernelError(
                f"predicate {pred} expects {len(expected)} arguments, got {len(args)}"
            )
        for arg, etype in zip(args, expected):
            if arg.base_type != etype:
                raise KernelError(f"{pred}: argument {arg} is not of type {etype}")


def make_signature(
    base_types: Iterable[str],
    constants: dict[str, str],
    predicates: dict[str, tuple[str, ...]],
    roles: dict[str, Role],
) -> Signature:
    """Build a signature, adding the distinguished Time predicate."""
    preds = dict(predicates)
    all_roles = dict(roles)
    preds.setdefault(TIME_PREDICATE, ())
    all_roles.setdefault(TIME_PREDICATE, Role.TIME)
    return Signature(
        base_types=frozenset(base_types),
        constants=dict(constants),
        predicates=preds,
        predicate_roles=all_roles,
    )


class TimedFact:
    """A ground atomic fact with a natural-number timestamp.

    Immutable: its slots are filled once, through their member descriptors,
    and assignment raises.  Its sort key and hash are computed when it is
    built: facts are hashed and ordered constantly during search.  The sort
    key orders by timestamp ascending, `Time` first among equal timestamps,
    then predicate name and arguments; each argument contributes the key it
    computed when it was built.  It is a total order: equal keys, equal
    facts, so equality compares keys and the hash is the key's, which hashes
    built-in tuples only and calls no Python-level ``__hash__``.
    """

    __slots__ = ("pred", "args", "ts", "sort_key", "_hash")
    pred: str
    args: tuple[GroundTerm, ...]
    ts: int
    sort_key: tuple
    _hash: int

    def __init__(self, pred: str, args: tuple[GroundTerm, ...], ts: int):
        if ts < 0 or ts > MAX_TIMESTAMP:
            raise KernelError(f"timestamp {ts} out of range")
        try:
            keys = tuple(map(_TERM_KEY, args))
        except AttributeError:
            raise _not_ground(args) from None
        _fill_fact(self, pred, args, ts, keys)

    def __setattr__(self, *_args) -> None:
        raise AttributeError("TimedFact is immutable")

    def __delattr__(self, *_args) -> None:
        raise AttributeError("TimedFact is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TimedFact:
            return NotImplemented
        return self.sort_key == other.sort_key  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (TimedFact, (self.pred, self.args, self.ts))

    def __repr__(self) -> str:
        return f"TimedFact(pred={self.pred!r}, args={self.args!r}, ts={self.ts!r})"

    @property
    def untimed(self) -> tuple[str, tuple[GroundTerm, ...]]:
        return (self.pred, self.args)

    def at(self, ts: int) -> "TimedFact":
        """The same fact at timestamp `ts`, reusing its argument keys."""
        if ts < 0 or ts > MAX_TIMESTAMP:
            raise KernelError(f"timestamp {ts} out of range")
        fact = _new(TimedFact)
        _fill_fact(fact, self.pred, self.args, ts, self.sort_key[3])
        return fact

    def __str__(self) -> str:
        if self.args:
            inner = ",".join(str(a) for a in self.args)
            return f"{self.pred}({inner})@{self.ts}"
        return f"{self.pred}@{self.ts}"


_new = object.__new__
_SET_PRED = TimedFact.pred.__set__  # type: ignore[attr-defined]
_SET_ARGS = TimedFact.args.__set__  # type: ignore[attr-defined]
_SET_TS = TimedFact.ts.__set__  # type: ignore[attr-defined]
_SET_SORT_KEY = TimedFact.sort_key.__set__  # type: ignore[attr-defined]
_SET_FACT_HASH = TimedFact._hash.__set__  # type: ignore[attr-defined]


def _fill_fact(fact: TimedFact, pred: str, args: tuple, ts: int, keys: tuple) -> None:
    sort_key = (ts, 0 if pred == TIME_PREDICATE else 1, pred, keys)
    _SET_PRED(fact, pred)
    _SET_ARGS(fact, args)
    _SET_TS(fact, ts)
    _SET_SORT_KEY(fact, sort_key)
    _SET_FACT_HASH(fact, hash(sort_key))


def _not_ground(args: tuple) -> KernelError:
    """The error for fact arguments one of which has no sort key: it names
    the first such argument."""
    bad = next(a for a in args if not hasattr(a, "_key"))
    return KernelError(f"fact argument {bad} is not ground")


# C-level accessors for sorting, bisecting and hashing facts
_SORT_KEY = attrgetter("sort_key")
_FACT_HASH = attrgetter("_hash")
_HASH_MASK = 2**64 - 1


def fact_size(fact: TimedFact) -> int:
    """Symbol count of the untimed fact: the predicate plus its arguments,
    each constant (declared or fresh) counted once per occurrence; the
    timestamp is excluded.
    """
    return 1 + len(fact.args)


class Configuration:
    """An immutable multiset of timed facts with one global-time fact.

    It is held as four things: the tuple of its non-`Time` facts sorted by
    their sort keys, a total order on facts, duplicates kept; its clock, the
    `Time` fact; a multiset hash, the sum of the hashes of all its facts,
    `Time` included, mod 2**64; and its per-predicate groups of non-`Time`
    facts.  Configurations holding the same multiset have the same tuple,
    clock and hash.  The public views put the clock back: `canonical_order()`
    inserts it at its sort position, and iteration, `len`, `str`, the counts
    and equality count it as one fact; `others` is the tuple alone.  The
    multiset counts and the groups are computed from the tuple on first
    use; a group holds each distinct fact once, as the object of its first
    copy in the tuple.

    A successor is built in O(changes) Python steps.  `at` moves the clock
    alone: it shares this configuration's tuple and groups and updates the
    hash by the swap of the clock.  It is the only clock mover: `replace`
    keeps the clock, bisects the tuple, updates the hash by the removed and
    added facts, and inherits the groups when they are computed, copying
    only the lists of the predicates that change.
    """

    __slots__ = ("_facts", "_clock", "_hash", "_counts", "_by_pred")

    def __init__(self, facts: Iterable[TimedFact]):
        canonical = sorted(facts, key=_SORT_KEY)
        clocks = [f for f in canonical if f.pred == TIME_PREDICATE]
        if len(clocks) != 1:
            raise KernelError(
                f"configuration must contain exactly one {TIME_PREDICATE} fact, "
                f"got {len(clocks)}"
            )
        # the global time alone tells two clocks apart
        if clocks[0].args:
            raise KernelError(f"{TIME_PREDICATE} takes no arguments, got {clocks[0]}")
        others = tuple(f for f in canonical if f.pred != TIME_PREDICATE)
        digest = sum(map(_FACT_HASH, canonical)) & _HASH_MASK
        self._fill(others, clocks[0], digest, None)

    def _fill(
        self,
        facts: tuple[TimedFact, ...],
        clock: TimedFact,
        digest: int,
        groups: Optional[dict[str, list[TimedFact]]],
    ) -> None:
        _SET_FACTS(self, facts)
        _SET_CLOCK(self, clock)
        _SET_CONFIG_HASH(self, digest)
        _SET_COUNTS(self, None)
        _SET_GROUPS(self, groups)

    def __setattr__(self, *_args) -> None:  # pragma: no cover
        raise AttributeError("Configuration is immutable")

    @property
    def global_time(self) -> int:
        return self._clock.ts

    @property
    def clock(self) -> TimedFact:
        """The one global-time fact."""
        return self._clock

    @property
    def others(self) -> tuple[TimedFact, ...]:
        """The facts other than the clock in the order of their sort keys,
        copies side by side: the tuple this configuration is stored as."""
        return self._facts

    def canonical_order(self) -> tuple[TimedFact, ...]:
        """All facts in the total order of their sort keys: the clock goes
        before the first other fact not earlier than it."""
        facts, clock = self._facts, self._clock
        i = bisect_left(facts, clock.ts, key=_TS)
        return (*facts[:i], clock, *facts[i:])

    def _multiset(self) -> dict[TimedFact, int]:
        counts = self._counts
        if counts is None:
            counts = {self._clock: 1}
            for f in self._facts:
                counts[f] = counts.get(f, 0) + 1
            _SET_COUNTS(self, counts)
        return counts

    def counts(self) -> dict[TimedFact, int]:
        return dict(self._multiset())

    def by_pred(self) -> dict[str, list[TimedFact]]:
        """Distinct non-`Time` facts grouped by predicate, each group in
        canonical order (cached; the order of the predicates is
        unspecified)."""
        cached = self._by_pred
        if cached is None:
            cached = {}
            prev = None
            for f in self._facts:
                # facts with equal keys are equal, so copies sit side by side
                if f.sort_key == prev:
                    continue
                cached.setdefault(f.pred, []).append(f)
                prev = f.sort_key
            _SET_GROUPS(self, cached)
        return cached

    def values(self) -> set[Union[GroundTerm, int]]:
        """All constants and timestamps occurring here."""
        out: set[Union[GroundTerm, int]] = {self._clock.ts}
        for f in self._facts:
            out.add(f.ts)
            out.update(f.args)
        return out

    def at(self, time: int) -> "Configuration":
        """The same facts with the global time at `time`.  The result shares
        this configuration's tuple and groups and builds only its clock; its
        hash is this one's with the old clock's hash swapped for the new
        one's."""
        clock = self._clock
        later = clock.at(time)
        child = _new(Configuration)
        digest = (self._hash - clock._hash + later._hash) & _HASH_MASK
        child._fill(self._facts, later, digest, self._by_pred)
        return child

    def replace(
        self, removed: Iterable[TimedFact], added: Iterable[TimedFact]
    ) -> "Configuration":
        """The configuration with `removed` taken out and `added` put in.

        The result equals `Configuration` over the remaining facts and
        `added`: each removed fact is found by bisection and each added fact
        inserted by it, so nothing is sorted again.  A removal takes out the
        fact's last copy and an added copy goes after the present ones, so
        the first copy stays where it was.  When this configuration's groups
        are computed, the result's are too: a group changes only when a
        fact's last copy leaves or its first copy comes in, so each group
        keeps the object of the tuple's first copy, and a changed group is a
        copy, so this configuration's lists are never mutated.  The result
        keeps this configuration's clock: only `at` moves it, so an added
        `Time` fact is rejected, and a removed one is absent from the tuple.
        """
        facts = list(self._facts)
        digest = self._hash
        inherited = groups = self._by_pred
        if groups is not None:
            groups = dict(groups)
        for f in removed:
            key = f.sort_key
            digest -= f._hash
            i = bisect_right(facts, key, key=_SORT_KEY) - 1
            if i < 0 or facts[i].sort_key != key:
                raise KernelError(f"cannot remove absent fact {f}")
            del facts[i]
            if groups is not None and (i == 0 or facts[i - 1].sort_key != key):
                # no copy is left
                if len(groups[f.pred]) == 1:
                    del groups[f.pred]
                else:
                    group = _own_group(groups, inherited, f.pred)
                    del group[bisect_left(group, key, key=_SORT_KEY)]
        for f in added:
            if f.pred == TIME_PREDICATE:
                raise KernelError(f"cannot add {f}: only `at` moves the clock")
            key = f.sort_key
            digest += f._hash
            i = bisect_right(facts, key, key=_SORT_KEY)
            facts.insert(i, f)
            if groups is not None and (i == 0 or facts[i - 1].sort_key != key):
                # its first copy came in
                if f.pred not in groups:
                    groups[f.pred] = [f]
                else:
                    insort_right(_own_group(groups, inherited, f.pred), f, key=_SORT_KEY)
        child = _new(Configuration)
        child._fill(tuple(facts), self._clock, digest & _HASH_MASK, groups)
        return child

    def without_older(self, lags: dict[str, int]) -> "Configuration":
        """This configuration without each fact P@ts older than its
        predicate's lag allows, ts + lags[P] < t at global time t; a
        predicate absent from `lags` keeps every fact, as a lag of t would.
        Returns this one when nothing is dropped; the result's hash is
        summed from the facts it keeps, and its groups are computed on first
        use."""
        facts, clock, get = self._facts, self._clock, lags.get
        t = clock.ts
        kept = tuple([f for f in facts if f.ts + get(f.pred, t) >= t])
        if len(kept) == len(facts):
            return self
        child = _new(Configuration)
        digest = (clock._hash + sum(map(_FACT_HASH, kept))) & _HASH_MASK
        child._fill(kept, clock, digest, None)
        return child

    def __len__(self) -> int:
        return len(self._facts) + 1

    def __iter__(self) -> Iterator[TimedFact]:
        return iter(self.canonical_order())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Configuration)
            and self._hash == other._hash
            and self._clock == other._clock
            and self._facts == other._facts
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        inner = ", ".join(str(f) for f in self.canonical_order())
        return "{ " + inner + " }"

    __repr__ = __str__


_SET_FACTS = Configuration._facts.__set__  # type: ignore[attr-defined]
_SET_CLOCK = Configuration._clock.__set__  # type: ignore[attr-defined]
_SET_CONFIG_HASH = Configuration._hash.__set__  # type: ignore[attr-defined]
_SET_COUNTS = Configuration._counts.__set__  # type: ignore[attr-defined]
_SET_GROUPS = Configuration._by_pred.__set__  # type: ignore[attr-defined]
_TS = attrgetter("ts")


def _own_group(
    groups: dict[str, list[TimedFact]],
    inherited: dict[str, list[TimedFact]],
    pred: str,
) -> list[TimedFact]:
    """The list of `pred` in `groups`, first replaced by a copy if it is
    still the one in `inherited`."""
    group = groups[pred]
    if group is inherited.get(pred):
        group = groups[pred] = list(group)
    return group


def clock_convert(days: int, hours: int, minutes: int) -> int:
    """Flatten a days/hours/minutes clock reading into abstract time units."""
    if days < 0:
        raise KernelError("days must be non-negative")
    if not 0 <= hours < 24:
        raise KernelError(f"hours out of range: {hours}")
    if not 0 <= minutes < MINUTES_PER_HOUR:
        raise KernelError(f"minutes out of range: {minutes}")
    total = days * MINUTES_PER_DAY + hours * MINUTES_PER_HOUR + minutes
    if total > MAX_TIMESTAMP:
        raise KernelError("timestamp overflow")
    return total
