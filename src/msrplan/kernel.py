"""Terms, timestamped facts, and configurations for timed multiset rewriting.

A configuration is a multiset of timestamped facts containing exactly one
occurrence of the global-time fact ``Time@t``.  It is stored as its canonical
tuple, the facts in sort-key order; multiset counts, the hash and the
per-predicate groups are computed from that tuple on first use, and each
successor is built from its parent's tuple by bisection rather than a fresh
sort.  All values here are immutable and safe to share between concurrent
searches.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort_right
from dataclasses import dataclass
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

    def __str__(self) -> str:
        return f"#{self.base_type}:{self.index}"


@dataclass(frozen=True)
class Variable:
    """A first-order variable; its type is fixed by the positions it fills."""

    name: str
    base_type: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FuncApp:
    """Application of a declared function symbol to argument terms."""

    func: str
    args: tuple["Term", ...]

    def __str__(self) -> str:
        return f"{self.func}({','.join(str(a) for a in self.args)})"


Term = Union[Constant, FreshConstant, Variable, FuncApp]
GroundTerm = Union[Constant, FreshConstant, FuncApp]


def is_ground(term: Term) -> bool:
    if isinstance(term, Variable):
        return False
    if isinstance(term, FuncApp):
        return all(is_ground(a) for a in term.args)
    return True


def term_variables(term: Term) -> set[str]:
    if isinstance(term, Variable):
        return {term.name}
    if isinstance(term, FuncApp):
        out: set[str] = set()
        for a in term.args:
            out |= term_variables(a)
        return out
    return set()


def subterms(term: Term) -> Iterator[Term]:
    yield term
    if isinstance(term, FuncApp):
        for a in term.args:
            yield from subterms(a)


def term_sort_key(term: Term) -> tuple:
    """Total order on ground terms by preorder spelling.

    Declared constants compare before fresh constants; declared constants
    compare by name then base type, fresh constants by base type then
    generation index.  Two terms have equal keys exactly when they are equal.
    """
    if isinstance(term, Constant):
        return (0, term.name, term.base_type)
    if isinstance(term, FreshConstant):
        return (1, term.base_type, term.index)
    if isinstance(term, FuncApp):
        return (2, term.func, tuple(term_sort_key(a) for a in term.args))
    raise KernelError(f"cannot order non-ground term {term}")


def term_size(term: Term) -> int:
    """Number of symbols in a term, counting repetitions."""
    if isinstance(term, FuncApp):
        return 1 + sum(term_size(a) for a in term.args)
    return 1


@dataclass(frozen=True)
class Signature:
    """Predicate/function/constant declarations plus the role partition.

    The role partition is total over predicates and houses the goal, critical,
    and system predicate classes next to the distinguished nullary ``Time``
    predicate.
    """

    base_types: frozenset[str]
    constants: dict[str, str]
    functions: dict[str, tuple[tuple[str, ...], str]]
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
        for name, (args, result) in self.functions.items():
            for t in (*args, result):
                if t not in self.base_types:
                    raise KernelError(f"function {name}: unknown type {t}")
        for name, args in self.predicates.items():
            for t in args:
                if t not in self.base_types:
                    raise KernelError(f"predicate {name}: unknown type {t}")

    def role(self, pred: str) -> Role:
        return self.predicate_roles[pred]

    def term_type(self, term: Term) -> str:
        if isinstance(term, (Constant, FreshConstant, Variable)):
            return term.base_type
        if term.func not in self.functions:
            raise KernelError(f"undeclared function {term.func}")
        arg_types, result = self.functions[term.func]
        if len(arg_types) != len(term.args):
            raise KernelError(f"function {term.func}: wrong arity")
        for sub, expected in zip(term.args, arg_types):
            if self.term_type(sub) != expected:
                raise KernelError(
                    f"function {term.func}: argument {sub} is not of type {expected}"
                )
        return result

    def check_fact_args(self, pred: str, args: tuple[Term, ...]) -> None:
        if pred not in self.predicates:
            raise KernelError(f"undeclared predicate {pred}")
        expected = self.predicates[pred]
        if len(args) != len(expected):
            raise KernelError(
                f"predicate {pred} expects {len(expected)} arguments, got {len(args)}"
            )
        for arg, etype in zip(args, expected):
            if self.term_type(arg) != etype:
                raise KernelError(f"{pred}: argument {arg} is not of type {etype}")


def make_signature(
    base_types: Iterable[str],
    constants: dict[str, str],
    predicates: dict[str, tuple[str, ...]],
    roles: dict[str, Role],
    functions: Optional[dict[str, tuple[tuple[str, ...], str]]] = None,
) -> Signature:
    """Build a signature, adding the distinguished Time predicate."""
    preds = dict(predicates)
    all_roles = dict(roles)
    preds.setdefault(TIME_PREDICATE, ())
    all_roles.setdefault(TIME_PREDICATE, Role.TIME)
    return Signature(
        base_types=frozenset(base_types),
        constants=dict(constants),
        functions=dict(functions or {}),
        predicates=preds,
        predicate_roles=all_roles,
    )


@dataclass(frozen=True)
class TimedFact:
    """A ground atomic fact with a natural-number timestamp."""

    pred: str
    args: tuple[GroundTerm, ...]
    ts: int

    def __post_init__(self) -> None:
        if self.ts < 0 or self.ts > MAX_TIMESTAMP:
            raise KernelError(f"timestamp {self.ts} out of range")
        for a in self.args:
            if not is_ground(a):
                raise KernelError(f"fact argument {a} is not ground")
        # facts are hashed and re-sorted constantly during search
        object.__setattr__(self, "_hash", hash((self.pred, self.args, self.ts)))
        object.__setattr__(self, "_sort_key", None)

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @property
    def untimed(self) -> tuple[str, tuple[GroundTerm, ...]]:
        return (self.pred, self.args)

    def at(self, ts: int) -> "TimedFact":
        return TimedFact(self.pred, self.args, ts)

    def sort_key(self) -> tuple:
        # Timestamp ascending; Time first among equal timestamps; then
        # predicate name and arguments.  A total order: equal keys, equal facts.
        key = self._sort_key  # type: ignore[attr-defined]
        if key is None:
            key = (
                self.ts,
                0 if self.pred == TIME_PREDICATE else 1,
                self.pred,
                tuple(term_sort_key(a) for a in self.args),
            )
            object.__setattr__(self, "_sort_key", key)
        return key

    def __str__(self) -> str:
        if self.args:
            inner = ",".join(str(a) for a in self.args)
            return f"{self.pred}({inner})@{self.ts}"
        return f"{self.pred}@{self.ts}"


def fact_size(fact: TimedFact) -> int:
    """Symbol count of the untimed fact, counting repetitions.

    The predicate, every function symbol, and every constant (declared or
    fresh) count once per occurrence; the timestamp is excluded.
    """
    return 1 + sum(term_size(a) for a in fact.args)


class Configuration:
    """An immutable multiset of timed facts with one global-time fact.

    The state is the canonical tuple: the facts sorted by `TimedFact.sort_key`,
    a total order on facts, duplicates kept; configurations holding the same
    multiset have the same tuple.  The multiset counts, the hash and
    the per-predicate groups are computed from it on first use.  `replace`
    builds a successor from its parent's tuple without sorting it again.
    """

    __slots__ = ("_canonical", "_time", "_counts", "_hash", "_by_pred")

    def __init__(self, facts: Iterable[TimedFact]):
        canonical = tuple(sorted(facts, key=TimedFact.sort_key))
        times = [f.ts for f in canonical if f.pred == TIME_PREDICATE]
        if len(times) != 1:
            raise KernelError(_time_count_message(len(times)))
        self._fill(canonical, times[0])

    @classmethod
    def _from_canonical(
        cls, canonical: tuple[TimedFact, ...], time: int
    ) -> "Configuration":
        """A configuration over facts already in canonical order, whose one
        global-time fact is at `time`; nothing is sorted or checked."""
        config = object.__new__(cls)
        config._fill(canonical, time)
        return config

    def _fill(self, canonical: tuple[TimedFact, ...], time: int) -> None:
        init = object.__setattr__
        init(self, "_canonical", canonical)
        init(self, "_time", time)
        init(self, "_counts", None)
        init(self, "_hash", None)
        init(self, "_by_pred", None)

    def __setattr__(self, *_args) -> None:  # pragma: no cover
        raise AttributeError("Configuration is immutable")

    @property
    def global_time(self) -> int:
        return self._time

    def canonical_order(self) -> tuple[TimedFact, ...]:
        """The facts in the total order of `TimedFact.sort_key`."""
        return self._canonical

    def _multiset(self) -> dict[TimedFact, int]:
        counts = self._counts
        if counts is None:
            counts = {}
            for f in self._canonical:
                counts[f] = counts.get(f, 0) + 1
            object.__setattr__(self, "_counts", counts)
        return counts

    def counts(self) -> dict[TimedFact, int]:
        return dict(self._multiset())

    def by_pred(self) -> dict[str, list[TimedFact]]:
        """Distinct facts grouped by predicate, in canonical order (cached)."""
        cached = self._by_pred
        if cached is None:
            cached = {}
            prev_hash, prev = None, None
            for f in self._canonical:
                # facts with equal keys are equal, so copies sit side by side;
                # the stored hashes rule most neighbours out before `==` runs
                h = f._hash  # type: ignore[attr-defined]
                if h == prev_hash and f == prev:
                    continue
                cached.setdefault(f.pred, []).append(f)
                prev_hash, prev = h, f
            object.__setattr__(self, "_by_pred", cached)
        return cached

    def count(self, fact: TimedFact) -> int:
        return self._multiset().get(fact, 0)

    def contains(self, facts: Iterable[TimedFact]) -> bool:
        """Multiset inclusion of `facts` in this configuration."""
        need: dict[TimedFact, int] = {}
        for f in facts:
            need[f] = need.get(f, 0) + 1
        have = self._multiset()
        return all(have.get(f, 0) >= n for f, n in need.items())

    def values(self) -> set[Union[GroundTerm, int]]:
        """All ground terms (including subterms) and timestamps occurring here."""
        out: set[Union[GroundTerm, int]] = set()
        for f in self._canonical:
            out.add(f.ts)
            for a in f.args:
                out.update(subterms(a))
        return out

    def replace(
        self, removed: Iterable[TimedFact], added: Iterable[TimedFact]
    ) -> "Configuration":
        """The configuration with `removed` taken out and `added` put in.

        The result equals `Configuration` over the remaining facts and
        `added`: each removed fact is found by bisection and each added fact
        inserted by it, so nothing is sorted again.
        """
        facts = list(self._canonical)
        key = TimedFact.sort_key
        time = self._time
        times = 1
        for f in removed:
            i = bisect_left(facts, f.sort_key(), key=key)
            if i == len(facts) or facts[i] != f:
                raise KernelError(f"cannot remove absent fact {f}")
            del facts[i]
            if f.pred == TIME_PREDICATE:
                times -= 1
        for f in added:
            insort_right(facts, f, key=key)
            if f.pred == TIME_PREDICATE:
                times += 1
                time = f.ts
        if times != 1:
            raise KernelError(_time_count_message(times))
        return Configuration._from_canonical(tuple(facts), time)

    def __len__(self) -> int:
        return len(self._canonical)

    def __iter__(self) -> Iterator[TimedFact]:
        return iter(self._canonical)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Configuration) and self._canonical == other._canonical

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self._canonical)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:
        inner = ", ".join(str(f) for f in self._canonical)
        return "{ " + inner + " }"

    __repr__ = __str__


def _time_count_message(count: int) -> str:
    return (
        f"configuration must contain exactly one {TIME_PREDICATE} fact, got {count}"
    )


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


def clock_invert(total: int) -> tuple[int, int, int]:
    """Exact inverse of clock_convert."""
    if total < 0:
        raise KernelError("time units must be non-negative")
    days, rem = divmod(total, MINUTES_PER_DAY)
    hours, minutes = divmod(rem, MINUTES_PER_HOUR)
    return (days, hours, minutes)
