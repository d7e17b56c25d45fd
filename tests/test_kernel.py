from __future__ import annotations

import copy
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import explored_states, qbf_mix, random_scenario
from msrplan.kernel import (
    Configuration,
    Constant,
    FreshConstant,
    KernelError,
    MAX_TIMESTAMP,
    Role,
    TimedFact,
    Variable,
    clock_convert,
    fact_size,
    make_signature,
    term_sort_key,
)
from msrplan.reductions import Qbf, qbf_to_scenario
from msrplan.rules import EngineError, tick
from msrplan.scenario import load_bundled
from msrplan.search import successors
from reference import clock_invert


def fact(pred: str, ts: int, *args) -> TimedFact:
    return TimedFact(pred, tuple(args), ts)


class TestCanonicalOrder:
    def test_timestamp_sort(self):
        c = Configuration([fact("Q", 9), fact("Time", 5), fact("P", 3)])
        assert [f.pred for f in c.canonical_order()] == ["P", "Time", "Q"]

    def test_time_first_then_alphabetical(self):
        c = Configuration([fact("Time", 5), fact("B", 5), fact("A", 5)])
        assert [f.pred for f in c.canonical_order()] == ["Time", "A", "B"]

    def test_multiplicity_preserved(self):
        c = Configuration([fact("P", 3), fact("P", 3), fact("Time", 5)])
        assert [f.pred for f in c.canonical_order()] == ["P", "P", "Time"]

    def test_argument_spelling_breaks_ties(self):
        a, b = Constant("a", "t"), Constant("b", "t")
        c = Configuration([fact("P", 1, b), fact("P", 1, a), fact("Time", 0)])
        assert [f.args for f in c.canonical_order()] == [(), (a,), (b,)]

    def test_fresh_constants_after_declared(self):
        a = Constant("zz", "t")
        f0 = FreshConstant("t", 0)
        c = Configuration([fact("P", 1, f0), fact("P", 1, a), fact("Time", 0)])
        assert [f.args for f in c.canonical_order()] == [(), (a,), (f0,)]
        assert str(f0) == "#t:0"

    @given(
        st.lists(
            st.tuples(st.sampled_from("PQRS"), st.integers(0, 6)),
            min_size=0,
            max_size=7,
        ),
        st.integers(0, 6),
    )
    def test_permutation_and_stability(self, items, time_ts):
        facts = [fact(p, ts) for p, ts in items] + [fact("Time", time_ts)]
        c = Configuration(facts)
        ordered = c.canonical_order()
        assert sorted(ordered, key=lambda f: (f.pred, f.ts)) == sorted(
            facts, key=lambda f: (f.pred, f.ts)
        )
        # idempotent: rebuilding from the ordered sequence reproduces it
        assert Configuration(ordered).canonical_order() == ordered
        # equal multisets give identical sequences
        import random

        shuffled = list(facts)
        random.Random(0).shuffle(shuffled)
        assert Configuration(shuffled).canonical_order() == ordered


class TestConfigurationInvariants:
    def test_exactly_one_time_fact(self):
        with pytest.raises(KernelError):
            Configuration([fact("P", 0)])
        with pytest.raises(KernelError):
            Configuration([fact("Time", 0), fact("Time", 1)])

    def test_multiset_equality(self):
        c1 = Configuration([fact("P", 1), fact("P", 1), fact("Time", 0)])
        c2 = Configuration([fact("P", 1), fact("Time", 0), fact("P", 1)])
        c3 = Configuration([fact("P", 1), fact("Time", 0)])
        assert c1 == c2 and hash(c1) == hash(c2)
        assert c1 != c3

    def test_timestamp_range(self):
        with pytest.raises(KernelError):
            fact("P", -1)
        with pytest.raises(KernelError):
            fact("P", MAX_TIMESTAMP + 1)

    def test_non_ground_argument_is_named(self):
        """A fact names its first non-ground argument."""
        a, x = Constant("a", "t"), Variable("x", "t")
        with pytest.raises(KernelError, match=r"^fact argument x is not ground$"):
            fact("P", 0, a, x)

    def test_by_pred_groups_distinct_facts_in_canonical_order(self):
        a, b = Constant("a", "t"), Constant("b", "t")
        c = Configuration(
            [fact("P", 2, b), fact("Q", 1), fact("P", 1, a), fact("P", 2, b),
             fact("Time", 0), fact("Q", 1), fact("P", 1, b)]
        )
        # the clock is held apart from the groups
        assert c.by_pred() == {
            "P": [fact("P", 1, a), fact("P", 1, b), fact("P", 2, b)],
            "Q": [fact("Q", 1)],
        }
        assert list(c.by_pred()) == ["P", "Q"]

    def test_same_facts_in_any_order_are_one_configuration(self):
        # facts that differ only in a constant's type still have distinct keys
        a, b = fact("G0", 0, Constant("a", "obj")), fact("G0", 0, Constant("a", "obj2"))
        time = fact("Time", 0)
        one, other = Configuration([time, a, b, a]), Configuration([time, a, a, b])
        assert one == other and hash(one) == hash(other)
        assert one.canonical_order() == (time, a, a, b)
        assert one.by_pred()["G0"] == [a, b]

    def test_rendering(self):
        c = Configuration(
            [fact("Time", 5), fact("P", 3, Constant("a", "t"))]
        )
        assert str(c) == "{ P(a)@3, Time@5 }"


def _explored_configurations() -> list[Configuration]:
    """Reachable states of random scenarios, travel and a QBF-generated
    scenario, as a move would hand them to `replace`."""
    scenarios = [
        random_scenario(seed, progressing=seed % 2 == 0, with_updates=True)
        for seed in range(12)
    ]
    scenarios.append(load_bundled("travel.msr"))
    scenarios.append(
        qbf_to_scenario(
            Qbf((("e", (1,)), ("a", (2,)), ("e", (3,))), ((1, 2, 3), (-1, -2, -3)))
        )
    )
    return [c for s in scenarios for c in explored_states(s, 15)]


def _twin(f: TimedFact) -> TimedFact:
    """A fact that differs from `f` only in its constants' types: they keep
    their names."""
    args = tuple(
        Constant(a.name, a.base_type + "2") if isinstance(a, Constant) else a
        for a in f.args
    )
    return TimedFact(f.pred, args, f.ts)


def _replaced_reference(config, removed, added) -> Configuration:
    remaining = list(config.canonical_order())
    for f in removed:
        remaining.remove(f)
    return Configuration([*remaining, *added])


def _assert_multiset_views(c: Configuration) -> None:
    """Every view of `c` agrees with one read off its canonical tuple."""
    facts = c.canonical_order()
    assert [f.ts for f in facts if f.pred == "Time"] == [c.global_time]
    assert hash(c) == hash(Configuration(facts))
    expected = Counter(facts)
    assert c.counts() == dict(expected)
    groups: dict[str, list[TimedFact]] = {}
    for f in facts:
        if f.pred == "Time":
            continue  # the clock is held apart from the groups
        group = groups.setdefault(f.pred, [])
        if f not in group:
            group.append(f)
    assert c.by_pred() == groups


class TestReplace:
    """`replace` builds the child from the parent's order; it must equal a
    configuration built from scratch over the remaining facts, in canonical
    order, followed by the added ones."""

    def _cases(self, config: Configuration, rng: random.Random):
        """(removed, added, whether an added fact has a differing twin)."""
        facts = list(config.canonical_order())
        time = next(f for f in facts if f.pred == "Time")
        others = [f for f in facts if f.pred != "Time"]
        # the draw of the removed clock-swap cases (`at` moves the clock, see
        # `TestTick`), kept so that the cases after it stay the same
        rng.sample(others, min(2, len(others)))
        if not others:
            return
        # duplicates: copies of present facts added, one of a pair removed
        dup = rng.choice(others)
        yield [], [dup, dup], False
        yield [dup], [dup, dup.at(dup.ts + 1)], False
        yield rng.sample(others, min(3, len(others))), [dup.at(time.ts + 2)], False
        # an added fact that differs from a present one only in a constant's type
        base = rng.choice(others)
        twin = _twin(base)
        yield [], [twin], twin != base
        yield [rng.choice(others)], [base, twin], twin != base

    def test_equals_configuration_built_from_scratch(self):
        rng = random.Random(10)
        configs = _explored_configurations()
        checked = twins = 0
        for config in configs:
            _assert_multiset_views(config)
            for removed, added, twinned in self._cases(config, rng):
                got = config.replace(removed, added)
                want = _replaced_reference(config, removed, added)
                assert got.canonical_order() == want.canonical_order()
                assert got.global_time == want.global_time
                assert got == want and hash(got) == hash(want)
                assert got.by_pred() == want.by_pred()
                _assert_multiset_views(got)
                checked += 1
                twins += twinned
            assert tick(config) == _replaced_reference(
                config,
                [f for f in config if f.pred == "Time"],
                [TimedFact("Time", (), config.global_time + 1)],
            )
        assert len(configs) > 150 and checked > 1000 and twins > 100

    def test_removing_a_twin_takes_out_that_fact(self):
        a, a2 = Constant("a", "t"), Constant("a", "u")
        p, p2 = fact("P", 1, a), fact("P", 1, a2)
        base = Configuration([fact("Time", 0), p, p])
        both = base.replace([], [p2])
        assert both.canonical_order() == (fact("Time", 0), p, p, p2)
        p3 = fact("P", 1, Constant("a", "v"))
        assert base.replace([], [p3, p2]).canonical_order() == (fact("Time", 0), p, p, p2, p3)
        assert both.replace([], [p3]).canonical_order() == (fact("Time", 0), p, p, p2, p3)
        assert both.replace([p2], []) == base
        assert both.replace([p], []).canonical_order() == (fact("Time", 0), p, p2)
        with pytest.raises(KernelError, match=r"^cannot remove absent fact P\(a\)@1$"):
            base.replace([p2], [])

    def test_errors_keep_their_messages(self):
        c = Configuration([fact("Time", 4), fact("P", 1), fact("P", 1)])
        with pytest.raises(KernelError, match=r"^cannot remove absent fact Q@1$"):
            c.replace([fact("Q", 1)], [])
        with pytest.raises(KernelError, match=r"^cannot remove absent fact P@1$"):
            c.replace([fact("P", 1)] * 3, [])
        none = r"^configuration must contain exactly one Time fact, got 0$"
        with pytest.raises(KernelError, match=none):
            Configuration([fact("P", 1)])

    def test_only_at_moves_the_clock(self):
        """`replace` keeps the clock: an added `Time` fact is rejected, and
        a removed one, the present clock included, is absent."""
        c = Configuration([fact("Time", 4), fact("P", 1)])
        for clock in (fact("Time", 4), fact("Time", 5)):
            with pytest.raises(KernelError, match=rf"^cannot remove absent fact {clock}$"):
                c.replace([clock], [])
        with pytest.raises(KernelError, match=r"^cannot add Time@5: only `at` moves the clock$"):
            c.replace([], [fact("Time", 5)])
        with pytest.raises(KernelError, match=r"^cannot remove absent fact Time@4$"):
            c.replace([fact("Time", 4)], [fact("Time", 5)])
        with pytest.raises(KernelError, match=r"^cannot add Time@5"):
            c.replace([fact("P", 1)], [fact("P", 2), fact("Time", 5)])
        assert c.replace([fact("P", 1)], [fact("P", 2)]).clock is c.clock

    def test_counts_returns_a_copy(self):
        p = fact("P", 1)
        c = Configuration([fact("Time", 0), p])
        child = c.replace([], [p])
        for config, n in ((c, 1), (child, 2)):
            config.counts()[p] = 7
            config.counts().clear()
            assert config.counts()[p] == n


class TestTick:
    """A tick builds only a new clock: it shares its parent's non-`Time`
    tuple and groups, and equals the configuration built from scratch over
    its facts in every public view."""

    def test_shares_the_tuple_and_the_groups(self):
        for config in _explored_configurations():
            config.by_pred()
            later = tick(config)
            assert later._facts is config._facts
            assert later._by_pred is config._by_pred
            assert later.global_time == config.global_time + 1

    def test_equals_configuration_built_from_scratch(self):
        configs = _explored_configurations()
        for config in configs:
            later = tick(config)
            facts = [f for f in config if f.pred != "Time"]
            want = Configuration([*facts, fact("Time", config.global_time + 1)])
            assert later == want and hash(later) == hash(want)
            assert later.canonical_order() == want.canonical_order()
            assert later.by_pred() == want.by_pred()
            assert later.counts() == want.counts()
            assert str(later) == str(want)
            assert len(later) == len(config) == len(facts) + 1
        assert len(configs) > 150

    def test_overflow_is_checked(self):
        last = Configuration([fact("Time", MAX_TIMESTAMP - 1), fact("P", 0)])
        assert tick(last).global_time == MAX_TIMESTAMP
        with pytest.raises(EngineError, match=r"^global time overflow$"):
            tick(tick(last))
        with pytest.raises(KernelError, match=rf"^timestamp {MAX_TIMESTAMP + 1} out of range$"):
            last.at(MAX_TIMESTAMP + 1)

    def test_time_is_nullary(self):
        clock = TimedFact("Time", (Constant("a", "t"),), 0)
        with pytest.raises(KernelError, match=r"^Time takes no arguments, got Time\(a\)@0$"):
            Configuration([clock])
        with pytest.raises(KernelError, match=r"^cannot add Time\(a\)@0: only `at`"):
            Configuration([fact("Time", 0)]).replace([], [clock])


class TestWithoutOlder:
    """`Configuration.without_older` drops each fact older than its
    predicate's lag allows and equals the configuration built from scratch
    over the facts it keeps."""

    def test_a_fact_at_its_lag_is_kept(self):
        config = Configuration(
            [fact("Time", 10), fact("P", 7), fact("P", 6), fact("P", 6), fact("Q", 0), fact("R", 12)]
        )
        kept = config.without_older({"P": 3, "R": -3})
        want = Configuration([fact("Time", 10), fact("P", 7), fact("Q", 0)])
        assert kept == want and hash(kept) == hash(want)
        assert kept.by_pred() == want.by_pred() and kept.counts() == want.counts()
        # R@12 lies before 10 + 3; a lag of 2 keeps it
        assert config.without_older({"R": -2}).counts()[fact("R", 12)] == 1

    def test_nothing_dropped_returns_the_same_configuration(self):
        for config in _explored_configurations()[:40]:
            assert config.without_older({}) is config
            assert config.without_older({"Nothing": 0}) is config

    def test_equals_configuration_built_from_scratch(self):
        configs = _explored_configurations()
        rng = random.Random(7)
        for config in configs:
            t = config.global_time
            preds = sorted({f.pred for f in config} - {"Time"})
            lags = {p: rng.randint(-2, 3) for p in preds if rng.random() < 0.7}
            kept = config.without_older(lags)
            want = Configuration([f for f in config if f.pred not in lags or f.ts >= t - lags[f.pred]])
            assert kept == want and hash(kept) == hash(want), lags
            assert kept.canonical_order() == want.canonical_order()
        assert len(configs) > 150


def _views(c: Configuration) -> tuple:
    """The hash, the groups (lists copied) and the counts of `c`."""
    return hash(c), {p: list(g) for p, g in c.by_pred().items()}, c.counts()


class TestInheritedViews:
    """A successor updates its parent's hash and, once the parent's groups
    are computed, inherits them; both must equal those of the configuration
    built from scratch over its facts, and the parent's views must not
    change."""

    def test_successor_chains(self):
        scenarios = [load_bundled("travel.msr")]
        scenarios += [_distinct_copies(qbf_to_scenario(formula)) for formula in qbf_mix()[:12]]
        children = 0
        for scenario in scenarios:
            # explored states are themselves children of states with groups
            for parent in explored_states(scenario, 40):
                parent.by_pred()
                before = _views(parent)
                assert before == _views(Configuration(parent.canonical_order()))
                _assert_groups_hold_first_copies(parent)
                for _, child in successors(parent, scenario.rules()):
                    assert child._by_pred is not None  # the inherited path ran
                    assert _views(child) == _views(Configuration(child.canonical_order()))
                    _assert_groups_hold_first_copies(child)
                    children += 1
                assert _views(parent) == before
        assert children > 1000


def _distinct_copies(scenario):
    """`scenario` with every initial fact built anew, so that the copies of
    a fact (the QBF generator repeats `Junk` and `B` facts) are equal but
    distinct objects, as the copies a move creates are."""
    facts = [TimedFact(f.pred, f.args, f.ts) for f in scenario.initial]
    return scenario.with_initial(Configuration(facts))


def _assert_groups_hold_first_copies(c: Configuration) -> None:
    """Each fact in a group is, by identity, the first of its copies in the
    canonical tuple, which a removal leaves in place."""
    first: dict[tuple, TimedFact] = {}
    for f in c.canonical_order():
        first.setdefault(f.sort_key, f)
    for group in c.by_pred().values():
        for f in group:
            assert f is first[f.sort_key], f


def _reference_key(term) -> tuple:
    """A ground term's sort key by its definition, from the term's fields."""
    if isinstance(term, Constant):
        return (0, term.name, term.base_type)
    assert isinstance(term, FreshConstant)
    return (1, term.base_type, term.index)


def _facts_with_terms() -> list[TimedFact]:
    """The facts of explored states, each also copied next to a fresh
    constant, so both kinds of ground term occur."""
    out = []
    for k, config in enumerate(_explored_configurations()):
        for f in config:
            out.append(f)
            out.append(TimedFact("W", (*f.args, FreshConstant("obj", k % 3)), f.ts))
    return out


class TestFactContract:
    """A fact is slotted and immutable; its sort key is computed from the
    keys its ground arguments computed when they were built, and its
    equality and hash follow that key."""

    def test_assignment_raises(self):
        f = fact("P", 1, Constant("a", "t"))
        for name in ("pred", "args", "ts", "sort_key", "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, 2)
        with pytest.raises(AttributeError):
            del f.ts
        assert (f.pred, f.ts, str(f)) == ("P", 1, "P(a)@1")

    def test_sort_key_from_argument_keys(self):
        facts = _facts_with_terms()
        kinds = set()
        for f in facts:
            keys = tuple(map(term_sort_key, f.args))
            assert keys == tuple(map(_reference_key, f.args))
            assert f.sort_key == (f.ts, 0 if f.pred == "Time" else 1, f.pred, keys)
            assert f.at(f.ts + 1).sort_key == (f.ts + 1, *f.sort_key[1:])
            kinds.update(map(type, f.args))
        assert kinds == {Constant, FreshConstant} and len(facts) > 1000

    def test_equality_and_hash_follow_the_sort_key(self):
        facts = _facts_with_terms()[:400]
        equal = 0
        for f in facts:
            assert hash(f) == hash(f.sort_key)
            for g in facts:
                assert (f == g) == (f.sort_key == g.sort_key)
                assert (f != g) == (f.sort_key != g.sort_key)
                equal += f == g and f is not g
        assert equal > 100
        a, a2 = Constant("a", "t"), Constant("a", "u")
        assert fact("P", 1, a) == fact("P", 1, Constant("a", "t"))
        assert fact("P", 1, a) != fact("P", 2, a)
        assert fact("P", 1, a) != fact("P", 1, a2)
        assert fact("P", 1, a) != fact("Q", 1, a)
        assert fact("P", 1, FreshConstant("t", 0)) != fact("P", 1, FreshConstant("t", 1))
        assert fact("P", 1, a) != ("P", (a,), 1)

    def test_error_messages_are_unchanged(self):
        a, x = Constant("a", "t"), Variable("x", "t")
        for ts in (-1, MAX_TIMESTAMP + 1):
            with pytest.raises(KernelError, match=rf"^timestamp {ts} out of range$"):
                fact("P", ts, a)
        with pytest.raises(KernelError, match=rf"^timestamp {MAX_TIMESTAMP + 1} out of range$"):
            fact("P", MAX_TIMESTAMP, a).at(MAX_TIMESTAMP + 1)
        with pytest.raises(KernelError, match=r"^fact argument x is not ground$"):
            fact("P", 0, a, x)
        with pytest.raises(KernelError, match=r"^fact argument y is not ground$"):
            fact("P", 0, a, Variable("y", "t"), x)
        with pytest.raises(KernelError, match=r"^cannot order non-ground term x$"):
            term_sort_key(x)

    def test_copies_are_equal_facts(self):
        f = fact("P", 3, Constant("a", "t"), FreshConstant("t", 2))
        for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert copied == f and hash(copied) == hash(f) and copied.sort_key == f.sort_key
        assert repr(fact("P", 1)) == "TimedFact(pred='P', args=(), ts=1)"


class TestClockConvert:
    def test_burdensome_timestamp(self):
        assert clock_convert(3, 14, 42) == 5202

    def test_zero(self):
        assert clock_convert(0, 0, 0) == 0

    def test_five_days_noon(self):
        assert clock_convert(5, 12, 0) == 7920

    def test_out_of_range_rejected(self):
        with pytest.raises(KernelError):
            clock_convert(0, 24, 0)
        with pytest.raises(KernelError):
            clock_convert(0, 0, 60)
        with pytest.raises(KernelError):
            clock_convert(-1, 0, 0)

    @given(st.integers(0, 10_000), st.integers(0, 23), st.integers(0, 59))
    def test_invert_roundtrip(self, d, h, m):
        assert clock_invert(clock_convert(d, h, m)) == (d, h, m)

    @given(st.integers(0, 10**9))
    def test_convert_roundtrip(self, n):
        assert clock_convert(*clock_invert(n)) == n


class TestFactSize:
    def test_predicate_plus_constants(self):
        f = fact("At", 0, Constant("fra", "city"), Constant("center", "loc"))
        assert fact_size(f) == 3

    def test_nullary(self):
        assert fact_size(fact("Time", 5202)) == 1

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_invariant_under_timestamp(self, t1, t2):
        args = (Constant("a", "t"), FreshConstant("t", 0))
        assert fact_size(fact("P", t1, *args)) == fact_size(fact("P", t2, *args))


class TestSignature:
    def test_role_partition_is_total(self):
        sig = make_signature(
            ["t"], {"a": "t"}, {"P": ("t",)}, {"P": Role.SYSTEM}
        )
        assert sig.role("Time") is Role.TIME
        assert sig.role("P") is Role.SYSTEM

    def test_unknown_types_rejected(self):
        with pytest.raises(KernelError):
            make_signature(["t"], {"a": "u"}, {}, {})
        with pytest.raises(KernelError):
            make_signature(["t"], {}, {"P": ("u",)}, {"P": Role.SYSTEM})

    def test_fact_type_checking(self):
        sig = make_signature(
            ["t", "u"], {"a": "t"}, {"P": ("u",)}, {"P": Role.SYSTEM}
        )
        with pytest.raises(KernelError):
            sig.check_fact_args("P", (Constant("a", "t"),))
        with pytest.raises(KernelError):
            sig.check_fact_args("P", ())


def test_term_sort_key_rejects_variables():
    from msrplan.kernel import Variable

    with pytest.raises(KernelError):
        term_sort_key(Variable("x", "t"))
