from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import explored_states, random_scenario
from msrplan.kernel import (
    Configuration,
    Constant,
    FreshConstant,
    FuncApp,
    KernelError,
    MAX_TIMESTAMP,
    Role,
    TimedFact,
    clock_convert,
    clock_invert,
    fact_size,
    make_signature,
    term_sort_key,
)
from msrplan.reductions import Qbf, qbf_to_scenario
from msrplan.rules import tick
from msrplan.scenario import load_bundled


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

    def test_by_pred_groups_distinct_facts_in_canonical_order(self):
        a, b = Constant("a", "t"), Constant("b", "t")
        c = Configuration(
            [fact("P", 2, b), fact("Q", 1), fact("P", 1, a), fact("P", 2, b),
             fact("Time", 0), fact("Q", 1), fact("P", 1, b)]
        )
        assert c.by_pred() == {
            "Time": [fact("Time", 0)],
            "P": [fact("P", 1, a), fact("P", 1, b), fact("P", 2, b)],
            "Q": [fact("Q", 1)],
        }
        assert list(c.by_pred()) == ["Time", "P", "Q"]

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
    assert hash(c) == hash(facts)
    expected = Counter(facts)
    assert c.counts() == dict(expected)
    assert all(c.count(f) == n for f, n in expected.items())
    assert c.contains(facts) and c.contains(facts[1:])
    assert not c.contains([*facts, facts[0]])
    groups: dict[str, list[TimedFact]] = {}
    for f in facts:
        group = groups.setdefault(f.pred, [])
        if f not in group:
            group.append(f)
    assert c.by_pred() == groups
    assert list(c.by_pred()) == list(groups)


class TestReplace:
    """`replace` builds the child from the parent's order; it must equal a
    configuration built from scratch over the remaining facts, in canonical
    order, followed by the added ones."""

    def _cases(self, config: Configuration, rng: random.Random):
        """(removed, added, whether an added fact has a differing twin)."""
        facts = list(config.canonical_order())
        time = next(f for f in facts if f.pred == "Time")
        others = [f for f in facts if f.pred != "Time"]
        later = time.at(time.ts + 1)
        # the clock fact taken out and its successor put in, alone or with more
        yield [time], [later], False
        yield [time], [later, *rng.sample(others, min(2, len(others)))], False
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
        with pytest.raises(KernelError, match=r"^cannot remove absent fact Time@5$"):
            c.replace([fact("Time", 5)], [fact("Time", 6)])
        one = r"^configuration must contain exactly one Time fact, got "
        with pytest.raises(KernelError, match=one + "2$"):
            c.replace([], [fact("Time", 5)])
        with pytest.raises(KernelError, match=one + "0$"):
            c.replace([fact("Time", 4)], [fact("P", 2)])
        with pytest.raises(KernelError, match=one + "0$"):
            Configuration([fact("P", 1)])

    def test_counts_returns_a_copy(self):
        p = fact("P", 1)
        c = Configuration([fact("Time", 0), p])
        child = c.replace([], [p])
        for config, n in ((c, 1), (child, 2)):
            config.counts()[p] = 7
            config.counts().clear()
            assert config.count(p) == n and config.counts()[p] == n
            assert config.contains([p] * n) and not config.contains([p] * (n + 1))


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

    def test_function_application(self):
        term = FuncApp("f", (Constant("a", "t"), Constant("b", "t")))
        assert fact_size(fact("R", 7, term)) == 4

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_invariant_under_timestamp(self, t1, t2):
        args = (Constant("a", "t"), FuncApp("f", (Constant("b", "t"),)))
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

    def test_function_typing(self):
        sig = make_signature(
            ["t"],
            {"a": "t"},
            {"P": ("t",)},
            {"P": Role.SYSTEM},
            functions={"f": (("t",), "t")},
        )
        good = FuncApp("f", (Constant("a", "t"),))
        sig.check_fact_args("P", (good,))
        with pytest.raises(KernelError):
            sig.check_fact_args("P", (FuncApp("f", ()),))


def test_term_sort_key_rejects_variables():
    from msrplan.kernel import Variable

    with pytest.raises(KernelError):
        term_sort_key(Variable("x", "t"))
