from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    def test_rendering(self):
        c = Configuration(
            [fact("Time", 5), fact("P", 3, Constant("a", "t"))]
        )
        assert str(c) == "{ P(a)@3, Time@5 }"


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
