from __future__ import annotations

import random
import re

import pytest

from conftest import random_scenario
from msrplan.delta import (
    DeltaError,
    DeltaRep,
    INF,
    abstract,
    delta_key,
    lift,
    tock,
)
from msrplan.kernel import Configuration, TimedFact
from msrplan.rules import EngineError, apply_instance, find_matches, tick
from msrplan.scenario import infer_dmax
from msrplan.specs import match_spec
from reference import is_progressing_delta


def fact(pred: str, ts: int) -> TimedFact:
    return TimedFact(pred, (), ts)


def cfg(*facts) -> Configuration:
    return Configuration(facts)


BASE = cfg(fact("Time", 5), fact("P", 3), fact("Q", 9))


class TestAbstract:
    def test_consecutive_truncated_differences(self):
        d = abstract(BASE, 4)
        assert d.facts == (("P", ()), ("Time", ()), ("Q", ()))
        assert d.gaps == (2, 4)

    def test_truncation_to_infinity(self):
        assert abstract(BASE, 3).gaps == (2, INF)

    def test_time_shift_invariance(self):
        shifted = cfg(fact("Time", 105), fact("P", 103), fact("Q", 109))
        assert abstract(shifted, 4) == abstract(BASE, 4)

    def test_dmax_floor(self):
        with pytest.raises(DeltaError):
            abstract(BASE, 0)

    def test_rendering(self):
        assert str(abstract(BASE, 3)) == "[P |2| Time |inf| Q]"


T, P = ("Time", ()), ("P", ())


class TestDeltaRepChecks:
    """Each check of the constructor, on an otherwise valid `[P |1| Time]`."""

    @pytest.mark.parametrize(
        "facts, gaps, dmax, message",
        [
            ((P, T), (1,), 0, "dmax must be at least 1"),
            ((P, T), (), 2, "gap count must be one less than fact count"),
            ((P, P), (1,), 2, "exactly one global-time fact required"),
            ((T, T), (1,), 2, "exactly one global-time fact required"),
            ((P, T), (3,), 2, "gap 3 out of range for dmax=2"),
            ((P, T), (-1,), 2, "gap -1 out of range for dmax=2"),
            ((P, T), (1.5,), 2, "gap 1.5 out of range for dmax=2"),
        ],
    )
    def test_rejects(self, facts, gaps, dmax, message):
        assert str(DeltaRep((P, T), (1,), 2)) == "[P |1| Time]"
        with pytest.raises(DeltaError, match=f"^{re.escape(message)}$"):
            DeltaRep(facts, gaps, dmax)


class TestDeltaKey:
    def test_shift_equivalent_configurations_share_keys(self):
        shifted = cfg(fact("Time", 105), fact("P", 103), fact("Q", 109))
        assert delta_key(abstract(BASE, 4)) == delta_key(abstract(shifted, 4))

    def test_multiplicity_changes_key(self):
        one = cfg(fact("Time", 0), fact("P", 0))
        two = cfg(fact("Time", 0), fact("P", 0), fact("P", 0))
        assert delta_key(abstract(one, 2)) != delta_key(abstract(two, 2))

    def test_difference_profile_changes_key(self):
        near = cfg(fact("Time", 0), fact("P", 1))
        far = cfg(fact("Time", 0), fact("P", 2))
        assert delta_key(abstract(near, 3)) != delta_key(abstract(far, 3))

    def test_key_injective_on_reps(self):
        d1 = abstract(BASE, 4)
        d2 = abstract(BASE, 3)
        assert (d1 == d2) == (delta_key(d1) == delta_key(d2))


class TestLift:
    def test_abstract_of_lift_is_identity(self):
        rng = random.Random(5)
        for _ in range(200):
            dmax = rng.randint(1, 5)
            facts = [fact("Time", rng.randint(0, 6))]
            for _ in range(rng.randint(0, 5)):
                facts.append(fact(rng.choice("PQRS"), rng.randint(0, 12)))
            d = abstract(Configuration(facts), dmax)
            assert abstract(lift(d), dmax) == d

    def test_lift_places_infinite_gaps_just_past_the_bound(self):
        d = abstract(cfg(fact("P", 0), fact("Time", 10)), 3)
        assert d.gaps == (INF,)
        lifted = lift(d)
        stamps = sorted(f.ts for f in lifted)
        assert stamps == [0, 4]


class TestTock:
    def test_future_gap_shrinks(self):
        d = abstract(cfg(fact("Time", 0), fact("P", 2)), 5)
        assert tock(d).gaps == (1,)

    def test_past_gap_grows(self):
        d = abstract(cfg(fact("P", 0), fact("Time", 1)), 5)
        assert tock(d).gaps == (2,)

    def test_boundary_crossing_truncates(self):
        d = abstract(cfg(fact("P", 0), fact("Time", 5)), 5)
        assert tock(d).gaps == (INF,)

    def test_tied_facts_move_behind_the_clock(self):
        d = abstract(cfg(fact("Time", 4), fact("A", 4), fact("B", 7)), 5)
        assert tock(d).facts == (("A", ()), ("Time", ()), ("B", ()))

    def test_requires_future_bounded(self):
        unbounded = abstract(cfg(fact("Time", 0), fact("P", 10)), 3)
        assert not unbounded.future_bounded()
        with pytest.raises(EngineError):
            tock(unbounded)

    def test_agrees_with_concrete_tick(self):
        rng = random.Random(11)
        checked = 0
        while checked < 1500:
            dmax = rng.randint(1, 5)
            base = rng.randint(0, 6)
            facts = [fact("Time", base)]
            for _ in range(rng.randint(0, 5)):
                ts = rng.choice(
                    [base, base + dmax, base + dmax + 1, rng.randint(0, base + 2 * dmax)]
                )
                facts.append(fact(rng.choice("PQRS"), ts))
            config = Configuration(facts)
            d = abstract(config, dmax)
            if not d.future_bounded():
                continue
            checked += 1
            assert tock(d) == abstract(tick(config), dmax)


class TestProgressingDelta:
    def test_instantaneous_application_classifies_progressing(self, worked_example):
        board = worked_example.system_rules[0]
        config = worked_example.initial
        for _ in range(43):
            config = tick(config)
        [inst] = find_matches(board, config)
        dmax = infer_dmax(worked_example)
        before = abstract(config, dmax)
        after = abstract(apply_instance(config, inst), dmax)
        assert is_progressing_delta(before, after)

    def test_tock_steps_are_progressing(self):
        d = abstract(cfg(fact("Time", 0), fact("P", 2), fact("Q", 2)), 4)
        assert is_progressing_delta(d, tock(d))

    def test_shrunk_length_fails(self):
        before = abstract(cfg(fact("Time", 0), fact("P", 1)), 3)
        after = abstract(cfg(fact("Time", 0)), 3)
        assert not is_progressing_delta(before, after)

    def test_dropped_future_fact_fails(self):
        before = abstract(cfg(fact("Time", 0), fact("P", 2), fact("Q", 0)), 4)
        after = abstract(cfg(fact("Time", 0), fact("R", 1), fact("S", 0)), 4)
        assert not is_progressing_delta(before, after)

    def test_mismatched_dmax_rejected(self):
        with pytest.raises(DeltaError):
            is_progressing_delta(
                abstract(BASE, 4), abstract(BASE, 5)
            )


class TestBisimulation:
    def test_pointwise_on_random_progressing_scenarios(self):
        for seed in range(20):
            scenario = random_scenario(seed, progressing=True)
            dmax = infer_dmax(scenario)
            frontier = [scenario.initial]
            visited = 0
            while frontier and visited < 15:
                config = frontier.pop()
                visited += 1
                lifted = lift(abstract(config, dmax))
                # the abstraction's canonical representative has the same
                # one-step behaviour modulo abstraction
                concrete = sorted(
                    str(abstract(apply_instance(config, i), dmax))
                    for r in scenario.system_rules
                    for i in find_matches(r, config)
                )
                abstracted = sorted(
                    str(abstract(apply_instance(lifted, i), dmax))
                    for r in scenario.system_rules
                    for i in find_matches(r, lifted)
                )
                assert concrete == abstracted, seed
                assert abstract(tick(config), dmax) == tock(abstract(config, dmax))
                for r in scenario.system_rules:
                    for inst in find_matches(r, config)[:2]:
                        frontier.append(apply_instance(config, inst))

    def test_spec_transfer_under_time_shift(self):
        for seed in range(12):
            scenario = random_scenario(seed, progressing=True)
            dmax = infer_dmax(scenario)
            config = scenario.initial
            for shift in (1, 3, 7):
                shifted = Configuration([f.at(f.ts + shift) for f in config])
                assert abstract(shifted, dmax) == abstract(config, dmax)
                for spec in (scenario.goal_spec, scenario.critical_spec):
                    assert (match_spec(spec, config) is None) == (
                        match_spec(spec, shifted) is None
                    )
