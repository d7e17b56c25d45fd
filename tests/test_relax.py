"""The timed relaxation: soundness against the engine, its monotonicity in
time, the checker's store of its refutations, where the checker consults
it, and the search effort it saves."""

from __future__ import annotations

import random
from dataclasses import replace
from operator import le

import pytest

from conftest import explored_states, random_scenario, random_spec, travel_with_start
from msrplan import relax
from msrplan.relax import Relaxation
from msrplan.resilience import ResilienceQuery, check_resilience
from msrplan.scenario import PlanningScenario, parse_scenario
from msrplan.search import Checker, SearchStats, find_compliant_goal_trace
from msrplan.specs import ConfigSpec, SpecKind


def _corpus(seeds: range):
    """Random scenarios with updates, progressing or not, each with its own
    goal; the progressing ones also with a random goal whose constraints use
    all five relations, so that facts are needed later than their earliest
    timestamp.  (Without memo keys the confirming search of a random goal
    can take seconds.)"""
    for seed in seeds:
        for progressing in (True, False):
            scenario = random_scenario(seed, progressing=progressing, with_updates=True)
            yield seed, scenario
            if progressing:
                goal = random_spec(random.Random(seed), SpecKind.GOAL)
                yield seed, replace(scenario, goal_spec=goal)


class TestSoundness:
    def test_every_dead_answer_is_confirmed_by_the_engine(self, monkeypatch):
        """A state the relaxation calls dead has no compliant goal trace by
        the horizon even without the critical specification: the engine at
        n=0, with the relaxation answering "possible", finds none."""
        real = Relaxation.possible
        monkeypatch.setattr(Relaxation, "possible", lambda self, config, horizon: True)
        no_critical = ConfigSpec(SpecKind.CRITICAL, ())
        checked = alive = 0
        for seed, scenario in _corpus(range(30)):
            relaxation = scenario.relaxation
            if relaxation.trivial:
                continue
            free = replace(scenario, critical_spec=no_critical)
            for config in explored_states(scenario, 40):
                t = config.global_time
                for horizon in range(t + 2, t + 6):
                    if real(relaxation, config, horizon):
                        alive += 1
                        continue
                    checker = Checker(free.with_initial(config), horizon - t, 0)
                    assert not checker.decide(config, 0), (seed, str(config), horizon)
                    checked += 1
        assert checked >= 1000 and alive >= 1000

    def test_a_fact_may_be_needed_after_its_earliest_timestamp(self):
        """The goal needs `Grown(here)` later than `Grown(there)`, so `here`
        must be planted after its earliest firing; a relaxation that kept
        created facts at their earliest timestamps would refute the start."""
        scenario = parse_scenario(
            """
            types token;
            consts here: token, there: token;
            predicates Seed(token): system, Grown(token): goal, Fuse: critical;
            init { Time@0, Seed(here)@0, Seed(there)@1, Fuse@9 }
            rule system plant { consume: Seed(x)@T1; create: Grown(x)@T+1; }
            goal { Grown(here)@T1, Grown(there)@T2 | T1 > T2 }
            critical { Time@T, Fuse@T }
            """,
            "later",
        )
        assert scenario.relaxation.possible(scenario.initial, 2)
        trace = find_compliant_goal_trace(scenario, 2)
        assert trace is not None and trace.final.global_time == 2

    def test_a_fresh_variable_makes_every_state_possible(self):
        """`mint` creates a token it names afresh, so the relaxation cannot
        bound the facts it reaches and answers "possible", although `Key`
        is never created; with a declared constant instead it proves the
        goal unreachable."""
        text = """
        types token;
        consts here: token;
        predicates Start: system, Tok(token): system, Key: system,
                   Target: goal, Fuse: critical;
        init { Time@0, Start@0, Target@0, Fuse@9 }
        rule system mint { consume: Start@T1; create: Tok(n)@T+1; }
        goal { Target@T1, Tok(x)@T2, Key@T3 }
        critical { Time@T, Fuse@T }
        """
        fresh = parse_scenario(text, "fresh")
        named = parse_scenario(text.replace("Tok(n)", "Tok(here)"), "named")
        assert fresh.relaxation.trivial and not named.relaxation.trivial
        assert fresh.relaxation.possible(fresh.initial, 8)
        assert not named.relaxation.possible(named.initial, 8)
        for scenario in (fresh, named):
            assert find_compliant_goal_trace(scenario, 8) is None


def _count_possible(monkeypatch) -> list[int]:
    calls = [0]
    real = Relaxation.possible

    def counted(self, config, horizon):
        calls[0] += 1
        return real(self, config, horizon)

    monkeypatch.setattr(Relaxation, "possible", counted)
    return calls


def _memo_items(memo: dict) -> list[tuple]:
    """The memo's items, each link to a successor's entry replaced by the
    key that entry is stored under: `==` on linked entries recurses once per
    link, so comparing two memos must follow no chain.  A linked entry stored
    under no key, its live key taken when keys turned live, stays and is
    compared in full."""
    stored = {id(entry): key for key, entry in memo.items() if type(entry) is tuple}
    return [
        (key, (*entry[:2], stored.get(id(entry[2]), entry[2]), entry[3]))
        if type(entry) is tuple
        else (key, entry)
        for key, entry in memo.items()
    ]


def _later(relaxation: Relaxation, config, horizon: int):
    """`config` with its clock moved later (up to `horizon`), with one
    creatable fact delayed, and with both."""
    t = config.global_time
    groups = config.by_pred()
    creatable = [f for p in sorted(relaxation.creatable) for f in groups.get(p, ())]
    for delta in (1, 3):
        if t + delta <= horizon:
            yield config.at(t + delta)
        for f in creatable:
            delayed = config.replace((f,), (f.at(f.ts + delta),))
            yield delayed
            if t + delta <= horizon:
                yield delayed.at(t + delta)


class TestMonotonicity:
    def test_later_clock_and_creatable_facts_stay_refuted(self, travel):
        """The lemma of `relax`'s docstring on explored states of random
        progressing scenarios with updates and of travel: a refuted state
        whose clock moves later or whose creatable facts are delayed is
        refuted too, and `project` shows it dominated (same signature, no
        earliest time earlier).  The states the search meets seldom differ
        only so, hence these directed perturbations."""
        cases = []
        for seed in range(30):
            scenario = random_scenario(seed, progressing=True, with_updates=True)
            for config in explored_states(scenario, 40):
                t = config.global_time
                cases += [(scenario, config, h) for h in range(t + 2, t + 6)]
        for start in (60, 108, 121):
            scenario = travel_with_start(travel, start)
            cases += [(scenario, c, start + 232) for c in explored_states(scenario, 60)]
        refuted = checked = 0
        for scenario, config, horizon in cases:
            relaxation = scenario.relaxation
            if relaxation.trivial or relaxation.possible(config, horizon):
                continue
            refuted += 1
            signature, earliest = relaxation.project(config)
            for later in _later(relaxation, config, horizon):
                assert not relaxation.possible(later, horizon), (str(config), str(later))
                signature2, earliest2 = relaxation.project(later)
                assert signature2 == signature and all(map(le, earliest, earliest2))
                checked += 1
        assert refuted >= 1000 and checked >= 5000


DOMINANCE = """
types k;
consts u: k, v: k;
predicates P(k): goal, Deadline: system, Fuse: critical;
init { %s, Fuse@99 }
rule system regrow { consume: P(x)@T1; create: P(x)@T+10; guard: T1 <= T; }
goal { P(u)@T1, P(v)@T2, Deadline@T3, Time@T | T1 <= T3, T2 <= T3, T <= T3 }
critical { Time@T, Fuse@T }
"""
REFUTED = "Time@0, P(u)@3, P(v)@7, Deadline@5"
LATE = "Time@6, P(u)@3, P(v)@4, Deadline@5"


# the travel grid at (n, 12, 220), then the goal grid as n=0 checkers
GRIDS = (
    ((42, 60, 107, 108, 120, 121), 12, 220, (0, 1, 2)),
    *(((41, 42, 45, 60, 110, 120, 121), budget, 0, (0,)) for budget in (220, 232, 260)),
)


class TestRefutationStore:
    """`Checker._dead` answers from a stored refutation only where it
    dominates the state; regrown `P` facts come too late for the goal, so
    a state is refuted exactly when its clock or a `P` fact lies past
    `Deadline`."""

    @pytest.mark.parametrize(
        "refuted, state, dead",
        [
            pytest.param(REFUTED, "Time@1, P(u)@4, P(v)@7, Deadline@5", True, id="dominated"),
            pytest.param(REFUTED, "Time@1, P(u)@3, P(v)@4, Deadline@5", False, id="second key"),
            pytest.param(REFUTED, "Time@1, P(u)@3, P(v)@7, Deadline@8", False, id="exact fact"),
            pytest.param(LATE, "Time@0, P(u)@3, P(v)@4, Deadline@5", False, id="earlier clock"),
            pytest.param(
                REFUTED, "Time@0, P(u)@3, P(v)@4, P(v)@7, Deadline@5", False, id="first copy"
            ),
        ],
    )
    def test_only_a_dominating_refutation_answers(self, monkeypatch, refuted, state, dead):
        calls = _count_possible(monkeypatch)
        scenario = parse_scenario(DOMINANCE % refuted, "dominance")
        checker = Checker(scenario, 20, 0)
        assert checker._dead(scenario.initial) and calls[0] == 1
        config = parse_scenario(DOMINANCE % state, "dominance").initial
        assert checker._dead(config) is dead
        assert calls[0] == (1 if dead else 2)

    def test_memo_is_the_same_without_the_store(self, travel, monkeypatch):
        """Over the benchmark's travel and goal grids every memo, in its
        insertion order, and every refutation equal those of a run whose
        store never answers, with keys past the deadline on live facts and
        on every fact (the expiry table emptied).  On every fact, the run
        without the store makes more than 1,400 more relaxation calls."""

        def run(expiry):
            with monkeypatch.context() as patch:
                if expiry is not None:
                    patch.setattr(PlanningScenario, "expiry", property(lambda self: expiry))
                calls = _count_possible(patch)
                runs = []
                for starts, a, b, levels in GRIDS:
                    for start in starts:
                        scenario = travel_with_start(travel, start)
                        for n in levels:
                            checker = Checker(scenario, a, b)
                            checker.decide(scenario.initial, n)
                            runs.append((_memo_items(checker.memo), checker.refutation))
                return runs, calls[0]

        stored, _ = run(None)
        full_stored, with_store = run({})
        # a fresh signature per state: no stored refutation ever answers
        monkeypatch.setattr(Relaxation, "project", lambda self, config: (object(), ()))
        assert run(None)[0] == stored
        full_bypassed, without = run({})
        assert full_bypassed == full_stored
        assert without - with_store >= 1400


class TestJoin:
    def test_every_bound_argument_has_its_variable_type(self, travel, monkeypatch):
        """The relaxed join binds a variable to an argument of any type.  On
        the benchmark's grids and the random corpus every argument it binds
        has the variable's type, so a type test there would drop nothing."""

        class Typed(tuple):
            base_type = None

        arg_test, bind = relax._arg_test, relax._bind
        bound = [0]

        def typed_test(arg):
            test = Typed(arg_test(arg))
            if test[0] is not None:
                test.base_type = arg.base_type
            return test

        def checked_bind(tests, args, keys, sigma):
            out = bind(tests, args, keys, sigma)
            if out is not None:
                for test, arg in zip(tests, args):
                    if test[0] is not None:
                        assert arg.base_type == test.base_type, (test, arg)
                        bound[0] += 1
            return out

        monkeypatch.setattr(relax, "_arg_test", typed_test)
        monkeypatch.setattr(relax, "_bind", checked_bind)
        for starts, a, b, levels in GRIDS:
            for start in starts:
                scenario = travel_with_start(travel, start)
                for n in levels:
                    Checker(scenario, a, b).decide(scenario.initial, n)
        for _, scenario in _corpus(range(30)):
            if scenario.progressing:
                Checker(scenario, 2, 2).decide(scenario.initial, 1)
        assert bound[0] > 1000


class TestWhereItIsConsulted:
    def test_travel_reads_no_clock_rule(self, travel):
        relaxation = travel.relaxation
        assert relaxation.relevant == {"At", "Done", "Event", "Flight1", "Flight2"}
        assert relaxation.creatable == {"At", "Done"}
        assert "advance_clock" not in relaxation.touching
        assert len(relaxation.touching) == len(travel.system_rules) - 1

    def test_never_prepared_with_one_tick_left(self, travel):
        # a=1, b=0 leaves one tick, as every query of criterion 1 does
        scenario = travel_with_start(travel, 60)
        check_resilience(scenario, ResilienceQuery(1, 1, 0))
        assert "relaxation" not in scenario.__dict__
        check_resilience(scenario, ResilienceQuery(1, 2, 0))
        assert "relaxation" in scenario.__dict__


class TestEffort:
    """States decided (memo entries) on the benchmark's travel queries.
    Without the relaxation they were 307 per query at start 121, 29,204 over
    the travel grid and 24,218 over the goal grid; with it, before states
    past the deadline were keyed on their live facts, 11,034 over the
    travel grid (7,651 since).  Relaxation calls: before the checker stored
    its refutations they were 1,151 over the travel grid and 547 over the
    goal grid."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_start_121_decides_only_its_root(self, travel, n):
        scenario = travel_with_start(travel, 121)
        checker = Checker(scenario, 12, 220)
        assert not checker.decide(scenario.initial, n)
        assert len(checker.memo) == 1

    def test_travel_grid(self, travel, monkeypatch):
        calls = _count_possible(monkeypatch)
        decided = 0
        for start in (42, 60, 107, 108, 120, 121):
            scenario = travel_with_start(travel, start)
            for n in (0, 1, 2):
                checker = Checker(scenario, 12, 220)
                checker.decide(scenario.initial, n)
                decided += len(checker.memo)
        assert decided <= 7_700
        assert calls[0] <= 200

    def test_goal_grid(self, travel, monkeypatch):
        calls = _count_possible(monkeypatch)
        stats = SearchStats()
        for start in (41, 42, 45, 60, 110, 120, 121):
            scenario = travel_with_start(travel, start)
            for budget in (220, 232, 260):
                find_compliant_goal_trace(scenario, budget, stats=stats)
        assert stats.visited <= 6_500
        assert calls[0] <= 100
