"""The four benchmark workloads: seeded inputs, the timed decision, and the
independent checks of every output.

Each workload turns ``(seed, pass index)`` into a list of queries whose inputs
are already built (``Qbf``, ``Graph``, re-based scenarios), so the engine only
ever sees generated inputs.  Engine entry points are called through their
modules (``resilience.check_resilience``), which is where the traced run
rebinds them.

Per query the benchmark times ``decide``; on a positive verdict it times
``certify`` (the certificate check behind ``verify_p50_ms``); then, untimed
and on the query's first pass, ``check`` compares the verdict with its
oracle or frozen table.  Any message returned by ``certify`` or ``check``
fails the query.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any

from msrplan import reductions, resilience, scenario, search, specs
from msrplan.kernel import Configuration, TimedFact
from msrplan.reductions import Graph, Qbf
from msrplan.resilience import ResilienceQuery

TRAVEL_SOURCE = "travel.msr"


@dataclass(frozen=True)
class Query:
    key: str  # stable identity; fingerprints are taken in key order
    inputs: tuple


def parse_sources(name: str) -> dict:
    """Parse the scenario texts a workload uses (part of ``setup_s``)."""
    if WORKLOADS[name].uses_travel:
        return {"travel": scenario.load_bundled(TRAVEL_SOURCE)}
    return {}


def rebase(travel, t0: int):
    """The travel scenario with its clock (and the beat one unit ahead) at t0."""
    facts = []
    for f in travel.initial:
        if f.pred == "Time":
            f = TimedFact("Time", (), t0)
        elif f.pred == "ClockBeat":
            f = TimedFact("ClockBeat", (), t0 + 1)
        facts.append(f)
    return travel.with_initial(Configuration(facts))


def _shuffled(items: list, seed: int, index: int, name: str) -> list:
    items = list(items)
    random.Random(f"{name}/{seed}/{index}").shuffle(items)
    return items


class Workload:
    name = ""
    uses_travel = False
    # about a pass's duration on the 2-CPU host the benchmark was built on; a
    # run makes round(--seconds / pass_seconds) passes, so every run of one
    # workload times the same number of samples whatever the host's speed
    pass_seconds = 1.0

    def prepare(self, sources: dict) -> None:
        """Build what every pass shares; runs once, outside all timing."""

    def make_pass(self, seed: int, index: int) -> list[Query]:
        raise NotImplementedError

    def decide(self, q: Query) -> Any:
        raise NotImplementedError

    def verdict(self, result: Any) -> bool:
        raise NotImplementedError

    def certify(self, q: Query, result: Any) -> list[str]:
        raise NotImplementedError

    def check(self, q: Query, result: Any) -> list[str]:
        raise NotImplementedError

    def output(self, result: Any) -> str:
        """The bytes the output fingerprint covers."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Resilience on the travel grid
# ---------------------------------------------------------------------------

TRAVEL_STARTS = (42, 60, 107, 108, 120, 121)
TRAVEL_N = (0, 1, 2)
TRAVEL_A = 12
TRAVEL_B = 220

# Frozen from the engine at the commit that introduced this benchmark; every
# other (start, n) of the grid is resilient.
TRAVEL_NEGATIVE = frozenset([(108, 1), (108, 2), (120, 1), (120, 2), (121, 0), (121, 1), (121, 2)])

GOAL_STARTS = (41, 42, 45, 60, 110, 120, 121)
GOAL_BUDGETS = (220, 232, 260)
GOAL_NEGATIVE = frozenset(
    [(41, 220), (41, 232), (42, 220), (45, 220)]
    + [(121, budget) for budget in GOAL_BUDGETS]
)


def travel_expected(t0: int, n: int) -> bool:
    return (t0, n) not in TRAVEL_NEGATIVE


def goal_expected(t0: int, budget: int) -> bool:
    return (t0, budget) not in GOAL_NEGATIVE


def table_problems() -> list[str]:
    """Consistency of the frozen tables with criterion 7 and monotonicity."""
    problems = []
    # criterion 7's hand-fixed thresholds at a=12, b=220
    budget = TRAVEL_A + TRAVEL_B
    pins = [
        (travel_expected(107, 1), True, "107 at n=1"),
        (travel_expected(108, 1), False, "108 at n=1"),
        (travel_expected(120, 0), True, "120 at n=0"),
        (travel_expected(121, 0), False, "121 at n=0"),
        (goal_expected(42, budget), True, "42 within a+b ticks"),
        (goal_expected(41, budget), False, "41 within a+b ticks"),
    ]
    problems += [f"table disagrees with criterion 7: {what}" for got, want, what in pins if got != want]
    for t0 in TRAVEL_STARTS:
        for n in TRAVEL_N[1:]:
            if travel_expected(t0, n) and not travel_expected(t0, n - 1):
                problems.append(f"travel table not monotone in n at {(t0, n)}")
    for t0 in GOAL_STARTS:
        for lo, hi in zip(GOAL_BUDGETS, GOAL_BUDGETS[1:]):
            if goal_expected(t0, lo) and not goal_expected(t0, hi):
                problems.append(f"goal table not monotone in budget at {t0}")
    # n=0 resilience at (a, b) is a compliant goal trace within a+b ticks
    for t0 in set(TRAVEL_STARTS) & set(GOAL_STARTS):
        if travel_expected(t0, 0) != goal_expected(t0, budget):
            problems.append(f"travel and goal tables disagree at start {t0}")
    return problems


class _ResilienceWorkload(Workload):
    """Shared by the two workloads whose queries are resilience checks.

    ``decide`` returns (scenario, query, result), so the certificate is
    checked against exactly what the verdict was reached on.
    """

    def verdict(self, result) -> bool:
        return result[2].resilient

    def certify(self, q: Query, result) -> list[str]:
        scen, query, res = result
        ok, violations = resilience.verify_witness(scen, query, res.witness)
        return [] if ok else [f"{q.key}: witness rejected: {violations[:3]}"]

    def output(self, result) -> str:
        res = result[2]
        return resilience.witness_to_json(res.witness) if res.resilient else ""


class TravelGrid(_ResilienceWorkload):
    name = "travel-grid"
    uses_travel = True
    pass_seconds = 6.0

    def prepare(self, sources: dict) -> None:
        by_start = {t0: rebase(sources["travel"], t0) for t0 in TRAVEL_STARTS}
        self.grid = [
            Query(f"t0={t0} n={n}", (by_start[t0], t0, n))
            for t0 in TRAVEL_STARTS
            for n in TRAVEL_N
        ]

    def make_pass(self, seed: int, index: int) -> list[Query]:
        return _shuffled(self.grid, seed, index, self.name)

    def decide(self, q: Query):
        scen, _, n = q.inputs
        query = ResilienceQuery(n, TRAVEL_A, TRAVEL_B)
        return scen, query, resilience.check_resilience(scen, query)

    def check(self, q: Query, result) -> list[str]:
        want = travel_expected(*q.inputs[1:])
        got = result[2].resilient
        return [] if got == want else [f"{q.key}: verdict {got}, table says {want}"]


# ---------------------------------------------------------------------------
# QBF sweep (criterion 1's population)
# ---------------------------------------------------------------------------

QBF_BLOCKS = (("e", (1,)), ("a", (2,)), ("e", (3,)))
# Criterion 1's population: every set of at most 3 distinct clauses over
# x1..x3 (29,317 formulas), then 200 random n=1, 25 random n=0 and 10 random
# n=2 formulas drawn from this seed in this order.
CRITERION_1_SEED = 20260810
CRITERION_1_RANDOM = (("random-n1", 200, (1, 2, 4)), ("random-n0", 25, (0, 3, 4)), ("random-n2", 10, (2, 2, 4)))
CRITERION_1_FORMULAS = 29_552
# Formulas per seed, split over the strata in proportion to their sizes, so
# that verdicts_per_s predicts criterion 1's runtime.
QBF_SAMPLE = 400


def _exhaustive_clause_sets() -> list[tuple]:
    literals = [1, -1, 2, -2, 3, -3]
    clauses = sorted(
        {tuple(sorted(c)) for c in itertools.combinations_with_replacement(literals, 3)}
    )
    return [
        clause_set
        for size in range(4)
        for clause_set in itertools.combinations(clauses, size)
    ]


def random_formula(rng: random.Random, n: int, max_block: int, max_clauses: int) -> Qbf:
    """Criterion 1's random shape: 2n+1 alternating blocks, random 3-clauses."""
    blocks = []
    var = 1
    for i in range(2 * n + 1):
        size = rng.randint(1, max_block)
        blocks.append(("e" if i % 2 == 0 else "a", tuple(range(var, var + size))))
        var += size
    pool = [v for _, vs in blocks for v in vs]
    clauses = tuple(
        tuple(rng.choice(pool) * rng.choice((1, -1)) for _ in range(3))
        for _ in range(rng.randint(1, max_clauses))
    )
    return Qbf(tuple(blocks), clauses)


def proportional_counts(sizes: dict[str, int], total: int) -> dict[str, int]:
    """Largest-remainder split of ``total`` draws over strata of these sizes."""
    whole = sum(sizes.values())
    shares = {k: total * size / whole for k, size in sizes.items()}
    counts = {k: int(share) for k, share in shares.items()}
    by_remainder = sorted(shares, key=lambda k: counts[k] - shares[k])
    for k in by_remainder[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


class QbfSweep(_ResilienceWorkload):
    name = "qbf-sweep"
    pass_seconds = 6.0

    def prepare(self, sources: dict) -> None:
        self.strata = {"exhaustive": [Qbf(QBF_BLOCKS, c) for c in _exhaustive_clause_sets()]}
        rng = random.Random(CRITERION_1_SEED)
        for stratum, count, shape in CRITERION_1_RANDOM:
            self.strata[stratum] = [random_formula(rng, *shape) for _ in range(count)]
        if sum(map(len, self.strata.values())) != CRITERION_1_FORMULAS:
            raise RuntimeError("criterion 1 population rebuilt with the wrong size")
        self.samples: dict[int, list[Query]] = {}

    def make_pass(self, seed: int, index: int) -> list[Query]:
        sample = self.samples.get(seed)
        if sample is None:
            rng = random.Random(f"{self.name}/{seed}")
            counts = proportional_counts({k: len(v) for k, v in self.strata.items()}, QBF_SAMPLE)
            sample = self.samples[seed] = [
                Query(f"{stratum}#{i}", (self.strata[stratum][i],))
                for stratum, count in counts.items()
                for i in rng.sample(range(len(self.strata[stratum])), count)
            ]
        return _shuffled(sample, seed, index, self.name)

    def decide(self, q: Query):
        formula = q.inputs[0]
        scen = reductions.qbf_to_scenario(formula)
        query = ResilienceQuery(formula.n, 1, 0)
        return scen, query, resilience.check_resilience(scen, query)

    def check(self, q: Query, result) -> list[str]:
        truth = reductions.evaluate_qbf(q.inputs[0])
        got = result[2].resilient
        return [] if got == truth else [f"{q.key}: verdict {got}, evaluate_qbf says {truth}"]


# ---------------------------------------------------------------------------
# Graph homomorphism as goal recognition (criterion 6's random layer)
# ---------------------------------------------------------------------------

GRAPH_VERTICES = "abcdef"
GRAPH_SIZES = (4, 6)
GRAPH_EDGE_P = 0.35
# The pair population is fixed and --seed sets the visiting order.  A run can
# oracle-check only a few thousand pairs, and on seed-drawn populations of
# that size the latency tail spreads by about 20% from seed to seed.
GRAPH_POPULATION_SEED = 66
GRAPH_POPULATION = 500


def random_digraph(rng: random.Random) -> Graph:
    names = GRAPH_VERTICES[: rng.randint(*GRAPH_SIZES)]
    edges = tuple((u, v) for u in names for v in names if rng.random() < GRAPH_EDGE_P)
    return Graph(tuple(names), edges)


class GraphGoal(Workload):
    name = "graph-goal"
    pass_seconds = 1.9

    def prepare(self, sources: dict) -> None:
        rng = random.Random(GRAPH_POPULATION_SEED)
        self.population = [
            Query(f"pair{i:04d}", (random_digraph(rng), random_digraph(rng)))
            for i in range(GRAPH_POPULATION)
        ]

    def make_pass(self, seed: int, index: int) -> list[Query]:
        return _shuffled(self.population, seed, index, self.name)

    def decide(self, q: Query):
        g, k = q.inputs
        scen, config = reductions.graph_to_goal_instance(g, k)
        return specs.match_spec(scen.goal_spec, config)

    def verdict(self, result) -> bool:
        return result is not None

    def certify(self, q: Query, result) -> list[str]:
        """The matched substitution must map every edge of g onto an edge of k."""
        g, k = q.inputs
        image = {
            g.vertices[int(var[1:])]: k.vertices[int(term.name[3:])]
            for var, term in result[1].items()
            if var.startswith("x")
        }
        k_edges = set(k.edges)
        for u, v in g.edges:
            if (image.get(u), image.get(v)) not in k_edges:
                return [f"{q.key}: substitution maps edge {(u, v)} off k"]
        return []

    def check(self, q: Query, result) -> list[str]:
        truth = reductions.brute_force_homomorphism(*q.inputs) is not None
        got = result is not None
        return [] if got == truth else [f"{q.key}: verdict {got}, brute force says {truth}"]

    def output(self, result) -> str:
        return "" if result is None else repr(sorted(result[1].items(), key=str))


# ---------------------------------------------------------------------------
# Bounded goal search on travel
# ---------------------------------------------------------------------------

class GoalSearch(Workload):
    name = "goal-search"
    uses_travel = True
    pass_seconds = 4.0

    def prepare(self, sources: dict) -> None:
        by_start = {t0: rebase(sources["travel"], t0) for t0 in GOAL_STARTS}
        self.grid = [
            Query(f"t0={t0} budget={budget}", (by_start[t0], t0, budget))
            for t0 in GOAL_STARTS
            for budget in GOAL_BUDGETS
        ]

    def make_pass(self, seed: int, index: int) -> list[Query]:
        return _shuffled(self.grid, seed, index, self.name)

    def decide(self, q: Query):
        scen, _, budget = q.inputs
        return search.find_compliant_goal_trace(scen, budget)

    def verdict(self, result) -> bool:
        return result is not None

    def certify(self, q: Query, result) -> list[str]:
        scen, _, budget = q.inputs
        problems = [f"{q.key}: {e}" for e in specs.replay_errors(result)]
        if result.initial != scen.initial:
            problems.append(f"{q.key}: trace starts elsewhere")
        if not specs.check_compliance(result, scen.critical_spec).ok:
            problems.append(f"{q.key}: trace is not compliant")
        if specs.match_spec(scen.goal_spec, result.final) is None:
            problems.append(f"{q.key}: trace does not end in a goal")
        if result.tick_count() > budget:
            problems.append(f"{q.key}: {result.tick_count()} ticks exceed {budget}")
        return problems

    def check(self, q: Query, result) -> list[str]:
        want = goal_expected(*q.inputs[1:])
        got = result is not None
        return [] if got == want else [f"{q.key}: found={got}, table says {want}"]

    def output(self, result) -> str:
        return "" if result is None else "\n".join(result.format_lines())


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (TravelGrid(), QbfSweep(), GraphGoal(), GoalSearch())
}
