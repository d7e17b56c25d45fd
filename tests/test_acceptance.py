"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy criteria
(exhaustive oracle sweeps) dominate the runtime; the whole module targets a
laptop-scale budget.
"""

from __future__ import annotations

import copy
import itertools
import random
import time
from pathlib import Path

import pytest

from conftest import (
    random_formula,
    random_scenario,
    reference_goal_trace,
    trace_annotations,
    travel_with_start,
)
from msrplan.delta import abstract, lift, tock
from msrplan.kernel import Configuration, Constant, TimedFact, Variable
from msrplan.reductions import (
    Graph,
    Qbf,
    brute_force_homomorphism,
    evaluate_qbf,
    graph_goal_spec,
    graph_host,
    graph_to_goal_instance,
    qbf_to_scenario,
)
from msrplan.certify import witness_to_dict
from msrplan.resilience import ResilienceQuery, check_resilience, verify_witness
from msrplan.rules import Atom, FactPattern, apply_instance, find_matches, tick
from msrplan.scenario import infer_dmax
from msrplan.search import find_compliant_goal_trace, instantaneous_run_lengths, successors
from msrplan.specs import TICK_STEP, ConfigSpec, SpecKind, SpecPair, match_spec

GOLDEN_DIR = Path(__file__).parent / "golden"


def _report(criterion: int, detail: str, started: float) -> None:
    print(f"criterion {criterion} PASS: {detail} ({time.time() - started:.1f}s)")


def _oracle_agrees(q: Qbf) -> bool:
    truth = evaluate_qbf(q)
    verdict = check_resilience(qbf_to_scenario(q), ResilienceQuery(q.n, 1, 0)).resilient
    return truth == verdict


@pytest.mark.slow
def test_criterion_1_qbf_oracle_agreement():
    started = time.time()
    blocks = (("e", (1,)), ("a", (2,)), ("e", (3,)))
    literals = [1, -1, 2, -2, 3, -3]
    all_clauses = sorted(
        set(
            tuple(sorted(c))
            for c in itertools.combinations_with_replacement(literals, 3)
        )
    )
    assert len(all_clauses) == 56
    mismatches = []
    checked = 0
    for size in range(0, 4):
        for clause_set in itertools.combinations(all_clauses, size):
            q = Qbf(blocks, clause_set)
            checked += 1
            if not _oracle_agrees(q):
                mismatches.append(clause_set)
    assert not mismatches, mismatches[:3]
    exhaustive = checked

    rng = random.Random(20260810)
    for _ in range(200):
        q = random_formula(rng, 1, 2, 4)
        checked += 1
        if not _oracle_agrees(q):
            mismatches.append(q)
    for _ in range(25):
        q = random_formula(rng, 0, 3, 4)
        checked += 1
        if not _oracle_agrees(q):
            mismatches.append(q)
    for _ in range(10):
        q = random_formula(rng, 2, 2, 4)
        checked += 1
        if not _oracle_agrees(q):
            mismatches.append(q)
    assert not mismatches, mismatches[:3]
    _report(
        1,
        f"{checked} formulas ({exhaustive} exhaustive + 235 random), zero mismatches",
        started,
    )


def test_criterion_2_worked_example_golden(worked_example):
    started = time.time()
    config = worked_example.initial
    lines = [f"start: {config}"]
    for _ in range(43):
        config = tick(config)
    lines.append(f"after 43 ticks: {config}")
    instances = find_matches(worked_example.system_rules[0], config)
    assert len(instances) == 1
    lines.append(f"instance: {instances[0].key()}")
    result = apply_instance(config, instances[0])
    lines.append(f"result: {result}")
    produced = "\n".join(lines) + "\n"
    golden = (GOLDEN_DIR / "worked_example.txt").read_text(encoding="utf-8")
    assert produced == golden
    assert result.global_time == 5245
    arrival = next(f for f in result if f.pred == "At")
    assert arrival.ts == 5365  # 3d 17:25
    _report(2, "43 ticks + unique flight instance reproduce the golden file", started)


def test_criterion_3_balance_and_progressing_invariants():
    started = time.time()
    violations = []
    for seed in range(100):
        scenario = random_scenario(seed, progressing=False, with_updates=(seed % 3 == 0))
        m = len(scenario.initial)
        frontier = [scenario.initial]
        visited = 0
        while frontier and visited < 40:
            config = frontier.pop()
            visited += 1
            if len(config) != m:
                violations.append(("balance", seed, str(config)))
            for _, nxt in successors(config, scenario.rules()):
                if visited + len(frontier) < 40:
                    frontier.append(nxt)

    budget = 3
    for seed in range(100):
        scenario = random_scenario(1000 + seed, progressing=True)
        m = len(scenario.initial)
        rng = random.Random(seed)
        config = scenario.initial
        run = 0
        for _ in range(25):
            moves = list(successors(config, scenario.system_rules))
            if not moves:
                break
            annotation, config = rng.choice(moves)
            if annotation == TICK_STEP:
                run = 0
            else:
                run += 1
                if run > m:
                    violations.append(("run-length", seed))
        trace = find_compliant_goal_trace(scenario, budget)
        if trace is not None:
            if any(r > m for r in instantaneous_run_lengths(trace)):
                violations.append(("trace-run-length", seed))
            if len(trace) > (budget + 0 + 1) * m:
                violations.append(("trace-length", seed))
    assert not violations, violations[:5]
    _report(3, "100 balanced + 100 progressing scenarios, zero violations", started)


def test_criterion_4_delta_bisimulation():
    started = time.time()
    # pointwise bisimulation on reachable states
    for seed in range(100):
        scenario = random_scenario(2000 + seed, progressing=True)
        dmax = infer_dmax(scenario)
        frontier = [(scenario.initial, 0)]
        seen = 0
        while frontier and seen < 25:
            config, depth = frontier.pop()
            seen += 1
            lifted = lift(abstract(config, dmax))
            concrete = sorted(
                str(abstract(apply_instance(config, inst), dmax))
                for rule in scenario.system_rules
                for inst in find_matches(rule, config)
            )
            abstracted = sorted(
                str(abstract(apply_instance(lifted, inst), dmax))
                for rule in scenario.system_rules
                for inst in find_matches(rule, lifted)
            )
            assert concrete == abstracted, seed
            assert abstract(tick(config), dmax) == tock(abstract(config, dmax)), seed
            if depth < 12:
                for rule in scenario.system_rules:
                    for inst in find_matches(rule, config)[:2]:
                        frontier.append((apply_instance(config, inst), depth + 1))
                frontier.append((tick(config), depth + 1))

    # Tock against the concrete tick of random, non-canonical
    # representatives, with boundary differences
    rng = random.Random(77)
    checked = 0
    preds = ["P", "Q", "R", "S"]
    while checked < 10_000:
        dmax = rng.randint(1, 6)
        base = rng.randint(0, 8)
        facts = [TimedFact("Time", (), base)]
        for _ in range(rng.randint(0, 6)):
            ts = rng.choice(
                [base, base + dmax, base + dmax + 1, rng.randint(0, base + 2 * dmax)]
            )
            facts.append(TimedFact(rng.choice(preds), (), ts))
        config = Configuration(facts)
        d = abstract(config, dmax)
        if not d.future_bounded():
            continue
        checked += 1
        assert tock(d) == abstract(tick(config), dmax)

    # memoized traces against an unmemoized reference, step by step
    for seed in range(100):
        scenario = random_scenario(3000 + seed, progressing=True)
        trace = find_compliant_goal_trace(scenario, 3)
        assert trace_annotations(trace) == reference_goal_trace(scenario, 3), seed
    _report(
        4,
        "bisimulation on 100 scenarios, 10000 Tock boundary cases, memo parity",
        started,
    )


def test_criterion_5_resilience_monotonicity(travel):
    started = time.time()
    rng = random.Random(5150)
    corpus: list[tuple] = []
    for t0 in (45, 60, 110):
        corpus.append((travel_with_start(travel, t0), 1, 12, 220))
    for _ in range(12):
        q = random_formula(rng, 1, 1, 3)
        corpus.append((qbf_to_scenario(q), 1, 1, 0))
    for _ in range(3):
        q = random_formula(rng, 2, 1, 3)
        corpus.append((qbf_to_scenario(q), 2, 1, 0))
    checked = 0
    for scenario, n, a, b in corpus:
        if check_resilience(scenario, ResilienceQuery(n, a, b)).resilient:
            checked += 1
            assert check_resilience(scenario, ResilienceQuery(n - 1, a, b)).resilient
            assert check_resilience(scenario, ResilienceQuery(n, a, b + 5)).resilient
    assert checked >= 5
    _report(5, f"{len(corpus)} instances, {checked} positive, zero violations", started)


def _all_digraphs(n: int) -> list[tuple[tuple[str, str], ...]]:
    names = "abcde"[:n]
    slots = [(u, v) for u in names for v in names]
    graphs = []
    for mask in range(1 << len(slots)):
        graphs.append(tuple(slots[i] for i in range(len(slots)) if mask >> i & 1))
    return graphs


def _four_vertex_classes() -> list[Graph]:
    """Representatives of the loop-free 4-vertex digraphs up to isomorphism.

    Homomorphism existence is invariant under relabeling, so one
    representative per class covers all labeled pairs; self-loops are
    exercised exhaustively at three vertices and by the random layer.
    """
    names = "abcd"
    slots = [(u, v) for u in names for v in names if u != v]
    index = {s: i for i, s in enumerate(slots)}
    perms = list(itertools.permutations(names))
    # bit-translation table per permutation
    tables = []
    for perm in perms:
        relabel = dict(zip(names, perm))
        tables.append(
            [index[(relabel[u], relabel[v])] for (u, v) in slots]
        )
    reps: set[int] = set()
    nbits = len(slots)
    for mask in range(1 << nbits):
        canon = mask
        for table in tables:
            out = 0
            rest = mask
            while rest:
                bit = rest & -rest
                out |= 1 << table[bit.bit_length() - 1]
                rest ^= bit
            if out < canon:
                canon = out
        reps.add(canon)
    graphs = []
    for mask in sorted(reps):
        edges = tuple(slots[i] for i in range(nbits) if mask >> i & 1)
        graphs.append(Graph(tuple(names), edges))
    return graphs


@pytest.mark.slow
def test_criterion_6_graph_homomorphism_recognizer():
    """Each pattern's specification is built once in the outer loop and each
    host configuration once before the loops, as `graph_to_goal_instance`
    composes them; every specification then serves enough pairs to have its
    match plan generated, so the oracle also checks generated plans, each
    one function of at most 12 nested loops here."""
    started = time.time()
    mism = []

    def check(spec, host, g: Graph, k: Graph) -> None:
        engine = match_spec(spec, host) is not None
        oracle = brute_force_homomorphism(g, k) is not None
        if engine != oracle:
            mism.append((g, k))

    def sweep(graphs: list[Graph]) -> int:
        hosts = [(k, graph_host(k)) for k in graphs]
        for g in graphs:
            spec = graph_goal_spec(g)
            for k, host in hosts:
                check(spec, host, g, k)
        return len(graphs) ** 2

    # exhaustive over every labeled digraph pair with up to 3 vertices each
    small = []
    for n in (1, 2, 3):
        names = "abc"[:n]
        for edges in _all_digraphs(n):
            small.append(Graph(tuple(names), edges))
    pairs = sweep(small)

    # all 4-vertex digraph pairs, reduced to isomorphism classes
    pairs += sweep(_four_vertex_classes())

    # 500 random pairs with up to 5 vertices
    rng = random.Random(66)
    for _ in range(500):
        nv_g, nv_k = rng.randint(1, 5), rng.randint(1, 5)
        g_edges = tuple(
            (u, v)
            for u in "abcde"[:nv_g]
            for v in "abcde"[:nv_g]
            if rng.random() < 0.35
        )
        k_edges = tuple(
            (u, v)
            for u in "abcde"[:nv_k]
            for v in "abcde"[:nv_k]
            if rng.random() < 0.35
        )
        g = Graph(tuple("abcde"[:nv_g]), g_edges)
        k = Graph(tuple("abcde"[:nv_k]), k_edges)
        check(graph_goal_spec(g), graph_host(k), g, k)
        pairs += 1

    triangle = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
    k2 = Graph(("u", "v"), (("u", "v"), ("v", "u")))
    scenario, config = graph_to_goal_instance(triangle, k2)
    assert match_spec(scenario.goal_spec, config) is None
    pairs += 1

    assert not mism, mism[:3]
    assert pairs == 328_925
    _report(6, f"{pairs} graph pairs agree with the brute-force oracle", started)


def _per_pair_instance(g: Graph, k: Graph) -> tuple[ConfigSpec, Configuration]:
    """The goal and configuration criterion 6 used to build for every pair,
    written out as the reference for the pieces built once per graph."""
    k_const = {name: Constant(f"kv_{i}", "vertex") for i, name in enumerate(k.vertices)}
    g_var = {name: Variable(f"x{i}", "vertex") for i, name in enumerate(g.vertices)}
    pattern = tuple(
        FactPattern(Atom("R", (g_var[u], g_var[v])), f"T{idx}")
        for idx, (u, v) in enumerate(g.edges, start=1)
    )
    facts = [TimedFact("Time", (), 0)]
    facts += [TimedFact("R", (k_const[u], k_const[v]), 0) for u, v in k.edges]
    return ConfigSpec(SpecKind.GOAL, (SpecPair(pattern),)), Configuration(facts)


def test_criterion_6_pieces_compose_like_the_instance():
    """`graph_goal_spec` and `graph_host`, built once per graph, equal the
    per-pair construction, and `graph_to_goal_instance` composes them, on a
    slice of criterion 6's small pairs."""
    small = [
        Graph(tuple("abc"[:n]), edges)
        for n in (1, 2, 3)
        for edges in _all_digraphs(n)
    ]
    hosts = [(k, graph_host(k)) for k in small[5::41]]
    for g in small[::37]:
        spec = graph_goal_spec(g)
        for k, host in hosts:
            goal, config = _per_pair_instance(g, k)
            assert spec == goal and host == config
            scenario, initial = graph_to_goal_instance(g, k)
            assert scenario.goal_spec == goal and initial == scenario.initial == config
            assert match_spec(spec, host) == match_spec(goal, config)


def test_criterion_7_travel_qualitative_pattern(travel):
    started = time.time()
    a, b = 12, 220
    q = lambda n: ResilienceQuery(n, a, b)

    early = travel_with_start(travel, 45)
    late = travel_with_start(travel, 110)
    assert check_resilience(early, q(0)).resilient
    early_n1 = check_resilience(early, q(1))
    assert early_n1.resilient
    assert check_resilience(late, q(0)).resilient
    assert not check_resilience(late, q(1)).resilient

    # the early witness actually reacts to in-window flight delays
    assert len(early_n1.witness.children) >= 2
    ok, violations = verify_witness(early, q(1), early_n1.witness)
    assert ok, violations

    # frozen thresholds, derived once by exhaustive start-time sweeps:
    # one-delay resilience flips between 107 and 108 (the late direct flight
    # becomes delayable inside the window), plain reachability flips between
    # 120 and 121 (its boarding moment passes), and the tick budget bites
    # below 42
    assert check_resilience(travel_with_start(travel, 107), q(1)).resilient
    assert not check_resilience(travel_with_start(travel, 108), q(1)).resilient
    assert check_resilience(travel_with_start(travel, 120), q(0)).resilient
    assert not check_resilience(travel_with_start(travel, 121), q(0)).resilient
    assert check_resilience(travel_with_start(travel, 42), q(0)).resilient
    assert not check_resilience(travel_with_start(travel, 41), q(0)).resilient
    _report(7, "late start (0)-resilient only; thresholds 107/108, 120/121, 41/42", started)


def test_criterion_8_witness_soundness(travel, minimal):
    started = time.time()
    rng = random.Random(88)
    emitted = []
    cases = [
        (minimal, ResilienceQuery(2, 3, 1)),
        (travel_with_start(travel, 45), ResilienceQuery(1, 12, 220)),
    ]
    qbf_cases = 0
    while qbf_cases < 10:
        q = random_formula(rng, 1, 1, 3)
        scenario = qbf_to_scenario(q)
        if evaluate_qbf(q):
            cases.append((scenario, ResilienceQuery(1, 1, 0)))
            qbf_cases += 1
    for scenario, query in cases:
        result = check_resilience(scenario, query)
        assert result.resilient
        ok, violations = verify_witness(scenario, query, result.witness)
        assert ok, violations
        emitted.append((scenario, query, witness_to_dict(result.witness)))

    mutations = 0
    for scenario, query, data in emitted:
        if data["children"]:
            dropped = copy.deepcopy(data)
            del dropped["children"][rng.randrange(len(dropped["children"]))]
            ok, violations = verify_witness(scenario, query, dropped)
            assert not ok and any("uncovered update point" in v for v in violations)
            mutations += 1

            wrong = copy.deepcopy(data)
            child = wrong["children"][0]
            child["step"] = child["step"] + 1000
            ok, violations = verify_witness(scenario, query, wrong)
            assert not ok and any(
                "unknown update point" in v or "uncovered update point" in v
                for v in violations
            )
            mutations += 1
        if query.b == 0 and query.n >= 1:
            inflated = copy.deepcopy(data)
            inflated["trace"] = inflated["trace"] + [{"rule": TICK_STEP}] * (
                query.a + query.b + 1
            )
            ok, violations = verify_witness(scenario, query, inflated)
            assert not ok and any("tick budget" in v for v in violations)
            mutations += 1
    assert mutations >= 20
    _report(
        8,
        f"{len(emitted)} witnesses verified, {mutations} mutations rejected",
        started,
    )
