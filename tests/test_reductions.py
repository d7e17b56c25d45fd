from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import E1_A2_E3, qbf_mix, random_formula
from msrplan import reductions, rules
from msrplan.reductions import (
    PIECE_CACHE_SIZE,
    Graph,
    Qbf,
    QbfError,
    brute_force_homomorphism,
    evaluate_qbf,
    graph_goal_spec,
    graph_host,
    graph_to_goal_instance,
    parse_graph,
    parse_qdimacs,
    qbf_to_msr_text,
    qbf_to_scenario,
)
from msrplan.resilience import ResilienceQuery, check_resilience
from msrplan.rules import EngineError
from msrplan.scenario import parse_scenario, validate_scenario
from msrplan.search import find_compliant_goal_trace
from msrplan.specs import match_spec
from test_acceptance import _per_pair_instance


def render_qdimacs(q: Qbf) -> str:
    """The formula as QDIMACS text, the input `parse_qdimacs` reads back."""
    # QDIMACS gives the largest variable index, not the variable count
    lines = [f"p cnf {max(q.variables)} {len(q.clauses)}"]
    for quant, block_vars in q.blocks:
        lines.append(" ".join([quant, *map(str, block_vars), "0"]))
    for clause in q.clauses:
        lines.append(" ".join([*map(str, clause), "0"]))
    return "\n".join(lines) + "\n"


class TestEvaluate:
    def test_tautological_clause(self):
        assert evaluate_qbf(Qbf((("e", (1,)),), ((1, 1, 1),))) is True

    def test_universal_root_rejected(self):
        with pytest.raises(QbfError):
            Qbf((("a", (1,)), ("e", (2,))), ())

    def test_even_block_count_rejected(self):
        with pytest.raises(QbfError):
            Qbf((("e", (1,)), ("a", (2,))), ())

    def test_alternating_example(self):
        q = Qbf((("e", (1,)), ("a", (2,)), ("e", (3,))), ((1, 2, 3), (-1, -2, -3)))
        assert evaluate_qbf(q) is True

    def test_false_when_spoiler_can_refute(self):
        q = Qbf((("e", (1,)), ("a", (2,)), ("e", (3,))), ((2, 2, 2),))
        assert evaluate_qbf(q) is False

    def test_size_guard(self):
        q = Qbf((("e", tuple(range(1, 18))),), ((1, 2, 3),))
        with pytest.raises(EngineError):
            evaluate_qbf(q)

    def test_variable_quantified_twice_rejected(self):
        with pytest.raises(QbfError):
            Qbf((("e", (1, 1)),), ((1, 1, 1),))

    def test_unquantified_literal_rejected(self):
        with pytest.raises(QbfError):
            Qbf((("e", (1,)),), ((1, 2, 1),))


class TestQdimacs:
    TEXT = "p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 2 3 0\n-1 -2 -3 0\n"

    def test_parse_and_render_round_trip(self):
        q = parse_qdimacs(self.TEXT)
        assert q.blocks == (("e", (1,)), ("a", (2,)), ("e", (3,)))
        assert q.clauses == ((1, 2, 3), (-1, -2, -3))
        assert parse_qdimacs(render_qdimacs(q)) == q

    def test_requires_three_literals(self):
        with pytest.raises(QbfError):
            parse_qdimacs("p cnf 2 1\ne 1 2 0\n1 2 0\n")

    def test_requires_problem_line(self):
        with pytest.raises(QbfError):
            parse_qdimacs("e 1 0\n1 1 1 0\n")

    def test_comments_ignored(self):
        assert parse_qdimacs("c hi\n" + self.TEXT).clauses == ((1, 2, 3), (-1, -2, -3))

    def test_problem_line_counts_must_be_natural(self):
        for counts in ("foo bar", "3 -2", "3 2.0"):
            with pytest.raises(QbfError, match="malformed problem line"):
                parse_qdimacs(self.TEXT.replace("p cnf 3 2", f"p cnf {counts}"))

    def test_problem_line_counts_must_match(self):
        # p cnf 1 7 over variables 1-5 and one clause
        text = "p cnf 1 7\ne 1 2 0\na 3 4 0\ne 5 0\n1 3 5 0\n"
        with pytest.raises(QbfError, match="line 1: variable 5 exceeds"):
            parse_qdimacs(text)
        with pytest.raises(QbfError, match="line 1: 1 clauses where 7"):
            parse_qdimacs(text.replace("p cnf 1 7", "p cnf 5 7"))
        with pytest.raises(QbfError, match="line 2: 1 clauses where 0"):
            parse_qdimacs("c counts\n" + text.replace("p cnf 1 7", "p cnf 5 0"))
        assert parse_qdimacs(text.replace("p cnf 1 7", "p cnf 5 1")).clauses == (
            (1, 3, 5),
        )

    def test_second_problem_line_rejected(self):
        """A repeated problem line is an error, not an override of the
        first one's counts."""
        text = self.TEXT.replace("p cnf 3 2\n", "p cnf 3 1\np cnf 3 2\n")
        with pytest.raises(QbfError, match="line 2: second problem line"):
            parse_qdimacs(text)

    def test_problem_line_after_prefix_or_clauses_rejected(self):
        body = self.TEXT.replace("p cnf 3 2\n", "")
        with pytest.raises(QbfError, match="line 6: problem line after the prefix or clauses"):
            parse_qdimacs(body + "p cnf 3 2\n")
        with pytest.raises(QbfError, match="line 2: problem line after the prefix or clauses"):
            parse_qdimacs("e 1 0\np cnf 3 2\na 2 0\ne 3 0\n1 2 3 0\n-1 -2 -3 0\n")
        # comments before the problem line are fine
        assert parse_qdimacs("c first\n" + self.TEXT) == parse_qdimacs(self.TEXT)

    def test_overlong_number_is_worded_by_the_parser(self):
        """A number of more digits than `int` converts is reported in the
        parser's words, on the problem line and in a literal alike."""
        big = "9" * 5000
        with pytest.raises(QbfError) as err:
            parse_qdimacs(self.TEXT.replace("p cnf 3 2", f"p cnf {big} 2"))
        assert str(err.value) == "line 1: number of 5000 digits out of range"
        with pytest.raises(QbfError) as err:
            parse_qdimacs(self.TEXT.replace("-1 -2 -3 0", f"-1 -{big} -3 0"))
        assert str(err.value) == "line 6: number of 5000 digits out of range"

    def test_non_integer_is_worded_by_the_parser(self):
        with pytest.raises(QbfError) as err:
            parse_qdimacs("p cnf 1 1\ne 1 x 0\n1 1 1 0\n")
        assert str(err.value) == "line 2: 'x' is not an integer"
        with pytest.raises(QbfError) as err:
            parse_qdimacs(self.TEXT.replace("1 2 3 0", "1 --2 3 0"))
        assert str(err.value) == "line 5: '--2' is not an integer"

    def test_render_gives_largest_variable_index(self):
        q = Qbf((("e", (1,)), ("a", (5,)), ("e", (3,))), ((1, -5, 3),))
        text = render_qdimacs(q)
        assert text.splitlines()[0] == "p cnf 5 1"
        assert parse_qdimacs(text) == q


class TestConstruction:
    def test_rule_counts(self):
        # one existential-assignment rule per existential block, one win rule
        # per universal block (adding more would let the base trace bypass the
        # opponent's turn), three elimination rules per clause, and one
        # universal-assignment update per universal block
        for n, k, m in [(0, 1, 1), (1, 1, 2), (1, 3, 2), (2, 2, 4)]:
            rng = random.Random(n * 100 + k * 10 + m)
            blocks = []
            var = 1
            for i in range(2 * n + 1):
                size = max(1, k // (2 * n + 1)) if i else k - (2 * n) * max(1, k // (2 * n + 1))
                size = max(size, 1)
                blocks.append(("e" if i % 2 == 0 else "a", tuple(range(var, var + size))))
                var += size
            pool = [v for _, vs in blocks for v in vs]
            clauses = tuple(
                tuple(rng.choice(pool) * rng.choice((1, -1)) for _ in range(3))
                for _ in range(m)
            )
            q = Qbf(tuple(blocks), clauses)
            scenario = qbf_to_scenario(q)
            assert len(scenario.system_rules) == (n + 1) + n + 3 * m
            assert len(scenario.update_rules) == n

    def test_generated_scenario_validates(self):
        q = Qbf((("e", (1,)), ("a", (2,)), ("e", (3,))), ((1, 2, 3), (-1, -2, -3)))
        report = validate_scenario(qbf_to_scenario(q))
        assert report.progressing
        assert report.eta == 0 and report.eta < 1
        assert all(c.balanced for c in report.classifications.values())
        # the win rules create a goal fact from the system set by design
        flagged = {n for n, c in report.classifications.items() if not c.role_valid}
        assert flagged and all(n.startswith("win_") for n in flagged)

    def test_initial_configuration_size(self):
        # groups: Time, round marker, truth tokens (2), one unknown marker per
        # block, one pending marker per clause, 4k boolean tokens, and
        # 2n + m + 1 scratch tokens
        q = Qbf(
            (("e", (1, 2, 3)), ("a", (4, 5, 6)), ("e", (7, 8, 9))),
            ((1, 4, 7), (-2, 5, -8)),
        )
        n, k, m = 1, 9, 2
        scenario = qbf_to_scenario(q)
        expected = 4 + (2 * n + 1) + m + 4 * k + (2 * n + m + 1)
        assert len(scenario.initial) == expected

    def test_no_ticks_needed_before_goal_or_stuck(self):
        rng = random.Random(9)
        for _ in range(10):
            q = random_formula(rng, 0, 2, 3)
            scenario = qbf_to_scenario(q)
            with_zero = find_compliant_goal_trace(scenario, 0)
            with_more = find_compliant_goal_trace(scenario, 3)
            assert (with_zero is None) == (with_more is None)
            if with_zero is not None:
                assert with_zero.tick_count() == 0

    def test_msr_text_round_trips(self):
        q = Qbf((("e", (1,)), ("a", (2, 3)), ("e", (4,))), ((1, -2, 4), (3, 3, -4)))
        scenario = qbf_to_scenario(q)
        assert parse_scenario(qbf_to_msr_text(q)) == scenario
        for q in qbf_mix():
            assert parse_scenario(qbf_to_msr_text(q)) == qbf_to_scenario(q), q

    def test_formulas_with_one_prefix_share_rules(self, monkeypatch):
        """Formulas with one prefix share their rules, and one formula built
        twice shares its rules and pairs, so neither closes a guard again:
        not to classify its rules, nor for its expiry table or relaxation.
        The patch is on `rules._Dbm.__init__`, which every construction
        runs, whatever name the constructing module imported it under."""
        formula = Qbf(E1_A2_E3, ((1, -2, 3), (-1, 2, 2)))
        first = qbf_to_scenario(formula)
        assert first.progressing
        assert first.expiry and not first.relaxation.trivial and first.relaxation.goals
        again = qbf_to_scenario(formula)
        assert again is not first
        second = qbf_to_scenario(Qbf(E1_A2_E3, ((1, -2, 3),)))
        assert all(
            a is b for a, b in zip(second.system_rules, first.system_rules)
        )
        assert second.update_rules[0] is first.update_rules[0]
        assert second.initial is not first.initial

        def no_dbm(*args, **kwargs):
            raise AssertionError("a shared guard was closed again")

        monkeypatch.setattr(rules._Dbm, "__init__", no_dbm)
        assert second.progressing
        assert again.expiry == first.expiry
        assert len(again.relaxation.goals) == len(first.relaxation.goals)

    def test_parameter_insensitivity(self):
        rng = random.Random(21)
        for _ in range(4):
            q = random_formula(rng, 1, 1, 2)
            truth = evaluate_qbf(q)
            scenario = qbf_to_scenario(q)
            for a in (1, 2, 5):
                for b in (0, 3):
                    verdict = check_resilience(
                        scenario, ResilienceQuery(q.n, a, b)
                    ).resilient
                    assert verdict == truth, (q, a, b)


class TestGraphs:
    def test_parse_graph(self):
        g = parse_graph("a b\nb c\nnode d\n# comment\n")
        assert g.vertices == ("a", "b", "c", "d")
        assert g.edges == (("a", "b"), ("b", "c"))

    def test_identity_homomorphism(self):
        tri = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
        scenario, config = graph_to_goal_instance(tri, tri)
        assert match_spec(scenario.goal_spec, config) is not None

    def test_triangle_into_edge_fails(self):
        tri = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
        k2 = Graph(("u", "v"), (("u", "v"), ("v", "u")))
        scenario, config = graph_to_goal_instance(tri, k2)
        assert match_spec(scenario.goal_spec, config) is None
        assert brute_force_homomorphism(tri, k2) is None

    def test_empty_pattern_graph_maps_trivially(self):
        loner = Graph(("a",), ())
        k = Graph(("u",), (("u", "u"),))
        scenario, config = graph_to_goal_instance(loner, k)
        assert match_spec(scenario.goal_spec, config) is not None

    def test_random_agreement_small(self):
        rng = random.Random(3)
        names = "abcde"
        for _ in range(150):
            nv_g, nv_k = rng.randint(1, 4), rng.randint(1, 4)
            g = _random_graph(rng, names[:nv_g])
            k = _random_graph(rng, names[:nv_k])
            scenario, config = graph_to_goal_instance(g, k)
            engine = match_spec(scenario.goal_spec, config) is not None
            assert engine == (brute_force_homomorphism(g, k) is not None)

    def test_nonempty_required(self):
        with pytest.raises(QbfError):
            graph_to_goal_instance(Graph((), ()), Graph(("u",), ()))


class TestGraphPieces:
    def test_shared_pieces_equal_the_unshared_construction(self):
        """`graph_goal_spec` and `graph_host` equal the goal and host built
        from fresh terms, facts and patterns, on seeded random graphs and on
        one graph of more distinct edge patterns than the piece cache holds,
        which is built twice: the second time over evicted pieces."""
        rng = random.Random(11)
        graphs = [
            _shuffled_graph(rng, "abcdef"[: rng.randint(1, 6)], rng.choice((0.2, 0.5, 0.8)))
            for _ in range(200)
        ]
        names = tuple(f"v{i}" for i in range(33))
        dense = Graph(names, tuple((u, v) for u in names for v in names))
        assert len(dense.edges) > PIECE_CACHE_SIZE
        graphs += [dense, dense]
        for g, k in zip(graphs, graphs[1:] + graphs[:1]):
            goal, config = _per_pair_instance(g, k)
            assert graph_goal_spec(g) == goal
            assert graph_host(k) == config
            scenario, initial = graph_to_goal_instance(g, k)
            assert scenario.goal_spec == goal and initial == config
        info = reductions._edge_pattern.cache_info()
        assert info.currsize == info.maxsize == PIECE_CACHE_SIZE

    def test_graphs_that_share_an_edge_share_its_pieces(self):
        """Both graphs' first edge runs from vertex 0 to vertex 1, so their
        specifications hold one pattern object for it and their hosts one
        fact object; each graph still gets its own pair and configuration."""
        g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
        h = Graph(("u", "v"), (("u", "v"), ("v", "v")))
        [g_pair], [h_pair] = graph_goal_spec(g).pairs, graph_goal_spec(h).pairs
        assert g_pair.pattern[0] is h_pair.pattern[0]
        assert g_pair.pattern[1] != h_pair.pattern[1]
        assert graph_goal_spec(g).pairs[0] is not g_pair
        g_host, h_host = graph_host(g), graph_host(h)
        assert g_host.others[0] is h_host.others[0]
        assert g_host.clock is h_host.clock
        assert graph_host(g) is not g_host
        g_scenario, _ = graph_to_goal_instance(g, h)
        h_scenario, _ = graph_to_goal_instance(h, g)
        assert g_scenario.critical_spec is h_scenario.critical_spec


class TestHomomorphismOracle:
    def test_returned_maps_digest(self):
        """The oracle's answers, each map in its key order or `null`, over
        every pair of labeled 2-vertex digraphs and 700 seeded random pairs
        of 1-5 vertices with shuffled vertex orders and disjoint names; the
        digest was taken with the dict-per-map oracle, so a rewrite must
        find the same first map in `itertools.product` order."""
        small = [
            [Graph(tuple(names), edges) for edges in _digraphs(names)]
            for names in ("ab", "uv")
        ]
        pairs = [(g, k) for g in small[0] for k in small[1]]
        rng = random.Random(2024)
        for _ in range(700):
            density = rng.choice((0.2, 0.35, 0.5, 0.7))
            g = _shuffled_graph(rng, "abcde"[: rng.randint(1, 5)], density)
            k = _shuffled_graph(rng, "vwxyz"[: rng.randint(1, 5)], density)
            pairs.append((g, k))
        answers = [brute_force_homomorphism(g, k) for g, k in pairs]
        assert 200 < sum(m is None for m in answers) < len(answers) - 200
        text = "\n".join(json.dumps(m) for m in answers)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == (
            "0236e6a8ef3d9c42599c42eaee2671484f53cc09be83aab9ef28f476a683c3cb"
        )


def _digraphs(names: str) -> list[tuple[tuple[str, str], ...]]:
    slots = [(u, v) for u in names for v in names]
    return [
        tuple(s for i, s in enumerate(slots) if mask >> i & 1)
        for mask in range(1 << len(slots))
    ]


def _shuffled_graph(rng: random.Random, names: str, density: float) -> Graph:
    vertices = list(names)
    rng.shuffle(vertices)
    edges = [(u, v) for u in vertices for v in vertices if rng.random() < density]
    rng.shuffle(edges)
    return Graph(tuple(vertices), tuple(edges))


def _random_graph(rng: random.Random, names: str) -> Graph:
    vertices = tuple(names)
    edges = []
    for u in vertices:
        for v in vertices:
            if rng.random() < 0.4:
                edges.append((u, v))
    return Graph(vertices, tuple(edges))


class TestOracleAgreementSample:
    def test_small_alternating_sample(self):
        rng = random.Random(17)
        for _ in range(20):
            q = random_formula(rng, 1, 1, 3)
            truth = evaluate_qbf(q)
            verdict = check_resilience(
                qbf_to_scenario(q), ResilienceQuery(1, 1, 0)
            ).resilient
            assert verdict == truth, q
