"""Oracle pipeline: QBF game evaluation, the alternating-assignment scenario
generator, and the graph-homomorphism goal-recognition encoder.

The generator turns a prenex 3-CNF formula with alternation ``E A E ... E``
into a planning scenario whose resilience verdict at (n,1,0) equals the
formula's truth value: system rules play the existential assignments, update
rules the universal ones, and round-counter facts force the turn order.  The
brute-force evaluator on the same formula is the independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .kernel import (
    Configuration,
    Constant,
    Role,
    Signature,
    TimedFact,
    Variable,
    make_signature,
)
from .rules import (
    Atom,
    CreatedFact,
    EngineError,
    FactPattern,
    Rule,
    RuleRole,
    TimeConstraint,
)
from .scenario import PlanningScenario, pretty_print
from .specs import ConfigSpec, SpecKind, SpecPair

VAR_GUARD = 16


class QbfError(ValueError):
    pass


@dataclass(frozen=True)
class Qbf:
    """Prenex 3-CNF with an alternating quantifier prefix.

    Blocks are (quantifier, variable tuple) pairs with ``E`` first and last;
    clauses are triples of signed variable numbers.
    """

    blocks: tuple[tuple[str, tuple[int, ...]], ...]
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise QbfError("prefix must contain at least one block")
        for i, (quant, block_vars) in enumerate(self.blocks):
            expected = "e" if i % 2 == 0 else "a"
            if quant != expected:
                raise QbfError(
                    "prefix must alternate starting with an existential block"
                )
            if not block_vars:
                raise QbfError("empty quantifier block")
        if len(self.blocks) % 2 == 0:
            raise QbfError("prefix must end with an existential block")
        seen: set[int] = set()
        for _, block_vars in self.blocks:
            for v in block_vars:
                if v <= 0:
                    raise QbfError("variables are positive integers")
                if v in seen:
                    raise QbfError(f"variable {v} quantified twice")
                seen.add(v)
        for clause in self.clauses:
            if len(clause) != 3:
                raise QbfError("clauses must have exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) not in seen:
                    raise QbfError(f"literal {lit} is not quantified")

    @property
    def n(self) -> int:
        """Number of universal blocks (the resilience parameter)."""
        return (len(self.blocks) - 1) // 2

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(v for _, vs in self.blocks for v in vs)


def evaluate_qbf(q: Qbf) -> bool:
    """Exact truth value by exhaustive game-tree evaluation.

    Existential blocks pick some assignment, universal blocks must win under
    all assignments.  Exponential; guarded by a total variable count.
    """
    if len(q.variables) > VAR_GUARD:
        raise EngineError(
            f"formula has {len(q.variables)} variables; evaluation guard is "
            f"{VAR_GUARD}"
        )

    def matrix(assignment: dict[int, bool]) -> bool:
        return all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in q.clauses
        )

    def play(index: int, assignment: dict[int, bool]) -> bool:
        if index == len(q.blocks):
            return matrix(assignment)
        quant, block_vars = q.blocks[index]
        combine = any if quant == "e" else all
        return combine(
            play(index + 1, {**assignment, **dict(zip(block_vars, values))})
            for values in itertools.product((False, True), repeat=len(block_vars))
        )

    return play(0, {})


# ---------------------------------------------------------------------------
# QDIMACS-style input
# ---------------------------------------------------------------------------

def parse_qdimacs(text: str) -> Qbf:
    """Prenex 3-CNF in QDIMACS-style text with e/a block headers.

    The problem line's counts are checked: no quantified variable may exceed
    its variable count, and the clause count must match it exactly.  There
    is one problem line, and it comes before every quantifier and clause
    line.
    """
    blocks: list[tuple[str, tuple[int, ...]]] = []
    clauses: list[tuple[int, int, int]] = []
    problem: Optional[tuple[int, int, int]] = None  # line, variables, clauses
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if problem is not None:
                raise QbfError(f"line {lineno}: second problem line")
            if blocks or clauses:
                raise QbfError(f"line {lineno}: problem line after the prefix or clauses")
            fields = line.split()
            if (
                fields[:2] != ["p", "cnf"]
                or len(fields) != 4
                or not all(f.isdecimal() for f in fields[2:])
            ):
                raise QbfError(f"line {lineno}: malformed problem line")
            n_vars, n_clauses = _integers(fields[2:], lineno)
            problem = (lineno, n_vars, n_clauses)
            continue
        fields = line.split()
        if fields[0] in ("e", "a"):
            if fields[-1] != "0":
                raise QbfError(f"line {lineno}: quantifier line must end with 0")
            blocks.append((fields[0], _integers(fields[1:-1], lineno)))
            continue
        lits = _integers(fields, lineno)
        if lits[-1] != 0:
            raise QbfError(f"line {lineno}: clause must end with 0")
        lits = lits[:-1]
        if len(lits) != 3:
            raise QbfError(f"line {lineno}: clauses must have 3 literals")
        clauses.append(lits)  # type: ignore[arg-type]
    if problem is None:
        raise QbfError("missing problem line 'p cnf <vars> <clauses>'")
    lineno, n_vars, n_clauses = problem
    top = max((v for _, block_vars in blocks for v in block_vars), default=0)
    if top > n_vars:
        raise QbfError(
            f"line {lineno}: variable {top} exceeds the declared {n_vars} variables"
        )
    if len(clauses) != n_clauses:
        raise QbfError(
            f"line {lineno}: {len(clauses)} clauses where {n_clauses} are declared"
        )
    return Qbf(tuple(blocks), tuple(clauses))


def _integers(fields: list[str], lineno: int) -> tuple[int, ...]:
    """The fields of line `lineno` as integers, or a `QbfError` that names
    the first field that is not one."""
    out = []
    for field in fields:
        try:
            out.append(int(field))
        except ValueError:
            digits = field[1:] if field[0] in "+-" else field
            if digits.isdecimal():  # more digits than `int` converts
                message = f"number of {len(digits)} digits out of range"
            else:
                message = f"{field!r} is not an integer"
            raise QbfError(f"line {lineno}: {message}") from None
    return tuple(out)


# ---------------------------------------------------------------------------
# Formula -> planning scenario
# ---------------------------------------------------------------------------

# Scenarios are assembled from pieces built once per shape and shared across
# formulas: a piece depends only on the few values its builder takes, never on
# the clause set as a whole.  Sharing is safe because rules and specs are
# frozen and nothing writes to a signature after `make_signature`; a shared
# rule compiles its plan and classifies itself once.  Criterion 1's population
# needs 11 assignment rules, 2 win rules, 386 elimination rules, 54 signatures
# and 5 goal specs.  The graph reduction below shares its pieces the same way:
# criterion 6 needs 169 edge patterns, 25 edge facts, 5 pattern variables and
# 5 host constants, and the graph-goal benchmark's 500 pairs 343, 36, 6 and 6.
# Each builder keeps at most this many pieces.
PIECE_CACHE_SIZE = 1024

_TRUE = Constant("true", "bool")
_FALSE = Constant("false", "bool")


def _bool_var(name: str) -> Variable:
    return Variable(name, "bool")


def _eq_t(tvars: Iterable[str]) -> tuple[TimeConstraint, ...]:
    return tuple(TimeConstraint(tv, "=", "T") for tv in tvars)


@lru_cache(maxsize=PIECE_CACHE_SIZE)
def _qbf_signature(block_sizes: tuple[int, ...], m: int) -> Signature:
    predicates: dict[str, tuple[str, ...]] = {
        "B": ("bool",),
        "T": ("bool",),
        "F": ("bool",),
        "W": (),
        "Junk": (),
    }
    roles: dict[str, Role] = {
        "B": Role.SYSTEM,
        "T": Role.GOAL,
        "F": Role.SYSTEM,
        "W": Role.GOAL,
        "Junk": Role.SYSTEM,
    }
    for i in range(len(block_sizes) + 1):
        predicates[f"Rnd{i}"] = ()
        roles[f"Rnd{i}"] = Role.SYSTEM
    for i, k_i in enumerate(block_sizes, start=1):
        predicates[f"Unk{i}"] = ()
        roles[f"Unk{i}"] = Role.SYSTEM
        predicates[f"Val{i}"] = ("bool",) * k_i
        roles[f"Val{i}"] = Role.SYSTEM
    for j in range(1, m + 1):
        predicates[f"IC{j}"] = ()
        roles[f"IC{j}"] = Role.SYSTEM
        predicates[f"Sat{j}"] = ()
        roles[f"Sat{j}"] = Role.SYSTEM
    return make_signature(
        base_types=["bool"],
        constants={"true": "bool", "false": "bool"},
        predicates=predicates,
        roles=roles,
    )


@lru_cache(maxsize=PIECE_CACHE_SIZE)
def _assign_rule(i: int, k_i: int, role: RuleRole) -> Rule:
    """Block i's assignment: a system rule for an existential block, an
    update rule for a universal one."""
    ys = [_bool_var(f"y{j}") for j in range(1, k_i + 1)]
    side = tuple(
        FactPattern(Atom("B", (y,)), f"T{j}") for j, y in enumerate(ys, start=1)
    )
    consumed = (
        FactPattern(Atom(f"Rnd{i - 1}"), f"T{k_i + 1}"),
        FactPattern(Atom(f"Unk{i}"), f"T{k_i + 2}"),
        FactPattern(Atom("Junk"), f"T{k_i + 3}"),
    )
    created = (
        CreatedFact(Atom(f"Rnd{i}"), 0),
        CreatedFact(Atom(f"Val{i}", tuple(ys)), 0),
        CreatedFact(Atom("Junk"), 1),
    )
    guard = _eq_t(f"T{j}" for j in range(1, k_i + 4))
    prefix = "assign_e" if role is RuleRole.SYSTEM else "assign_a"
    return Rule(f"{prefix}_{i}", side, consumed, created, guard, role).with_past_consumption()


@lru_cache(maxsize=PIECE_CACHE_SIZE)
def _win_rule(i: int) -> Rule:
    """The base trace may stop at universal block i's pending turn."""
    consumed = (
        FactPattern(Atom(f"Rnd{i - 1}"), "T1"),
        FactPattern(Atom(f"Unk{i}"), "T2"),
        FactPattern(Atom("Junk"), "T3"),
    )
    created = (
        CreatedFact(Atom("W"), 0),
        CreatedFact(Atom("Junk"), 0),
        CreatedFact(Atom("Junk"), 1),
    )
    return Rule(
        f"win_{i}", (), consumed, created, _eq_t(["T1", "T2", "T3"]), RuleRole.SYSTEM
    ).with_past_consumption()


@lru_cache(maxsize=PIECE_CACHE_SIZE)
def _elim_rule(
    i: int, j: int, k_i: int, rounds: int, positive: bool, clause_index: int, position: int
) -> Rule:
    """Clause `clause_index` is satisfied by its literal at `position`, which
    reads variable j of block i (of k_i variables) with the given sign."""
    args = tuple(
        _bool_var("b") if offset == j else _bool_var(f"y{offset}")
        for offset in range(1, k_i + 1)
    )
    truth_pred = "T" if positive else "F"
    side = (
        FactPattern(Atom(f"Val{i}", args), "T1"),
        FactPattern(Atom(truth_pred, (_bool_var("b"),)), "T2"),
        FactPattern(Atom(f"Rnd{rounds}"), "T3"),
    )
    consumed = (
        FactPattern(Atom(f"IC{clause_index}"), "T4"),
        FactPattern(Atom("Junk"), "T5"),
    )
    created = (
        CreatedFact(Atom(f"Sat{clause_index}"), 0),
        CreatedFact(Atom("Junk"), 1),
    )
    name = f"{'pos' if positive else 'neg'}_elim_{clause_index}_{position}"
    return Rule(
        name, side, consumed, created,
        _eq_t(["T1", "T2", "T3", "T4", "T5"]), RuleRole.SYSTEM,
    ).with_past_consumption()


@lru_cache(maxsize=PIECE_CACHE_SIZE)
def _goal_spec(m: int) -> ConfigSpec:
    """A universal turn was left pending, or every clause is satisfied."""
    return ConfigSpec(
        SpecKind.GOAL,
        (
            SpecPair((FactPattern(Atom("W"), "T1"),)),
            SpecPair(
                (
                    FactPattern(Atom("T", (_TRUE,)), "T0"),
                    *(
                        FactPattern(Atom(f"Sat{j}"), f"T{j}")
                        for j in range(1, m + 1)
                    ),
                )
            ),
        ),
    )


def qbf_to_scenario(q: Qbf) -> PlanningScenario:
    """The alternating-assignment construction.

    The scenario has one existential-assignment system rule per existential
    block, one win rule per universal block (letting the base trace stop at a
    pending universal turn), three clause-elimination rules per clause, and
    one universal-assignment update rule per universal block.  All guards pin
    the involved facts to the current instant, so nothing fires after time 0.
    Rules, signature and goal specification come from the shared builders
    above; the initial configuration is built for each formula.
    """
    rounds = len(q.blocks)  # 2n + 1
    n = q.n
    m = len(q.clauses)
    k = len(q.variables)
    block_sizes = tuple(len(vs) for _, vs in q.blocks)
    var_pos: dict[int, tuple[int, int]] = {}  # variable -> (block i, offset j)
    for i, (_, block_vars) in enumerate(q.blocks, start=1):
        for j, v in enumerate(block_vars, start=1):
            var_pos[v] = (i, j)

    system_rules: list[Rule] = []
    update_rules: list[Rule] = []
    for i, k_i in enumerate(block_sizes, start=1):
        if i % 2 == 1:
            system_rules.append(_assign_rule(i, k_i, RuleRole.SYSTEM))
        else:
            system_rules.append(_win_rule(i))
            update_rules.append(_assign_rule(i, k_i, RuleRole.SYSTEM_UPDATE))
    for clause_index, clause in enumerate(q.clauses, start=1):
        for position, lit in enumerate(clause, start=1):
            i, j = var_pos[abs(lit)]
            system_rules.append(
                _elim_rule(i, j, block_sizes[i - 1], rounds, lit > 0, clause_index, position)
            )

    facts = [
        TimedFact("Time", (), 0),
        TimedFact("Rnd0", (), 0),
        TimedFact("T", (_TRUE,), 0),
        TimedFact("F", (_FALSE,), 0),
    ]
    facts += [TimedFact(f"Unk{i}", (), 0) for i in range(1, rounds + 1)]
    facts += [TimedFact(f"IC{j}", (), 0) for j in range(1, m + 1)]
    facts += [TimedFact("B", (_TRUE,), 0)] * (2 * k)
    facts += [TimedFact("B", (_FALSE,), 0)] * (2 * k)
    facts += [TimedFact("Junk", (), 0)] * (2 * n + m + 1)

    return PlanningScenario(
        signature=_qbf_signature(block_sizes, m),
        system_rules=tuple(system_rules),
        update_rules=tuple(update_rules),
        goal_spec=_goal_spec(m),
        critical_spec=ConfigSpec(SpecKind.CRITICAL, ()),
        initial=Configuration(facts),
        fact_size_bound=1 + max(block_sizes),
    )


def qbf_to_msr_text(q: Qbf) -> str:
    """The same construction rendered as an ordinary scenario file."""
    return pretty_print(qbf_to_scenario(q))


# ---------------------------------------------------------------------------
# Graph homomorphism -> goal recognition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """A directed graph over named vertices."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        declared = set(self.vertices)
        if len(declared) != len(self.vertices):
            raise QbfError("duplicate vertex")
        for u, v in self.edges:
            if u not in declared or v not in declared:
                raise QbfError(f"edge ({u},{v}) over undeclared vertices")


def parse_graph(text: str) -> Graph:
    """Edge-list format: `u v` lines; `node u` declares an isolated vertex."""
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []

    def add_vertex(name: str) -> None:
        if name not in seen:
            seen.add(name)
            vertices.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "node":
            for name in fields[1:]:
                add_vertex(name)
            continue
        if len(fields) != 2:
            raise QbfError(f"line {lineno}: expected 'u v' or 'node u ...'")
        add_vertex(fields[0])
        add_vertex(fields[1])
        edges.append((fields[0], fields[1]))
    return Graph(tuple(vertices), tuple(edges))


# Graph instances are assembled from shared pieces too.  A piece is keyed by
# vertex indices and an edge position, never by a graph, so graphs over the
# same indices share it; per graph only the index map, the pattern tuple, the
# pair and its specification, the host configuration and the scenario are
# built.

@lru_cache(maxsize=PIECE_CACHE_SIZE)
def _vertex_signature(n: int) -> Signature:
    return make_signature(
        base_types=["vertex"],
        constants={f"kv_{i}": "vertex" for i in range(n)},
        predicates={"R": ("vertex", "vertex")},
        roles={"R": Role.GOAL},
    )


@lru_cache(maxsize=PIECE_CACHE_SIZE)
def _pattern_var(i: int) -> Variable:
    return Variable(f"x{i}", "vertex")


@lru_cache(maxsize=PIECE_CACHE_SIZE)
def _host_const(i: int) -> Constant:
    return Constant(f"kv_{i}", "vertex")


@lru_cache(maxsize=PIECE_CACHE_SIZE)
def _edge_pattern(i: int, j: int, idx: int) -> FactPattern:
    """The pattern of edge number `idx` (from 1), from vertex i to vertex j."""
    return FactPattern(Atom("R", (_pattern_var(i), _pattern_var(j))), f"T{idx}")


@lru_cache(maxsize=PIECE_CACHE_SIZE)
def _edge_fact(i: int, j: int) -> TimedFact:
    return TimedFact("R", (_host_const(i), _host_const(j)), 0)


_CLOCK = TimedFact("Time", (), 0)
_NO_CRITICAL = ConfigSpec(SpecKind.CRITICAL, ())


def graph_goal_spec(g: Graph) -> ConfigSpec:
    """The goal specification with one edge atom per edge of `g` over
    per-vertex variables; it matches `graph_host(k)` exactly when a
    homomorphism g -> k exists."""
    if not g.vertices:
        raise QbfError("graphs must be nonempty")
    index = {name: i for i, name in enumerate(g.vertices)}
    pattern = tuple(
        _edge_pattern(index[u], index[v], idx)
        for idx, (u, v) in enumerate(g.edges, start=1)
    )
    return ConfigSpec(SpecKind.GOAL, (SpecPair(pattern),))


def graph_host(k: Graph) -> Configuration:
    """The configuration holding the edges of `k` as ground facts."""
    if not k.vertices:
        raise QbfError("graphs must be nonempty")
    index = {name: i for i, name in enumerate(k.vertices)}
    facts = [_CLOCK]
    facts += [_edge_fact(index[u], index[v]) for u, v in k.edges]
    return Configuration(facts)


def graph_to_goal_instance(
    g: Graph, k: Graph
) -> tuple[PlanningScenario, Configuration]:
    """Encode `does a homomorphism g -> k exist` as goal recognition.

    The goal pattern `graph_goal_spec(g)` matches the configuration
    `graph_host(k)` exactly when a homomorphism exists.
    """
    goal = graph_goal_spec(g)
    config = graph_host(k)
    scenario = PlanningScenario(
        signature=_vertex_signature(len(k.vertices)),
        system_rules=(),
        update_rules=(),
        goal_spec=goal,
        critical_spec=_NO_CRITICAL,
        initial=config,
        fact_size_bound=3,
    )
    return scenario, config


def brute_force_homomorphism(g: Graph, k: Graph) -> Optional[dict[str, str]]:
    """Exhaustive search over all vertex maps; the independent oracle.

    Maps are tried in `itertools.product` order over host vertex indices,
    and each is tested edge by edge up to its first missing image."""
    g_index = {v: i for i, v in enumerate(g.vertices)}
    k_index = {v: i for i, v in enumerate(k.vertices)}
    pattern = [(g_index[u], g_index[v]) for u, v in g.edges]
    host = {(k_index[u], k_index[v]) for u, v in k.edges}
    for image in itertools.product(range(len(k.vertices)), repeat=len(g.vertices)):
        for u, v in pattern:
            if (image[u], image[v]) not in host:
                break
        else:
            return {x: k.vertices[i] for x, i in zip(g.vertices, image)}
    return None
