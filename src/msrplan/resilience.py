"""Time-bounded resilience: queries and the witnesses that certify them.

`check_resilience` runs the search engine (`search.Checker`) at (n, a, b):
is there a compliant goal trace within a + b ticks that survives up to n
adversarial update applications inside the disruption window a, replanning
recursively after each?  Progressing scenarios take n up to
`MAX_UPDATE_ROUNDS`; other scenarios only n = 0, goal reachability within
a + b ticks, which the same engine decides by goal distance.  One check,
`ResilienceQuery.check_root`, refuses every other query.  On success the
witness tree is rebuilt from the moves the engine recorded: the certified
trace from each state plus, for every admissible update point on it, the
witness one update level down.

The witness file format and its checker, `verify_witness` with its own
`enumerate_update_points`, live in `certify`, which shares no code path
with the engine; import them from there.  `verify_witness`,
`witness_to_json` and `enumerate_update_points` are still imported here
because the benchmark names them on this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .certify import enumerate_update_points, verify_witness, witness_to_json
from .kernel import Configuration
from .rules import EngineError, RuleInstance
from .scenario import PlanningScenario
from .search import Checker, horizon_at, successors
from .specs import Trace

# the most variables one critical pair may bind (`specs.eta_measure`)
ETA_CAP = 6

# Every path through a query recurses once or more per update round:
# deciding takes two frames a round (`Checker.decide`, `Checker._covered`),
# building the witness one, writing it three (`witness_to_dict` and, on
# Python 3.11, its list comprehension), reading it back three nested JSON
# containers and verifying it one.  CPython's default recursion limit is
# 1,000 frames, part of which the caller's own stack holds, and a join
# recurses up to `rules.MAX_JOIN_STEPS` frames deeper.  At 100 rounds no path
# nests more than about 460 frames; from the command line, deciding and
# writing a witness held at 320 rounds, and writing failed at 340.  A deeper
# query is refused before it starts, where it would otherwise die mid-way
# with `RecursionError`, whose exit 1 reads as "not resilient".
MAX_UPDATE_ROUNDS = 100


@dataclass(frozen=True)
class ResilienceQuery:
    """(n, a, b): updates tolerated, disruption window, recovery time."""

    n: int
    a: int
    b: int

    def __post_init__(self) -> None:
        # exactly `int`: a bool or a float would be written into the witness
        # as `true` or `12.0`, which its own checker rejects
        if any(type(v) is not int or v < 0 for v in (self.n, self.a, self.b)):
            raise EngineError("resilience parameters must be natural numbers")

    def check_root(self, scenario: PlanningScenario) -> None:
        """Refuse a query no decision starts from.  This is the one place
        that decides and words which root queries are answered:
        `check_resilience`, `verify_witness` and the command line's
        `--verify` all call it, so they refuse the same queries with the same
        message.  In order, a query is refused unless
        - its disruption window is positive (a child's may be 0, after an
          update at the deadline);
        - it has no update round (n = 0) or the scenario is progressing,
          where no configuration repeats along a trace;
        - one critical pair binds at most `ETA_CAP` variables;
        - its horizon, a + b ticks after the initial configuration, is a
          timestamp (`search.horizon_at`, which goal search shares);
        - it has at most `MAX_UPDATE_ROUNDS` update rounds."""
        if self.a < 1:
            raise EngineError("the disruption window a must be positive")
        if self.n and not scenario.progressing:
            raise EngineError("resilience checking requires a progressing planning scenario")
        eta = scenario.eta()
        if eta > ETA_CAP:
            raise EngineError(
                f"critical specification uses {eta} variables per pair; cap is "
                f"{ETA_CAP} variables bound by one critical pair's join"
            )
        horizon_at(scenario.initial.global_time, self.a + self.b)
        if self.n > MAX_UPDATE_ROUNDS:
            raise EngineError(
                f"a query of {self.n} update rounds exceeds the limit of "
                f"{MAX_UPDATE_ROUNDS} rounds (MAX_UPDATE_ROUNDS)"
            )


@dataclass(frozen=True)
class WitnessTree:
    """A strategy certificate: a base trace plus a child certificate for every
    admissible update point."""

    query: ResilienceQuery
    trace: Trace
    children: tuple[tuple[int, RuleInstance, "WitnessTree"], ...] = ()


@dataclass(frozen=True)
class ResilienceResult:
    resilient: bool
    witness: Optional[WitnessTree] = None
    refutation: tuple[str, ...] = ()


def _build_witness(
    checker: Checker,
    config: Configuration,
    n: int,
    built: dict[tuple, WitnessTree],
) -> WitnessTree:
    """The canonical witness for a state `checker` proved good: its certified
    trace plus a subtree for every admissible update point on it.

    No (configuration, instance) pair repeats within one trace: a progressing
    trace never revisits a configuration (each instantaneous step lowers the
    number of non-`Time` facts at or before the global time, each time
    advance moves the clock), and other scenarios only reach n = 0, where a
    node has no children."""
    bkey = (config, n)
    witness = built.get(bkey)
    if witness is not None:
        return witness
    trace = checker.trace(config, n)
    children: list[tuple[int, RuleInstance, WitnessTree]] = []
    for index, current in enumerate(trace.configurations()):
        if not checker.admits_updates(current, n):
            break
        updates = successors(current, checker.scenario.update_rules, advance=False)
        for inst, updated in updates:
            subtree = _build_witness(checker, updated, n - 1, built)
            children.append((index, inst, subtree))
    window = checker.deadline - config.global_time
    query = ResilienceQuery(n, window, checker.b)
    witness = WitnessTree(query, trace, tuple(children))
    built[bkey] = witness
    return witness


def check_resilience(
    scenario: PlanningScenario, query: ResilienceQuery
) -> ResilienceResult:
    """Decide (n,a,b)-resilience of a validated planning scenario; emit a
    witness tree on success.  A query `ResilienceQuery.check_root` refuses
    raises its `EngineError` before any search."""
    query.check_root(scenario)
    checker = Checker(scenario, query.a, query.b)
    if not checker.decide(scenario.initial, query.n):
        refutation = checker.refutation or ("no compliant goal trace",)
        return ResilienceResult(False, refutation=refutation)
    witness = _build_witness(checker, scenario.initial, query.n, {})
    return ResilienceResult(True, witness)
