"""Timed multiset-rewriting planning scenarios and time-bounded resilience."""

from .kernel import (
    Configuration,
    Constant,
    FreshConstant,
    Role,
    Signature,
    TimedFact,
    Variable,
    clock_convert,
    fact_size,
    make_signature,
)
from .rules import (
    Atom,
    CreatedFact,
    EngineError,
    FactPattern,
    Rule,
    RuleInstance,
    RuleRole,
    TimeConstraint,
    apply_instance,
    classify_rule,
    find_matches,
    tick,
)
from .specs import (
    ConfigSpec,
    SpecKind,
    SpecPair,
    Trace,
    TraceStep,
    check_compliance,
    eta_measure,
    match_spec,
)
from .scenario import (
    PlanningScenario,
    ScenarioError,
    infer_dmax,
    load_bundled,
    parse_scenario,
    pretty_print,
    validate_scenario,
)
from .search import find_compliant_goal_trace, successors
from .delta import DeltaRep, INF, abstract, delta_key, lift, tock
from .certify import (
    enumerate_update_points,
    verify_witness,
    witness_from_json,
    witness_to_json,
)
from .resilience import ResilienceQuery, WitnessTree, check_resilience
from .reductions import (
    Graph,
    Qbf,
    evaluate_qbf,
    graph_to_goal_instance,
    parse_graph,
    parse_qdimacs,
    qbf_to_msr_text,
    qbf_to_scenario,
)

__version__ = "0.1.0"
