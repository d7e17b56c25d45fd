#!/usr/bin/env python3
"""Verdict benchmark for msrplan.

    python3 bench/run.py                       # all four workloads, one after another
    python3 bench/run.py --workload qbf-sweep --seed 3 --seconds 25 --trace 0

Each workload runs in a fresh process of its own, one query at a time in a
closed loop, and checks every output (see ``workloads.py``).  It runs whole
passes over its queries until ``--seconds`` have elapsed.  With ``--trace 0``
nothing is wrapped and the end-to-end metrics are printed; with ``--trace 1``
the first pass runs once untraced and once under the layer tracer
(``spans.py``), and the per-layer metrics are printed.  Human-readable lines
come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every query passed its checks.  DESIGN.md explains the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("travel-grid", "qbf-sweep", "graph-goal", "goal-search")
SETUP_SAMPLES = 7  # fresh interpreters per run; setup_s is their median
MIN_PASSES = 2  # a query's median needs repeats
TAIL_BEYOND = 10  # latency_tail_ms keeps at least this many samples beyond it
REPORTED_FAILURES = 5
# The host's speed drifts by 15-50% over seconds to minutes (other tenants
# share the machine).  A fixed piece of interpreter work, the yardstick, is
# timed every REF_INTERVAL seconds between queries; every timing is scaled by
# REF_NOMINAL_S over the median of the REF_WINDOW yardstick samples on each
# side of it.  On the 2-CPU host the benchmark was built on, this cut the
# spread of travel-grid's verdicts_per_s over ten runs from 25% to 13%.
REF_INTERVAL = 0.2
REF_WINDOW = 3
REF_NOMINAL_S = 0.015
# str hashing is randomised per process, and the dict and set layouts it
# yields moved the same qbf-sweep work by up to 60% between processes; every
# benchmark process therefore runs with this fixed hash seed.
HASH_SEED = "0"

END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("verify_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

# (metric, unit); calls and self_s come from the spans named by the prefix
PER_LAYER = (
    ("rules.find_matches.calls", "count"),
    ("rules.find_matches.self_s", "s"),
    ("rules.find_matches.instances", "count"),
    ("rules.find_matches.yield", "ratio"),
    ("rules.apply_instance.calls", "count"),
    ("rules.apply_instance.self_s", "s"),
    ("rules.tick.calls", "count"),
    ("rules.tick.self_s", "s"),
    ("specs.match_spec.calls", "count"),
    ("specs.match_spec.self_s", "s"),
    ("specs.match_spec.hit_ratio", "ratio"),
    ("specs.check_compliance.self_s", "s"),
    ("specs.replay_errors.self_s", "s"),
    ("scenario.PlanningScenario.classify.calls", "count"),
    ("scenario.PlanningScenario.classify.self_s", "s"),
    ("scenario.infer_dmax.calls", "count"),
    ("scenario.infer_dmax.self_s", "s"),
    ("scenario.parse_scenario.self_s", "s"),
    ("delta.abstract.calls", "count"),
    ("delta.abstract.self_s", "s"),
    ("delta.delta_key.calls", "count"),
    ("delta.delta_key.self_s", "s"),
    ("kernel.Configuration.calls", "count"),
    ("kernel.Configuration.self_s", "s"),
    ("kernel.Configuration.replace.calls", "count"),
    ("kernel.Configuration.replace.self_s", "s"),
    ("resilience.check_resilience.self_s", "s"),
    ("resilience.states", "count"),
    ("resilience.verify_witness.self_s", "s"),
    ("resilience.enumerate_update_points.calls", "count"),
    ("resilience.enumerate_update_points.self_s", "s"),
    ("resilience.errors", "count"),
    ("search.find_compliant_goal_trace.self_s", "s"),
    ("reductions.qbf_to_scenario.self_s", "s"),
    ("reductions.graph_to_goal_instance.self_s", "s"),
    ("reductions.evaluate_qbf.self_s", "s"),
    ("reductions.brute_force_homomorphism.self_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)


def import_engine():
    """Make ``src`` importable and import msrplan; returns seconds taken."""
    if not (SRC / "msrplan" / "__init__.py").is_file():
        raise SystemExit(f"error: msrplan sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import msrplan  # noqa: F401

    return time.perf_counter() - started


def setup_probe(name: str) -> tuple[float, float]:
    """One set-up as a CLI invocation pays it (import plus scenario parsing),
    and the yardstick timed right after it in the same process."""
    seconds = import_engine()
    import workloads

    started = time.perf_counter()
    workloads.parse_sources(name)
    seconds += time.perf_counter() - started
    return seconds, statistics.median(yardstick() for _ in range(5))


def measure_setup(name: str) -> tuple[float, float]:
    """Median set-up time over fresh interpreters: scaled, and as measured."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, ref = map(float, done.stdout.split()[-2:])
        scaled.append(seconds * REF_NOMINAL_S / ref)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


class Tally:
    """Per query key: (start, seconds) of its decisions and certificate checks
    over all passes, plus the verdict and output digest of its first pass.
    With ``refs`` a list, yardstick samples (start, seconds) go there."""

    def __init__(self, refs: list | None = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = 0
        self.latencies: dict[str, list[tuple[float, float]]] = {}
        self.verify: dict[str, list[tuple[float, float]]] = {}
        self.first: dict[str, tuple[bool, str]] = {}
        self.refs = refs

    def sample_host(self, *, every: float = 0.0) -> None:
        """Time the yardstick, if ``every`` seconds passed since it last ran."""
        if self.refs is None:
            return
        if not self.refs or time.perf_counter() - self.refs[-1][0] >= every:
            self.refs.append((time.perf_counter(), yardstick()))

    def fail(self, lines: list[str]) -> None:
        self.failed += 1
        if self.failed <= REPORTED_FAILURES:
            print("FAILED: " + "\n  ".join(lines), file=sys.stderr)

    def fingerprints(self) -> dict[str, str]:
        """sha256 over the verdicts and over the outputs, in query-key order."""
        keys = sorted(self.first)
        return {
            "verdicts_sha256": _sha("".join(f"{k}\t{int(self.first[k][0])}\n" for k in keys)),
            "outputs_sha256": _sha("".join(f"{k}\t{self.first[k][1]}\n" for k in keys)),
        }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _Item:
    __slots__ = ("a", "b", "h")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b, self.h = a, b, hash((a, b))

    def __hash__(self) -> int:
        return self.h

    def __eq__(self, other: object) -> bool:
        return self.a == other.a and self.b == other.b


def _yardstick_once() -> int:
    """Fixed allocation-, dict-, set- and sort-heavy work, independent of
    msrplan, with a working set of a few MB like a resilience check's.

    Changing it changes every scaled timing: leave it as it is.
    """
    rows = [(i * 2654435761 % 100003, i % 97, str(i % 1013)) for i in range(6000)]
    table: dict[str, list] = {}
    for row in rows:
        table.setdefault(row[2], []).append(row)
    hits = sum(
        1 for row in rows[::3] for other in table.get(str(row[0] % 1013), ()) if other[1] == row[1]
    )
    rows.sort(key=lambda row: (row[1], row[0]))
    items = [_Item(i % 211, (i * 7) % 307) for i in range(5000)]
    seen = set(items)
    return hits + sum(1 for item in items[::2] if _Item(item.b % 211, item.a) in seen)


def yardstick() -> float:
    """Seconds one yardstick sample takes now."""
    started = time.perf_counter()
    _yardstick_once()
    return time.perf_counter() - started


def run_pass(wl, queries, tally: Tally, *, oracle: bool = False, tracer=None) -> None:
    """Decide each query, time it, certify positives, and check the outputs.

    A query's first pass goes to its oracle or frozen table; later passes
    must reproduce the first pass's verdict and output byte for byte, unless
    ``oracle`` asks for the oracle again.
    """
    from msrplan import EngineError

    def span(name: str, qid: int, fold: bool):
        return tracer.root(name, qid, fold=fold) if tracer else nullcontext()

    perf = time.perf_counter
    for qid, q in enumerate(queries):
        tally.attempted += 1
        try:
            with span("bench.query", qid, False):
                started = perf()
                result = wl.decide(q)
                latency = (started, perf() - started)
            if tracer:
                tracer.end_query()
            problems = []
            positive = wl.verdict(result)
            if positive:
                with span("bench.verify", qid, True):
                    started = perf()
                    problems += wl.certify(q, result)
                    verify = (started, perf() - started)
            output = (positive, _sha(wl.output(result)))
            first = tally.first.setdefault(q.key, output)
            if first is output or oracle:
                with span("bench.oracle", qid, True):
                    problems += wl.check(q, result)
            if first != output:
                problems.append(f"{q.key}: output differs from its first pass")
        except Exception as exc:  # a raising query fails; the run goes on
            tally.errors += isinstance(exc, EngineError)
            tally.fail([f"{q.key}: raised", traceback.format_exc()])
            continue
        finally:
            tally.sample_host(every=REF_INTERVAL)
        if problems:
            tally.fail(problems)
            continue
        tally.latencies.setdefault(q.key, []).append(latency)
        if positive:
            tally.verify.setdefault(q.key, []).append(verify)


def _scaled(timings: dict[str, list[tuple[float, float]]], refs: list) -> list[float]:
    """Each timing scaled to the yardstick's nominal speed; then every query's
    median, once per pass it ran, sorted."""
    starts = [t for t, _ in refs]
    ref_seconds = [d for _, d in refs]
    out = []
    for samples in timings.values():
        scaled = []
        for started, seconds in samples:
            i = bisect.bisect_left(starts, started)
            local = statistics.median(ref_seconds[max(i - REF_WINDOW, 0): i + REF_WINDOW])
            scaled.append(seconds * REF_NOMINAL_S / local)
        out += [statistics.median(scaled)] * len(scaled)
    return sorted(out)


def end_to_end(tally: Tally, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    lat = _scaled(tally.latencies, tally.refs)
    k = max(len(lat) - TAIL_BEYOND - 1, 0)
    metrics = {
        "setup_s": setup[0],
        "verdicts_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * lat[k],
        "verify_p50_ms": 1000 * statistics.median(_scaled(tally.verify, tally.refs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = sorted(d for v in tally.latencies.values() for _, d in v)
    speed = REF_NOMINAL_S / statistics.median(d for _, d in tally.refs)
    notes = [
        f"latency_tail_ms is p{100 * (k + 1) / len(lat):.2f} of {len(lat)} samples"
        f" ({len(tally.latencies)} queries)",
        f"verify_p50_ms over {len(tally.verify)} positive queries",
        f"failed_share {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})",
        f"unscaled: setup_s {setup[1]:.6f}, verdicts_per_s {len(raw) / sum(raw):.6f},"
        f" latency_p50_ms {1000 * statistics.median(raw):.6f}",
        f"host speed {speed:.4f} of nominal ({len(tally.refs)} yardstick samples)",
    ]
    return metrics, notes


def per_layer(tracer, errors: int, overhead: float) -> dict:
    totals = tracer.layer_totals()
    counts = tracer.counts
    metrics = {}
    for metric, _unit in PER_LAYER:
        prefix, _, field = metric.rpartition(".")
        if field in ("calls", "self_s"):
            metrics[metric] = totals.get(prefix, {"calls": 0, "self_s": 0.0})[field]
    fm_calls = metrics["rules.find_matches.calls"]
    ms_calls = metrics["specs.match_spec.calls"]
    metrics.update({
        "rules.find_matches.instances": counts["rules.find_matches.instances"],
        "rules.find_matches.yield": counts["rules.find_matches.nonempty"] / fm_calls if fm_calls else 0.0,
        "specs.match_spec.hit_ratio": counts["specs.match_spec.hits"] / ms_calls if ms_calls else 0.0,
        "resilience.states": counts["resilience.states"],
        "resilience.errors": errors,
        "trace_overhead_ratio": overhead,
    })
    return {metric: metrics[metric] for metric, _ in PER_LAYER}


def run_untraced(name: str, wl, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    setup = measure_setup(name)
    tally = Tally(refs=[])
    tally.sample_host()
    started = time.perf_counter()
    passes = max(MIN_PASSES, round(seconds / wl.pass_seconds))
    for index in range(passes):
        run_pass(wl, wl.make_pass(seed, index), tally)
    notes = [f"{passes} passes, {tally.attempted} queries, {time.perf_counter() - started:.1f}s"]
    if not tally.latencies or not tally.verify:
        return tally, {}, notes
    tally.sample_host()
    metrics, more = end_to_end(tally, setup)
    if name == "qbf-sweep":
        import workloads

        estimate = workloads.CRITERION_1_FORMULAS / metrics["verdicts_per_s"]
        more.append(f"criterion 1 estimate {estimate:.0f}s (29,552 / verdicts_per_s)")
    return tally, metrics, notes + more


def run_traced(name: str, wl, seed: int) -> tuple[Tally, dict, list[str]]:
    import workloads
    from spans import Tracer

    # the first pass records the outputs and warms up; the second is the
    # untraced baseline for trace_overhead_ratio
    queries = wl.make_pass(seed, 0)
    tally = Tally()
    run_pass(wl, queries, tally)
    started = time.perf_counter()
    run_pass(wl, queries, tally, oracle=True)
    plain_wall = time.perf_counter() - started

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("bench.setup", -1, fold=False):
            workloads.parse_sources(name)
        started = time.perf_counter()
        run_pass(wl, queries, tally, oracle=True, tracer=tracer)
        traced_wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, tally.errors, traced_wall / plain_wall)
    stem = OUT / f"{name}-spans"
    tracer.write(stem, {"workload": name, "seed": seed, "queries": len(queries)})
    notes = [
        f"pass 0: {len(queries)} queries, untraced {plain_wall:.2f}s, traced {traced_wall:.2f}s",
        f"{len(tracer.start_col)} spans written to {stem.relative_to(ROOT)}.bin",
    ]
    return tally, metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_engine()
    import workloads

    problems = workloads.table_problems()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    wl = workloads.WORKLOADS[name]
    wl.prepare(workloads.parse_sources(name))
    if trace:
        tally, metrics, notes = run_traced(name, wl, seed)
        units = dict(PER_LAYER)
    else:
        tally, metrics, notes = run_untraced(name, wl, seed, seconds)
        units = dict(END_TO_END)
    for metric, value in metrics.items():
        print(f"{name:12s} {metric:44s} {value:>16.6f} {units[metric]}")
    for line in notes + [f"{k} {v}" for k, v in tally.fingerprints().items()]:
        print(f"{name:12s} {line}")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process of its own, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        for line in done.stdout.splitlines()[:-1]:
            print(line, flush=True)
        status = status or done.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if args.setup_probe:
        print(*setup_probe(args.workload))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
