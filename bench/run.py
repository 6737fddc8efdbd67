"""flucid benchmark: a single-process, single-client closed loop.

One op runs at a time.  Each workload replays rounds of ops generated
from --seed (see inputs.py and WORKLOADS.md); every op's result is
checked against its reference outside the timed region, and a mismatch
aborts the run with exit code 1.

    python3 bench/run.py --workload casework --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all    # every workload, one table each
    python3 bench/run.py --tiny            # every op class once: the self-test

--trace 0 prints the end-to-end metrics, with times at the nominal host
speed of hostspeed.py and also as measured; --trace 1 splits the time
between an untraced and a traced pass over the same rounds and prints
the per-layer metrics, as measured.  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; a copy
of the whole report, with provenance, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

import hostspeed
from inputs import OP_CLASSES, WORKLOADS, Op

# The workloads BENCHMARK.json runs.  A traced run's result line leaves
# out the per-layer metrics that only another workload can move.
LISTED = ("casework", "ingest")
EDUCTION_ONLY = ("semantics.rewrite_to_core_s", "evaluator.depth_failures") \
    + tuple("op.%s.latency_ms_p50" % c for c in OP_CLASSES["eduction"])

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
MIN_OK = 100        # so that ten successful ops lie beyond the p90


@dataclass
class Sample:
    cls: str
    seconds: float
    error: Optional[str]          # exception type name, None when ok
    records: int
    ref: float                    # its round's hostspeed.reference(), or 0

    def at_nominal(self) -> float:
        return hostspeed.at_nominal(self.seconds, self.ref)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_one(op: Op, tracer=None, calibrate: bool = False) -> Sample:
    """Time one op and check its result outside the timed region; when
    calibrating, time a pass of the host's reference loop just before."""
    import ops

    ref = hostspeed.reference() if calibrate else 0.0
    if tracer is not None:
        tracer.op += 1
    error = None
    t0 = time.perf_counter()
    try:
        result = ops.run(op)
    except Exception as exc:    # a failure, not a wrong result
        error = ops.error_type(exc)
    t1 = time.perf_counter()
    if error is None:
        ops.check(op, result)
        if tracer is not None and op.kind == "ingest":
            tracer.counts["encoders.partial_weight_records"] += \
                sum(bad for bad, _t in op.expect[1])
    return Sample(op.cls, t1 - t0, error, op.records, ref)


def measure(rounds: Iterable[List[Op]], seconds: float = 0.0,
            min_ok: int = 0, count: int = 0, tracer=None,
            calibrate: bool = False) -> List[Sample]:
    """Whole rounds: `count` of them, or until about `seconds` of wall
    time have passed and at least `min_ok` ops have succeeded.

    A round is only started when it is expected to end within `seconds`,
    so each run measures whole rounds, and therefore the same op mix.
    """
    samples: List[Sample] = []
    ok = 0
    now = time.perf_counter
    started = now()
    k = 0
    for rnd in rounds:
        done = [run_one(op, tracer, calibrate) for op in rnd]
        del rnd                 # so the next round is built without it
        if calibrate:
            # one pass is too short to sample the host's speed well;
            # every op of a round is scaled by the round's median pass
            ref = statistics.median(s.ref for s in done)
            for s in done:
                s.ref = ref
        samples += done
        ok += sum(s.error is None for s in done)
        k += 1
        elapsed = now() - started
        if k == count or (not count and ok >= min_ok
                          and elapsed + elapsed / k >= seconds):
            break
    return samples


def measure_traced(rounds: Iterable[List[Op]], seconds: float):
    """Each round untraced and then at once traced, so that both passes
    see the same ops under the same machine load; whole rounds until
    about `seconds` have passed."""
    from tracing import Tracer

    tracer = Tracer()
    untraced: List[Sample] = []
    traced: List[Sample] = []
    started = time.perf_counter()
    k = 0
    for rnd in rounds:
        untraced += measure([rnd], count=1)
        tracer.install()
        try:
            traced += measure([rnd], count=1, tracer=tracer)
        finally:
            tracer.uninstall()
        del rnd
        k += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / k >= seconds:
            break
    return untraced, traced, tracer


def _quantile(values: List[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def class_rows(samples: List[Sample]) -> Dict[str, Dict[str, Any]]:
    rows: Dict[str, Dict[str, Any]] = {}
    by_cls: Dict[str, List[Sample]] = defaultdict(list)
    for s in samples:
        by_cls[s.cls].append(s)
    busy = sum(s.seconds for s in samples)
    for cls, group in sorted(by_cls.items()):
        lat = [s.seconds * 1e3 for s in group if s.error is None]
        rows[cls] = {
            "attempted": len(group), "ok": len(lat),
            "failed": len(group) - len(lat),
            "errors": dict(Counter(s.error for s in group if s.error)),
            "time_share": sum(s.seconds for s in group) / busy,
            "latency_ms_p50": _quantile(lat, 50),
            "latency_ms_p90": _quantile(lat, 90),
        }
    return rows


def ops_per_s(samples: List[Sample]) -> float:
    ok = sum(s.error is None for s in samples)
    return ok / sum(s.seconds for s in samples)


def end_to_end(samples: List[Sample], setup: List[List[float]],
               nominal: bool = True) -> Dict[str, Any]:
    """The end-to-end metrics; times at the host's nominal speed, or as
    measured when nominal is false."""
    def op_s(s: Sample) -> float:
        return s.at_nominal() if nominal else s.seconds

    lat = [op_s(s) * 1e3 for s in samples if s.error is None]
    busy = sum(op_s(s) for s in samples)
    return {
        "ops_per_s": (len(lat) / busy, "ops/s"),
        "latency_ms_p50": (_quantile(lat, 50), "ms"),
        "latency_ms_p90": (_quantile(lat, 90), "ms"),
        "records_per_s": (sum(s.records for s in samples
                              if s.error is None) / busy, "records/s"),
        "ok_ratio": (len(lat) / len(samples), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (statistics.median(
            hostspeed.at_nominal(t, ref) if nominal else t
            for t, ref in setup), "s"),
    }


def per_layer(untraced: List[Sample], traced: List[Sample],
              tracer) -> Dict[str, Any]:
    from tracing import layer_totals, root_time_by_op

    n = len(traced)
    t = layer_totals(tracer.spans)
    c = tracer.counts
    busy = sum(s.seconds for s in traced)
    glue = busy - sum(root_time_by_op(tracer.spans).values())
    rows = class_rows(traced)

    def per_op(value: float) -> float:
        return value / n

    m = {
        "encoders.encode_log_s": (per_op(t["encoders.encode_log"]), "s/op"),
        "encoders.self_s": (per_op(t["encoders.encode_log.self"]), "s/op"),
        "encoders.records": (per_op(c["encoders.records"]), "1/op"),
        "encoders.bytes_out": (per_op(c["encoders.bytes_out"]), "B/op"),
        "encoders.partial_weight_records": (
            per_op(c["encoders.partial_weight_records"]), "1/op"),
        "syntax.tokenize_s": (per_op(t["syntax.tokenize"]), "s/op"),
        "syntax.tokens": (per_op(c["syntax.tokens"]), "1/op"),
        "syntax.chars_per_s": (c["syntax.chars"] / t["syntax.tokenize"]
                               if t["syntax.tokenize"] else 0.0, "1/s"),
        "syntax.parse_s": (per_op(t["syntax.parse.self"]), "s/op"),
        "semantics.analyze_s": (per_op(t["semantics.analyze"]), "s/op"),
        "semantics.definitions": (per_op(c["semantics.definitions"]), "1/op"),
        "semantics.rewrite_to_core_s": (
            per_op(t["semantics.rewrite_to_core"]), "s/op"),
        "evaluator.run_s": (per_op(t["evaluator.run"]), "s/op"),
        "evaluator.self_s": (per_op(t["evaluator.run.self"]), "s/op"),
        "evaluator.demands": (per_op(c["evaluator.demands"]), "1/op"),
        "evaluator.warehouse_entries": (
            per_op(c["evaluator.warehouse_entries"]), "1/op"),
        "evaluator.depth_failures": (
            per_op(c["evaluator.depth_failures"]), "1/op"),
        "era.load_fsm_s": (per_op(t["era.load_fsm"]), "s/op"),
        "era.load_es_s": (per_op(t["era.load_es"]), "s/op"),
        "era.check_claim_s": (per_op(t["era.check_claim"]), "s/op"),
        "era.states": (per_op(c["era.states"]), "1/op"),
        "era.backtraces": (per_op(c["era.backtraces"]), "1/op"),
        "era.truncated_claims": (per_op(c["era.truncated_claims"]), "1/op"),
        "era.consistent_ratio": (c["era.consistent"] / c["era.claims"]
                                 if c["era.claims"] else 0.0, "share"),
        "bench.self_s": (per_op(glue), "s/op"),
        "trace.op_s": (per_op(busy), "s/op"),
        "trace.untraced_op_s": (sum(s.seconds for s in untraced)
                                / len(untraced), "s/op"),
        "trace.overhead_ratio": (ops_per_s(untraced) / ops_per_s(traced),
                                 "ratio"),
    }
    for w in WORKLOADS:
        for cls in OP_CLASSES[w]:
            m["op.%s.latency_ms_p50" % cls] = (
                rows[cls]["latency_ms_p50"] if cls in rows else 0.0, "ms")
    return m


# ---------------------------------------------------------------------------
# set-up and provenance
# ---------------------------------------------------------------------------


def setup_probe(workload: str) -> int:
    """Child process: import flucid and run the warm-up op, timed, then
    the median of three passes of the host's reference loop."""
    from inputs import warmup_op

    op = warmup_op(workload)
    t0 = time.perf_counter()
    import ops
    result = ops.run(op)
    elapsed = time.perf_counter() - t0
    ops.check(op, result)
    ref = statistics.median(hostspeed.reference() for _ in range(3))
    print(repr(elapsed), repr(ref))
    return 0


def setup_times(workload: str) -> List[List[float]]:
    """[seconds, reference seconds] of each set-up probe."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload], cwd=str(ROOT), capture_output=True,
            text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        out.append([float(x) for x in proc.stdout.split()[-2:]])
    return out


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(workload: str, seed: int,
               digests: List[str]) -> Dict[str, Any]:
    """digests holds the sha256 of each round the run built; two runs at
    one seed agree on as many of them as both measured."""
    whole = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
    return {"workload": workload, "seed": seed, "rounds": len(digests),
            "inputs_sha256": whole, "round_sha256": digests,
            "python": platform.python_version(), "git_sha": git_sha(),
            "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_report(title: str, rows, metrics) -> None:
    print(title)
    print("  %-20s %6s %6s %6s  %-24s %10s %10s %6s" % (
        "op class", "ops", "ok", "failed", "errors", "p50_ms", "p90_ms",
        "time"))
    for cls, r in rows.items():
        errors = ",".join("%s:%d" % kv for kv in sorted(r["errors"].items()))
        print("  %-20s %6d %6d %6d  %-24s %10.3f %10.3f %5.1f%%" % (
            cls, r["attempted"], r["ok"], r["failed"], errors or "-",
            r["latency_ms_p50"], r["latency_ms_p90"],
            100 * r["time_share"]))
    for name, (value, unit) in metrics.items():
        print("  %-34s %16.6f %s" % (name, value, unit))


def result_line(samples: List[Sample], metrics) -> str:
    """The last line of output; a wrong result never gets this far."""
    return json.dumps({
        "correct": True, "attempted": len(samples),
        "failed": sum(s.error is not None for s in samples),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def write_out(name: str, report: Dict[str, Any], tracer=None) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / (name + ".json")).write_text(json.dumps(report, indent=1))
    if tracer is not None:
        with open(OUT / (name + ".spans.jsonl"), "w") as fh:
            for name_, start, end, parent, op in tracer.spans:
                fh.write(json.dumps([name_, start, end, parent, op]) + "\n")


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> int:
    import inputs
    import ops

    digests: List[str] = []
    rounds = inputs.rounds(workload, seed, digests)
    report: Dict[str, Any] = {}
    tracer = None
    try:
        warm = inputs.warmup_op(workload)
        ops.check(warm, ops.run(warm))
        if not traced:
            setup = setup_times(workload)
            samples = measure(rounds, seconds, MIN_OK, calibrate=True)
            metrics = end_to_end(samples, setup)
            report["setup_s"] = setup
            report["as_measured"] = end_to_end(samples, setup, False)
            report["failed_ratio"] = 1.0 - metrics["ok_ratio"][0]
        else:
            untraced, samples, tracer = measure_traced(rounds, seconds)
            metrics = per_layer(untraced, samples, tracer)
            report["untraced_classes"] = class_rows(untraced)
    except ops.Mismatch as exc:
        print("bench: wrong result, run aborted: %s" % exc, file=sys.stderr)
        return 1
    rows = class_rows(samples)
    report.update(provenance=provenance(workload, seed, digests),
                  classes=rows, metrics=metrics,
                  samples=[[x.cls, x.seconds, x.error, x.records, x.ref]
                           for x in samples])
    p = report["provenance"]
    print_report("%s seed=%d seconds=%g trace=%d | python %s, git %s, "
                 "nproc %s, inputs sha256 %s" % (
                     workload, seed, seconds, traced, p["python"],
                     p["git_sha"][:12], p["nproc"],
                     p["inputs_sha256"][:16]),
                 rows, metrics)
    if not traced:
        print("  %-34s %16.6f %s" % ("failed_ratio", report["failed_ratio"],
                                     "share"))
        print("  times above are at the nominal host speed; as measured:")
        for name in ("ops_per_s", "latency_ms_p50", "latency_ms_p90",
                     "records_per_s", "setup_s"):
            value, unit = report["as_measured"][name]
            print("  %-34s %16.6f %s" % (name, value, unit))
        print("  %-34s %16.6f %s" % (
            "host reference loop, median", statistics.median(
                x.ref for x in samples), "s"))
    else:
        layers = sum(metrics[k][0] for k in (
            "encoders.self_s", "syntax.tokenize_s", "syntax.parse_s",
            "semantics.analyze_s", "semantics.rewrite_to_core_s",
            "evaluator.self_s", "era.load_fsm_s", "era.load_es_s",
            "era.check_claim_s"))
        print("  accounting per op: layer self %.6f s + bench %.6f s = "
              "traced %.6f s; untraced %.6f s; tracing overhead x%.3f" % (
                  layers, metrics["bench.self_s"][0], metrics["trace.op_s"][0],
                  metrics["trace.untraced_op_s"][0],
                  metrics["trace.overhead_ratio"][0]))
    write_out("%s-seed%d-trace%d" % (workload, seed, traced), report, tracer)
    if traced and workload in LISTED:
        metrics = {k: v for k, v in metrics.items() if k not in EDUCTION_ONLY}
    print(result_line(samples, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=str(ROOT),
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        last = json.loads(lines[-1]) if lines[-1].startswith("{") else {}
        merged["correct"] = merged["correct"] and bool(last.get("correct"))
        merged["attempted"] += last.get("attempted", 0)
        merged["failed"] += last.get("failed", 0)
        for k, v in last.get("metrics", {}).items():
            merged["metrics"]["%s.%s" % (workload, k)] = v
    print(json.dumps(merged))
    return code


def run_tiny(workloads) -> int:
    """Every op class once, untraced and then traced, each checked."""
    import inputs
    import ops

    everything: List[Sample] = []
    for workload in workloads:
        try:
            samples, traced, tracer = measure_traced(
                inputs.tiny_rounds(workload), 0)
        except ops.Mismatch as exc:
            print("bench: wrong result: %s" % exc, file=sys.stderr)
            return 1
        if [s.error for s in samples] != [s.error for s in traced]:
            print("bench: tracing changed which ops fail", file=sys.stderr)
            return 1
        metrics = per_layer(samples, traced, tracer)
        print_report("tiny %s: every op class matches its reference"
                     % workload, class_rows(samples), {})
        missing = set(OP_CLASSES[workload]) - {s.cls for s in samples}
        if missing:
            print("bench: op classes never ran: %s" % sorted(missing),
                  file=sys.stderr)
            return 1
        print("  traced: %d spans, %.0f demands, overhead x%.2f" % (
            len(tracer.spans), tracer.counts["evaluator.demands"],
            metrics["trace.overhead_ratio"][0]))
        everything += samples
    print(result_line(everything, {}))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run every op class once and check it")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flucid").is_dir() or \
            not (ROOT / "tests" / "cases").is_dir():
        print("bench: no flucid tree (src/flucid, tests/) at %s" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args.workload)
    if args.tiny:
        return run_tiny(WORKLOADS if args.workload == "all"
                        else (args.workload,))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
