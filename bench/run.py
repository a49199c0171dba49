"""braidbands benchmark: one closed-loop caller in one thread.

Usage (from the repository root):

    python3 bench/run.py --workload closures_long --seed 1 --seconds 36 --trace 0

The seed fixes the generated inputs.  The timed loop cycles through the
corpus, so each input is called once per pass.  Every call and every set-up
is timed next to a fixed kernel and scaled to a reference machine speed
(see ``speed.py``); an input's latency is the mean of its calls' scaled
times.  ``--trace 0`` measures the end-to-end metrics: latency p50 and p90
over the inputs, operations per second of summed input latency, set-up time
(median over fresh interpreters, each importing the package and parsing
every input, run at evenly spaced moments of the loop; see
``setup_time.py``), and peak RSS of the measuring process.  The report line
gives the same times unscaled.
``--trace 1`` wraps every layer's public functions from outside the package
and reports per-layer times and counts instead, plus the tracing overhead
measured by replaying the same operations with and without tracing; the spans
are written to ``bench/traces/<workload>.csv``.  Laurent operations are
counted, not timed, in an untimed replay of the first LAURENT_SAMPLE inputs.

Every answer is checked after the timed loop; a wrong answer exits 1.  A
loud refusal (``StarError`` or ``PipelineError``) is a failed operation,
not a wrong answer.  The corpora hold no input the library refuses: the star
workload counts the refusals it meets while drawing its corpus and leaves
those inputs out (see ``workloads.py``).  The last stdout line is the JSON
result; the line before it is a report with sample and call counts, refusal
reasons, input shape and, when tracing, layer shares.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = "braidbands"
SETUP_REPEATS = 9  # fresh-interpreter set-ups per run; setup_s is their median
OVERHEAD_SHARE = 0.2  # budget of the overhead replay, as a share of --seconds
OVERHEAD_CHUNK_S = 0.2  # traced seconds per replayed chunk
LAURENT_SAMPLE = 8  # corpus inputs replayed to count Laurent operations per operation

# Refusal reasons reported as their own per-layer counters; others are "other".
REASONS = {
    "no embedded landing": "no_embedded_landing",
    "ray arcs cross": "ray_arcs_cross",
    "no innermost ray": "no_innermost_ray",
}

# Layers with spans; Laurent arithmetic is timed inside its callers (see tracing).
SPAN_LAYERS = tuple(layer for layer in tracing.LAYERS if layer != "laurent")

PER_LAYER_SPANS = {
    # metric prefix: span names summed
    "invariants.fox": ("invariants.fox",),
    "invariants.burau": ("invariants.burau",),
    "invariants.burau_reduced": ("invariants.burau_reduced",),
    "invariants.determinant": ("invariants.determinant",),
    "diagrams.analyze": ("diagrams.analyze",),
    "diagrams.subdiagram": ("diagrams.subdiagram",),
    "diagrams.is_homogeneous_diagram": ("diagrams.is_homogeneous_diagram",),
    "pipeline.decompose": ("pipeline.decompose",),
    "pipeline.braided_realization": ("pipeline.braided_realization",),
    "pipeline.realizations": ("pipeline.realizations",),
    "plumbing.plumb": ("plumbing.plumb",),
    "surfaces.word_moves": ("surfaces.word_twirl", "surfaces.word_turn"),
    "stars.minimize": ("stars.minimize",),
    "stars.reduce_step": ("stars.reduce_step",),
    "words.braids_equal": ("words.braids_equal",),
    "words.handle_reduce": ("words.handle_reduce",),
    "words.bkl_to_artin": ("words.bkl_to_artin",),
}


def import_library() -> SimpleNamespace:
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in tracing.LAYERS}
    return SimpleNamespace(**mods)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def reason_key(message: str) -> str:
    for text, key in REASONS.items():
        if text in message:
            return key
    return "other"


def loop(workload, lib, inputs, seconds, refusals, tracer=None, between=()):
    """Closed loop over the inputs in order, cycling, for ``seconds``.

    ``between`` holds callables run between two operations at evenly spaced
    moments of the loop; the time they take does not count towards
    ``seconds``.  Returns (outcomes, first, mismatch).  An outcome is
    (input index, refusal or None, start, end, kernel seconds just before).
    ``first`` maps each input
    index to the (answer, refusal) of its first call; ``mismatch`` is the
    first input whose later call disagreed with its first, or None.
    """
    clock = time.perf_counter
    outcomes = []
    first = {}
    mismatch = None
    start = clock()
    paused = 0.0
    done = 0  # callables of ``between`` run so far
    k = 0
    while True:
        if done < len(between) and clock() - paused - start >= seconds * done / len(between):
            t0 = clock()
            between[done]()
            paused += clock() - t0
            done += 1
            continue
        index = k % len(inputs)
        if tracer is not None:
            tracer.op = k
        kernel = speed.sample()
        t0 = clock()
        try:
            result = workload.run(lib, inputs[index])
            refusal = None
        except refusals as exc:
            result, refusal = None, re.sub(r"\d+", "N", str(exc))
        t1 = clock()
        outcomes.append((index, refusal, t0, t1, kernel))
        seen = (None if refusal else workload.answer(result), refusal)
        if index not in first:
            first[index] = seen
        elif first[index] != seen and mismatch is None:
            mismatch = index
        k += 1
        if t1 - paused - start >= seconds:
            for call in between[done:]:
                call()
            return outcomes, first, mismatch


def time_ops(workload, lib, items, refusals) -> float:
    """Summed latency of one call per item."""
    clock = time.perf_counter
    total = 0.0
    for item in items:
        t0 = clock()
        try:
            workload.run(lib, item)
        except refusals:
            pass
        total += clock() - t0
    return total


def tracing_overhead(workload, lib, inputs, outcomes, refusals, budget) -> float:
    """Untraced over traced time of the same operations (traced ÷ untraced ops/s).

    The traced run's operations are replayed in short chunks, each run once
    untraced and once under a fresh tracer, back to back and in alternating
    order, so a slow spell of a shared machine hits both sides of a pair.
    """
    clock = time.perf_counter
    plain = traced = 0.0
    deadline = clock() + budget
    k = pairs = 0
    while k < len(outcomes) and clock() < deadline:
        chunk, spent = [], 0.0
        while k < len(outcomes) and spent < OVERHEAD_CHUNK_S:
            index, _refusal, t0, t1, _kernel = outcomes[k]
            chunk.append(inputs[index])
            spent += t1 - t0
            k += 1
        pairs += 1
        for with_trace in (True, False) if pairs % 2 else (False, True):
            if with_trace:
                undo = tracing.install(tracing.Tracer(), vars(lib))
                try:
                    traced += time_ops(workload, lib, chunk, refusals)
                finally:
                    tracing.uninstall(undo)
            else:
                plain += time_ops(workload, lib, chunk, refusals)
    return plain / traced


def check(workload, cases, first, mismatch, seed):
    """Check each distinct input's first answer; repeats had to agree with it."""
    if mismatch is not None:
        return f"input {mismatch}: repeated call gave a different result"
    rng = random.Random(seed)
    for index, (answer, refusal) in sorted(first.items()):
        if refusal is None:
            error = workload.check(cases[index][1], answer, rng)
            if error:
                return f"input {index}: {error}"
    return None


def timing(outcomes):
    """Per-input latencies, scaled to the reference speed and raw.

    A call's scaled time is its time times REFERENCE_S over the median
    kernel time of that call and its two neighbours; an input's latency is
    the mean over its calls.  Returns (scaled, raw), each a tuple of
    operations per second (inputs per second of their summed latencies),
    p50, p90 and the sorted latencies.
    """
    kernels = [o[4] for o in outcomes]
    calls = {}
    for i, (index, refusal, t0, t1, _kernel) in enumerate(outcomes):
        if refusal is None:
            local = statistics.median(kernels[max(0, i - 1) : i + 2])
            calls.setdefault(index, []).append((t1 - t0, (t1 - t0) * speed.REFERENCE_S / local))

    def summary(column):
        latencies = sorted(statistics.fmean(c[column] for c in cs) for cs in calls.values())
        return len(latencies) / sum(latencies), percentile(latencies, 0.5), percentile(latencies, 0.9), latencies

    return summary(1), summary(0)


def count_laurent_ops(workload, lib, inputs, refusals) -> float:
    """Laurent operations per operation over the first LAURENT_SAMPLE inputs (not timed)."""
    sample = inputs[:LAURENT_SAMPLE]
    counter = tracing.LaurentCounter()
    undo = tracing.count_laurent(counter, lib.laurent.Laurent)
    try:
        for item in sample:
            try:
                workload.run(lib, item)
            except refusals:
                pass
    finally:
        tracing.uninstall(undo)
    return counter.ops / len(sample)


def layer_metrics(tracer, op_wall, overhead, laurent_ops, refusal_counts, parse_times):
    """Per-layer metrics of a traced run; ``refusal_counts`` are the draw's."""
    def total(names, table):
        return sum(table[tracer.name_id(n)] for n in names)

    m = {}
    for prefix, names in PER_LAYER_SPANS.items():
        m[f"{prefix}.s"] = (total(names, tracer.inclusive), "s")
        m[f"{prefix}.calls"] = (total(names, tracer.calls), "count")
    m["pipeline.homogenize.self_s"] = (total(("pipeline.homogenize",), tracer.self_time), "s")
    for layer in SPAN_LAYERS:
        own = [n for n in tracer.names if n.startswith(layer + ".")]
        m[f"{layer}.self_s"] = (total(own, tracer.self_time), "s")
    m["laurent.ops_per_op"] = (laurent_ops, "count")
    for key in (
        "invariants.fox.dim_max",
        "invariants.determinant.dim_sum",
        "words.handle_reduce.in_letters",
        "words.handle_reduce.out_letters",
        "stars.crossings_removed",
        "pipeline.realizations.candidates",
    ):
        m[key] = (tracer.counters.get(key, 0), "count")
    candidates = tracer.counters.get("pipeline.realizations.candidates", 0)
    accepted = tracer.counters.get("pipeline.realizations.accepted", 0)
    m["pipeline.gate.accept_ratio"] = (accepted / candidates if candidates else 0.0, "ratio")
    m["stars.refusals"] = (sum(refusal_counts.values()), "count")
    for key in list(REASONS.values()) + ["other"]:
        m[f"stars.refusals.{key}"] = (refusal_counts.get(key, 0), "count")
    for name, seconds in parse_times.items():
        m[f"{name}.s"] = (seconds, "s")
    for side in ("fox", "burau"):
        m[f"invariants.{side}.share"] = (m[f"invariants.{side}.s"][0] / op_wall, "ratio")
    m["trace.coverage"] = (sum(tracer.self_time) / op_wall, "ratio")
    m["trace.root_self_share"] = (tracer.root_self / op_wall, "ratio")
    m["trace.overhead"] = (overhead, "ratio")
    m["trace.op_wall_s"] = (op_wall, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    lib = import_library()
    refused = Counter()
    cases = workload.generate(lib, random.Random(args.seed), refused)
    inputs = [workload.parse(lib, text) for text, _ref in cases]
    refusals = (lib.stars.StarError, lib.pipeline.PipelineError)

    # Each set-up sample runs in a fresh interpreter, so that it pays the
    # imports of the package's standard-library dependencies too and leaves
    # no copies of the package behind to inflate this process's RSS.  The
    # samples are spread over the timed loop, so that one slow spell of a
    # shared machine cannot reach their median.
    request = json.dumps({"workload": args.workload, "texts": [text for text, _ref in cases]})
    setup = []

    def setup_sample():
        probe = subprocess.run(
            [sys.executable, str(BENCH / "setup_time.py")],
            input=request, capture_output=True, text=True, check=True, timeout=60,
        )
        setup.append(json.loads(probe.stdout))

    tracer = None
    between = [setup_sample] * SETUP_REPEATS
    if args.trace:
        between = []
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, vars(lib))
        for text, _ref in cases:
            workload.parse(lib, text)
        parse_names = ("diagrams.from_json", "surfaces.from_json", "stars.from_json", "words.parse_word")
        parse_times = {n: tracer.inclusive[tracer.name_id(n)] for n in parse_names}
        tracer.reset()
    outcomes, first, mismatch = loop(workload, lib, inputs, args.seconds, refusals, tracer, between)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    overhead = None
    if tracer is not None:
        tracing.uninstall(undo)
        overhead = tracing_overhead(workload, lib, inputs, outcomes, refusals, args.seconds * OVERHEAD_SHARE)
        laurent_ops = count_laurent_ops(workload, lib, inputs, refusals)

    error = check(workload, cases, first, mismatch, args.seed)
    reasons = Counter(o[1] for o in outcomes if o[1] is not None)
    failed = sum(reasons.values())
    refusal_counts = Counter()
    for message, n in refused.items():
        refusal_counts[reason_key(message)] += n
    (ops_per_s, p50, p90, latencies), raw = timing(outcomes)
    calls = Counter(Counter(o[0] for o in outcomes).values())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": workload.why,
        "loop": "closed, 1 caller, 1 thread",
        "samples": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "calls": len(outcomes),
        "calls_per_input": dict(sorted(calls.items())),
        "kernel_ms": {
            "reference": speed.REFERENCE_S * 1000,
            "median": statistics.median(o[4] for o in outcomes) * 1000,
        },
        "corpus": len(cases),
        "failed_ratio": failed / len(outcomes),
        "refusals": dict(reasons),
        "refused_at_draw": dict(Counter(re.sub(r"\d+", "N", m) for m in refused.elements())),
        "input_shape": workload.shape([cases[i] for i in sorted(first)]),
    }
    if tracer is None:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (p50 * 1000, "ms"),
            "latency_p90_ms": (p90 * 1000, "ms"),
            "setup_s": (statistics.median(x["scaled"] for x in setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        report["unscaled"] = {
            "ops_per_s": raw[0],
            "latency_p50_ms": raw[1] * 1000,
            "latency_p90_ms": raw[2] * 1000,
            "setup_s": statistics.median(x["raw"] for x in setup),
        }
        report["setup_samples_s"] = setup
    else:
        op_wall = sum(o[3] - o[2] for o in outcomes)
        metrics = layer_metrics(tracer, op_wall, overhead, laurent_ops, refusal_counts, parse_times)
        traces = BENCH / "traces"
        traces.mkdir(exist_ok=True)
        tracer.write(traces / f"{args.workload}.csv")
        report["layer_self_share"] = {
            layer: round(metrics[f"{layer}.self_s"][0] / op_wall, 4) for layer in SPAN_LAYERS
        }
        report["predicted_share"] = {
            name: {"predicted": share, "measured": round(metrics[f"{name}.s"][0] / op_wall, 4)}
            for name, share in workload.predicted.items()
        }
    if error:
        report["error"] = error
        print(error, file=sys.stderr)
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": error is None,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
