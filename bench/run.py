"""Benchmark gatesynth's `synth` and `verify` calls end to end.

    python3 bench/run.py --workload firm-synth --seed 1 --seconds 30 --trace 0

One process runs one workload, so peak memory and module-level caches
never carry over from another workload. The run sets up its inputs
several times before the operations and once more after each of them,
timing each set-up apart from the operations. It calls the workload's
operation in a closed loop for `--seconds`, checking every output; it
starts no operation that it expects to end past that time.

The host's speed drifts by tens of percent over seconds to minutes, so
with `--trace 0` the two timings, `op_s` and `setup_s`, are given in
seconds at a nominal host speed: a timer samples the host's speed all
through the run with a fixed chunk of pure-Python work (`pace.py`), and
each operation's and set-up's wall time, less the chunks that ran
inside it, is scaled by the nominal over the measured chunk time around
it. Each is the median over the run. Raw wall times are reported beside
them.

The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
measured without any wrapper installed. With `--trace 1` they are the
per-layer ones: operations alternate between untraced and traced, the
traced ones give the per-layer numbers, and the median difference
between each traced operation and the untraced one before it is
reported as the tracing overhead. Spans are written to
`bench/out/` when the run ends. A line before the result gives every
sample and the tail of each timing as supporting data.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

from checkout import ROOT, use_checkout_source
from pace import MARGIN_S

SETUP_REPEATS = 11          # set-ups before the first operation
TAIL_PERCENTILES = (99.9, 99, 90, 50)


def timed(fn):
    """fn() after a full collection, with its start and end times."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return out, t0, time.perf_counter()


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the operations run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="smallest inputs of the workload (self-test)")
    p.add_argument("--plant-wrong-verdict", action="store_true",
                   help="replica-verify only: expect the opposite verdicts, "
                        "so that every operation counts as failed (self-test)")
    args = p.parse_args(argv)
    if args.plant_wrong_verdict and args.workload != "replica-verify":
        p.error("--plant-wrong-verdict applies to replica-verify only")
    return args


def tail(samples):
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return {"percentile": p, "value": cuts[round(p * 10) - 1], "samples": n}
    return {"percentile": None, "value": None, "samples": n}


def set_up(workloads, args, spans, layer_times):
    """Set up the workload's inputs once and return them. Appends its
    (start, end) to `spans` and its (load, parse) times to `layer_times`."""
    extra = {"plant_wrong_verdict": True} if args.plant_wrong_verdict else {}
    prepared, t0, t1 = timed(lambda: workloads.WORKLOADS[args.workload](
        args.seed, args.small, **extra))
    spans.append((t0, t1))
    layer_times.append((prepared.load_s, prepared.parse_s))
    return prepared


def main(argv=None) -> int:
    use_checkout_source()
    import layers
    import workloads
    from pace import Pace
    from spans import Tracer

    args = parse_args(argv, workloads.WORKLOADS)
    # The end-to-end run samples the host's speed; the traced run does not,
    # so that its spans hold only gatesynth's work.
    pace = None if args.trace else Pace()
    tracer = Tracer()
    probe = layers.Probe(tracer) if args.trace else None
    setup_spans, layer_times = [], []
    op_spans, traced, per_op = [], [], []
    attempted = failed = 0
    if pace is not None:
        pace.start()
    try:
        for _ in range(SETUP_REPEATS):
            prepared = set_up(workloads, args, setup_spans, layer_times)
        t_start = time.perf_counter()
        i = 0
        while True:
            op = prepared.next_op()
            with_trace = probe is not None and i % 2 == 1
            gc.collect()
            if with_trace:
                tracer.op = i
                first_span = len(tracer.spans)
                probe.install()
            t0 = time.perf_counter()
            try:
                out = (tracer.call("app." + op.kind, op.call) if with_trace
                       else op.call())
            except Exception:
                out = None
                error = "raised:\n" + traceback.format_exc()
            finally:
                t1 = time.perf_counter()
                if with_trace:
                    probe.remove()
            if with_trace:
                traced.append(t1 - t0)
            else:
                op_spans.append((t0, t1))
            if out is not None:
                try:
                    error = op.check(out)
                except Exception:
                    error = "check raised:\n" + traceback.format_exc()
            attempted += 1
            if error is not None:
                failed += 1
                print("operation %d failed: %s" % (i, error), file=sys.stderr)
            if with_trace:
                metrics = layers.op_metrics(tracer.spans[first_span:])
                config = getattr(out, "configuration", None)
                metrics["app.policy_atoms"] = (workloads.policy_atoms(config)
                                               if config is not None else 0)
                per_op.append(metrics)
            set_up(workloads, args, setup_spans, layer_times)
            i += 1
            # Stop before an operation that would end past the run's time.
            typical = statistics.median([b - a for a, b in op_spans] + traced)
            if (time.perf_counter() - t_start + typical > args.seconds
                    and (probe is None or traced)):
                break
        if pace is not None:
            time.sleep(2 * MARGIN_S)     # samples after the last set-up
    finally:
        if pace is not None:
            pace.stop()

    plain = [b - a for a, b in op_spans]
    setup_wall = [b - a for a, b in setup_spans]
    samples = {"op_wall_s": plain, "traced_op_wall_s": traced,
               "setup_wall_s": setup_wall}
    if pace is not None:
        samples["op_s"] = [pace.seconds(a, b) for a, b in op_spans]
        samples["setup_s"] = [pace.seconds(a, b) for a, b in setup_spans]
        values = {
            "op_s": statistics.median(samples["op_s"]),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ops": (attempted - failed) / attempted,
        }
    else:
        load_times, parse_times = zip(*layer_times)
        values = {name: statistics.median(m[name] for m in per_op)
                  for name in per_op[0]}
        values["rules.parse_s"] = statistics.median(parse_times)
        values["rules.numeric_values"] = workloads.numeric_values(prepared.reqs,
                                                                  prepared.sig)
        values["model.load_s"] = statistics.median(load_times)
        # Each traced operation against the untraced one just before it.
        values["trace.overhead_s"] = statistics.median(
            t - p for p, t in zip(plain, traced))
        out_dir = os.path.join(ROOT, "bench", "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, "spans-%s-seed%d.jsonl"
                                 % (args.workload, args.seed)))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if probe else "end_to_end"]

    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": samples,
        "tails": {name: tail(xs) for name, xs in samples.items() if xs},
        "pace_chunks": {"count": len(pace.times),
                        "median_s": statistics.median(pace.times)} if pace else None,
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
