"""One fresh benchmark process: set up, run the timed phase, check.

``run.py`` starts this file once per set-up probe (``--setup-only``)
and once for the measured run.  It prints its findings as one JSON
object on the last line of standard output, prefixed by ``RESULT``.
The set-up clock starts when ``run.py`` launches the process and stops
at ``ready_at``, just before the first timed operation, so set-up time
covers interpreter start, imports, input generation and the warm-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

MIN_ROUNDS = 3


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; ``inf`` samples are failed operations."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[rank]


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rounds(workload, seconds: float, timer=None, log=None,
                 ruler=None, min_rounds=MIN_ROUNDS):
    """Run rounds until the next one would end past ``seconds``.

    Returns one dict per round: its host time ``wall``, its result
    ``digest`` and the host time of each call ``timer`` timed, ``ops``.
    ``ruler`` is read before the first round and after every round.
    """
    rounds = []
    start = perf_counter()
    while True:
        if ruler is not None:
            ruler.read()
        first = len(timer.samples) if timer is not None else 0
        if log is not None:
            record = log.begin("bench.round", rid=f"round{len(rounds)}")
        began = perf_counter()
        digest = workload.run_round()
        ended = perf_counter()
        if log is not None:
            log.end(record)
        rounds.append({"wall": ended - began, "digest": digest,
                       "ops": timer.samples[first:] if timer else []})
        if (len(rounds) >= min_rounds and ended - start
                + statistics.median(r["wall"] for r in rounds) > seconds):
            if ruler is not None:
                ruler.read()
            return rounds


def best_of_rounds(rounds):
    """A round's host time with each of its parts at its fastest.

    A co-tenant on the shared physical core slows whole stretches of a
    run, seconds at a time, by up to ~1.5x.  Every round runs the same
    operations in the same order, so each operation's fastest run over
    the rounds is its time on the quiet host.  Returns those times and
    their sum plus the fastest remainder (the round's time outside its
    operations: planning, pricing, collation, reports).
    """
    ops = [min(times) for times in zip(*(r["ops"] for r in rounds),
                                       strict=True)]
    rest = min(r["wall"] - sum(r["ops"]) for r in rounds)
    return ops, sum(ops) + rest


#: The operation whose latency each batch workload reports: a campaign
#: is mission-bound, a characterization solve-bound.
LATENCY_OP = {"campaign": "mission job", "characterize": "kernel solve"}


def time_operations(workload: str):
    """An :class:`OpTimer` on the workload's mission jobs and kernel solves."""
    import repro.engine.executor as executor
    from tracing import OpTimer

    timer = OpTimer()
    if workload == "campaign":
        from repro.closedloop.runner import FlappingWingRunner, StriderRunner

        timer.time(FlappingWingRunner, "run", "mission job")
        timer.time(StriderRunner, "run", "mission job")
    timer.time(executor, "solve_profile", "kernel solve")
    return timer


def run_batch(args, out: dict) -> None:
    """The ``campaign`` and ``characterize`` workloads."""
    import workloads
    from tracing import (
        END,
        NAME,
        START,
        Instrumentation,
        SpanLog,
        layer_metrics,
        layer_summary,
    )

    cls = {"campaign": workloads.Campaign,
           "characterize": workloads.Characterize}[args.workload]
    log = inst = None
    if args.trace:
        log = SpanLog()
        inst = Instrumentation(log)
        package_of = workloads.package_of_kernels()
        inst.install_batch_layers(package_of)
    workload = cls(args.seed)
    if inst is not None:
        inst.remove()
    out["ready_at"] = time.monotonic()
    out["sizes"] = workload.sizes
    if args.setup_only:
        return

    if not args.trace:
        from contention import Ruler

        ruler = Ruler()
        timer = time_operations(args.workload)
        try:
            rounds = timed_rounds(workload, args.seconds, timer, ruler=ruler)
        finally:
            timer.remove()
            ruler.close()
    else:
        # Untraced rounds first, then traced rounds: the difference is
        # the tracing overhead.
        plain = timed_rounds(workload, args.seconds / 2, min_rounds=2)
        generate_s = sum(s[END] - s[START] for s in log.spans
                         if s[NAME] == "scenarios.generate")
        log.counts.clear()
        inst.install_batch_layers(package_of)
        traced = timed_rounds(workload, args.seconds / 2, log=log,
                              min_rounds=2)
        inst.remove()
        rounds = plain + traced

    digests = [r["digest"] for r in rounds]
    ops = workload.ops_per_round
    failed = sum(ops for d in digests if d != digests[0])
    gate_attempted, gate_failed, lines = workload.gate()
    out["attempted"] = len(rounds) * ops + gate_attempted
    out["failed"] = failed + gate_failed
    out["digest"] = digests[0]
    out["lines"] = lines + [
        f"rounds    : {len(digests)} at {ops} operations "
        f"each, report digests identical: {len(set(digests)) == 1}",
        f"digest    : {digests[0]}",
    ]
    if args.trace:
        roots = [s for s in log.spans if s[NAME] == "bench.round"]
        summary = layer_summary(log.spans, roots)
        out["per_layer"] = layer_metrics(
            summary, log.counts, len(traced),
            min(r["wall"] for r in traced), min(r["wall"] for r in plain),
            generate_s=generate_s)
        trace_path = Path(args.out_dir) / f"trace-{args.workload}-{args.seed}.json"
        log.write(trace_path)
        out["lines"] += [
            f"trace     : fastest round untraced "
            f"{[round(r['wall'], 3) for r in plain]}, traced "
            f"{[round(r['wall'], 3) for r in traced]} s",
            f"spans     : {len(log.spans)} written to "
            f"{trace_path.relative_to(HERE.parent)}",
        ]
        return
    op_times, raw_wall = best_of_rounds(rounds)
    out["scale"] = scale = ruler.scale()
    wall = raw_wall * scale
    op = LATENCY_OP[args.workload]
    labels = timer.labels[:len(op_times)]
    latencies = [t * 1e3 * scale
                 for t, label in zip(op_times, labels) if label == op]
    out["metrics"] = {
        "wall_s": wall,
        "qps": workload.throughput_ops / wall,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p99_ms": percentile(latencies, 0.99),
        "peak_rss_mb": peak_rss_mb(),
    }
    walls = [r["wall"] for r in rounds]
    out["lines"] += [
        f"wall_s    : one round at the fixed input size, each of its "
        f"{len(op_times)} operations at its fastest over {len(rounds)} "
        f"rounds, plus the fastest remainder, at the reference host speed",
        f"raw       : that round {raw_wall:.4f} s on this host; rounds "
        f"{[round(w, 3) for w in walls]} s; ruler floor "
        f"{ruler.floor() * 1e3:.4f} ms over {len(ruler.samples)} idle "
        f"readings, scale {scale:.4f}",
        f"latency   : per {op}, its fastest over the rounds, at the "
        f"reference speed; percentiles over {len(latencies)} {op}s",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    out = {"attempted": 0, "failed": 0, "lines": []}
    if args.workload == "service":
        import service_load

        service_load.run(args, out)
    else:
        run_batch(args, out)
    print("RESULT " + json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
