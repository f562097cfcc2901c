"""Run one workload of the benchmark and print its metrics.

Usage::

    python3 perfbench/run.py --workload campaign --seed 42 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``campaign`` -- a seeded, fixed-work Tier-B scenario campaign through
  ``repro.api.run_scenarios``, then a brownout fault campaign through
  ``repro.api.run_campaign``; one round is both, repeated.
* ``characterize`` -- the paper's Table IV, cold, every round with a
  fresh trace cache.  Its inputs are fixed: the seed changes nothing.
* ``service`` -- ``repro serve`` in its own process under a closed loop
  of two connections sending a seeded, skewed query stream.

Every workload runs in a fresh process (``worker.py``), single-process
with ``jobs=1``.  Set-up runs several times in fresh processes and
``setup_s`` is their median.  Timings are reported at a reference host
speed read by an idle ruler (``contention.py``); the raw timings are
printed next to them.  With ``--trace 0`` the last line of
output is a JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a traced run instead, plus the
tracing overhead and the layer-sum check.  Both check the workload's
outputs and exit non-zero when a check fails.  BLAS and OpenMP thread
settings are recorded as found and never changed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("campaign", "characterize", "service")
#: Extra set-up-only processes per measured run (``setup_s`` is the
#: median over these and the measured run's own set-up).
SETUP_PROBES = {"campaign": 4, "characterize": 4, "service": 2}
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
DEFAULT_SEED = 42
HELD_OUT_SEED = 7
#: Time allowed for the whole run, set-up probes included.
RUN_BUDGET_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(RuntimeError):
    """A benchmark process exited abnormally or printed no result."""


def run_record(args) -> dict:
    """What this run measured on: seeds, versions, machine state."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def spawn(args, out_dir: Path, setup_only: bool, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh process and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    launched = time.monotonic()
    # A session of its own, so a timeout also stops a server it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=str(ROOT), start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed("benchmark process ran out of time")
    results = [line for line in stdout.splitlines()
               if line.startswith("RESULT ")]
    if proc.returncode != 0 or not results:
        raise WorkerFailed(
            f"benchmark process exited with {proc.returncode}:\n"
            + "\n".join(stderr.strip().splitlines()[-15:]))
    result = json.loads(results[-1][len("RESULT "):])
    result["setup_s"] = result["ready_at"] - launched
    return result


def pinned_digest(workload: str, seed: int):
    """The expected output digest for this workload and seed, if pinned."""
    expected = json.loads((HERE / "expected.json").read_text())[workload]
    return expected.get(str(seed), expected.get("any"))


def finite(value: float) -> float:
    """A JSON-safe number: a failed operation's latency reads as 1e9."""
    return value if math.isfinite(value) else 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    record = run_record(args)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES[args.workload]):
                setups.append(spawn(args, out_dir, True, deadline))
        result = spawn(args, out_dir, False, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result)

    failed = result["failed"]
    lines = list(result["lines"])
    expected = pinned_digest(args.workload, args.seed)
    if expected is None:
        lines.append(f"pinned    : no pinned digest for seed {args.seed}")
    elif result["digest"] == expected:
        lines.append("pinned    : output digest matches the pinned digest")
    else:
        failed += 1
        lines.append(f"pinned    : MISMATCH, expected {expected}")
    if args.workload == "characterize":
        lines.append("seed      : this workload's inputs do not depend on "
                     "the seed")

    if args.trace:
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name]}
                   for name, value in result["per_layer"].items()}
    else:
        times = [p["setup_s"] for p in setups]
        setup_s = statistics.median(times) * result["scale"]
        values = dict(result["metrics"], setup_s=setup_s)
        metrics = {name: {"value": finite(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        lines.append(f"setup_s   : median of {len(setups)} fresh-process "
                     f"set-ups at the reference speed; raw "
                     f"{[round(t, 3) for t in times]} s")
    attempted = result["attempted"]
    print(f"run       : {json.dumps(record, sort_keys=True)}")
    print(f"sizes     : {json.dumps(result['sizes'], sort_keys=True)}")
    for line in lines:
        print(line)
    print(f"error_rate: {failed / max(attempted, 1):.6f} "
          f"({failed} failed of {attempted} attempted)")
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
