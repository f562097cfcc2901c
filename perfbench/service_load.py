"""The ``service`` workload: ``repro serve`` under a closed loop.

The server runs in its own process, as users run it: one shard, an L1
answer cache smaller than the cell universe, and a spill directory for
L2.  This process is the one load generator.  It drives a closed loop
of :data:`CONNECTIONS` connections, each sending its next query only
after the previous reply arrived.  Each connection sends its own
seeded order of a Zipf-skewed set of ``characterize`` queries over
kernels x cores x C/NC, so answers come from L1, from L2 after an
eviction, and
from L3 re-pricing the first time a cell is asked for.  The loop runs
in blocks of :data:`BLOCK` queries: in every block each connection
replays its sequence, so blocks differ only in the host's speed and
in the cache state the first blocks warm up.  Every few blocks, with no
query in flight, the ruler (``contention.py``) reads the host's speed.

Set-up computes every cell's answer directly through
``repro.api.query`` under the server's harness config, starts the
server, and sends one query per kernel so the server solves its kernel
profiles before timing starts.  After the timed phase every distinct
reply must equal its direct answer byte for byte.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from contention import Ruler
from repro import api
from repro.backends import characterization_archs
from tracing import SERVICE_MARK, layer_metrics
from worker import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

KERNELS = ("mahony", "madgwick", "fourati", "p3p", "up2p", "fly-lqr",
           "bee-geom", "bee-smac")
CACHES = ("C", "NC")
#: L1 answer-cache entries: half the 96-cell universe.
CAPACITY = 48
CONNECTIONS = 2
#: Queries per timed block, split evenly over the connections.
BLOCK = 500
#: Share of the blocks, fastest first, the end-to-end metrics read.
FAST_SHARE = 0.2
#: Queries per unit of the per-layer metrics.
LAYER_UNIT = 1000
#: Blocks between two ruler readings (``contention.py``).
RULER_EVERY = 16
ZIPF_EXPONENT = 1.0
SOCKET_TIMEOUT_S = 10.0
SERVER_FLAGS = ("--shards", "1", "--capacity", str(CAPACITY),
                "--reps", "3", "--warmup", "1", "--max-inflight", "64")


def fastest_blocks(blocks) -> list:
    """The fastest :data:`FAST_SHARE` of the blocks (at least one).

    A co-tenant on the shared physical core slows whole stretches of a
    run, seconds at a time, by up to ~1.5x.  Every block sends the same
    queries, so the fastest blocks are those that ran on the quiet host.
    """
    ordered = sorted(blocks, key=lambda b: b["wall"])
    return ordered[:max(1, round(len(ordered) * FAST_SHARE))]


def zipf_counts(queries: int, cells: int) -> np.ndarray:
    """Queries per popularity rank: the Zipf shares of ``queries``.

    Rounded by largest remainder, so every seed's sequence has the same
    skew; the seed picks which cell holds each rank and the order.
    """
    weights = 1.0 / np.arange(1, cells + 1) ** ZIPF_EXPONENT
    exact = queries * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    short = queries - int(counts.sum())
    counts[np.argsort(counts - exact, kind="stable")[:short]] += 1
    return counts


def canonical(payload: dict) -> str:
    """Canonical JSON of one answer payload, envelope fields removed."""
    body = {k: v for k, v in payload.items() if k not in ("v", "ok")}
    return json.dumps(body, sort_keys=True)


def counters(before: dict, after: dict) -> dict:
    """The server's own counters over a window: two ``stats`` replies apart."""
    def flat(stats):
        cache = stats["cache"]
        return {
            "service.l1_hits": cache["hits"],
            "service.l2_hits": cache["l2"]["hits"],
            # L1 misses that L2 missed too: answered by a solve.
            "service.misses": cache["l2"]["misses"],
            "service.l2_spills": cache["l2"]["puts"],
            "service.shed": stats["shed"],
            "service.batches": stats["batches"],
        }
    first, last = flat(before), flat(after)
    return {key: last[key] - first[key] for key in first}


class Server:
    """One ``repro serve`` process; traced runs go through ``serve.py``."""

    def __init__(self, out_dir: Path, tag: str, traced: bool, seed: int):
        self.spill_dir = out_dir / f"spill-{tag}-{os.getpid()}"
        self.summary_path = out_dir / f"server-{tag}-{os.getpid()}.json"
        flags = [*SERVER_FLAGS, "--port", "0",
                 "--spill-dir", str(self.spill_dir)]
        if traced:
            cmd = [sys.executable, str(HERE / "serve.py"),
                   "--summary", str(self.summary_path),
                   "--spans", str(out_dir / f"trace-service-{seed}.json"),
                   "--", *flags]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *flags]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self.log_path = out_dir / f"server-{tag}-{os.getpid()}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=env, cwd=str(ROOT))
        lines: "queue.Queue" = queue.Queue()
        threading.Thread(target=self._pump, args=(lines,), daemon=True).start()
        deadline = time.monotonic() + 60.0
        self.port = None
        while self.port is None:
            try:
                line = lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                self.stop()
                raise RuntimeError("server did not start within 60 s")
            if line is None:
                self.stop()
                raise RuntimeError(f"server exited; see {self.log_path}")
            if line.startswith("serving"):
                self.port = int(line.split(":")[2].split()[0])

    def _pump(self, lines) -> None:
        for line in self.proc.stdout:
            lines.put(line)
        lines.put(None)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (VmHWM), in MB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Ctrl-C the server, as a user would, and wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        if self.proc.returncode == 0 and not self.log_path.stat().st_size:
            self.log_path.unlink()
        if self.spill_dir.is_dir():
            for entry in self.spill_dir.iterdir():
                entry.unlink()
            self.spill_dir.rmdir()


class Connection:
    """A blocking JSONL connection to the server."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=SOCKET_TIMEOUT_S)
        self.rfile = self.sock.makefile("rb")

    def ask(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        raw = self.rfile.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return raw

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Service:
    """Set-up, timed phase and gate of the ``service`` workload."""

    def __init__(self, seed: int, out_dir: Path):
        archs = [arch.name for arch in characterization_archs()]
        self.cells = [(k, a, c) for k in KERNELS for a in archs for c in CACHES]
        self.requests = [
            (json.dumps({"v": 2, "op": "characterize", "kernel": k,
                         "arch": a, "cache": c}) + "\n").encode()
            for k, a, c in self.cells]
        config = api.HarnessConfig(reps=3, warmup_reps=1)
        with api.ServiceBroker(config=config) as broker:
            self.expected = [
                canonical(api.query({"op": "characterize", "kernel": k,
                                     "arch": a, "cache": c}, broker=broker))
                for k, a, c in self.cells]
        popularity = np.random.default_rng(
            np.random.SeedSequence([seed])).permutation(len(self.cells))
        cells = np.repeat(popularity, zipf_counts(BLOCK // CONNECTIONS,
                                                  len(self.cells)))
        self.sequences = [
            [int(cell) for cell in np.random.default_rng(
                np.random.SeedSequence([seed, c])).permutation(cells)]
            for c in range(CONNECTIONS)]
        self.seed = seed
        self.out_dir = out_dir
        self.seen = Counter()
        self.attempted = 0
        self.failed = 0
        self.sizes = {"cells": len(self.cells), "l1_capacity": CAPACITY,
                      "connections": CONNECTIONS, "block_queries": BLOCK}

    def start_server(self, tag: str, traced: bool) -> Server:
        """Start a server and have it solve every kernel profile."""
        server = Server(self.out_dir, tag, traced, self.seed)
        first_cell = {}
        for index, (kernel, _, _) in enumerate(self.cells):
            first_cell.setdefault(kernel, index)
        try:
            conn = Connection(server.port)
            try:
                for index in first_cell.values():
                    reply = json.loads(conn.ask(self.requests[index]))
                    if not reply.get("ok"):
                        raise RuntimeError(f"warm-up query failed: {reply}")
            finally:
                conn.close()
        except BaseException:
            server.stop()
            raise
        return server

    def mark(self, server: Server) -> dict:
        """Send the window marker (a ``stats`` query); returns the stats."""
        conn = Connection(server.port)
        try:
            return json.loads(conn.ask((SERVICE_MARK + "\n").encode()))["stats"]
        finally:
            conn.close()

    def drive(self, server: Server, seconds: float, ruler=None) -> list:
        """The closed loop, in blocks of :data:`BLOCK` queries.

        Every connection sends its share of a block.  Returns one dict
        per block: its host time ``wall`` and its query ``latencies``
        (s, ``inf`` for a failed query).  ``ruler`` is read before the
        first block and after every :data:`RULER_EVERY` blocks, with no
        query in flight.
        """
        conns = [Connection(server.port) for _ in range(CONNECTIONS)]
        seen = [Counter() for _ in conns]
        failures = [0] * len(conns)
        requests = self.requests

        def loop(c: int, latencies: list) -> None:
            conn, mine = conns[c], seen[c]
            for cell in self.sequences[c]:
                sent = perf_counter()
                try:
                    raw = conn.ask(requests[cell])
                except OSError:  # a timeout or a dropped connection
                    failures[c] += 1
                    latencies.append(float("inf"))
                    return
                reply = json.loads(raw)
                got = perf_counter()
                if reply.get("ok"):
                    mine[(cell, raw)] += 1
                    latencies.append(got - sent)
                else:  # an error response, e.g. a ServiceOverloaded shed
                    failures[c] += 1
                    latencies.append(float("inf"))

        blocks = []
        start = perf_counter()
        try:
            while True:
                if ruler is not None and len(blocks) % RULER_EVERY == 0:
                    ruler.read()
                latencies = [[] for _ in conns]
                threads = [threading.Thread(target=loop, args=(c, latencies[c]))
                           for c in range(CONNECTIONS)]
                began = perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                ended = perf_counter()
                blocks.append({"wall": ended - began,
                               "latencies": [x for per in latencies
                                             for x in per]})
                if any(failures) or (
                        ended - start + statistics.median(
                            b["wall"] for b in blocks) > seconds):
                    break
        finally:
            for conn in conns:
                conn.close()
        for counter in seen:
            self.seen.update(counter)
        self.attempted += sum(len(b["latencies"]) for b in blocks)
        self.failed += sum(failures)
        return blocks

    def window(self, server: Server, seconds: float, ruler=None):
        """Drive the loop between two ``stats`` marks.

        Returns the blocks and the server's counters over them.
        """
        before = self.mark(server)
        blocks = self.drive(server, seconds, ruler)
        return blocks, counters(before, self.mark(server))

    def gate(self):
        """Every distinct reply must equal the direct answer, byte for byte."""
        mismatched = 0
        for (cell, raw), count in self.seen.items():
            if canonical(json.loads(raw)) != self.expected[cell]:
                mismatched += count
        return mismatched


def run(args, out: dict) -> None:
    """Worker entry for ``--workload service``."""
    out_dir = Path(args.out_dir)
    service = Service(args.seed, out_dir)
    server = service.start_server("plain", traced=False)
    out["ready_at"] = time.monotonic()
    out["sizes"] = service.sizes
    if args.setup_only:
        server.stop()
        return
    from workloads import digest

    out["digest"] = digest(service.expected)
    try:
        if not args.trace:
            # The server and this load generator keep both cores busy.
            ruler = Ruler(helpers=CONNECTIONS)
            try:
                blocks, counts = service.window(server, args.seconds, ruler)
            finally:
                ruler.close()
            rss = server.peak_rss_mb()
        else:
            plain, _ = service.window(server, args.seconds / 2)
            server.stop()
            server = service.start_server("traced", traced=True)
            blocks, counts = service.window(server, args.seconds / 2)
    finally:
        server.stop()
    mismatched = service.gate()
    out["attempted"] = service.attempted
    out["failed"] = service.failed + mismatched
    fast = fastest_blocks(blocks)
    walls = [b["wall"] for b in blocks]
    out["lines"] = [
        f"gate      : {len(service.seen)} distinct replies checked against "
        f"direct repro.api.query answers, mismatched queries {mismatched}",
        f"digest    : {out['digest']} (the direct answers)",
        f"load      : closed loop, {CONNECTIONS} connections, "
        f"{len(blocks)} blocks of {BLOCK} queries in {sum(walls):.2f} s; "
        f"block host times median {statistics.median(walls):.4f} s, "
        f"fastest {min(walls):.4f} s",
        "server    : " + ", ".join(f"{k.split('.')[1]} {v}"
                                   for k, v in counts.items()),
    ]
    if not args.trace:
        out["scale"] = scale = ruler.scale()
        raw_wall = statistics.fmean(b["wall"] for b in fast)
        latencies = [x * 1e3 * scale for b in fast for x in b["latencies"]]
        out["metrics"] = {
            "wall_s": raw_wall * scale,
            "qps": BLOCK / (raw_wall * scale),
            "latency_p50_ms": percentile(latencies, 0.50),
            "latency_p99_ms": percentile(latencies, 0.99),
            "peak_rss_mb": rss,
        }
        out["lines"] += [
            f"latency   : the fastest {len(fast)} of {len(blocks)} blocks, "
            f"{len(latencies)} samples, {len(latencies) // 100} beyond p99; "
            f"wall_s is their mean block time; all at the reference speed",
            f"raw       : mean fastest block {raw_wall:.4f} s on this host; "
            f"ruler floor {ruler.floor() * 1e3:.4f} ms over "
            f"{len(ruler.samples)} idle readings, scale {scale:.4f}",
        ]
        return
    summary = json.loads(server.summary_path.read_text())
    server.summary_path.unlink()
    counts.update(summary["counts"])
    counts["service.batched_queries"] = summary["requests"]
    per_unit = LAYER_UNIT / BLOCK
    out["per_layer"] = layer_metrics(
        summary, counts, summary["requests"] / LAYER_UNIT,
        statistics.fmean(b["wall"] for b in fast) * per_unit,
        statistics.fmean(b["wall"] for b in fastest_blocks(plain)) * per_unit)
    out["lines"].append(
        f"spans     : {summary['spans_total']} written to "
        f"{Path(summary['trace']).relative_to(ROOT)}; server residence "
        f"{summary['roots_s'] / max(summary['requests'], 1) * 1e3:.3f} ms "
        f"per request")
