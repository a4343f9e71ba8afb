#!/usr/bin/env python3
"""perfbench: one repeatable benchmark for genasmx.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a genasmx source tree. The first run builds the
library, the shipped tools and the perfbench harness (CMake, Release)
into $CARGO_TARGET_DIR (default .bench_build). Every run generates its
inputs with readsim: a fixed reference and reads drawn from --seed. It
runs the workload on the shipped tools as a user runs them
(genasmx_index, genasmx_map --index, genasmx_mapd),
checks every output, and prints a `host` line and then, as the last line
of stdout, one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones of a separate traced run (see trace.cpp and load.cpp).
Scratch files go to .bench_out/; nothing is read or written elsewhere.

Workloads (all mapping with 2 engine threads; mapd with --workers 2
--threads 2; all load from this process and one single-threaded
generator with at most 4 connections):
  long_primary     1000 PacBio-CLR-like 10 kb reads at 10% error on a
                   3 Mbp repeat-rich 3-contig reference, --primary-only
                   (the two-phase flow: capped distance march, then one
                   traceback per read).
  long_all_chains  the same reads and reference under the default flow:
                   every candidate traceback-aligned, secondaries emitted.
  mapd_short       an open loop of 1-16 read requests (150 bp, 1% error)
                   against genasmx_mapd --primary-only over a Unix socket,
                   seeded Poisson arrivals at 250, 500, 1000, 1500 req/s;
                   reads_per_s comes from six closed-loop passes over the
                   read set as 16-read requests, around the ladder.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

OUT = Path(".bench_out")
THREADS = 2           # engine threads for genasmx_map and genasmx_mapd
MAPD_WORKERS = 2
LAT_LIMIT_MS = 10.0   # mapd p99 limit for max_rate_rps
LAG_LIMIT_MS = 1.0    # a step whose generator ran later than this is invalid
NOMINAL_RPS = 500
MODULE_LAYERS = ("io", "mapper", "pipeline", "engine", "core", "simd", "server")
# Each rate above 250 req/s runs as several interleaved sub-steps and is
# judged on their median, so one host stall cannot decide a rate.
LADDER = [(250, 1000), (500, 1000), (1000, 1000), (1500, 1500),
          (500, 1000), (1000, 1000), (1500, 1500), (500, 1000),
          (1000, 1000), (1500, 1500), (500, 1000), (500, 1000),
          (500, 1000)]

WORKLOADS = {
    "long_primary": dict(kind="long", count=1000, length=10000, error=0.10,
                         primary=True),
    "long_all_chains": dict(kind="long", count=1000, length=10000,
                            error=0.10, primary=False),
    "mapd_short": dict(kind="short", count=20000, length=150, error=0.01,
                       primary=True),
}


class CheckFailed(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    bdir = build_dir()
    logf = OUT / "build.log"
    cache = bdir / "CMakeCache.txt"
    source = f"CMAKE_HOME_DIRECTORY:INTERNAL={Path('perfbench').resolve()}"
    if cache.exists() and source not in cache.read_text().splitlines():
        shutil.rmtree(bdir)  # configured for another source tree
    with open(logf, "w") as out:
        if not cache.exists():
            cmd = ["cmake", "-S", "perfbench", "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                           check=True, timeout=300)
        subprocess.run(["cmake", "--build", str(bdir), "-j", "3", "--target",
                        "perfbench", "genasmx_index", "genasmx_map",
                        "genasmx_mapd"],
                       stdout=out, stderr=subprocess.STDOUT, check=True,
                       timeout=840)
    return {
        "perfbench": bdir / "perfbench",
        "index": bdir / "genasmx" / "genasmx_index",
        "map": bdir / "genasmx" / "genasmx_map",
        "mapd": bdir / "genasmx" / "genasmx_mapd",
    }


def host_block(bins, seed, workload):
    info_path = OUT / "host.json"
    run([bins["perfbench"], "host", "--out", info_path])
    info = json.loads(info_path.read_text())
    cache = (build_dir() / "CMakeCache.txt").read_text()
    fields = dict(line.split("=", 1) for line in cache.splitlines()
                  if line.startswith(("CMAKE_BUILD_TYPE:",
                                      "CMAKE_CXX_COMPILER:")))
    commit = ""
    if Path(".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except OSError:
            pass
    if not commit:
        # Not a git checkout: identify the code by a digest of its sources.
        h = hashlib.sha256()
        for p in sorted(Path("src").rglob("*")) + sorted(Path("tools").rglob("*")):
            if p.is_file():
                h.update(str(p).encode() + p.read_bytes())
        commit = "tree-sha256:" + h.hexdigest()[:16]
    return {
        "isa": info["isa"], "simd_lanes": info["simd_lanes"],
        "nproc": os.cpu_count(), "engine_threads": THREADS,
        "mapd_workers": MAPD_WORKERS, "mapd_threads": THREADS,
        "compiler": Path(fields.get("CMAKE_CXX_COMPILER:FILEPATH", "c++")).name
        + " " + info["compiler"],
        "build_type": fields.get("CMAKE_BUILD_TYPE:STRING", ""),
        "commit": commit, "seed": seed, "workload": workload,
    }


# -------------------------------------------------------------- processes

def run(cmd, timeout=150):
    """Run to completion; returns (wall seconds, peak RSS in MB)."""
    cmd = [str(c) for c in cmd]
    with open(OUT / "stderr.log", "a") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise CheckFailed(f"exit {proc.returncode}: {' '.join(cmd)} "
                          f"(see {OUT / 'stderr.log'})")
    return wall, ru.ru_maxrss / 1024.0


class Mapd:
    """genasmx_mapd from spawn to the first PING reply, and its drain."""

    def __init__(self, bins, index, sock, primary):
        self.sock = sock
        if os.path.exists(sock):
            os.unlink(sock)
        cmd = [bins["mapd"], "--index", index, "--unix", sock,
               "--workers", MAPD_WORKERS, "--threads", THREADS]
        if primary:
            cmd.append("--primary-only")
        self.err = open(OUT / "stderr.log", "a")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([str(c) for c in cmd],
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.err)
        while not self._ping():
            if self.proc.poll() is not None or time.perf_counter() - t0 > 30:
                self.stop()
                raise CheckFailed("genasmx_mapd did not become ready")
            time.sleep(0.0005)
        self.ready_s = time.perf_counter() - t0

    def _ping(self):
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(5)
                s.connect(self.sock)
                s.sendall(b"PING\n")
                reply = b""
                while not reply.endswith(b"\n"):
                    chunk = s.recv(4096)
                    if not chunk:
                        return False
                    reply += chunk
                return reply.startswith(b"OK")
        except (FileNotFoundError, ConnectionRefusedError):
            return False

    def stop(self):
        """SIGTERM drain; returns (exit code, peak RSS in MB)."""
        if self.proc.returncode is not None:
            return self.proc.returncode, 0.0
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 30
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, ru = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.err.close()
        return self.proc.returncode, ru.ru_maxrss / 1024.0


# ------------------------------------------------------------------ stats

def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def quantile(values, q):
    v = sorted(values)
    if not v:
        return 0.0
    k = max(0, min(len(v) - 1, int(-(-q * len(v) // 1)) - 1))
    return v[k]


def stage_seconds(stats_json):
    return sum(stats_json["stage_seconds"][k] for k in
               ("seed_chain", "phase1_distance", "phase2_traceback", "output"))


def self_times(spans):
    """Self time per layer: a span's duration minus the part of it that
    its children cover. A layer is the span name up to the first dot;
    run, replay, pass.* and probe.* spans are the harness's own and belong
    to no module layer."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    layers = {}
    for s in spans:
        covered, cur_end = 0, s["start_ns"]
        for c in sorted(children.get(s["i"], []), key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cur_end, s["start_ns"])
            hi = min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cur_end = hi
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + \
            (s["end_ns"] - s["start_ns"] - covered) / 1e9
    return layers


def child_share(spans, name):
    """Share of the named spans' total duration their children cover."""
    total = covered = 0
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    for s in spans:
        if s["name"] != name:
            continue
        total += s["end_ns"] - s["start_ns"]
        covered += sum(min(c["end_ns"], s["end_ns"]) -
                       max(c["start_ns"], s["start_ns"])
                       for c in kids.get(s["i"], []))
    return covered / total if total else 0.0


def load_spans(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


# --------------------------------------------------------------- workload

class Run:
    def __init__(self, args, bins):
        self.args = args
        self.bins = bins
        self.wl = WORKLOADS[args.workload]
        self.dir = OUT / args.workload
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.fasta = self.dir / "ref.fa"
        self.reads = self.dir / "reads.fq"
        self.index = self.dir / "ref.gxi"
        self.sock = str(OUT / f"{args.workload}.sock")
        self.attempted = 0
        self.failed = 0
        self.report = {}

    def map_flags(self):
        return ["--threads", THREADS] + (["--primary-only"]
                                         if self.wl["primary"] else [])

    def generate(self):
        run([self.bins["perfbench"], "gen", "--fasta", self.fasta,
             "--reads", self.reads, "--kind", self.wl["kind"],
             "--seed", self.args.seed, "--count", self.wl["count"],
             "--length", self.wl["length"], "--error", self.wl["error"]])

    def build_index(self, reps):
        return [run([self.bins["index"], "--ref", self.fasta, "--out",
                     self.index, "--threads", THREADS])[0]
                for _ in range(reps)]

    def map_reads(self, paf, stats=None):
        cmd = [self.bins["map"], "--index", self.index, "--reads",
               self.reads, "--out", paf] + self.map_flags()
        if stats:
            cmd += ["--stats-json", stats]
        return run(cmd)

    def check(self, paf):
        out = self.dir / "check.json"
        try:
            run([self.bins["perfbench"], "check", "--index", self.index,
                 "--reads", self.reads, "--paf", paf, "--out", out])
        except CheckFailed:
            if not out.exists():
                raise
            self.report["check"] = json.loads(out.read_text())
            raise CheckFailed(f"{paf}: {self.report['check']['failures']:.0f} "
                              f"failed checks, first: "
                              f"{self.report['check']['first_failure']}")
        self.report["check"] = json.loads(out.read_text())
        if self.report["check"]["chain_only_primaries"]:
            log(f"{paf}: {self.report['check']['chain_only_primaries']:.0f} "
                "reads mapped without an alignment (counted as failed)")
        if self.report["check"]["reads"] != self.wl["count"]:
            raise CheckFailed("check saw the wrong read count")
        return self.report["check"]

    def load(self, name, extra, spans=None):
        out = self.dir / f"{name}.json"
        cmd = [self.bins["perfbench"], "load", "--unix", self.sock,
               "--reads", self.reads, "--expect", self.dir / "expect.paf",
               "--seed", self.args.seed, "--out", out] + extra
        if spans:
            cmd += ["--spans", spans]
        try:
            run(cmd, timeout=120)
        finally:
            if out.exists():
                self.report[name] = json.loads(out.read_text())["steps"]
        steps = self.report[name]
        for st in steps:
            self.attempted += int(st["requests"])
            self.failed += int(st["errors"])
            if st["mismatched"]:
                raise CheckFailed(f"{name}: mapd reply differs from "
                                  "genasmx_map output")
        return steps

    # -------------------------------------------------- end-to-end runs

    def setup_map(self):
        """Index build (median of 7) + genasmx_map open (median of 7)."""
        build = self.build_index(7)
        empty = self.dir / "empty.fq"
        empty.write_text("")
        opens = [run([self.bins["map"], "--index", self.index, "--reads",
                      empty, "--out", self.dir / "empty.paf"]
                     + self.map_flags())[0] for _ in range(7)]
        self.report["setup"] = {"index_build_s": build, "map_open_s": opens}
        return statistics.median(build) + statistics.median(opens)

    def long_e2e(self):
        """Rounds until --seconds have passed (at least 3), each: one batch
        genasmx_map run, one closed-loop latency chunk of 200 single-read
        requests, one bulk capacity pass.
        Interleaving spreads every measurement over the run, and medians
        over rounds keep a slow stretch of the host from deciding one."""
        self.generate()
        setup_s = self.setup_map()
        walls, rss, digests, lats, caps = [], [], set(), [], []
        degraded = []  # per round: reads genasmx_map reported as failed
        mapd = Mapd(self.bins, self.index, self.sock, self.wl["primary"])
        try:
            t_end = time.monotonic() + self.args.seconds
            rnd = 0
            while rnd < 3 or time.monotonic() < t_end:
                paf = self.dir / "expect.paf"
                stats = self.dir / "map_stats.json"
                wall, peak = self.map_reads(paf, stats)
                walls.append(wall)
                rss.append(peak)
                digests.add(sha(paf))
                st = json.loads(stats.read_text())
                self.attempted += st["stats"]["reads"]
                self.failed += st["report"]["rejected_reads"]
                degraded.append(st["report"]["failed_reads"])
                lats += self.load(f"latency{rnd}", [
                    "--requests", 200, "--first-read", 200 * rnd,
                    "--connections", 1, "--reads-min", 1, "--reads-max", 1])
                # The whole read set queued at once as 16-read requests
                # over 4 connections: the rate mapd drains them at.
                caps += self.load(f"capacity{rnd}", [
                    "--steps", f"1000000:{-(-self.wl['count'] // 16)}",
                    "--connections", 4, "--reads-min", 16, "--reads-max", 16])
                rnd += 1
        finally:
            rc, _ = mapd.stop()
        if rc != 0:
            raise CheckFailed(f"genasmx_mapd drain exited {rc}")
        if len(digests) != 1:
            raise CheckFailed("PAF differs between repeated genasmx_map runs")
        self.report["batch"] = {"walls": walls, "rss_mb": rss,
                                "paf_sha256": digests.pop()}
        chk = self.check(self.dir / "expect.paf")
        # Every round mapped the same reads to the same PAF. A read that
        # failed is emitted chain-only, so it is counted once.
        chain_only = int(chk["chain_only_primaries"])
        self.failed += sum(max(int(d), chain_only) for d in degraded)
        return {
            "reads_per_s": self.wl["count"] / statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(rss),
            "recall": chk["recall"],
            "nm_per_kb": chk["nm_per_kb"],
            "lat_p50_ms": statistics.median(st["lat_p50_ms"] for st in lats),
            "lat_p95_ms": statistics.median(quantile(st["lat_ms"], 0.95)
                                            for st in lats),
            "max_rate_rps": statistics.median(st["achieved_rps"] for st in caps),
        }

    @staticmethod
    def rate_passes(steps):
        """p99 within the limit, no failures, no growing backlog: judged on
        the median over a rate's valid sub-steps (over all of them if the
        host stalled the generator on every one)."""
        valid = [st for st in steps if st["valid"]] or steps
        if any(st["errors"] for st in steps):
            return False
        rate = steps[0]["rate"]
        backlog = statistics.median(st["backlog_end"] for st in valid)
        return (statistics.median(st["lat_p99_ms"] for st in valid)
                <= LAT_LIMIT_MS and backlog <= max(4, rate * LAT_LIMIT_MS / 1e3))

    def ladder(self):
        scale = max(1.0, self.args.seconds / 20.0)
        return ",".join(f"{rate}:{int(n * scale)}" for rate, n in LADDER)

    def short_e2e(self):
        self.generate()
        build = self.build_index(7)
        readies = []
        for _ in range(7):
            m = Mapd(self.bins, self.index, self.sock, True)
            readies.append(m.ready_s)
            rc, _ = m.stop()
            if rc != 0:
                raise CheckFailed(f"genasmx_mapd drain exited {rc}")
        self.report["setup"] = {"index_build_s": build, "mapd_ready_s": readies}
        setup_s = statistics.median(build) + statistics.median(readies)
        self.map_reads(self.dir / "expect.paf")
        chk = self.check(self.dir / "expect.paf")
        self.attempted += self.wl["count"]
        self.failed += int(chk["chain_only_primaries"])
        mapd = Mapd(self.bins, self.index, self.sock, True)
        caps = []

        def capacity(rnd):
            # Throughput: a closed-loop pass over the whole read set as
            # 16-read requests, one in flight per connection.
            return self.load(f"capacity{rnd}", [
                "--requests", -(-self.wl["count"] // 16),
                "--connections", 4, "--reads-min", 16, "--reads-max", 16])
        try:
            # A warm-up pass (mapd faults its index pages in), then three
            # passes before the ladder and three after it, so a slow
            # stretch of the host cannot decide the median.
            capacity("warmup")
            for rnd in range(3):
                caps += capacity(rnd)
            steps = self.load("ladder", ["--steps", self.ladder(),
                                         "--connections", 4,
                                         "--lag-limit-ms", LAG_LIMIT_MS])
            for rnd in range(3, 6):
                caps += capacity(rnd)
        finally:
            rc, peak = mapd.stop()
        if rc != 0:
            raise CheckFailed(f"genasmx_mapd drain exited {rc}")
        by_rate = {}
        for st in steps:
            st["valid"] = st["lag_p99_ms"] <= LAG_LIMIT_MS
            by_rate.setdefault(st["rate"], []).append(st)
        nominal = [st for st in by_rate[NOMINAL_RPS] if st["valid"]]
        self.report["nominal_valid"] = bool(nominal)
        if not nominal:
            # A host stall, not a server result: report every nominal step,
            # flagged, rather than no latency at all.
            log("the generator fell behind on every nominal step; latency "
                "comes from steps marked invalid")
            nominal = by_rate[NOMINAL_RPS]
        passing = [r for r, sts in by_rate.items() if self.rate_passes(sts)]
        self.report["passing_rates"] = sorted(passing)
        if not passing:
            raise CheckFailed("no ladder rate met the latency limit")
        top = by_rate[max(passing)]
        # Nominal latency: the median over valid sub-steps, so one step hit
        # by a host stall does not move it.
        return {
            "reads_per_s": statistics.median(st["reads_per_s"] for st in caps),
            "setup_s": setup_s,
            "peak_rss_mb": peak,
            "recall": chk["recall"],
            "nm_per_kb": chk["nm_per_kb"],
            "lat_p50_ms": statistics.median(st["lat_p50_ms"] for st in nominal),
            "lat_p95_ms": statistics.median(quantile(st["lat_ms"], 0.95)
                                            for st in nominal),
            "max_rate_rps": statistics.median(st["achieved_rps"] for st in top),
        }

    # ------------------------------------------------------ traced run

    def traced(self):
        self.generate()
        self.build_index(1)
        self.map_reads(self.dir / "expect.paf")
        chk = self.check(self.dir / "expect.paf")
        self.attempted += self.wl["count"]
        self.failed += int(chk["chain_only_primaries"])
        trace_out = self.dir / "trace.json"
        spans_path = self.dir / "spans.jsonl"
        run([self.bins["perfbench"], "trace", "--fasta", self.fasta,
             "--index", self.index, "--reads", self.reads,
             "--out", trace_out, "--spans", spans_path,
             "--paf", self.dir / "traced.paf",
             "--primary", int(self.wl["primary"]),
             "--max-reads", 512 if self.wl["kind"] == "long" else 8192])
        m = json.loads(trace_out.read_text())["metrics"]
        # The traced run maps a prefix of the reads: its PAF must be the
        # untraced genasmx_map output up to the same read.
        traced_paf = (self.dir / "traced.paf").read_bytes()
        full = (self.dir / "expect.paf").read_bytes()
        nxt = full[len(traced_paf):].split(b"\t", 1)[0]
        last = traced_paf.rsplit(b"\n", 2)[-2].split(b"\t", 1)[0] \
            if traced_paf else b""
        if not full.startswith(traced_paf) or (nxt and nxt == last):
            raise CheckFailed("traced PAF differs from the untraced run")

        mapd = Mapd(self.bins, self.index, self.sock, self.wl["primary"])
        server_spans = self.dir / "server_spans.jsonl"
        try:
            if self.wl["kind"] == "short":
                st = self.load("server", ["--steps", f"{NOMINAL_RPS}:1000",
                                          "--connections", 4],
                               spans=server_spans)[0]
            else:
                st = self.load("server", ["--requests", 300,
                                          "--connections", 1,
                                          "--reads-min", 1, "--reads-max", 1],
                               spans=server_spans)[0]
        finally:
            rc, _ = mapd.stop()
        if rc != 0:
            raise CheckFailed(f"genasmx_mapd drain exited {rc}")
        before, after = st["stats_before"], st["stats_after"]
        busy = stage_seconds(after) - stage_seconds(before)
        ok = after["requests"]["ok"] - before["requests"]["ok"]
        m.update({
            "core.cost_excess": chk["cost_excess"],
            "server.service_p50_ms": st["service_p50_ms"],
            "server.wire_ms": st["lat_p50_ms"] - st["service_p50_ms"],
            "server.queue_wait_ms": st["service_mean_ms"] - 1e3 * busy / max(ok, 1),
            "server.busy_s": busy,
            "server.shed_queue_full": after["requests"]["shed_queue_full"]
            - before["requests"]["shed_queue_full"],
            "server.shed_deadline": after["requests"]["shed_deadline"]
            - before["requests"]["shed_deadline"],
            "gen.lag_p99_ms": st["lag_p99_ms"],
            "gen.backlog_end": st["backlog_end"],
        })
        spans = load_spans(spans_path)
        sspans = load_spans(server_spans)
        selfs = self_times(spans)
        for layer, secs in self_times(sspans).items():
            selfs[layer] = selfs.get(layer, 0.0) + secs
        for layer in MODULE_LAYERS:
            m[f"self.{layer}_s"] = selfs.get(layer, 0.0)
        m["trace.map_batch_child_share"] = child_share(spans,
                                                       "pipeline.map_batch")
        m["trace.request_child_share"] = (st["service_p50_ms"] /
                                          st["lat_p50_ms"])
        self.report["trace"] = {"self_s": selfs, "metrics": m}
        log("traced run: self time by layer " +
            ", ".join(f"{k}={m[f'self.{k}_s']:.4f}s" for k in MODULE_LAYERS) +
            f"; tracing overhead {m['trace.overhead_frac']:+.2%} of the "
            f"untraced mapBatch loop; stage spans cover "
            f"{m['trace.map_batch_child_share']:.1%} of pipeline.map_batch, "
            f"service time {m['trace.request_child_share']:.1%} of the "
            f"request p50")
        return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (Path("CMakeLists.txt").is_file() and Path("src/genasmx").is_dir()
            and Path("perfbench/CMakeLists.txt").is_file()):
        log("run from the root of a genasmx source tree "
            "(CMakeLists.txt, src/genasmx and perfbench/ not found)")
        return 2
    if not Path("BENCHMARK.json").is_file():
        log("BENCHMARK.json not found in the working directory")
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    (OUT / "stderr.log").write_text("")
    try:
        bins = build()
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed ({e}); see {OUT / 'build.log'}")
        return 1

    bench = Run(args, bins)
    host = host_block(bins, args.seed, args.workload)
    correct = True
    metrics = {}
    try:
        if args.trace:
            values = bench.traced()
            units = spec["per_layer"]
        else:
            values = (bench.short_e2e() if WORKLOADS[args.workload]["kind"]
                      == "short" else bench.long_e2e())
            units = spec["end_to_end"]
        metrics = {m["name"]: {"value": float(values[m["name"]]),
                               "unit": m["unit"]} for m in units}
    except CheckFailed as e:
        log(f"check failed: {e}")
        correct = False
    report = {"host": host, "correct": correct, "metrics": metrics,
              "details": bench.report}
    (OUT / f"{args.workload}-report.json").write_text(
        json.dumps(report, indent=1))
    for big in ("reads.fq", "ref.fa", "ref.gxi", "expect.paf", "traced.paf"):
        (bench.dir / big).unlink(missing_ok=True)
    print(json.dumps({"host": host}))
    print(json.dumps({"correct": correct,
                      "attempted": max(1, bench.attempted),
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
