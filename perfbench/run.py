#!/usr/bin/env python3
"""End-to-end benchmark of ganc_serve and ganc_cli train.

    python3 perfbench/run.py --workload live-uniform --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the library, the two
binaries and the native harness into .bench_build/ (see CMakeLists.txt
here). Each run then:

  1. makes a seeded synthetic corpus (`ganc_cli synth --seed=SEED`) and
     trains the workload's artifact with `ganc_cli train` (timed:
     train_s, train_rss_mb);
  2. starts the workload's ganc_serve topology several times and times
     exec -> first correct live TOPN (setup_s, median);
  3. drives the last server open-loop with the native generator
     (`perfbench loadgen`): warm-up, rounds at a low and a high offered
     rate, PUBLISH round trips and max-throughput searches; then, with
     the idle busy loops stopped, `perfbench bare` runs two low-rate
     phases that leave one host effect in each and scrapes METRICS;
  4. checks the counting identity on that scrape, reads peak RSS, stops
     the server and checks that no shard child outlived it;
  5. checks every TOPN reply byte for byte against the offline CLI
     (`ganc_cli replay`, itself cross-checked against `ganc_cli topn`);
  6. with --trace 1, runs the in-process traced replay
     (`perfbench trace`) and prints the per-layer ledger.

The last stdout line is the result object: {"correct", "attempted",
"failed", "metrics"}. The end-to-end metrics are printed with --trace 0,
the per-layer metrics with --trace 1. Workload constants (rates, latency
flags) are frozen in workloads.json, the latency limit and phase
lengths in harness/main.cc; README.md explains them.
"""

import argparse
import ctypes
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
CLI = os.path.join(BUILD, "ganc", "ganc_cli")
SERVE = os.path.join(BUILD, "ganc", "ganc_serve")
HARNESS = os.path.join(BUILD, "perfbench")
NPROC = os.cpu_count() or 1
SETUP_REPS = 3
# The generator spins on the last CPU; the server gets the others, so the
# two never preempt each other (one CPU hosts share both).
GEN_CPUS = {NPROC - 1}
SERVER_CPUS = set(range(NPROC - 1)) or GEN_CPUS


def pin(cpus):
    return lambda: os.sched_setaffinity(0, cpus)


class IdleSpinners:
    """One SCHED_IDLE busy loop per server CPU, from start() to stop().

    A vCPU that goes idle halts, and waking it again takes the hypervisor
    up to milliseconds (p99 0.7-2.5 ms, worst 10 ms for a sleeping thread
    on the calibration host). Every request crosses three thread wake-ups,
    so that jitter, not the server, would set the tail latency. A
    SCHED_IDLE loop keeps the vCPU running but yields at once to any
    runnable server thread. The `bare` phases run without it, so the
    server's wake-up costs still show in one metric."""

    def __init__(self):
        self.pids = []

    def start(self):
        for cpu in sorted(SERVER_CPUS - GEN_CPUS):
            pid = os.fork()
            if pid == 0:
                try:
                    ctypes.CDLL(None).prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
                    os.sched_setaffinity(0, {cpu})
                    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
                    while True:
                        pass
                finally:
                    os._exit(0)
            self.pids.append(pid)

    def stop(self):
        for pid in self.pids:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        self.pids = []


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "ab") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                return False
        cmd = ["cmake", "--build", BUILD, "-j", str(NPROC),
               "--target", "ganc_cli", "ganc_serve", "perfbench", "perfbench_test"]
        return subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) == 0


def timed_run(cmd, out_path):
    """Runs cmd to completion; returns (rc, wall seconds, peak RSS MiB)."""
    with open(out_path, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_json(cmd, cpus=None):
    """Runs a harness subcommand and parses its JSON stdout."""
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=120, preexec_fn=pin(cpus) if cpus else None)
    if res.returncode != 0:
        raise RuntimeError("%s failed: %s" % (cmd[1], res.stderr.strip()[-500:]))
    return json.loads(res.stdout.strip().splitlines()[-1])


class Workload:
    def __init__(self, name, spec, seed, seconds, work):
        self.name, self.spec, self.seed, self.seconds = name, spec, seed, seconds
        self.work = work
        self.corpus = os.path.join(work, "corpus.gdc")
        ext = "gam" if spec["artifact"] == "model" else "gap"
        self.artifact = os.path.join(work, "artifact." + ext)
        self.n = spec["n"]
        self.kappa = self.train_flag("kappa")
        self.arec = self.train_flag("arec")
        threads = spec.get("train_threads_max")
        self.train_threads = min(NPROC, threads) if threads else 1

    def train_flag(self, name):
        prefix = "--%s=" % name
        return next(a[len(prefix):] for a in self.spec["train"] if a.startswith(prefix))

    def data_flags(self):
        return ["--dataset-cache=" + self.corpus, "--seed=%d" % self.seed,
                "--kappa=" + self.kappa]

    def artifact_flag(self, prefix=""):
        kind = "model" if self.spec["artifact"] == "model" else "pipeline"
        return "--%s%s=%s" % (prefix, kind, self.artifact)

    def synth_cmd(self):
        return [CLI, "synth", "--out=" + self.corpus,
                "--users=%d" % self.spec["corpus_users"], "--seed=%d" % self.seed]

    def train_cmd(self):
        save = "--save-model=" if self.spec["artifact"] == "model" else "--save-pipeline="
        cmd = [CLI, "train", "--dataset-cache=" + self.corpus, "--seed=%d" % self.seed]
        cmd += self.spec["train"] + [save + self.artifact]
        if self.train_threads > 1:
            cmd.append("--threads=%d" % self.train_threads)
        return cmd

    def serve_cmd(self):
        cmd = [SERVE, "--dataset-cache=" + self.corpus, "--seed=%d" % self.seed,
               self.artifact_flag()] + self.spec["serve"]
        return cmd + ["--port=0"]

    def child_args(self):
        """Flags a --shard=k/N child of serve_cmd() receives."""
        skip = ("--shards=", "--multiprocess", "--port=")
        return [a for a in self.serve_cmd()[1:] if not a.startswith(skip)]

    def mix_flags(self):
        return ["--users=%d" % self.spec["corpus_users"], "--n=%d" % self.n]


# ---------------------------------------------------------------------------
# Server lifecycle


def read_line(sock_file):
    line = sock_file.readline()
    return line.rstrip("\n") if line else None


class Server:
    """One ganc_serve process (plus any shard children it forks)."""

    def __init__(self, cmd, stderr_path):
        self.err = open(stderr_path, "ab")
        self.children = []
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True,
                                     preexec_fn=pin(SERVER_CPUS))
        first = self.proc.stdout.readline()
        if not first.startswith("LISTENING port="):
            self.stop()
            raise RuntimeError("ganc_serve did not start: %r" % first)
        self.port = int(first.split("=")[1])
        self.children = self.child_pids()

    def child_pids(self):
        path = "/proc/%d/task/%d/children" % (self.proc.pid, self.proc.pid)
        try:
            with open(path) as f:
                return [int(p) for p in f.read().split()]
        except OSError:
            return []

    def connect(self):
        s = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return s, s.makefile("r", encoding="utf-8", newline="\n")

    def ask(self, line):
        """One request on a fresh connection; returns the reply line."""
        s, f = self.connect()
        with s, f:
            s.sendall((line + "\n").encode())
            return read_line(f)

    def peak_rss_mb(self):
        total = 0.0
        for pid in [self.proc.pid] + self.children:
            try:
                with open("/proc/%d/status" % pid) as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def stop(self):
        """Stdin EOF (clean drain); returns the shard children still alive."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()
        leaked = []
        for pid in self.children:
            try:
                with open("/proc/%d/status" % pid) as f:
                    if "State:\tZ" not in f.read():
                        leaked.append(pid)
            except OSError:
                continue
        for pid in leaked:
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        return leaked


def probe_line(w):
    # With an exclusion the probe can never be answered from a top-N
    # store, so set-up time always includes a live scoring.
    return "TOPN user=0 n=%d exclude=0" % w.n


def start_and_probe(w, stderr_path):
    """Starts a server; returns (server, seconds to first answer, reply)."""
    server = Server(w.serve_cmd(), stderr_path)
    try:
        reply = server.ask(probe_line(w))
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - server.t0, reply


# ---------------------------------------------------------------------------
# Correctness


def expected_lines(w, requests, scratch):
    """Offline replies for `requests` from parallel `ganc_cli replay` runs."""
    parts = max(1, min(NPROC, 4))
    chunks = [requests[i::parts] for i in range(parts)]
    procs = []
    for i, chunk in enumerate(chunks):
        path = os.path.join(scratch, "replay%d.txt" % i)
        with open(path, "w") as f:
            f.write("".join(r + "\n" for r in chunk))
        cmd = [CLI, "replay", "--requests=" + path, "--top-n=%d" % w.n,
               w.artifact_flag("load-")] + w.data_flags()
        out = open(path + ".out", "wb")
        procs.append((subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL), out, path))
    expected = {}
    for (proc, out, path), chunk in zip(procs, chunks):
        proc.wait()
        out.close()
        with open(path + ".out") as f:
            got = f.read().splitlines()
        if proc.returncode != 0 or len(got) != len(chunk):
            raise RuntimeError("ganc_cli replay failed (rc %d)" % proc.returncode)
        expected.update(zip(chunk, got))
    return expected


def topn_crosscheck(w, expected, scratch):
    """replay must agree with `ganc_cli topn` for the first users."""
    users = 50
    out = os.path.join(scratch, "topn.txt")
    cmd = [CLI, "topn", "--users=%d" % users, "--top-n=%d" % w.n,
           w.artifact_flag("load-")] + w.data_flags()
    with open(out, "wb") as f:
        if subprocess.call(cmd, stdout=f, stderr=subprocess.DEVNULL) != 0:
            return False
    with open(out) as f:
        lines = f.read().splitlines()
    return len(lines) == users and all(
        expected.get("TOPN user=%d n=%d" % (u, w.n)) == lines[u] for u in range(users))


# ---------------------------------------------------------------------------
# Fingerprint


def fingerprint(load_start):
    fp = {"nproc": NPROC, "load_avg_start": load_start}
    try:
        out = subprocess.run([CLI, "kernels"], capture_output=True, text=True).stdout
        fp["kernel"] = next((l.split()[1] for l in out.splitlines()
                             if l.startswith("active:")), "unknown")
    except OSError:
        fp["kernel"] = "unknown"
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=")[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        fp["compiler"] = subprocess.run([compiler, "--version"], capture_output=True,
                                        text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        fp["compiler"] = compiler
    fp["build_type"] = cache.get("CMAKE_BUILD_TYPE", "")
    try:
        fp["commit"] = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                      capture_output=True, text=True).stdout.strip() or "none"
    except OSError:
        fp["commit"] = "none"
    fp["load_avg_end"] = os.getloadavg()[0]
    fp["busy_at_start"] = load_start > 0.5 * NPROC
    return fp


# ---------------------------------------------------------------------------
# The run


def serve(w, spec, records, problems):
    """Set-up reps and the timed phases with the server CPUs kept awake,
    then the bare phases and the final scrape without."""
    server_log = os.path.join(w.work, "serve.log")
    setups, probes = [], []
    spinners = IdleSpinners()
    server = None
    try:
        spinners.start()
        for rep in range(SETUP_REPS):
            server, seconds, reply = start_and_probe(w, server_log)
            setups.append(seconds)
            probes.append(reply)
            if rep + 1 < SETUP_REPS and server.stop():
                problems.append("shard child outlived its router")
        common = ["--port=%d" % server.port, "--seed=%d" % w.seed,
                  "--seconds=%s" % w.seconds, "--low-rate=%s" % spec["low_rps"],
                  "--connections=%d" % max(1, min(NPROC, 4) - 1),
                  "--records=" + records] + w.mix_flags()
        gen = run_json([HARNESS, "loadgen"] + common + [
            "--high-rate=%s" % spec["high_rps"],
            "--search-from=%s" % spec["search_from_rps"],
            "--publish-path=" + w.artifact], GEN_CPUS)
        spinners.stop()
        bare = run_json([HARNESS, "bare"] + common, GEN_CPUS)
        rss = server.peak_rss_mb()
    finally:
        spinners.stop()
        leaked = server.stop() if server else []
    return setups, probes, gen, bare, rss, leaked


def run(args):
    with open(os.path.join(BENCH, "workloads.json")) as f:
        specs = json.load(f)
    spec = specs.get(args.workload)
    if spec is None or not isinstance(spec, dict):
        log("unknown workload %r" % args.workload)
        return 2
    load_start = os.getloadavg()[0]
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or not build():
        log("build failed (see .bench_build/build.log)")
        return 1
    work = os.path.join(BUILD, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    w = Workload(args.workload, spec, args.seed, args.seconds, work)
    if args.show_commands:
        for cmd in (w.synth_cmd(), w.train_cmd(), w.serve_cmd()):
            print(" ".join(os.path.relpath(c, ROOT) if c.startswith(ROOT) else c for c in cmd))
        return 0

    attempted = failed = 0
    problems = []

    # 1. corpus + training (timed end to end, exec to exit).
    rc, _, _ = timed_run(w.synth_cmd(), os.path.join(work, "synth.log"))
    if rc != 0:
        log("synth failed")
        return 1
    rc, train_s, train_rss = timed_run(w.train_cmd(), os.path.join(work, "train.log"))
    attempted += 1
    if rc != 0 or not os.path.exists(w.artifact):
        log("train failed (rc %d)" % rc)
        return 1

    # 2-4. set-up, load, scrape and shutdown.
    records = os.path.join(work, "records.tsv")
    setups, probes, gen, bare, rss, leaked = serve(w, spec, records, problems)
    metrics = bare["metrics_end"]
    if leaked:
        problems.append("%d shard children outlived the router" % len(leaked))
    identity = metrics.get("serve_requests_total", -1) == (
        metrics.get("serve_cache_hits_total", 0) + metrics.get("serve_store_hits_total", 0)
        + metrics.get("serve_live_scored_total", 0))
    if not identity:
        problems.append("serve_requests_total != cache + store + live")
    attempted += SETUP_REPS + gen["sent"] + gen["publishes"] + bare["sent"]
    failed += gen["failed"] + bare["failed"]

    # 5. byte-equality against the offline CLI. A request the generator
    # already counted as failed (ERR reply or timeout) is not counted
    # again; a set-up probe that differs is a failed operation.
    rows = []
    with open(records) as f:
        for line in f:
            phase, request, response = line.rstrip("\n").split("\t")
            rows.append((request, response))
    wanted = sorted({r for r, _ in rows} | {probe_line(w)} |
                    {"TOPN user=%d n=%d" % (u, w.n) for u in range(50)})
    expected = expected_lines(w, wanted, work)
    mismatches = sum(1 for r, resp in rows
                     if resp.startswith("OK ") and expected.get(r) != resp)
    mismatches += sum(1 for p in probes if expected.get(probe_line(w)) != p)
    failed += mismatches
    if mismatches:
        problems.append("%d replies differ from the offline CLI" % mismatches)
    if not topn_crosscheck(w, expected, work):
        problems.append("ganc_cli replay disagrees with ganc_cli topn")

    quality = run_json([HARNESS, "quality", "--records=" + records, "--n=%d" % w.n,
                        "--dataset-cache=" + w.corpus, "--kappa=" + w.kappa,
                        "--split-seed=%d" % w.seed])

    fp = fingerprint(load_start)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print("phases " + json.dumps({"low": gen["low"], "high": gen["high"],
                                  "nospin": bare["nospin"],
                                  "noquickack": bare["noquickack"],
                                  "steps": gen["steps"]}))
    for p in problems:
        log("FAILED CHECK: " + p)

    if args.trace:
        result = per_layer(w, spec, gen, bare, quality)
    else:
        result = {
            "setup_s": (statistics.median(setups), "s"),
            "p50_ms.low": (gen["low"]["p50_ms"], "ms"),
            "p50_ms.high": (gen["high"]["p50_ms"], "ms"),
            "server_rss_mb": (rss, "MiB"),
            "novelty_bits": (quality["novelty_bits"], "bits"),
            "train_s": (train_s, "s"),
            "train_rss_mb": (train_rss, "MiB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0


def ratio(stats, key):
    return stats[key] / stats["requests"] if stats["requests"] else 0.0


def per_layer(w, spec, gen, bare, quality):
    """Traced in-process replay, set against the timed run -> ledger."""
    server = gen["server_low"]
    client_us = gen["low"]["mean_ms"] * 1e3
    cmd = [HARNESS, "trace", "--seed=%d" % w.seed, "--seconds=%s" % w.seconds,
           "--low-rate=%s" % spec["low_rps"], "--dataset-cache=" + w.corpus,
           "--kappa=" + w.kappa, "--split-seed=%d" % w.seed, w.artifact_flag(),
           "--scratch=" + w.work, "--arec=" + w.arec,
           "--train-threads=%d" % w.train_threads,
           "--client-us=%r" % client_us, "--line-us=%r" % server["line_us"],
           "--wait-us=%r" % server["wait_us"],
           "--live-share=%r" % server["live_share"]] + w.mix_flags()
    shards = next((int(a.split("=")[1]) for a in spec["serve"]
                   if a.startswith("--shards=")), 1)
    cmd.append("--shards=%d" % shards)
    if "--multiprocess" in spec["serve"]:
        cmd += ["--serve-bin=" + SERVE, "--child-args=" + " ".join(w.child_args())]
    # On the server CPUs, kept awake as in the timed run: the pipe round
    # trip to a shard child crosses the same thread wake-ups.
    spinners = IdleSpinners()
    try:
        spinners.start()
        t = run_json(cmd, SERVER_CPUS)
    finally:
        spinners.stop()
    layers, values, ledger = t["layers"], t["values"], t["ledger"]

    def layer(name, field="mean_ns"):
        return layers.get(name, {}).get(field, 0.0)

    overhead = 100.0 * (t["traced_ns"] - t["untraced_ns"]) / t["untraced_ns"] \
        if t["untraced_ns"] else 0.0
    print("ledger %s: low rounds, client mean %.1f us (p50 %.1f us)"
          % (w.name, client_us, gen["low"]["p50_ms"] * 1e3))
    print("  %-18s %12s %12s %12s" % ("layer", "us/request", "self mean", "self p99"))
    for name, us in ledger["rows"]:
        key = "request" if name == "request.glue" else name
        print("  %-18s %12.2f %12.2f %12.2f" % (name, us, layer(key) / 1e3,
                                                 layer(key, "p99_ns") / 1e3))
    print("  %-18s %12.2f" % ("layer sum", ledger["layer_sum_us"]))
    print("  %-18s %12.2f (%.1f%%)" % ("unattributed", ledger["unattributed_us"],
                                       ledger["unattributed_pct"]))
    print("  tracing overhead %.1f%%; kernel.bytes_per_user from table sizes: "
          "items x (factors x 8 + 8) + factors x 8" % overhead)

    # "after_publish": the search steps, which all follow the idle PUBLISHes.
    stats_low, stats_after = gen["stats_low"], gen["stats_search"]
    return {
        "frontend.io_us": (client_us - server["line_us"], "us"),
        "protocol.parse_ns": (layer("protocol.parse"), "ns"),
        "protocol.format_ns": (layer("protocol.format"), "ns"),
        "router.route_ns": (layer("router.route"), "ns"),
        "ipc.rtt_us": (values.get("ipc.rtt_us", 0.0), "us"),
        "cache.hit_ratio": (ratio(stats_low, "cache_hits"), "ratio"),
        "cache.hit_ratio.after_publish": (ratio(stats_after, "cache_hits"), "ratio"),
        "cache.lookup_ns": (layer("cache.lookup"), "ns"),
        "cache.insert_ns": (layer("cache.insert"), "ns"),
        "store.hit_ratio": (values.get("store.hit_ratio", 0.0), "ratio"),
        "store.hit_ratio.after_publish": (values.get("store.hit_ratio.after_publish", 0.0),
                                          "ratio"),
        "store.list_ns": (values.get("store.list_ns", 0.0), "ns"),
        "session.mark_ns": (values.get("session.mark_ns", 0.0), "ns"),
        "session.collect_ns": (values.get("session.collect_ns", 0.0), "ns"),
        "session.live_share": (server["live_share"], "ratio"),
        "batcher.fill_mean": (server["fill_mean"], "requests"),
        "batcher.waited_ratio": (server["waited_ratio"], "ratio"),
        "batcher.wait_us": (server["wait_us"], "us"),
        "kernel.ns_per_user.b1": (layer("kernel"), "ns"),
        "kernel.ns_per_user.b8": (values.get("kernel.ns_per_user.b8", 0.0), "ns"),
        "kernel.bytes_per_user": (values.get("kernel.bytes_per_user", 0.0), "bytes"),
        "select.ns": (layer("select"), "ns"),
        "rerank.ns": (layer("rerank"), "ns"),
        "swap.publish_ms": (values.get("swap.publish_ms", 0.0), "ms"),
        "data.open_ms": (values.get("data.open_ms", 0.0), "ms"),
        "data.resident_ms": (values.get("data.resident_ms", 0.0), "ms"),
        "model.load_ms": (values.get("model.load_ms", 0.0), "ms"),
        "store.load_ms": (values.get("store.load_ms", 0.0), "ms"),
        "train.epoch_ms": (values.get("train.epoch_ms", 0.0), "ms"),
        "data.sweep_ms": (values.get("data.sweep_ms", 0.0), "ms"),
        "data.sweep_windows": (values.get("data.sweep_windows", 0.0), "count"),
        "train.save_ms": (values.get("train.save_ms", 0.0), "ms"),
        "gen.lag_p99_ms": (max(gen["low"]["lag_p99_ms"], gen["high"]["lag_p99_ms"]), "ms"),
        "client.max_rps": (gen["max_rps"], "req/s"),
        "client.publish_ms": (gen["publish_ms"], "ms"),
        "client.p90_ms.low": (gen["low"]["p90_ms"], "ms"),
        "client.p90_ms.high": (gen["high"]["p90_ms"], "ms"),
        "client.p99_ms.low": (gen["low"]["p99_ms"], "ms"),
        "client.p99_ms.high": (gen["high"]["p99_ms"], "ms"),
        "client.p50_ms.nospin": (bare["nospin"]["p50_ms"], "ms"),
        "client.p99_ms.noquickack": (bare["noquickack"]["p99_ms"], "ms"),
        "gen.sent": (gen["sent"] + bare["sent"], "count"),
        "gen.failed": (gen["failed"] + bare["failed"], "count"),
        "ledger.client_mean_us": (client_us, "us"),
        "ledger.client_p50_us": (gen["low"]["p50_ms"] * 1e3, "us"),
        "ledger.layer_sum_us": (ledger["layer_sum_us"], "us"),
        "ledger.unattributed_pct": (ledger["unattributed_pct"], "%"),
        "trace.overhead_pct": (overhead, "%"),
        "eval.coverage_items": (quality["coverage_items"], "items"),
        "eval.precision": (quality["precision"], "ratio"),
        "eval.tail_share": (quality["tail_share"], "ratio"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--show-commands", action="store_true",
                        help="print the workload's exact command lines and exit")
    args = parser.parse_args()
    try:
        return run(args)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("benchmark error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
