#!/usr/bin/env python3
"""The repository benchmark: the `ens-dropcatch` CLI timed from outside.

    python3 perfbench/run.py --workload simulate|analyze|serve|all \
        [--seed 48879] [--seconds 15] [--trace 0|1]

Run from a source checkout. It builds the CLI (and, for `serve` and traced
runs, the helpers in this directory) with cargo into `$CARGO_TARGET_DIR`
(default `.bench_build`), makes its inputs from `--seed`, measures for about
`--seconds`, checks the outputs, and prints one JSON object as its last
line: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
metrics of BENCHMARK.json with `--trace 0`, its per-layer ones with
`--trace 1`. Everything it writes stays under `.bench_work/` in the
checkout. perfbench/README.md describes the workloads, metrics and gates.
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

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import gates  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

DEFAULT_SEED = 48879
# Not used while writing the benchmark: later changes confirm claims on it.
HELD_OUT_SEED = 7

# One input world for all three workloads, sized so a campaign of 70 runs
# fits in under an hour on two shared cores.
PRESET = "paper-scale"
NAMES = 60_000
THREADS = 2
PAGE_SIZE = 100
# Set-ups per run; `setup_s` is their median. `simulate` builds its world
# this often; `analyze` and `serve` build this many different worlds and
# rotate their measured commands over them, so that one world heavy in
# hub-address traffic does not set a run's median.
SETUPS = 3
MIN_REPEATS = 3
# Daemons per `serve` run, a multiple of SETUPS so each world serves alike;
# `wall_s` is the median of their startups.
DAEMONS = 12
# Distinct serve targets; the load generator cycles through them. A multiple
# of the helpers' sampling step (`SAMPLE_EVERY`, 1000), so every sampled
# reply has a reference.
TARGETS = 100_000
COMMAND_TIMEOUT_S = 120
# Candidate worlds a run may skip; see `buildable`.
SPARE_WORLDS = 3

QUERY_TYPES = ["name-risk", "address-forensics", "loss-findings", "report-slice"]
WORKLOADS = ["simulate", "analyze", "serve"]


class BenchError(Exception):
    """The benchmark cannot produce a result (build, set-up or helper failure)."""


def declared_metrics():
    """(end_to_end, per_layer) as [(name, unit)] from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple([(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer"))


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def cargo_build(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace")[-4000:])
        raise BenchError(f"cargo build {' '.join(args)} failed")


def binary(name):
    return str(target_dir() / "release" / name)


def build(workload, trace):
    """The CLI always; the helpers only where the run needs them, so a
    library change that breaks the tracer leaves untraced runs alone."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"{ROOT} holds no ens-dropcatch source tree to build")
    cargo_build("-p", "ens-dropcatch-cli")
    helpers = []
    if workload in ("serve", "all") or trace:
        helpers += ["-p", "perfbench-loadgen", "-p", "perfbench-reference"]
    if trace:
        helpers += ["-p", "perfbench-tracer"]
    if helpers:
        cargo_build("--manifest-path", str(BENCH / "Cargo.toml"), *helpers)


class Run:
    """One finished command: wall time, peak RSS and where its output went."""

    def __init__(self, wall_s, rss_mb, code, stdout, stderr):
        self.wall_s, self.rss_mb, self.code = wall_s, rss_mb, code
        self.stdout, self.stderr = stdout, stderr

    def out(self):
        return self.stdout.read_bytes()

    def check(self, what):
        if self.code != 0:
            tail = self.stderr.read_text(errors="replace")[-2000:]
            raise BenchError(f"{what} exited {self.code}:\n{tail}")
        return self


def reap(proc):
    """Waits for `proc`; returns its exit code and peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def run(work, name, cmd):
    """Runs `cmd` to completion with stdout and stderr in files; a watchdog
    kills it after COMMAND_TIMEOUT_S."""
    stdout, stderr = work / f"{name}.out", work / f"{name}.err"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code, rss_mb = reap(proc)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - t0
    return Run(wall_s, rss_mb, code, stdout, stderr)


def simulate_cmd(seed, dataset, threads=THREADS, chaos=True, checkpoint=None):
    cmd = [
        binary("ens-dropcatch"), "simulate", "--preset", PRESET, "--names", str(NAMES),
        "--seed", str(seed), "--threads", str(threads), "--fail-policy", "degrade",
        "--page-size", str(PAGE_SIZE),
    ]
    if chaos:
        cmd += ["--chaos", f"mixed:{seed}"]
    if checkpoint:
        cmd += ["--checkpoint", str(checkpoint)]
    return cmd + ["--dataset", str(dataset)]


def analyze_cmd(dataset, threads=THREADS):
    return [binary("ens-dropcatch"), "analyze", "--threads", str(threads), "--dataset", str(dataset)]


def world_failed(r):
    """True when a `simulate` panicked while building its world, before the
    crawl started: a synthesis bug for that seed, not a benchmark input."""
    err = r.stderr.read_text(errors="replace")
    return r.code != 0 and "building world" in err and "crawling" not in err


def buildable(work, name, seed, count, cmd_for):
    """Runs `cmd_for(path, world)` over the candidate worlds of `seed` —
    `seed`, then `seed + k * 2^32` — until `count` have built; returns
    [(world, path, Run)]. A candidate whose synthesis panics is skipped, so
    a seed always yields the same inputs."""
    built = []
    for k in range(count + SPARE_WORLDS):
        world, path = seed + (k << 32), work / f"{name}{len(built)}.ensc"
        settle()
        r = run(work, f"{name}{len(built)}", cmd_for(path, world))
        if world_failed(r):
            print(f"perfbench: the world of seed {world} cannot be built; skipping it", file=sys.stderr)
            continue
        built.append((world, path, r.check(f"{name} simulate")))
        if len(built) == count:
            return built
    raise BenchError(f"fewer than {count} of the candidate worlds of seed {seed} could be built")


def clean_cmd(path, world):
    """The set-up of `analyze` and `serve`: the measured `simulate` minus
    chaos and checkpoint."""
    return simulate_cmd(world, path, chaos=False)


def settle():
    """Writes out dirty pages, so that flushing earlier output (datasets,
    checkpoints, a removed work directory) does not share the cores with
    the next timed command."""
    os.sync()


def repeat(seconds, once, rotation=1):
    """Calls `once(i)` until `seconds` have passed, at least MIN_REPEATS
    times, and a multiple of `rotation` times, settling before each call;
    returns the results. A command that rotates over `rotation` inputs so
    gives each the same weight, however fast the program is."""
    results, t0 = [], time.perf_counter()
    while len(results) < MIN_REPEATS or len(results) % rotation or time.perf_counter() - t0 < seconds:
        settle()
        results.append(once(len(results)))
    return results


def http_get(addr, target):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as s:
        s.sendall(f"GET {target} HTTP/1.1\r\nHost: {addr}\r\n\r\n".encode())
        data = b""
        while chunk := s.recv(65536):
            data += chunk
    return int(data.split(b" ", 2)[1])


class Daemon:
    """`ens-dropcatch serve` on an OS-assigned port. `startup_s` runs from
    spawn to the first `/healthz` 200; `stop()` kills it and returns its
    peak RSS in MB."""

    def __init__(self, work, name, dataset):
        cmd = [
            binary("ens-dropcatch"), "serve", "--threads", str(THREADS), "--workers", str(THREADS),
            "--addr", "127.0.0.1:0", "--dataset", str(dataset),
        ]
        self.rss_mb = None
        self.stderr = open(work / f"{name}.err", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=self.stderr)
        self.watchdog = threading.Timer(COMMAND_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        try:
            line = self.proc.stdout.readline().decode()
            if not line.startswith("serving on http://"):
                raise BenchError(f"serve printed {line!r} instead of its address")
            self.addr = line.split("http://", 1)[1].split()[0]
            if http_get(self.addr, "/healthz") != 200:
                raise BenchError("/healthz did not answer 200")
            self.startup_s = time.perf_counter() - t0
        except BaseException:
            self.stop()
            raise

    def stop(self):
        if self.rss_mb is None:
            self.proc.send_signal(signal.SIGKILL)
            _, self.rss_mb = reap(self.proc)
            self.watchdog.cancel()
            self.proc.stdout.close()
            self.stderr.close()
        return self.rss_mb


class Reference:
    """The request targets for one world's dataset, in `<name>.targets`, and
    the in-process answer to each."""

    def __init__(self, work, name, world, dataset):
        self.path = work / f"{name}.targets"
        run(work, name, [
            binary("perfbench-reference"), "--dataset", str(dataset), "--threads", str(THREADS),
            "--seed", str(world), "--count", str(TARGETS), "--targets", str(self.path),
            "--expected", str(work / f"{name}.expected"), "--samples", str(work / f"{name}.samples"),
        ]).check("perfbench-reference")
        self.targets = self.path.read_text().splitlines()
        self.expected = gates.read_expected((work / f"{name}.expected").read_bytes())
        self.samples = gates.read_samples((work / f"{name}.samples").read_bytes())

    def failures(self, records, samples):
        """Indices of the requests whose reply differs from the reference."""
        failed = set(gates.serve_failures(records, self.expected))
        return failed | set(gates.sample_failures(samples, self.samples, len(self.targets)))


def load(work, name, addr, targets, seconds, start):
    """One closed-loop replay of the `targets` file against `addr`; returns
    its summary, the per-request records and the sampled replies."""
    done = run(work, name, [
        binary("perfbench-loadgen"), "--addr", addr, "--targets", str(targets),
        "--seconds", f"{seconds:.3f}", "--start", str(start),
        "--out", str(work / f"{name}.bin"), "--samples", str(work / f"{name}.samples"),
    ]).check("perfbench-loadgen")
    summary = json.loads(done.out())
    records = gates.read_records((work / f"{name}.bin").read_bytes())
    samples = gates.read_samples((work / f"{name}.samples").read_bytes())
    return summary, records, samples


def nearest_rank(sorted_values, p):
    rank = -(-len(sorted_values) * p // 100)
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


def latency_stats(records):
    """Round-trip p50 and p99 in µs, with the sample count and how many
    samples lie beyond the p99."""
    ns = sorted(r[2] for r in records)
    p99 = nearest_rank(ns, 99)
    return {
        "p50_us": nearest_rank(ns, 50) / 1e3,
        "p99_us": p99 / 1e3,
        "n": len(ns),
        "beyond_p99": sum(1 for v in ns if v > p99),
    }


def spread(values):
    """Median and quartiles of one metric's samples within this run."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Outcome:
    """What a workload hands back: per-metric samples (untraced) or measured
    per-layer metrics (traced), with attempts, failures and problems."""

    def __init__(self, samples=None, attempted=1, failed=0, problems=(), extra=None):
        self.samples, self.attempted, self.failed = samples, attempted, failed
        self.problems, self.extra = list(problems), extra or {}


def commands(seconds, once, rotation=1):
    """Repeats a checked command; `once(i)` returns (Run, problems)."""
    runs = repeat(seconds, once, rotation)
    problems = [p for _, found in runs for p in found]
    return [r for r, _ in runs], sum(1 for _, found in runs if found), problems


def batch_samples(runs, setup_walls):
    walls = [r.wall_s for r in runs]
    return {
        "wall_s": walls,
        "setup_s": setup_walls,
        "throughput": [NAMES / w for w in walls],
        "peak_rss_mb": [r.rss_mb for r in runs],
    }


# -- untraced workloads: end-to-end metrics ---------------------------------


def simulate_timed(work, seed, seconds):
    # The set-up is the gate's reference: the same command at --threads 1
    # without a checkpoint.
    [(world, reference, first)] = buildable(
        work, "reference", seed, 1, lambda p, w: simulate_cmd(w, p, threads=1))
    expected = reference.read_bytes()
    setup_walls, problems = [first.wall_s], []
    for i in range(1, SETUPS):
        copy = work / f"reference{i}.ensc"
        settle()
        setup_walls.append(run(work, f"reference{i}", simulate_cmd(world, copy, threads=1)).check("simulate").wall_s)
        problems += gates.same_bytes(expected, copy.read_bytes(), f"reference copy {i}")

    def once(i):
        out = work / "measured.ensc"
        r = run(work, f"measured{i}", simulate_cmd(world, out, checkpoint=work / "measured.ckpt"))
        return r, [f"simulate exited {r.code}"] if r.code else gates.same_bytes(expected, out.read_bytes())

    runs, failed, found = commands(seconds, once)
    return Outcome(batch_samples(runs, setup_walls), len(runs), failed, problems + found,
                   {"worlds": [world], "crawl": gates.crawl_health(runs[0].stderr.read_text(errors="replace"))})


def analyze_timed(work, seed, seconds):
    worlds = buildable(work, "dataset", seed, SETUPS, clean_cmd)
    references = [
        run(work, f"reference{k}", analyze_cmd(path, threads=1)).check("reference analyze").out()
        for k, (_, path, _) in enumerate(worlds)
    ]

    def once(i):
        k = i % len(worlds)
        r = run(work, f"measured{i}", analyze_cmd(worlds[k][1]))
        return r, [f"analyze exited {r.code}"] if r.code else gates.analyze_gate(references[k], r.out())

    runs, failed, found = commands(seconds, once, len(worlds))
    return Outcome(batch_samples(runs, [r.wall_s for _, _, r in worlds]), len(runs), failed, found,
                   {"worlds": [w for w, _, _ in worlds]})


def serve_timed(work, seed, seconds):
    worlds = buildable(work, "dataset", seed, SETUPS, clean_cmd)
    references = [Reference(work, f"reference{k}", world, path) for k, (world, path, _) in enumerate(worlds)]
    # Per world: the records and sampled replies of its daemons, in request order.
    records, samples = [[] for _ in worlds], [{} for _ in worlds]
    startups, rss, rates = [], [], []
    for d in range(DAEMONS):
        k = d % len(worlds)
        settle()
        daemon = Daemon(work, f"daemon{d}", worlds[k][1])
        try:
            summary, recs, smp = load(
                work, f"load{d}", daemon.addr, references[k].path, seconds / DAEMONS, len(records[k]))
        finally:
            rss.append(daemon.stop())
        startups.append(daemon.startup_s)
        rates.append(summary["count"] / summary["seconds"])
        records[k] += recs
        samples[k].update(smp)
    failed = [(k, i) for k, ref in enumerate(references) for i in sorted(ref.failures(records[k], samples[k]))]
    problems = [f"world {k} request {i} differs from the in-process answer" for k, i in failed[:20]]
    every = [r for recs in records for r in recs]
    samples = {"wall_s": startups, "setup_s": [r.wall_s for _, _, r in worlds], "throughput": rates,
               "peak_rss_mb": rss}
    return Outcome(samples, len(every), len(failed), problems,
                   {"worlds": [w for w, _, _ in worlds], "latency": latency_stats(every), "requests": len(every)})


# -- the traced run: per-layer metrics ---------------------------------------


def tracer(work, name, *args):
    done = run(work, name, [binary("perfbench-tracer"), *args, "--spans", str(work / f"{name}.spans.jsonl")])
    return json.loads(done.check("perfbench-tracer").out())


def simulate_traced(work, seed):
    """The `simulate` workload's command, traced, against its untraced wall."""
    untraced = [
        run(work, f"sim-untraced{i}", simulate_cmd(seed, work / "untraced.ensc", checkpoint=work / "untraced.ckpt"))
        .check("simulate")
        for i in range(2)
    ]
    trace = tracer(
        work, "sim-tracer", "simulate", "--names", str(NAMES), "--seed", str(seed),
        "--threads", str(THREADS), "--page-size", str(PAGE_SIZE),
        "--checkpoint", str(work / "traced.ckpt"), "--out", str(work / "traced.ensc"),
    )
    problems = gates.same_bytes(
        (work / "untraced.ensc").read_bytes(), (work / "traced.ensc").read_bytes(), "traced dataset")
    return trace, statistics.median(r.wall_s for r in untraced), problems


def analyze_traced(work, dataset):
    untraced = [run(work, f"ana-untraced{i}", analyze_cmd(dataset)).check("analyze") for i in range(MIN_REPEATS)]
    trace = tracer(work, "ana-tracer", "analyze", "--dataset", str(dataset), "--threads", str(THREADS),
                   "--out", str(work / "traced.txt"))
    problems = gates.analyze_gate(untraced[0].out(), (work / "traced.txt").read_bytes())
    return trace, statistics.median(r.wall_s for r in untraced), problems


def serve_traced(work, world, dataset, seconds):
    reference = Reference(work, "reference", world, dataset)
    daemon = Daemon(work, "daemon", dataset)
    try:
        summary, records, samples = load(work, "load", daemon.addr, reference.path, seconds, 0)
    finally:
        daemon.stop()
    trace = tracer(
        work, "srv-tracer", "serve", "--dataset", str(dataset), "--threads", str(THREADS),
        "--targets", str(reference.path), "--start", "0", "--count", str(len(records)),
        "--out", str(work / "traced.bin"),
    )
    problems = []
    replayed = gates.read_expected((work / "traced.bin").read_bytes())
    if replayed != [(s, length, h) for s, _, _, length, h in records]:
        problems.append("in-process replies differ from the HTTP replies")
    problems += [f"request {i} differs from the reference" for i in sorted(reference.failures(records, samples))[:20]]
    targets = reference.targets

    latency = latency_stats(records)
    metrics = trace["metrics"]
    for name in QUERY_TYPES:
        metrics[f"serve.requests.{name}"] = sum(
            1 for i in range(len(records)) if targets[i % len(targets)].startswith(f"/{name}?"))
    metrics["serve.error_replies"] = sum(1 for r in records if r[0] != 200)
    metrics["serve.reply_bytes"] = sum(r[3] for r in records)
    metrics["http.round_trip_p50_us"] = latency["p50_us"]
    metrics["http.round_trip_p99_us"] = latency["p99_us"]
    metrics["http.transport_us"] = latency["p50_us"] - metrics["serve.inprocess_us"]
    metrics["http.connections_per_request"] = summary["connections_opened"] / len(records)
    return trace, daemon.startup_s, problems, latency, len(records)


def traced_run(work, seed, seconds):
    """Every workload's command under spans, so each traced run measures
    every per-layer metric: `simulate` as timed, then `analyze` and `serve`
    on the clean dataset of their set-up, which also settles the world seed."""
    [(world, dataset, _)] = buildable(work, "dataset", seed, 1, clean_cmd)
    sim, sim_untraced, problems = simulate_traced(work, world)
    ana, ana_untraced, found = analyze_traced(work, dataset)
    problems += found
    srv, srv_untraced, found, latency, requests = serve_traced(work, world, dataset, seconds)
    problems += found

    metrics, blocks = {}, {}
    for workload, trace, untraced in (("simulate", sim, sim_untraced), ("analyze", ana, ana_untraced),
                                      ("serve", srv, srv_untraced)):
        clash = metrics.keys() & trace["metrics"].keys()
        if clash:
            raise BenchError(f"per-layer metrics measured twice: {sorted(clash)}")
        metrics.update(trace["metrics"])
        metrics[f"{workload}.unattributed_s"] = trace["unattributed_s"]
        metrics[f"{workload}.trace_overhead_s"] = trace["total_s"] - untraced
        blocks[workload] = {**{k: trace[k] for k in ("total_s", "unattributed_s", "layers", "parts")},
                            "untraced_s": untraced}
    return Outcome(metrics, 3, int(bool(problems)), problems,
                   {"worlds": [world], "attribution": blocks, "latency": latency, "requests": requests})


TIMED = {"simulate": simulate_timed, "analyze": analyze_timed, "serve": serve_timed}


def attribution_lines(blocks):
    """Each workload's layers by self time and share of the traced total."""
    lines = []
    for workload, b in blocks.items():
        total = b["total_s"]
        lines.append(f"  {workload:30} {'self_s':>9} {'share':>7}")
        rows = list(b["layers"].items()) + [("(unattributed)", b["unattributed_s"])]
        lines += [f"    {name:28} {s:9.4f} {s / total:7.1%}" for name, s in rows]
        if b["parts"]:
            lines.append("    serve.state_build, replayed call by call:")
            lines += [f"      {name:26} {s:9.4f}" for name, s in b["parts"].items()]
            residual = b["layers"].get("serve.state_build", 0.0) - sum(b["parts"].values())
            lines.append(f"      {'(residual; noise if < 0)':26} {residual:9.4f}")
        lines.append(f"    {'traced total':28} {total:9.4f}")
        lines.append(f"    {'untraced':28} {b['untraced_s']:9.4f}   overhead {total - b['untraced_s']:+.4f} s")
    return lines


def source_digest():
    """SHA-256 over the sources a build reads, standing in for a git
    revision where the checkout has none."""
    h = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "src", ROOT / "crates", ROOT / "vendor", BENCH]
    files = []
    for r in roots:
        files += [r] if r.is_file() else [p for p in r.rglob("*") if p.is_file()]
    for p in sorted(f for f in files if "__pycache__" not in f.parts and "target" not in f.parts):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def envelope(args, outcome):
    def output(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    env = {
        "seed": args.seed,
        "worlds": outcome.extra["worlds"],
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "rustc": output(["rustc", "-V"]),
        "preset": PRESET,
        "names": NAMES,
        "threads": THREADS,
        "page_size": PAGE_SIZE,
    }
    if "requests" in outcome.extra:
        env["requests"] = outcome.extra["requests"]
    return env


def measure(workload, args):
    """One workload's run: writes result.json and returns the human-readable
    lines and the result line's fields."""
    end_to_end, per_layer = declared_metrics()
    work = ROOT / ".bench_work" / f"{workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    settle()
    if args.trace:
        outcome = traced_run(work, args.seed, args.seconds)
    else:
        outcome = TIMED[workload](work, args.seed, args.seconds)
    # A run leaves ~100 MB of inputs and records; a campaign of 70 runs
    # keeps only what explains a result: the logs, spans and result.json.
    for pattern in ("*.ensc", "*.ckpt*", "*.bin", "*.targets", "*.expected", "*.samples"):
        for path in work.glob(pattern):
            path.unlink()

    lines, stats = [], {}
    if args.trace:
        missing = [name for name, _ in per_layer if name not in outcome.samples]
        if missing:
            raise BenchError(f"per-layer metrics not measured: {missing}")
        metrics, units = outcome.samples, per_layer
        lines += attribution_lines(outcome.extra["attribution"])
    else:
        stats = {name: spread(values) for name, values in outcome.samples.items()}
        metrics, units = {name: s["median"] for name, s in stats.items()}, end_to_end
        lines += [
            f"  {name:12} {stats[name]['median']:14.6f} {unit:4} q1 {stats[name]['q1']:.6f}"
            f"  q3 {stats[name]['q3']:.6f}  n {stats[name]['n']}"
            for name, unit in end_to_end
        ]
    failed = max(outcome.failed, int(bool(outcome.problems)))
    lines.append(f"  {'fail_share':12} {failed / outcome.attempted:14.6f} ratio "
                 f"({failed} failed of {outcome.attempted} attempted)")
    if "crawl" in outcome.extra:
        c = outcome.extra["crawl"]
        lines.append(f"  crawl        {c['gaps']} gaps, item recovery {c['item_recovery']:.3%}"
                     " (injected faults; the --threads 1 reference has the same)")
    if "latency" in outcome.extra:
        lat = outcome.extra["latency"]
        lines.append(f"  round trip   p50 {lat['p50_us']:.1f} us  p99 {lat['p99_us']:.1f} us"
                     f"  n {lat['n']} ({lat['beyond_p99']} beyond p99)")
    lines += [f"  problem: {p}" for p in outcome.problems[:20]]

    result = {
        "workload": workload,
        "envelope": envelope(args, outcome),
        "stats": stats,
        "samples": {} if args.trace else outcome.samples,
        "metrics": metrics,
        "attempted": outcome.attempted,
        "failed": failed,
        "problems": outcome.problems,
        **{k: v for k, v in outcome.extra.items() if k not in ("requests", "worlds")},
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    lines.insert(0, f"{workload} (seed {args.seed}, trace {args.trace}): {work / 'result.json'}")
    return lines, {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One traced run measures every layer, so `all` traces once.
    workloads = WORKLOADS if args.workload == "all" and not args.trace else [args.workload]
    results = {}
    try:
        build(args.workload, args.trace)
        for workload in workloads:
            lines, results[workload] = measure(workload, args)
            print("\n".join(lines), flush=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
