#!/usr/bin/env python3
"""Per-call cost benchmark for pbxcap.

Builds the library and the `pbxbench` harness from this checkout's sources,
runs one workload for a fixed host-time budget, checks the simulated
outputs against the stored goldens, and prints one JSON result line:

    python3 perfbench/run.py --workload table1_packet --seed 3 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. `--regen-golden` rewrites golden.json from the
current sources (only for a change that is meant to alter simulated output).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import datetime
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "pbxbench")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("table1_packet", "fleet_signalling", "trunk_acd_sharded")
SEEDS_PER_RUN = 3
# Profiler categories that fire on at least one workload. `pbx` and
# `timer-wheel` (the traced run's sampler is quiet) fire on none, so they
# are not reported.
CATEGORIES = ("sip", "rtp-packet", "rtp-fluid-flush", "dispatch", "shard-mailbox", "loadgen",
              "acd")
PROBE_METRICS = ("sim.event_ns", "sim.event_allocs", "net.deliver_ns.2taps",
                 "net.deliver_allocs", "net.deliver_ns.64taps", "sip.msg_copy_ns",
                 "sip.msg_copy_allocs", "sip.wire_bytes_ns", "sip.parse_ns", "rtp.jitter_ns",
                 "rtp.rx_stats_ns", "pbx.cpu_charge_ns", "pbx.dialplan_route_ns")
BINARY_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool skip what is up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pbxcap sources next to the benchmark (expected src/CMakeLists.txt)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pbxbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


@functools.lru_cache(maxsize=None)
def no_aslr_prefix():
    """Runs the binary with address-space randomisation off when the host
    allows it: a fixed memory layout removes a run-to-run speed difference
    (on the reference host, the spread of fleet_signalling's wall time per
    call over 8 short runs fell from 25% to 11%)."""
    cmd = ["setarch", os.uname().machine, "-R"]
    try:
        ok = subprocess.run(cmd + ["true"], capture_output=True, timeout=10).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        ok = False
    return tuple(cmd) if ok else ()


def run_binary(args):
    try:
        proc = subprocess.run(list(no_aslr_prefix()) + [BINARY] + [str(a) for a in args],
                              capture_output=True, text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("pbxbench exceeded %d s" % BINARY_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("pbxbench exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_golden():
    with open(GOLDEN) as f:
        return json.load(f)


def sim_seeds(golden, seed):
    """The run's seed picks SEEDS_PER_RUN consecutive entries of the pool of
    seeds whose outputs are stored; exact per-call counts are summed over
    them, which averages out how the offered load of one seed falls."""
    pool = golden["pool"]
    return [pool[(seed * SEEDS_PER_RUN + j) % len(pool)] for j in range(SEEDS_PER_RUN)]


# ---------------------------------------------------------------- checks


class Checks:
    """Fidelity checks of one run. `correct` covers the outputs (goldens,
    exact repeats, causality); `audit` checks are reported in ok_share and
    in the record but do not decide correctness (see README.md)."""

    def __init__(self):
        self.items = []  # (name, ok, detail, audit)

    def add(self, name, ok, detail="", audit=False):
        self.items.append((name, bool(ok), detail, audit))

    def digest(self, label, rep, golden_fields):
        if golden_fields is None:
            self.add(label + ".golden", False, "no golden digest for this seed")
            return
        got = rep["digest"]
        for field in sorted(set(golden_fields) | set(got)):
            want, have = golden_fields.get(field), got.get(field)
            self.add("%s.%s" % (label, field), want == have,
                     "" if want == have else "%s: golden %s, got %s" % (field, want, have))

    def same(self, name, values):
        self.add(name, len(set(values)) == 1, "" if len(set(values)) == 1 else str(values))

    def identities(self, label, rep):
        for ident in rep["identities"]:
            audit = ident["name"] == "calls_conserved"
            self.add("%s.%s" % (label, ident["name"]), ident["ok"], ident["detail"], audit)

    @property
    def correct(self):
        return all(ok for _, ok, _, audit in self.items if not audit)

    @property
    def ok_share(self):
        return sum(1 for _, ok, _, _ in self.items if ok) / len(self.items)

    def failures(self):
        return [{"check": n, "detail": d, "audit": a} for n, ok, d, a in self.items if not ok]


def check_reps(checks, label, reps, digests):
    """Every repetition against its seed's golden; repetitions of one seed
    must repeat their exact counts."""
    for i, rep in enumerate(reps):
        checks.digest("%s[%d]" % (label, i), rep, digests.get(str(rep["seed"])))
        checks.identities("%s[%d]" % (label, i), rep)
    for seed in sorted({r["seed"] for r in reps}):
        same_seed = [r for r in reps if r["seed"] == seed]
        if len(same_seed) > 1:
            for key in ("calls", "completed", "events", "allocs", "alloc_bytes"):
                checks.same("%s.seed%d.%s_repeat" % (label, seed, key),
                            [r[key] for r in same_seed])


# --------------------------------------------------------------- metrics


def end_to_end(raw, n_seeds):
    reps = raw["reps"]
    first = reps[:n_seeds]  # exact counts repeat in every cycle
    calls = sum(r["completed"] for r in first)

    def exact(key):
        return sum(r[key] for r in first) / calls

    # Host times are totals over the whole run: the host's speed drifts on
    # a scale of seconds to minutes, and a total integrates over that.
    wall = sum(r["wall_s"] for r in reps) / sum(r["completed"] for r in reps)
    return {
        "wall_per_call_us": (wall * 1e6, "us"),
        "events_per_call": (exact("events"), "count"),
        "allocs_per_call": (exact("allocs"), "count"),
        "alloc_bytes_per_call": (exact("alloc_bytes"), "B"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.mean(raw["setup_s"]), "s"),
    }


def per_layer(raw):
    traced = raw["traced_reps"]
    rep = traced[0]
    calls = rep["completed"]
    m = {name: (raw["probes"][name], "count" if name.endswith("allocs") else "ns")
         for name in PROBE_METRICS}
    m["sip.msgs_per_call"] = (rep["sip_total"] / calls, "count")
    m["pbx.transcoded_share"] = (rep["transcoded_rtp"] / rep["rtp_relayed"], "ratio")

    # Event counts are exact; sampled timing pools every traced repetition.
    cats = {c["name"]: {"events": c["events"], "samples": 0, "ns": 0}
            for c in rep["profile"]["categories"]}
    for r in traced:
        for c in r["profile"]["categories"]:
            cats[c["name"]]["samples"] += c["timed_samples"]
            cats[c["name"]]["ns"] += c["timed_ns"]
    mean_ns = {n: (c["ns"] / c["samples"] if c["samples"] else 0.0) for n, c in cats.items()}
    est = {n: cats[n]["events"] * mean_ns[n] for n in cats}
    total = sum(est.values()) or 1.0
    for name in CATEGORIES:
        c = cats.get(name, {"events": 0})
        m["prof.%s.events_per_call" % name] = (c["events"] / calls, "count")
        m["prof.%s.ns_per_event" % name] = (mean_ns.get(name, 0.0), "ns")
        m["prof.%s.time_share" % name] = (est.get(name, 0.0) / total, "ratio")

    if rep.get("shards"):
        events = [s["events"] for s in rep["shards"]]
        m["shard.rounds_per_call"] = (rep["shard_rounds"] / calls, "count")
        m["shard.messages_per_call"] = (sum(s["messages_in"] for s in rep["shards"]) / calls,
                                        "count")
        m["shard.hub_event_share"] = (events[0] / sum(events), "ratio")
        par = raw["parallel"][0]
        busy = sum(s["wall_s"] for s in par["shards"])
        m["shard.barrier_wait_share"] = (1.0 - busy / (par["shard_threads"] * par["wall_s"]),
                                         "ratio")
        same_seed = [r["wall_s"] for r in raw["reps"] if r["seed"] == par["seed"]]
        m["shard.parallel_wall_ratio"] = (par["wall_s"] / statistics.median(same_seed), "ratio")
    else:  # the shard executor is not on this workload's path
        for name in ("rounds_per_call", "messages_per_call", "hub_event_share",
                     "barrier_wait_share", "parallel_wall_ratio"):
            m["shard." + name] = (0.0, "count" if name.endswith("per_call") else "ratio")
    untraced_wall = statistics.median(r["wall_s"] for r in raw["reps"])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    m["telemetry.trace_overhead"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return m


# ------------------------------------------------------------ provenance


def source_digest():
    """sha256 over every file under src/ (path and bytes), in path order."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(raw, args, seeds):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "nproc": os.cpu_count(),
        "aslr": "off" if no_aslr_prefix() else "on",
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "sim_seeds": seeds,
        "shard_workers": raw["shard_workers"],
        "trace": args.trace,
        "seconds": args.seconds,
    }


# ------------------------------------------------------------------ main


def regen_golden():
    build()
    golden = load_golden()
    seeds = sorted(set(golden["pool"]) | {golden["held_out_seed"]})
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for s in seeds:
            raw = run_binary(["--workload", workload, "--seeds", s, "--seconds", 0.001,
                              "--trace", 0])
            digests[workload][str(s)] = raw["reps"][0]["digest"]
            print("%s seed %d: %s calls" % (workload, s, raw["reps"][0]["calls"]), file=sys.stderr)
    golden["digests"] = digests
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args()
    if args.regen_golden:
        regen_golden()
        return
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    golden = load_golden()
    seeds = sim_seeds(golden, args.seed)
    held_out = golden["held_out_seed"]
    digests = golden["digests"][args.workload]
    cmd = ["--workload", args.workload, "--seeds", ",".join(str(s) for s in seeds),
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == 1:
        cmd += ["--held-out-seed", held_out]
    raw = run_binary(cmd)

    checks = Checks()
    check_reps(checks, "run", raw["reps"], digests)
    if args.trace == 0:
        metrics = end_to_end(raw, len(seeds))
    else:
        traced = raw["traced_reps"]
        want = digests.get(str(seeds[0]))
        check_reps(checks, "traced", traced, digests)
        checks.add("traced.events_match_untraced", traced[0]["events"] == raw["reps"][0]["events"],
                   "traced %d vs untraced %d" % (traced[0]["events"], raw["reps"][0]["events"]))
        check_reps(checks, "held_out", raw["held_out"], digests)
        if "parallel" in raw:
            one, par = raw["reps"][0], raw["parallel"][0]
            checks.digest("parallel", par, want)
            for key in ("calls", "events", "shard_rounds"):
                checks.same("parallel.%s_match" % key, [one[key], par[key]])
            checks.same("parallel.messages_match",
                        [sum(s["messages_in"] for s in r["shards"]) for r in (one, par)])
            # Each extra worker thread allocates its std::thread state and the
            # pool vector grows: a fixed per-run cost, not a per-call one.
            extra = (par["allocs"] - one["allocs"], par["alloc_bytes"] - one["alloc_bytes"])
            spawned = par["shard_threads"] - one["shard_threads"]
            checks.add("parallel.allocs_match_but_thread_start",
                       0 <= extra[0] <= 2 * spawned and 0 <= extra[1] <= 64 * spawned,
                       "%d workers - %d: %d allocations, %d bytes"
                       % ((par["shard_threads"], one["shard_threads"]) + extra))
        metrics = per_layer(raw)
    if args.trace == 0:
        metrics["ok_share"] = (checks.ok_share, "ratio")

    reps = raw["reps"] + raw.get("traced_reps", [])
    bad = [r for r in reps if r["digest"] != digests.get(str(r["seed"]))]
    record = {
        "provenance": provenance(raw, args, seeds),
        "ok_share": checks.ok_share,
        "failed_checks": checks.failures(),
        "checks": len(checks.items),
        "repetitions": len(raw["reps"]),
        "wall_s": [r["wall_s"] for r in raw["reps"]],
        "sim_queue_depth": raw.get("probes", {}).get("sim.queue_depth"),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump({"record": record, "raw": raw}, f)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": checks.correct,
        "attempted": sum(r["calls"] for r in reps),
        "failed": sum(r["calls"] for r in bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
