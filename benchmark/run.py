#!/usr/bin/env python3
"""Benchmark for the xheal library: four workloads, end-to-end and per-layer
metrics, correctness checks, and a traced run.

Usage (from the repository root):

  python3 benchmark/run.py [--seed S] [--reps R] [--smoke] [--out FILE]
      Build, run every workload R times as fresh processes, interleaved
      round-robin, plus one traced pass each; print each end-to-end metric
      with its median and quartiles; write FILE (bench-out/results.json).
  python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1
      Passes of one workload until T seconds have elapsed. The last stdout
      line is one JSON object: {"correct", "attempted", "failed", "metrics"}
      with the end-to-end metrics (--trace 0) or the per-layer ones (1).
  python3 benchmark/run.py compare PARENT.json CHANGE.json
      Verdict per workload and end-to-end metric: better, worse, unchanged,
      or unresolved. Either argument may be a glob pattern of results files,
      whose reps are concatenated in file-name order; pass i of each side
      forms pair i.
  python3 benchmark/run.py --selftest
      The traced stepper must reproduce run() and the executor bit for bit
      at smoke size, seeds 1-3; plus unit checks of the percentile rule.
  python3 benchmark/run.py --repin
      Rewrite benchmark/expected.json. Only for an intentional change of
      semantics (see README.md).

Exit status: 0 success, 1 a correctness check failed, 2 usage or build
error.
"""

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, "bench-out")
XBENCH = os.path.join(BUILD_DIR, "xbench")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ["probe-dex", "churn-repair", "lossy-dist", "forensics"]
DEFAULT_SEED = 1
PIN_SEEDS = {"full": list(range(0, 11)), "smoke": [1, 2, 3]}
PASS_TIMEOUT_S = 150
# spectral::ProbeEngine::probe_lambda2_tol: room for a later change of the
# Lanczos reduction order.
LAMBDA2_TOL = 2e-3
TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mib": "MiB",
}

LAYERS = ["workload", "core", "adversary", "scenario", "spectral", "trace_tools"]

# Per-layer metrics, in BENCHMARK.json order. `_s` names are span self
# times of the traced pass. scenario.stepping_s/probe_s/probe_stall_s come
# from the untraced twin's RunResult (run() times them internally), and the
# sample latencies from the probe times of every untraced pass.
PER_LAYER_UNITS = {
    "scenario.sample_ms_p50": "ms",
    "scenario.sample_ms_p95": "ms",
    "workload.topology_s": "s",
    "core.session_init_s": "s",
    "core.repair_s": "s",
    "core.repair_calls": "count",
    "core.session_s": "s",
    "core.edges_added_per_delete": "1/delete",
    "core.combines_per_delete": "1/delete",
    "core.clouds_touched_per_delete": "1/delete",
    "core.compact_s": "s",
    "core.compactions": "count",
    "core.degree_probe_s": "s",
    "core.invariants_s": "s",
    "core.invariant_checks": "count",
    "adversary.pick_s": "s",
    "adversary.pick_calls": "count",
    "adversary.attach_s": "s",
    "adversary.attach_calls": "count",
    "adversary.skip_frac": "ratio",
    "scenario.trace_s": "s",
    "scenario.stepping_s": "s",
    "scenario.probe_s": "s",
    "scenario.probe_stall_s": "s",
    "scenario.replay_s": "s",
    "scenario.fingerprint_s": "s",
    "spectral.csr_sync_s": "s",
    "spectral.csr_rebuilds": "count",
    "spectral.csr_rows_patched": "count",
    "spectral.lambda2_s": "s",
    "spectral.components_s": "s",
    "spectral.stretch_s": "s",
    "sim.msgs_per_s": "msgs/s",
    "sim.retry_frac": "ratio",
    "sim.msgs_per_delete": "msgs/delete",
    "sim.rounds_per_delete": "rounds/delete",
    "sim.retries_per_delete": "retries/delete",
    "trace_tools.write_s": "s",
    "trace_tools.read_s": "s",
    "trace_tools.trace_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "core.repair_share": "ratio",
    "core.invariants_share": "ratio",
}
PER_LAYER_UNITS.update({layer + ".share": "ratio" for layer in LAYERS})


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


# ----- build -----

def build():
    """Configure once, then build xbench incrementally; exit 2 on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A build file exists only after a configure that succeeded.
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "xbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build failed: %s" % e)
            if rc != 0:
                break
    if rc != 0:
        with open(log_path) as log:
            tail = log.read()[-3000:]
        fail("build failed (%s):\n%s" % (log_path, tail))


# ----- one pass -----

def run_pass(workload, seed, smoke=False, trace=False):
    """One xbench process; returns its JSON report. Raises on a crash."""
    cmd = [XBENCH, "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace", os.path.join(OUT_DIR, "trace")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("xbench %s seed %d exited %d: %s"
                           % (workload, seed, proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----- statistics -----

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(n):
    """Highest percentile with at least TAIL_SAMPLES samples beyond it,
    capped at 95; the median when n is too small for any tail."""
    if n < 2 * TAIL_SAMPLES:
        return 50.0
    return min(95.0, 100.0 * (n - TAIL_SAMPLES) / n)


def percentile(values, p):
    """Nearest-rank percentile; the median for p == 50."""
    ordered = sorted(values)
    if p == 50.0:
        return statistics.median(ordered)
    # The epsilon keeps p = 100 (n - k) / n at rank n - k despite rounding.
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def sample_latency(samples_s):
    """(p50 ms, tail ms, tail percentile used, n) of probe times."""
    ms = [1000.0 * s for s in samples_s]
    p = tail_percentile(len(ms))
    return percentile(ms, 50.0), percentile(ms, p), p, len(ms)


# ----- metrics -----

def pass_metrics(p):
    """End-to-end values of one untraced pass."""
    return {
        "setup_s": p["setup_s"],
        "wall_s": p["wall_s"],
        "events_per_s": p["applied_events"] / (p["wall_s"] - p["setup_used_s"]),
        "peak_rss_mib": p["peak_rss_mib"],
    }


def e2e_metrics(passes):
    """Medians over the passes of a run."""
    per_pass = [pass_metrics(p) for p in passes]
    return {name: statistics.median(m[name] for m in per_pass) for name in E2E_UNITS}


def per_layer_metrics(traced, untraced, untraced_all):
    """Per-layer metrics from a traced pass, its untraced twin (the opaque
    run() timers and the traced/untraced wall ratio), and the probe times
    pooled over every untraced pass of the run."""
    spans = traced["spans"]
    o = traced["outcome"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    wall = spans["bench.pass"]["total_s"]
    deletions = o["deletions"]
    forensics = traced.get("forensics", {})
    p50, tail, _, _ = sample_latency([s for p in untraced_all
                                      for s in p["outcome"]["sample_probe_s"]])
    m = {
        "scenario.sample_ms_p50": p50,
        "scenario.sample_ms_p95": tail,
        "workload.topology_s": self_s("workload.topology"),
        "core.session_init_s": self_s("core.session_init"),
        "core.repair_s": self_s("core.repair"),
        "core.repair_calls": calls("core.repair"),
        "core.session_s": self_s("core.session"),
        "core.edges_added_per_delete": ratio(o["edges_added"], deletions),
        "core.combines_per_delete": ratio(o["combines"], deletions),
        "core.clouds_touched_per_delete": ratio(o["clouds_touched"], deletions),
        "core.compact_s": self_s("core.compact"),
        "core.compactions": o["compactions"],
        "core.degree_probe_s": self_s("core.degree_probe"),
        "core.invariants_s": self_s("core.invariants"),
        "core.invariant_checks": calls("core.invariants"),
        "adversary.pick_s": self_s("adversary.pick"),
        "adversary.pick_calls": calls("adversary.pick"),
        "adversary.attach_s": self_s("adversary.attach"),
        "adversary.attach_calls": calls("adversary.attach"),
        "adversary.skip_frac": ratio(o["skipped"],
                                     o["deletions"] + o["insertions"] + o["skipped"]),
        "scenario.trace_s": self_s("scenario.trace"),
        "scenario.stepping_s": untraced["stepping_s"],
        "scenario.probe_s": untraced["probe_s"],
        "scenario.probe_stall_s": untraced["probe_stall_s"],
        "scenario.replay_s": self_s("scenario.replay"),
        "scenario.fingerprint_s": self_s("scenario.fingerprint"),
        "spectral.csr_sync_s": self_s("spectral.csr_sync"),
        "spectral.csr_rebuilds": o["csr_rebuilds"],
        "spectral.csr_rows_patched": o["csr_rows_patched"],
        "spectral.lambda2_s": self_s("spectral.lambda2"),
        "spectral.components_s": self_s("spectral.components"),
        "spectral.stretch_s": self_s("spectral.stretch"),
        "sim.msgs_per_s": ratio(o["messages"], self_s("core.repair")),
        "sim.retry_frac": ratio(o["retries"], o["messages"]),
        "sim.msgs_per_delete": ratio(o["messages"], deletions),
        "sim.rounds_per_delete": ratio(o["rounds"], deletions),
        "sim.retries_per_delete": ratio(o["retries"], deletions),
        "trace_tools.write_s": self_s("trace_tools.write"),
        "trace_tools.read_s": self_s("trace_tools.read"),
        "trace_tools.trace_bytes": forensics.get("trace_bytes", 0),
        "trace.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
        "trace.coverage_frac": 1.0 - self_s("bench.pass") / wall,
        "core.repair_share": self_s("core.repair") / wall,
        "core.invariants_share": self_s("core.invariants") / wall,
    }
    for layer in LAYERS:
        m[layer + ".share"] = sum(t["self_s"] for name, t in spans.items()
                                  if name.startswith(layer + ".")) / wall
    return m


# ----- correctness -----

def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def lambda2_close(got, want):
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if (g is None) != (w is None):
            return False
        if g is not None and abs(g - w) > LAMBDA2_TOL:
            return False
    return True


def pin_of(p):
    o = p["outcome"]
    pin = {
        "trace_hash": o["trace_hash"],
        "fingerprint": o["fingerprint"],
        "pin_digest": o["pin_digest"],
        "deletions": o["deletions"],
        "insertions": o["insertions"],
        "messages": o["messages"],
        "rounds": o["rounds"],
        "retries": o["retries"],
        "lambda2": o["lambda2"],
    }
    if "forensics" in p:
        pin["exec_hash"] = p["forensics"]["exec_hash"]
    return pin


def check_pass(p, expected):
    """Problems with one pass's outputs; empty when correct."""
    problems = []
    o = p["outcome"]
    for f in o["failures"]:
        problems.append("expect %s failed" % f)
    f = p.get("forensics")
    if f is not None:
        if not f["replay_match"]:
            problems.append("strict replay did not reproduce the recorded run")
        if not f["roundtrip_equal"]:
            problems.append("JSONL write/read/write is not byte-equal")
        if f["findings"]:
            problems.append("oracle findings: %s" % "; ".join(f["findings"][:3]))
        if f["exec_skipped"] != 0 or f["exec_fingerprint"] != o["fingerprint"]:
            problems.append("executor did not apply the recorded stream exactly")
    pin = expected.get("pins", {}).get(p["size"], {}).get(p["workload"], {}).get(str(p["seed"]))
    if pin is not None:
        got = pin_of(p)
        for key, want in pin.items():
            if key == "lambda2":
                if not lambda2_close(got["lambda2"], want):
                    problems.append("lambda2 readings differ from expected.json by > %g"
                                    % LAMBDA2_TOL)
            elif got.get(key) != want:
                problems.append("%s %s != pinned %s" % (key, got.get(key), want))
    return problems


IDENTITY_KEYS = ["trace_hash", "fingerprint", "samples_digest", "deletions", "insertions",
                 "skipped", "compactions", "edges_added", "combines", "clouds_touched",
                 "messages", "rounds", "retries"]


def identity(p):
    ident = {k: p["outcome"][k] for k in IDENTITY_KEYS}
    if "forensics" in p:
        ident["exec_hash"] = p["forensics"]["exec_hash"]
    return ident


def check_same(reference, p, what):
    """Passes of one (workload, seed) must agree bit for bit."""
    a, b = identity(reference), identity(p)
    diff = [k for k in a if a[k] != b[k]]
    return ["%s differs from the first pass in %s" % (what, ", ".join(diff))] if diff else []


# ----- reporting -----

def machine_info(load_before):
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "load_avg_before": load_before,
        "load_avg_after": list(os.getloadavg()),
        "git_commit": "unknown",
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # Only ask git about this tree itself, never about an enclosing one.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            info["git_commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or "unknown"
            info["git_dirty"] = bool(subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def load_bounds():
    with open(SPEC_FILE) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def fmt(v):
    return "%.6g" % v


# ----- modes -----

def workload_mode(args):
    """Passes of one workload for args.seconds; JSON result on the last line."""
    build()
    expected = load_expected()
    deadline = time.monotonic() + args.seconds
    untraced, traced, problems = [], [], []
    failed = 0
    rounds = 0
    while rounds == 0 or time.monotonic() < deadline:
        # --trace 1: an untraced/traced pair per round, alternating which
        # goes first, so the traced wall has a twin to measure overhead by.
        order = [False] if not args.trace else ([False, True] if rounds % 2 == 0
                                                 else [True, False])
        for trace in order:
            p = run_pass(args.workload, args.seed, trace=trace)
            faults = check_pass(p, expected)
            first = (untraced + traced)[:1]
            if first:
                faults += check_same(first[0], p, "traced pass" if trace else "pass")
            (traced if trace else untraced).append(p)
            if faults:
                failed += 1
                problems += faults
        rounds += 1
    attempted = len(untraced) + len(traced)
    for fault in problems:
        print("FAIL %s seed %d: %s" % (args.workload, args.seed, fault))
    if args.trace:
        values = [per_layer_metrics(t, u, untraced) for t, u in zip(traced, untraced)]
        metrics = {name: {"value": statistics.median(v[name] for v in values), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        _, _, pct, n = sample_latency([s for p in untraced
                                       for s in p["outcome"]["sample_probe_s"]])
        print("%s seed %d: %d pairs; scenario.sample_ms_p95 is p%.1f of n=%d samples"
              % (args.workload, args.seed, len(traced), pct, n))
    else:
        med = e2e_metrics(untraced)
        print("%s seed %d: medians of %d passes" % (args.workload, args.seed, len(untraced)))
        metrics = {name: {"value": med[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def full_mode(args):
    """R interleaved reps of every workload, then per workload one traced
    pass between two untraced twins."""
    load_before = list(os.getloadavg())
    build()
    expected = load_expected()
    size = "smoke" if args.smoke else "full"
    reps = args.reps if args.reps else (3 if args.smoke else 5)
    passes = {w: [] for w in WORKLOADS}
    problems = {w: [] for w in WORKLOADS}
    failed = {w: 0 for w in WORKLOADS}
    for r in range(reps):
        # Rotate the order so no workload always runs first.
        for w in WORKLOADS[r % 4:] + WORKLOADS[:r % 4]:
            p = run_pass(w, args.seed, smoke=args.smoke)
            faults = check_pass(p, expected)
            if passes[w]:
                faults += check_same(passes[w][0], p, "pass")
            passes[w].append(p)
            if faults:
                failed[w] += 1
                problems[w] += faults
    results = {"size": size, "seed": args.seed, "reps": reps, "workloads": {}}
    for w in WORKLOADS:
        # The traced pass sits between two untraced twins, so tracing
        # overhead is measured against passes from the same time window.
        twins, t = [], None
        for trace in (False, True, False):
            p = run_pass(w, args.seed, smoke=args.smoke, trace=trace)
            faults = check_pass(p, expected) + check_same(
                passes[w][0], p, "traced pass" if trace else "twin pass")
            if faults:
                failed[w] += 1
                problems[w] += faults
            if trace:
                t = p
            else:
                twins.append(p)
        layers = per_layer_metrics(t, twins[0], passes[w])
        layers["trace.overhead_frac"] = 2.0 * t["wall_s"] / sum(
            p["wall_s"] for p in twins) - 1.0
        per_pass = [pass_metrics(p) for p in passes[w]]
        summary = {}
        for name, unit in E2E_UNITS.items():
            values = [m[name] for m in per_pass]
            q1, q2, q3 = quartiles(values)
            summary[name] = {"unit": unit, "median": q2, "q1": q1, "q3": q3,
                             "values": values}
        results["workloads"][w] = {
            "attempted": reps + 3, "failed": failed[w], "problems": problems[w],
            "metrics": summary, "per_layer": layers,
            "spans": t["spans"], "passes": passes[w], "traced_pass": t,
        }
    results["meta"] = machine_info(load_before)
    results["meta"].update(compiler=passes[WORKLOADS[0]][0]["compiler"],
                           build_type=passes[WORKLOADS[0]][0]["build_type"])
    results["correct"] = not any(failed.values())
    out_path = os.path.abspath(args.out)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(results, f, indent=1)

    for w in WORKLOADS:
        entry = results["workloads"][w]
        print("== %s (%s, seed %d, %d reps; traced: coverage %.1f%%, overhead %+.1f%%)"
              % (w, size, args.seed, reps, 100 * entry["per_layer"]["trace.coverage_frac"],
                 100 * entry["per_layer"]["trace.overhead_frac"]))
        for name, m in entry["metrics"].items():
            print("  %-14s %12s %-8s  q1 %s  q3 %s" % (name, fmt(m["median"]), m["unit"],
                                                    fmt(m["q1"]), fmt(m["q3"])))
        _, _, pct, n = sample_latency([s for p in entry["passes"]
                                       for s in p["outcome"]["sample_probe_s"]])
        layers = entry["per_layer"]
        print("  probe time per sample: p50 %s ms, p%.1f %s ms (n=%d)"
              % (fmt(layers["scenario.sample_ms_p50"]), pct,
                 fmt(layers["scenario.sample_ms_p95"]), n))
        shares = sorted(((name, t["self_s"]) for name, t in entry["spans"].items()),
                        key=lambda kv: -kv[1])[:4]
        wall = entry["spans"]["bench.pass"]["total_s"]
        print("  top self time: " + ", ".join("%s %.1f%%" % (n, 100 * s / wall)
                                              for n, s in shares))
        for fault in entry["problems"]:
            print("  FAIL " + fault)
    print("results: %s (correct: %s)" % (out_path, results["correct"]))
    return 0 if results["correct"] else 1


def load_values(pattern):
    """Per-pass end-to-end values by workload and metric, concatenated over
    every results file the glob pattern names, in file-name order."""
    paths = sorted(glob.glob(pattern))
    if not paths:
        fail("no results file matches %s" % pattern)
    values = {}
    for path in paths:
        with open(path) as f:
            results = json.load(f)
        for w, entry in results["workloads"].items():
            for name, m in entry["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).extend(m["values"])
    return values


def compare_mode(parent_pattern, change_pattern):
    bounds = load_bounds()
    parent = load_values(parent_pattern)
    change = load_values(change_pattern)
    verdicts = []
    for w in WORKLOADS:
        if w not in parent or w not in change:
            continue
        print("== " + w)
        for name, b in bounds.items():
            verdict, line = compare_metric(parent[w][name], change[w][name], b)
            verdicts.append(verdict)
            print("  %-16s %-8s %s" % (name, b["unit"], line))
    print("verdicts: " + ", ".join("%d %s" % (verdicts.count(v), v)
                                   for v in ("better", "worse", "unchanged", "unresolved")))
    return 0


def compare_metric(pv, cv, bound):
    """The verdict rule: better needs >= 9/10 pair wins and a median gap
    larger than the parent's IQR; a spread wider than the bound leaves the
    metric unresolved unless every change run beats (or loses to) every
    parent run."""
    lower = bound["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    pairs = list(zip(pv, cv))
    wins = sum(1 for p, c in pairs if better(c, p))
    win_frac = wins / len(pairs) if pairs else 0.0
    gap = (pm - cm) if lower else (cm - pm)  # > 0: the change is better
    iqr = p3 - p1
    spread = iqr / abs(pm) if pm else 0.0
    worse_by = -gap / abs(pm) if pm else 0.0
    all_better = all(better(c, p) for c in cv for p in pv)
    all_worse = all(better(p, c) for c in cv for p in pv)
    if win_frac >= 0.9 and gap > iqr:
        verdict = "better"
    elif all_worse and worse_by > bound["bound"]:
        verdict = "worse"
    elif spread > bound["bound"] and not all_better:
        verdict = "unresolved"
    elif worse_by > bound["bound"]:
        verdict = "worse"
    else:
        verdict = "unchanged"
    line = ("parent %s [%s, %s]  change %s [%s, %s]  wins %d/%d  %s"
            % (fmt(pm), fmt(p1), fmt(p3), fmt(cm), fmt(c1), fmt(c3), wins, len(pairs),
               verdict.upper()))
    return verdict, line


def selftest_mode():
    problems = []
    # The percentile rule.
    cases = [(1000, 95.0), (200, 95.0), (199, 100.0 * 189 / 199), (41, 100.0 * 31 / 41),
             (20, 50.0), (19, 50.0), (1, 50.0)]
    for n, want in cases:
        got = tail_percentile(n)
        if abs(got - want) > 1e-9:
            problems.append("tail_percentile(%d) = %g, want %g" % (n, got, want))
        if n >= 2 * TAIL_SAMPLES:
            values = list(range(n))
            beyond = sum(1 for v in values if v > percentile(values, got))
            if beyond < TAIL_SAMPLES:
                problems.append("p%g of %d samples has only %d beyond it" % (got, n, beyond))
    if percentile([3.0, 1.0, 2.0, 4.0], 50.0) != 2.5:
        problems.append("percentile(.., 50) is not the median")
    # BENCHMARK.json must list exactly what this script reports.
    with open(SPEC_FILE) as f:
        spec = json.load(f)
    for key, want in (("workloads", [(w, None) for w in WORKLOADS]),
                      ("end_to_end", list(E2E_UNITS.items())),
                      ("per_layer", list(PER_LAYER_UNITS.items()))):
        got = [(m["name"], m.get("unit")) for m in spec[key]]
        if got != want:
            problems.append("BENCHMARK.json %s does not match run.py" % key)

    build()
    expected = load_expected()
    for seed in (1, 2, 3):
        for w in WORKLOADS:
            u = run_pass(w, seed, smoke=True)
            t = run_pass(w, seed, smoke=True, trace=True)
            faults = check_pass(u, expected) + check_pass(t, expected)
            faults += check_same(u, t, "traced pass")
            if set(per_layer_metrics(t, u, [u])) != set(PER_LAYER_UNITS):
                faults.append("per-layer metric names do not match PER_LAYER_UNITS")
            status = "FAIL" if faults else "ok"
            print("%-4s %-12s seed %d  trace %s fingerprint %s samples %s"
                  % (status, w, seed, u["outcome"]["trace_hash"], u["outcome"]["fingerprint"],
                     u["outcome"]["samples_digest"]))
            problems += ["%s seed %d: %s" % (w, seed, i) for i in faults]
    for fault in problems:
        print("FAIL " + fault)
    print("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def repin_mode():
    """Re-pin every (size, workload, seed) in PIN_SEEDS from one pass each."""
    build()
    pins = {}
    for size, seeds in PIN_SEEDS.items():
        pins[size] = {}
        for w in WORKLOADS:
            pins[size][w] = {}
            for seed in seeds:
                p = run_pass(w, seed, smoke=size == "smoke")
                faults = check_pass(p, {"pins": {}})
                if faults:
                    fail("cannot pin %s %s seed %d: %s" % (size, w, seed, "; ".join(faults)), 1)
                pins[size][w][str(seed)] = pin_of(p)
                print("pinned %s %s seed %d" % (size, w, seed))
    doc = {
        "about": "Outputs pinned per size, workload and benchmark seed. Integer sample "
                 "fields, stretch (pin_digest), hashes and billing must match exactly; "
                 "lambda2 readings within lambda2_tol. Re-pin with `run.py --repin` only "
                 "for an intentional semantic change.",
        "lambda2_tol": LAMBDA2_TOL,
        "pins": pins,
    }
    with open(EXPECTED, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            fail("usage: run.py compare PARENT.json CHANGE.json")
        return compare_mode(argv[1], argv[2])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--repin", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.reps < 0:
        fail("--seed and --reps must be non-negative")
    if args.selftest:
        return selftest_mode()
    if args.repin:
        return repin_mode()
    if args.workload:
        return workload_mode(args)
    return full_mode(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        fail(str(e))
