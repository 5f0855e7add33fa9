#!/usr/bin/env python3
"""The xatpg benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the repository root.  The script builds perfbench_driver (a
Release build of the library plus driver.cpp, in .bench_build/), turns the
seed into the workload's inputs, lets the driver make measured passes for
about --seconds (at least three), checks every result against
reference.json, and prints one JSON
object as the last line of standard output.  With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer metrics, and writes a
Chrome trace-event file (Perfetto loads it) to .bench_build/.

    python3 perfbench/run.py --record

re-records reference.json (digests, costs and counts of every circuit the
workloads may draw); do that only when results are meant to change.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
DRIVER_TIMEOUT_S = 170

# --- workload definitions ------------------------------------------------------

SI_NAMES = [
    "alloc-outbound", "atod", "chu150", "converta", "dff", "ebergen", "hazard",
    "master-read", "mmu", "mp-forward-pkt", "mr1", "nak-pa", "nowick",
    "ram-read-sbuf", "rcv-setup", "rpdft", "sbuf-ram-write", "sbuf-send-ctl",
    "sbuf-send-pkt2", "seq4", "trimos-send", "vbe10b", "vbe5b", "vbe6a",
]
BD_NAMES = ["chu150", "converta", "ebergen", "hazard", "nowick", "rpdft",
            "trimos-send", "vbe10b", "vbe6a"]
TABLES = [f"si/{n}" for n in SI_NAMES] + [f"bd/{n}" for n in BD_NAMES]

# Netlists: circuits every pass runs, plus seeded random members.  Shapes
# stop at 4 inputs because 5-input members take tens of seconds each.
NETLIST_FIXED = ["parity/8", "parity/9", "parity/10", "bench/c17", "bench/mux4"]
NETLIST_SHAPES = {"3x8": 22, "4x10": 3}     # members drawn per pass
NETLIST_POOL_SEEDS = {"3x8": range(1, 121), "4x10": range(1, 41)}
NETLIST_MEMBER_CAP_MS = {"3x8": 300, "4x10": 500}  # pool cost cap

# Serve: every named benchmark but the two slowest (si/mr1 and
# si/sbuf-send-ctl, seconds of synthesis each, which would take half of
# every pass) and some random 3x8 members once for both fault universes,
# the same named benchmarks once more for one universe (a cache miss that
# synthesises again), and exact repeats (cache hits).
# The hit share stays near a third so the request median falls among cold
# requests.  One client and one worker: with two of each, the tail latency
# depended on which heavy requests happened to overlap, and its quartile
# spread over ten runs (0.25-0.36) reached the bound.
SERVE_XNL = 16
SERVE_CAP_MS = 100
SERVE_REPEAT_SHARE = 1 / 3
SERVE_WORKERS = 1
FAULT_SPECS = ["input", "output", "both"]

THREADS = {"tables": 1, "netlists": 4, "serve": 1}
# Passes per run: the driver makes passes while the next one, at the mean
# pass time so far, would end within --seconds, and at least MIN_PASSES,
# so every operation's latency is the median of at least three runs.
MIN_PASSES = 3
# setup_s is the median over batches (one before every pass, one after the
# last) of the mean set-up time in a batch of SETUP_BATCH set-ups: one
# set-up is well under a millisecond, too short to time steadily alone.
SETUP_BATCH = 100
# Host-speed calibration (calibration_ms in driver.cpp): a fixed piece of
# work that calls nothing in the library, sampled once between circuits and
# CALIBRATION_SAMPLES times before and after every pass and set-up batch,
# all outside the timed windows.  The host's speed drifts by tens of
# percent within a minute, and every timing moves with it, so each pass's
# timings are scaled by (CALIBRATION_NOMINAL_MS / its median sample) to the
# power CALIBRATION_ELASTICITY: times are reported at the speed at which a
# sample takes CALIBRATION_NOMINAL_MS (about the baseline host's typical
# speed).  The elasticity is measured: on the baseline host the library's
# times moved with about the square of the sample time (log-log slope
# 1.5-2.8 over passes, about 2 on every workload, correlation 0.7-0.96), as
# memory-bound code slows more than the cache-resident sample when
# neighbours load the host.
CALIBRATION_KIB = 256
CALIBRATION_PROBES = 1_000_000
CALIBRATION_SAMPLES = 5
CALIBRATION_NOMINAL_MS = 12.0
CALIBRATION_ELASTICITY = 2.0
BALANCE_TRIES = 400
MAX_ORDERS = 16


def circuit_spec(cid):
    """The driver's description of a circuit id such as si/mr1 or rand/3x8/7."""
    kind, _, rest = cid.partition("/")
    if kind in ("si", "bd"):
        return {"id": cid, "kind": "benchmark", "name": rest, "style": kind}
    if kind == "rand":
        shape, seed = rest.split("/")
        inputs, gates = shape.split("x")
        return {"id": cid, "kind": "random", "seed": int(seed),
                "inputs": int(inputs), "gates": int(gates)}
    if kind == "parity":
        return {"id": cid, "kind": "parity", "inputs": int(rest)}
    if kind == "bench":
        return {"id": cid, "kind": "embedded", "name": rest}
    raise ValueError(f"unknown circuit id {cid!r}")


def balanced_draw(rng, groups, cost):
    """One member per cost stratum of each (pool, count) group, so every
    draw spreads over the pool's cost range the same way; of BALANCE_TRIES
    such draws keep the one whose totals lie closest to their expectation.
    `cost(member)` is a tuple of additive quantities, the first of them a
    time; the score sums each total's relative distance from expected."""
    strata, expected = [], None
    for pool, count in groups:
        ordered = sorted(pool, key=lambda m: cost(m)[0])
        for i in range(count):
            stratum = ordered[i * len(ordered) // count:(i + 1) * len(ordered) // count]
            strata.append(stratum)
            mean = [statistics.fmean(c) for c in zip(*(cost(m) for m in stratum))]
            expected = mean if expected is None else [a + b for a, b in zip(expected, mean)]
    best, best_score = None, math.inf
    for _ in range(BALANCE_TRIES):
        draw = [rng.choice(stratum) for stratum in strata]
        totals = [sum(c) for c in zip(*(cost(m) for m in draw))]
        score = sum(abs(t / e - 1) for t, e in zip(totals, expected) if e)
        if score < best_score:
            best, best_score = draw, score
    return best


def netlist_pool(reference, shape):
    cap = NETLIST_MEMBER_CAP_MS[shape]
    return sorted((cid for cid, r in reference["netlists"].items()
                   if cid.startswith(f"rand/{shape}/") and r["ms"] <= cap),
                  key=lambda cid: int(cid.rsplit("/", 1)[1]))


def pass_orders(rng, n):
    """A fresh circuit order for each pass, so order effects (cache and
    allocator state left by the previous circuit) average out in a run."""
    orders = []
    for _ in range(MAX_ORDERS):
        order = list(range(n))
        rng.shuffle(order)
        orders.append(order)
    return orders


def make_spec(workload, seed, reference):
    """The workload's inputs for `seed`: the same seed gives the same spec."""
    rng = random.Random(f"{workload}:{seed}")
    spec = {"workload": workload, "threads": THREADS[workload],
            "setup_batch": SETUP_BATCH, "workers": SERVE_WORKERS,
            "calibration_kib": CALIBRATION_KIB, "calibration_probes": CALIBRATION_PROBES,
            "calibration_samples": CALIBRATION_SAMPLES}
    if workload == "tables":
        ids = list(TABLES)
    elif workload == "netlists":
        ref = reference["netlists"]

        def cost(cid):
            r = ref[cid]
            return (r["ms"], r["covered"], r["total"], r["vectors"])

        groups = [(netlist_pool(reference, s), n) for s, n in NETLIST_SHAPES.items()]
        ids = NETLIST_FIXED + balanced_draw(rng, groups, cost)
    elif workload == "serve":
        return serve_spec(rng, reference, spec)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec["circuits"] = [circuit_spec(c) for c in ids]
    spec["orders"] = pass_orders(rng, len(ids))
    return spec


def serve_spec(rng, reference, spec):
    ref = reference["serve"]

    def cost(key):
        r = ref[key]
        return (r["ms"], r["covered"], r["total"])

    # Cold requests: the named benchmarks and SERVE_XNL random members
    # (one per cost stratum of the pool), each for both fault universes.
    named = [cid for cid in TABLES if ref[f"{cid}|both"]["ms"] <= SERVE_CAP_MS]
    xnl_pool = netlist_pool(reference, "3x8")
    xnl = balanced_draw(rng, [(xnl_pool, SERVE_XNL)], lambda c: cost(f"{c}|both"))
    cold = [f"{cid}|both" for cid in named + xnl]
    # Re-spec requests: named benchmarks again for one universe, the
    # universes drawn so the requests' cost and coverage stay near their
    # expectation: cache misses that build and synthesise the circuit again.
    respec = balanced_draw(rng, [([f"{cid}|input", f"{cid}|output"], 1) for cid in named],
                           cost)
    n_repeat = round((len(cold) + len(respec)) * SERVE_REPEAT_SHARE
                     / (1 - SERVE_REPEAT_SHARE))
    requests = cold + respec
    repeated = rng.sample(requests, n_repeat)
    # A fresh order for each pass, as on the circuit workloads, so order
    # effects (the heap and caches one request leaves the next) average out
    # in a run.  One closed-loop client sends a pass's stream; each exact
    # repeat follows its original, whose result the client has before the
    # repeat goes out, so every repeat is a cache hit.
    streams = []
    for _ in range(MAX_ORDERS):
        stream = list(requests)
        rng.shuffle(stream)
        for key in repeated:
            stream.insert(rng.randrange(stream.index(key) + 1, len(stream) + 1), key)
        streams.append(stream)
    circuit_ids = sorted({key.split("|")[0] for key in cold + respec})
    index = {cid: i for i, cid in enumerate(circuit_ids)}
    spec["circuits"] = [circuit_spec(c) for c in circuit_ids]
    spec["streams"] = [[{"circuit": index[key.split("|")[0]], "faults": key.split("|")[1]}
                        for key in stream] for stream in streams]
    return spec


# --- statistics ----------------------------------------------------------------

def tail_quantile(ops, wanted):
    """The highest quantile up to `wanted` with at least ten of `ops`
    operations beyond it; the median when there are too few for any higher
    one.  Operations, not runs, are the samples: every pass repeats the
    same operations, so its runs add none to the tail."""
    return max(0.5, min(wanted, 1.0 - 10 / ops)) if ops else 0.5


def percentile(values, q):
    """Harrell-Davis estimate of quantile q in (0, 1): the mean of the order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density over their
    ranks.  Unlike a single order statistic it does not jump when one
    operation crosses a gap between clusters of latencies (the workloads'
    circuits fall into such clusters), so a one-rank change in which
    operations a seed draws moves it by a fraction of the gap."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    if n == 1 or not 0 < q < 1:
        return ordered[0] if n == 1 or q <= 0 else ordered[-1]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)

    steps = 16  # Simpson's rule on each rank's interval [(i-1)/n, i/n]
    estimate = total = 0.0
    for i, x in enumerate(ordered):
        lo, width = i / n, 1 / n
        h = width / steps
        weight = density(lo) + density(lo + width)
        weight += sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weight *= h / 3
        estimate += weight * x
        total += weight
    return estimate / total


def timing(runs_by_op, wanted=0.90):
    """(p50, tail value, tail quantile, operations, runs) for one timing.
    Each operation's latency is the median of its runs (passes repeat the
    same operations), which keeps a preempted run from moving the
    percentiles; the percentiles are taken across operations."""
    medians = [statistics.median(r) for r in runs_by_op.values() if r]
    q = tail_quantile(len(medians), wanted)
    count = sum(len(r) for r in runs_by_op.values())
    return percentile(medians, 0.5), percentile(medians, q), q, len(medians), count


def speed_factor(samples):
    """Scale from a timing taken next to these calibration samples to the
    nominal host speed."""
    return (CALIBRATION_NOMINAL_MS / statistics.median(samples)) ** CALIBRATION_ELASTICITY


# Counters that sum microseconds.
TIME_COUNTERS = ("sim.settle_us_total", "sim.fault_sim_step_us_total")


def normalise(raw):
    """Scale every timing of the driver's output, in place, to the nominal
    host speed: each pass by its own calibration samples, each set-up batch
    by the calibration batch just before it."""
    for p in raw["passes"]:
        f = p["speed"] = speed_factor(p["calibration_ms"])
        p["wall_s"] *= f
        for item in p["items"]:
            item["ms"] *= f
            item["engine_ms"] *= f
            if item["admit_ms"] >= 0:
                item["admit_ms"] *= f
        for s in p["spans"]:
            s["start_us"] *= f
            s["end_us"] *= f
        for name in TIME_COUNTERS:
            if name in p["counters"]:
                p["counters"][name] *= f
    raw["setup_s"] = [s * speed_factor(c)
                      for s, c in zip(raw["setup_s"], raw["setup_calibration_ms"])]
    speeds = [p["speed"] for p in raw["passes"]]
    print(f"[perfbench] host speed: passes scaled by {min(speeds):.3f}-{max(speeds):.3f} "
          f"to a {CALIBRATION_NOMINAL_MS} ms calibration sample", file=sys.stderr)


def self_times(spans):
    """Per span name: total of (duration - time covered by its children)."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    totals = {}
    for i, s in enumerate(spans):
        covered = union_length([(spans[c]["start_us"], spans[c]["end_us"])
                                for c in children.get(i, [])])
        own = s["end_us"] - s["start_us"] - covered
        totals[s["name"]] = totals.get(s["name"], 0.0) + own / 1000.0
    return totals


def union_length(intervals):
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def span_coverage(spans):
    """Smallest share of a circuit span's wall time that its direct child
    spans cover (1.0 when the pass has no circuit spans)."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start_us"], s["end_us"]))
    worst = 1.0
    for i, s in enumerate(spans):
        if s["name"] == "circuit" and s["end_us"] > s["start_us"]:
            share = union_length(children.get(i, [])) / (s["end_us"] - s["start_us"])
            worst = min(worst, share)
    return worst


# --- checking ----------------------------------------------------------------

def reference_key(workload, item):
    if workload == "serve":
        return "serve", f"{item['id']}|{item['faults']}"
    return ("tables" if workload == "tables" else "netlists"), item["id"]


def check_items(workload, items, reference):
    """Count the operations that failed: errors, output-check violations,
    and digests that differ from the reference."""
    failed = 0
    for item in items:
        table, key = reference_key(workload, item)
        expected = reference.get(table, {}).get(key)
        if item["failures"] or item["error"] or expected is None \
                or item["digest"] != expected["digest"]:
            failed += 1
            print(f"[perfbench] FAILED {key}: {item['error'] or 'digest or check mismatch'}",
                  file=sys.stderr)
    return failed


# --- metrics ------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def runs_by_operation(passes, keep):
    """Latencies per operation across passes: a circuit, or a serve request
    with its fault spec, cold or as its cache hit (every pass sends the same
    requests, each repeated at most once, in its own order)."""
    runs = {}
    for p in passes:
        for item in p["items"]:
            if keep(item):
                key = (item["id"], item["faults"], item["cached"])
                runs.setdefault(key, []).append(item["ms"])
    return runs


def end_to_end(workload, raw, passes):
    walls = [p["wall_s"] for p in passes]
    # Coverage and vectors count each distinct operation once: a cache hit
    # repeats an earlier result.
    per_pass = [i for i in passes[0]["items"] if not i["cached"]]
    c50, c90, cq, cops, cn = timing(runs_by_operation(passes, lambda i: not i["cached"]))
    r50, r90, rq, rops, rn = timing(runs_by_operation(passes, lambda i: True))
    print(f"[perfbench] circuit latency: p50 {c50:.3f} ms, p{100 * cq:.1f} {c90:.3f} ms "
          f"over {cops} operations, {cn} runs", file=sys.stderr)
    print(f"[perfbench] request latency: p50 {r50:.3f} ms, p{100 * rq:.1f} {r90:.3f} ms "
          f"over {rops} operations, {rn} runs", file=sys.stderr)
    total = sum(i["total"] for i in per_pass)
    covered = sum(i["covered"] for i in per_pass)
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "circuit_p50_ms": metric(c50, "ms"),
        "circuit_p90_ms": metric(c90, "ms"),
        "req_p50_ms": metric(r50, "ms"),
        "req_p90_ms": metric(r90, "ms"),
        "req_per_s": metric(statistics.median(len(p["items"]) / p["wall_s"] for p in passes),
                            "1/s"),
        "fault_coverage": metric(covered / total if total else 0.0, "fraction"),
        "test_vectors": metric(sum(i["vectors"] for i in per_pass), "count"),
        # The first pass's: later passes start from the heap the earlier
        # ones left, whose size depends on how the allocator's free lists
        # happened to fragment.
        "peak_rss_mb": metric(passes[0]["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(raw["setup_s"]), "s"),
    }


PER_LAYER_UNITS = {
    "synth.ms": "ms", "synth.calls": "count", "synth.cubes": "count",
    "netlist.parse_ms": "ms",
    "sgraph.cssg_ms": "ms", "sgraph.tcr_pairs": "count",
    "sgraph.cssg_edges": "count", "sgraph.traversal_iterations": "count",
    "sgraph.explicit_ms": "ms", "sgraph.explicit_states": "count",
    "sgraph.explicit_edges": "count",
    "atpg.build_ms": "ms", "atpg.run_ms": "ms", "atpg.random_tpg_ms": "ms",
    "atpg.three_phase_ms": "ms", "atpg.export_ms": "ms",
    "atpg.by_random": "count", "atpg.by_three_phase": "count",
    "atpg.by_fault_sim": "count", "atpg.gave_up": "count",
    "atpg.search_yield": "fraction", "atpg.shard_imbalance": "ratio",
    "atpg.blocks_stolen": "count",
    "sim.fault_sim_steps": "count", "sim.fault_sim_step_us": "us",
    "sim.settle_calls": "count", "sim.settle_us": "us",
    "bdd.peak_resident_nodes": "count", "bdd.cache_hit_rate": "fraction",
    "serve.admit_ms": "ms", "serve.cold_p50_ms": "ms", "serve.cached_p50_ms": "ms",
    "serve.engine_ms": "ms", "serve.nonengine_ms": "ms",
    "serve.cache_hit_frac": "fraction", "serve.rejected": "count",
    "serve.failed": "count",
    "trace.overhead_frac": "fraction", "trace.span_coverage": "fraction",
}

# Span name -> per-layer time metric (inclusive span time, summed per pass).
SPAN_METRICS = {
    "synth": "synth.ms", "netlist.parse": "netlist.parse_ms",
    "sgraph.cssg": "sgraph.cssg_ms", "sgraph.explicit": "sgraph.explicit_ms",
    "atpg.build": "atpg.build_ms", "atpg.run": "atpg.run_ms",
    "atpg.random_tpg": "atpg.random_tpg_ms",
    "atpg.three_phase": "atpg.three_phase_ms", "atpg.export": "atpg.export_ms",
}

COUNTER_METRICS = [
    "synth.calls", "synth.cubes", "sgraph.tcr_pairs", "sgraph.cssg_edges",
    "sgraph.traversal_iterations", "sgraph.explicit_states",
    "sgraph.explicit_edges", "atpg.by_random", "atpg.by_three_phase",
    "atpg.by_fault_sim", "atpg.gave_up", "atpg.blocks_stolen",
    "sim.fault_sim_steps", "sim.settle_calls", "bdd.peak_resident_nodes",
    "serve.rejected", "serve.failed",
]


def ratio(a, b):
    return a / b if b else 0.0


def layer_values(workload, traced_pass):
    """Per-layer metrics of one traced pass."""
    c = traced_pass["counters"]
    spans = traced_pass["spans"]
    v = {name: 0.0 for name in PER_LAYER_UNITS}
    for s in spans:
        name = SPAN_METRICS.get(s["name"])
        if name:
            v[name] += (s["end_us"] - s["start_us"]) / 1000.0
    for name in COUNTER_METRICS:
        v[name] = c.get(name, 0.0)
    v["atpg.search_yield"] = ratio(c.get("atpg.by_three_phase", 0.0),
                                   c.get("atpg.faults_searched", 0.0))
    v["atpg.shard_imbalance"] = ratio(c.get("atpg.search_critical_path", 0.0),
                                      c.get("atpg.search_balanced_path", 0.0))
    v["sim.fault_sim_step_us"] = ratio(c.get("sim.fault_sim_step_us_total", 0.0),
                                       c.get("sim.fault_sim_steps", 0.0))
    v["sim.settle_us"] = ratio(c.get("sim.settle_us_total", 0.0),
                               c.get("sim.settle_calls", 0.0))
    v["bdd.cache_hit_rate"] = ratio(c.get("bdd.cache_hits", 0.0),
                                    c.get("bdd.cache_lookups", 0.0))
    if workload == "serve":
        items = traced_pass["items"]
        cold = [i for i in items if not i["cached"]]
        hits = [i for i in items if i["cached"]]
        v["serve.admit_ms"] = percentile([i["admit_ms"] for i in cold if i["admit_ms"] >= 0], 0.5)
        v["serve.cold_p50_ms"] = percentile([i["ms"] for i in cold], 0.5)
        v["serve.cached_p50_ms"] = percentile([i["ms"] for i in hits], 0.5)
        v["serve.engine_ms"] = sum(i["engine_ms"] for i in cold)
        v["serve.nonengine_ms"] = sum(i["ms"] - i["engine_ms"] for i in cold)
        v["serve.cache_hit_frac"] = ratio(len(hits), len(items))
    else:
        v["trace.span_coverage"] = span_coverage(spans)
    return v


def per_layer(workload, passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = [layer_values(workload, p) for p in traced]
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        out[name] = metric(statistics.median(v[name] for v in values), unit)
    overhead = ratio(statistics.median(p["wall_s"] for p in traced),
                     statistics.median(p["wall_s"] for p in plain)) - 1.0
    out["trace.overhead_frac"] = metric(overhead, "fraction")
    spans = traced[0]["spans"]
    selfs = self_times(spans)
    # Top-level spans other than a circuit or request are probes, run
    # outside the timed windows.
    probes = {s["name"] for s in spans if s["parent"] < 0} - {"circuit", "request"}
    timed = sum(ms for name, ms in selfs.items() if name not in probes)
    print("[perfbench] where the time goes (self time, first traced pass):",
          file=sys.stderr)
    for name, ms in sorted(selfs.items(), key=lambda kv: (kv[0] in probes, -kv[1])):
        share = "probe" if name in probes else f"{100 * ratio(ms, timed):5.1f}%"
        print(f"[perfbench]   {name:<18} {ms:12.3f} ms  {share}", file=sys.stderr)
    return out


def write_trace(path, passes):
    """Chrome trace-event JSON of every traced pass (one pid per pass)."""
    events = []
    for n, p in enumerate(q for q in passes if q["traced"]):
        for s in p["spans"]:
            events.append({"name": s["name"], "cat": "xatpg", "ph": "X",
                           "ts": s["start_us"], "dur": s["end_us"] - s["start_us"],
                           "pid": n + 1, "tid": 1,
                           "args": {"item": s["item"], "parent": s["parent"]}})
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None without it)."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    bench = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def validate_names(metrics, declared):
    """Raise unless `metrics` reports exactly the declared names and units."""
    if declared is None:
        return
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}, unit mismatch {units}")


# --- build and run ------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    out = build_dir() / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench_driver",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench_driver"


def run_driver(driver, spec, tag):
    work = build_dir()
    spec_path = work / f"spec-{tag}.json"
    out_path = work / f"raw-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    # A workload whose engine runs one thread runs on one CPU: its work and
    # the calibration samples between its operations then share a core
    # (the host's cores differ in speed, each with its own neighbours),
    # and in serve the client, reader and worker, one in flight at a time,
    # need no more.
    cpus = sorted(os.sched_getaffinity(0))
    pin = (lambda: os.sched_setaffinity(0, {cpus[-1]})) if spec["threads"] == 1 else None
    subprocess.run([str(driver), str(spec_path), str(out_path)], check=True,
                   stdout=sys.stderr, timeout=DRIVER_TIMEOUT_S, preexec_fn=pin)
    return json.loads(out_path.read_text())


def record(driver):
    """Re-record reference.json from one pass over every circuit a workload
    may draw."""
    reference = {"tables": {}, "netlists": {}, "serve": {}}
    base = {"min_passes": 1, "seconds": 0, "trace": False, "setup_batch": 1,
            "workers": 1}
    raw = run_driver(driver, dict(base, workload="tables", threads=THREADS["tables"],
                                  circuits=[circuit_spec(c) for c in TABLES]), "record")
    reference["tables"] = summarise(raw)
    candidates = NETLIST_FIXED + [f"rand/{shape}/{seed}"
                                  for shape, seeds in NETLIST_POOL_SEEDS.items()
                                  for seed in seeds]
    raw = run_driver(driver, dict(base, workload="netlists", threads=THREADS["netlists"],
                                  circuits=[circuit_spec(c) for c in candidates]), "record")
    reference["netlists"] = summarise(raw)
    serve_ids = TABLES + netlist_pool(reference, "3x8")
    requests = [{"circuit": i, "faults": f} for i in range(len(serve_ids)) for f in FAULT_SPECS]
    raw = run_driver(driver, dict(base, workload="serve", threads=THREADS["serve"],
                                  circuits=[circuit_spec(c) for c in serve_ids],
                                  streams=[requests]), "record")
    reference["serve"] = summarise(raw, serve=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    tables = reference["tables"].values()
    print(f"[perfbench] tables: {sum(r['covered'] for r in tables)} of "
          f"{sum(r['total'] for r in tables)} faults covered", file=sys.stderr)


def summarise(raw, serve=False):
    """Reference entries of one recording pass; failed items are left out."""
    out = {}
    for item in raw["passes"][0]["items"]:
        if item["error"] or item["failures"]:
            print(f"[perfbench] not recorded: {item['id']}: {item['error']}",
                  file=sys.stderr)
            continue
        key = f"{item['id']}|{item['faults']}" if serve else item["id"]
        out[key] = {"digest": item["digest"], "ms": round(item["ms"], 3),
                    "total": item["total"], "covered": item["covered"],
                    "vectors": item["vectors"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["tables", "netlists", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json instead of measuring")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    driver = build()
    if args.record:
        record(driver)
        return 0
    reference = json.loads(REFERENCE.read_text())
    spec = make_spec(args.workload, args.seed, reference)
    spec.update(trace=bool(args.trace), min_passes=MIN_PASSES, seconds=args.seconds)
    raw = run_driver(driver, spec, f"{args.workload}-{args.trace}")

    passes = raw["passes"]
    items = [i for p in passes for i in p["items"]]
    failed = check_items(args.workload, items, reference)
    if args.trace:
        # The trace file keeps the host's own clock.
        trace_path = build_dir() / f"trace-{args.workload}-{args.seed}.json"
        write_trace(trace_path, passes)
        print(f"[perfbench] trace written to {trace_path}", file=sys.stderr)
    normalise(raw)
    if args.trace:
        metrics = per_layer(args.workload, passes)
    else:
        metrics = end_to_end(args.workload, raw, passes)
        metrics["success_frac"] = metric(1.0 - ratio(failed, len(items)), "fraction")
    validate_names(metrics, declared_metrics(args.trace))
    print(json.dumps({"correct": failed == 0, "attempted": len(items),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as error:
        print(f"[perfbench] {type(error).__name__}: {error}", file=sys.stderr)
        sys.exit(1)
