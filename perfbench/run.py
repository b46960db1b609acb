#!/usr/bin/env python3
"""The REPT repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Builds the library, rept_server and the perfbench harness from this checkout
(into $CARGO_TARGET_DIR, default .bench_build), runs one workload, and prints
a report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from a run with obs tracing on). perfbench/README.md explains
the workloads and every metric; perfbench/predictions.json records which
end-to-end metric each layer should move.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("file_powerlaw", "server_mixed")
RUN_TIMEOUT_S = 170
MIB = 1024.0 * 1024.0

# Counts that must repeat exactly between two runs with the same seed.
COUNTS = ("graph.decode_edges", "core.stored_edges", "persist.ckpt_mb",
          "net.ingest_frames")


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Build and run.


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures and builds perfbench + rept_server; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", out_dir, "--target", "perfbench",
             "rept_server", "-j", str(os.cpu_count() or 2)],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(out_dir, "perfbench"),
            os.path.join(out_dir, "tools", "rept_server"))


def run_harness(binary, server, workload, seed, seconds, trace, tiny,
               workdir):
    """Runs the harness in its own process group (rept_server children
    included) and returns its raw result."""
    out = os.path.join(workdir, "raw.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--server", server, "--workdir", workdir, "--out", out]
    if tiny:
        cmd.append("--tiny")
    child = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             start_new_session=True)

    def stop(*_):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: harness timed out")
        stop()
    if code != 0:
        raise RuntimeError("harness exited with %d" % code)
    with open(out) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Statistics.


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else float("nan")


def pooled(rounds, key):
    return [x for r in rounds for x in r.get(key, [])]


# --------------------------------------------------------------------------
# Counters: RenderJson() in process, METRICS text from the server. Every
# name is looked up at run time; a missing one is absent, not an error.


def parse_render_json(doc):
    values = {}
    values.update(doc.get("counters", {}))
    values.update(doc.get("gauges", {}))
    for name, hist in doc.get("histograms", {}).items():
        values[name + "_sum"] = hist.get("sum", 0.0)
        values[name + "_count"] = hist.get("count", 0)
    return values


def parse_prometheus(text):
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if "{" in name:
            continue
        try:
            values[name] = float(value)
        except ValueError:
            pass
    return values


def counter_deltas(pairs):
    """Sums after-minus-before over (before, after) counter maps. Counters
    register on first use, so a name missing before the round starts at 0;
    a name missing after it is absent."""
    deltas = {}
    for before, after in pairs:
        for name, value in after.items():
            deltas[name] = deltas.get(name, 0.0) + value - before.get(name, 0)
    return deltas


# --------------------------------------------------------------------------
# Trace analysis.


def load_spans(path):
    with open(path) as f:
        events = json.load(f).get("traceEvents", [])
    spans = []
    for e in events:
        start = e["ts"] * 1e-6
        spans.append({"name": e["name"], "tid": e["tid"], "start": start,
                      "end": start + e["dur"] * 1e-6,
                      "dur": e["dur"] * 1e-6})
    return spans


def self_times(spans):
    """A span's self time is its duration minus what its direct children on
    the same thread cover. Returns {name: [count, total_s, self_s]}."""
    table = {}
    by_tid = {}
    for span in spans:
        by_tid.setdefault(span["tid"], []).append(span)
    for thread_spans in by_tid.values():
        thread_spans.sort(key=lambda s: (s["start"], -s["dur"]))
        stack = []
        children = {}
        for span in thread_spans:
            while stack and span["start"] >= stack[-1]["end"]:
                stack.pop()
            if stack:
                parent = id(stack[-1])
                children[parent] = children.get(parent, 0.0) + span["dur"]
            stack.append(span)
        for span in thread_spans:
            row = table.setdefault(span["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span["dur"]
            row[2] += span["dur"] - children.get(id(span), 0.0)
    return table


def merged_self_times(traces):
    table = {}
    for spans in traces:
        for name, (count, total, self_s) in self_times(spans).items():
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += count
            row[1] += total
            row[2] += self_s
    return table


def straggler_ratio(traces):
    """Per ingest_batch: the slowest replay_instance inside it / the median
    one; the mean over batches."""
    ratios = []
    for spans in traces:
        replays = [s for s in spans if s["name"] == "replay_instance"]
        for batch in (s for s in spans if s["name"] == "ingest_batch"):
            inside = [s["dur"] for s in replays
                      if batch["start"] <= s["start"] and
                      s["end"] <= batch["end"]]
            if len(inside) >= 2 and median(inside) > 0:
                ratios.append(max(inside) / median(inside))
    return statistics.fmean(ratios) if ratios else None


# --------------------------------------------------------------------------
# Metrics.


def measured_rounds(raw, traced):
    return [r for r in raw["rounds"]
            if not r["warmup"] and r["traced"] == traced]


def end_to_end(raw):
    rounds = measured_rounds(raw, traced=False)
    acks = pooled(rounds, "ack_ms")
    # Set-ups timed on their own between rounds: a round's own set-up
    # follows the previous round's heap trim or server teardown and reads
    # up to 8x slower, by an amount that varies with the machine's state.
    setups = raw["setup_samples_s"]
    metrics = {
        "edges_per_s": median([r["edges"] / r["wall_s"] for r in rounds]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["rss_mb"] for r in rounds]),
        "checkpoint_save_s": median([r["save_s"] for r in rounds]),
        "checkpoint_restore_s": median([r["load_s"] for r in rounds]),
    }
    extra = {"rounds": len(rounds), "acks": len(acks),
             "setup_samples": len(setups),
             "ingest_ack_ms_p50": percentile(acks, 50),
             "ingest_ack_ms_p90": percentile(acks, 90)}
    if raw["workload"] == "server_mixed":
        reads = pooled(rounds, "snapshot_ms")
        extra.update({
            "snapshot_ms_p50": percentile(reads, 50),
            "snapshot_ms_p90": percentile(reads, 90),
            "reads": len(reads),
            "net.scrape_ms_max": max(pooled(rounds, "scrape_ms"),
                                     default=float("nan")),
            "net.reader_lateness_ms_max": max(pooled(rounds, "lateness_ms"),
                                              default=float("nan")),
        })
    return metrics, extra


def per_layer(raw):
    """Per-layer metrics of a traced run, plus notes for the report."""
    notes = []
    traced = measured_rounds(raw, traced=True)
    untraced = measured_rounds(raw, traced=False)
    server = raw["workload"] == "server_mixed"
    passes = raw["core_passes"]
    # Each trace file rebases its own timestamps: spans nest within a file.
    traces = [load_spans(path) for path in raw["trace_files"]]
    table = merged_self_times(traces)

    def span_total(*names):
        return sum(table.get(n, [0, 0.0, 0.0])[1] for n in names)

    def per_round(key):
        return statistics.fmean([r[key] for r in traced])

    def same_count(key):
        values = {r[key] for r in traced}
        if len(values) > 1:
            notes.append("count %s differs between rounds: %s" %
                         (key, sorted(values)))
        return float(traced[0][key])

    # Counters are read before and after each traced round: RenderJson() in
    # process, the server's METRICS text. Values are per round.
    parse = parse_prometheus if server else parse_render_json
    deltas = counter_deltas((parse(r["counters_before"]),
                             parse(r["counters_after"])) for r in traced)

    def counter(*names):
        found = [deltas[n] for n in names if n in deltas]
        if not found:
            notes.append("absent counter(s): " + ", ".join(names))
            return None
        return sum(found) / len(traced)

    def ratio(a, b):
        return a / b if a is not None and b else None

    def scaled(value, factor):
        return None if value is None else value * factor

    micro = raw["micro"]
    pairs = micro["edges"] * micro["instances"]
    insert_ns = (micro["insert_pass_s"] - micro["base_pass_s"]) \
        / max(micro["inserts"], 1) * 1e9
    probe_ns = (micro["probe_pass_s"] - micro["insert_pass_s"]) / pairs * 1e9
    intersect_ns = (micro["intersect_pass_s"] - micro["probe_pass_s"]) \
        / pairs * 1e9

    ingest_s = span_total("ingest_batch") / passes
    replay_s = span_total("replay_instance", "replay_subbatch") / passes
    route_s = span_total("route_group", "route_subbatch") / passes
    stored = same_count("stored_edges")
    edges_per_pass = raw["input_edges"]
    # The micro-loop costs scaled to one pass: every (edge, instance) pair
    # probes and intersects, every stored edge is inserted.
    micro_total_s = ((probe_ns + intersect_ns) * edges_per_pass * raw["c"] +
                     insert_ns * stored) / 1e9
    snapshot_s = span_total("bench.core.snapshot") / passes

    if server:
        encode = sum(raw["codec_encode_s"])
        decode = sum(raw["codec_decode_s"])
        ack_s = sum(pooled(traced, "ack_ms")) / 1e3 / len(traced)
        compute_s = scaled(counter("rept_ingest_route_task_micros_total",
                                   "rept_ingest_replay_task_micros_total"),
                           1e-6)
        metrics_net = {
            "net.ingest_frames": same_count("frames"),
            "net.bytes_per_edge": ratio(
                counter("rept_server_ingest_bytes_total"),
                counter("rept_server_ingest_edges_total")),
            # Task time is summed over the server's pool: per worker, it is
            # the share of the ack time spent estimating.
            "net.compute_share": ratio(compute_s, ack_s * raw["workers"]),
            "net.failures": sum(
                v for v in (counter("rept_server_error_frames_total"),
                            counter("rept_server_admission_rejections_total"),
                            counter("rept_ingest_batches_deduped_total"))
                if v is not None) + per_round("reconnects"),
        }
    else:
        encode = median([r["codec_encode_s"] for r in traced])
        decode = median([r["codec_decode_s"] for r in traced])
        metrics_net = {"net.ingest_frames": 0.0, "net.bytes_per_edge": 0.0,
                       "net.compute_share": 0.0, "net.failures": 0.0}
        notes.append("net.*: no network layer on this workload (0)")

    probe_count = counter("rept_flatmap_insert_probe_length_count")
    traced_eps = median([r["edges"] / r["wall_s"] for r in traced])
    untraced_eps = median([r["edges"] / r["wall_s"] for r in untraced])
    metrics = {
        "graph.decode_s": per_round("decode_s"),
        "graph.decode_edges": same_count("decode_edges"),
        "graph.insert_ns": insert_ns,
        "container.probe_ns": probe_ns,
        "container.probe_len_mean": ratio(
            counter("rept_flatmap_insert_probe_length_sum"), probe_count),
        "container.rehashes": counter("rept_flatmap_rehashes_total"),
        "container.arena_mb": scaled(counter("rept_arena_block_bytes_total"),
                                     1 / MIB),
        "simd.intersect_ns": intersect_ns,
        "simd.intersect_calls": counter(
            "rept_simd_intersect_count_calls_total",
            "rept_simd_intersect_write_calls_total"),
        "core.ingest_s": ingest_s,
        "core.replay_task_s": replay_s,
        "core.route_task_s": route_s,
        "core.pool_busy": ratio(route_s + replay_s, ingest_s * raw["workers"]),
        "core.straggler_ratio": straggler_ratio(traces),
        "core.replay_residual_s": replay_s - micro_total_s,
        "core.snapshot_s": snapshot_s,
        "core.memory_mb": per_round("memory_bytes") / MIB,
        "core.stored_edges": stored,
        "persist.ckpt_mb": same_count("ckpt_bytes") / MIB,
        "persist.encode_s": encode,
        "persist.decode_s": decode,
        "util.pool_steal_ratio": ratio(counter("rept_pool_steals_total"),
                                       counter("rept_pool_tasks_total")),
        "obs.trace_overhead": traced_eps / untraced_eps,
    }
    metrics.update(metrics_net)

    # Reconciliation: the layers on the blocking path against the untraced
    # wall time of the same path.
    if server:
        layer_sum = (span_total("bench.graph.decode") +
                     span_total("bench.net.ingest")) / len(traced)
        wall = median([r["writer_busy_s"] for r in untraced])
        path = "writer: decode + INGEST calls"
    else:
        layer_sum = (span_total("bench.graph.decode") +
                     span_total("ingest_batch") +
                     span_total("bench.core.snapshot") +
                     span_total("bench.persist.save") +
                     span_total("bench.persist.load")) / len(traced)
        wall = median([r["wall_s"] + r["save_s"] + r["load_s"]
                       for r in untraced])
        path = "decode + ingest_batch + snapshot + save + load"
    recon = {
        "path": path,
        "layer_sum_s": layer_sum,
        "untraced_wall_s": wall,
        "unaccounted_share": 1.0 - layer_sum / wall,
        "micro_total_s": micro_total_s,
        "replay_explained_share": ratio(micro_total_s, replay_s),
    }
    return metrics, notes, recon, table


# --------------------------------------------------------------------------
# Identity.


def source_digest():
    """sha256 over the program's sources: identifies the code when the
    checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def identity(raw, out_dir, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                cache[key.split(":")[0]] = value
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "absent (not a git checkout)"
    level = None
    if raw["workload"] == "server_mixed":
        last = raw["rounds"][-1]["counters_after"]
        level = parse_prometheus(last).get("rept_simd_dispatch_level")
    else:
        level = parse_render_json(raw["counters_final"]).get(
            "rept_simd_dispatch_level")
    isa = {0: "scalar", 1: "sse2", 2: "avx2"}
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "simd_dispatch_level": (
            "absent" if level is None
            else "%d (%s)" % (level, isa.get(int(level), "?"))),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "REPT_OBS": cache.get("REPT_OBS", "unknown"),
        "REPT_NATIVE": cache.get("REPT_NATIVE", "unknown"),
        "git_sha": sha,
        "source_digest": source_digest(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# One benchmark run.


def as_number(value):
    """An absent or non-finite value (a failed run) reads 0 in the result,
    which must stay valid JSON; the report says why."""
    return value if value is not None and math.isfinite(value) else 0.0


def fmt(value):
    return "absent" if value is None else "%.6g" % value


def run_once(args, spec, binary, server, out_dir, tiny=False):
    """Runs one workload; returns (result, metrics notes) after printing
    the report. Raises on a harness failure."""
    workdir = os.path.join(out_dir, "work",
                           "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        raw = run_harness(binary, server, args.workload, args.seed,
                         args.seconds, args.trace, tiny, workdir)
        predictions = json.load(
            open(os.path.join(BENCH_DIR, "predictions.json")))
        print("# identity " + json.dumps(identity(raw, out_dir, args.seed)))
        print("# workload %s: %s" % (args.workload,
                                     predictions["workloads"][args.workload]))
        print("# config: m=%d c=%d, %d workers, %d input edges" % (
            raw["m"], raw["c"], raw["workers"], raw["input_edges"]))
        if "exact_triangles" in raw:
            print("# answer: global %.6g vs exact %d (tolerance %g), top %s"
                  % (raw["estimate"], raw["exact_triangles"],
                     raw["tolerance"], " ".join(raw["top"][:3]) or "-"))
        e2e, extra = end_to_end(raw)
        units = {m["name"]: m["unit"] for m in
                 spec["end_to_end"] + spec["per_layer"]}
        if args.trace:
            values, notes, recon, table = per_layer(raw)
            names = [m["name"] for m in spec["per_layer"]]
            print("# per-layer (traced run, %d traced / %d untraced rounds)"
                  % (len(measured_rounds(raw, True)),
                     len(measured_rounds(raw, False))))
            for name in names:
                print("#   %-26s %12s %-8s should move: %s" % (
                    name, fmt(values.get(name)), units[name],
                    predictions["per_layer"][name]["moves"]))
            for name in ("net.scrape_ms_max", "net.reader_lateness_ms_max"):
                value = extra.get(name)
                print("#   %-26s %12s %-8s %s" % (
                    name, "absent" if value is None else fmt(value), "ms",
                    "(report only)" if value is not None else
                    "(absent: no network reader on this workload)"))
            print("# reconciliation: %s = %.4f s vs untraced %.4f s; "
                  "unaccounted %+.1f%%%s" % (
                      recon["path"], recon["layer_sum_s"],
                      recon["untraced_wall_s"],
                      100 * recon["unaccounted_share"],
                      "" if abs(recon["unaccounted_share"]) <= 0.10
                      else "  (outside +-10%)"))
            print("# replay: task %.4f s, micro probe+intersect+insert "
                  "%.4f s (%s explained), residual %.4f s" % (
                      values["core.replay_task_s"], recon["micro_total_s"],
                      fmt(recon["replay_explained_share"]),
                      values["core.replay_residual_s"]))
            print("# spans (count, total s, self s):")
            for name, (count, total, self_s) in sorted(table.items()):
                print("#   %-24s %7d %10.4f %10.4f" % (name, count, total,
                                                       self_s))
            for note in notes:
                print("# note: " + note)
        else:
            values = e2e
            names = [m["name"] for m in spec["end_to_end"]]
            print("# end-to-end (%d rounds, %d acks, %d set-ups)" % (
                extra["rounds"], extra["acks"], extra["setup_samples"]))
            for name in names:
                print("#   %-22s %14s %s" % (name, fmt(values[name]),
                                             units[name]))
            for name in ("ingest_ack_ms_p50", "ingest_ack_ms_p90",
                         "snapshot_ms_p50", "snapshot_ms_p90"):
                if name in extra:
                    print("#   %-22s %14s ms (report only, %d %s)" % (
                        name, fmt(extra[name]),
                        extra["acks"] if "ack" in name else extra["reads"],
                        "acks" if "ack" in name else "reads"))
        error_rate = raw["failed"] / max(raw["attempted"], 1)
        print("# error_rate %.6g (%d failed of %d operations)" % (
            error_rate, raw["failed"], raw["attempted"]))
        for failure in raw["failures"]:
            print("# failure: " + failure)
        result = {
            "correct": raw["failed"] == 0,
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {n: {"value": as_number(values.get(n)),
                            "unit": units[n]}
                        for n in names},
        }
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def self_check(spec, binary, server, out_dir):
    """Tiny inputs, all workloads: every metric present, every check
    passing, counts repeating between two runs with the same seed."""
    problems = []
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    for workload in WORKLOADS:
        results = []
        for trace in (0, 1, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1,
                                      trace=trace)
            result = run_once(args, spec, binary, server, out_dir, tiny=True)
            names = layer_names if trace else e2e_names
            for name in names:
                value = result["metrics"].get(name, {}).get("value")
                if not isinstance(value, (int, float)) or math.isnan(value):
                    problems.append("%s: metric %s missing" % (workload,
                                                               name))
            if not result["correct"]:
                problems.append("%s: %d failed checks" % (workload,
                                                          result["failed"]))
            results.append(result)
        for name in COUNTS:
            a = results[1]["metrics"][name]["value"]
            b = results[2]["metrics"][name]["value"]
            if a != b:
                problems.append("%s: count %s differs between runs: %s vs %s"
                                % (workload, name, a, b))
    for problem in problems:
        print("# self-check: " + problem)
    print("# self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload on tiny inputs and check "
                             "the harness")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no REPT sources next to %s" % BENCH_DIR)
        return 2
    spec = load_spec()
    out_dir = build_dir()
    try:
        binary, server = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed: %s" % error)
        return 1
    if args.self_check:
        return self_check(spec, binary, server, out_dir)
    try:
        result = run_once(args, spec, binary, server, out_dir)
    except (OSError, RuntimeError, KeyError, ValueError) as error:
        log("perfbench: %s" % error)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
