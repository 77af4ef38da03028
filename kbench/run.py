#!/usr/bin/env python3
"""Benchmark of the koszul engine: exact Ext, bar homology and biduality.

    python3 kbench/run.py --workload dims_q --seed 1 --seconds 25 --trace 0
    python3 kbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the engine is imported from the
checkout's src/ and nothing outside the checkout is read or written.  One
run builds the workload from --seed, repeats its job list (a "pass") for
about --seconds, checks every answer against the closed forms in
refs.py, prints every metric by name with its unit, and ends with one JSON
line {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics instead (spans.py),
with the tracing overhead measured against the untraced passes.  Each run
also writes a record (environment, job list, per-pass numbers, and for
traced runs the spans and per-job sizes) to .kbench_out/.

The bounded times are CPU seconds of the benchmark's own single-threaded
process (time.process_time), not wall-clock: on a shared virtual machine
the time the host gives the core to other guests would otherwise be
counted as the program's.  Each is scaled by the machine's speed in the
same pass, measured with a fixed chunk of work (speed.py), because that
speed drifts by up to 1.4 times from one minute to the next.  The
wall-clock pass time is printed as wall_s, unscaled.
Only operations that succeed are timed into the end-to-end metrics.  The
result is correct when no answer is wrong and no operation fails, except
the one known defect: the truncated cache entry of cli_cache, whose call
raises JSONDecodeError on the seed.  That call still counts as failed.

Exit status: 0 after a completed run, 3 when the engine sources are not
in the checkout, 4 when a metric has no successful sample to measure
(nothing is printed on stdout then).
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".kbench_out")

WORKLOADS = ("dims_q", "dims_fp", "ring_oracle", "cli_cache")

# Set-up is measured in fresh interpreters, this many times per run.
SETUP_RUNS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("largest_job_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
)

# Printed with the end-to-end metrics but left out of the JSON result, so
# no bound applies.  Bursts of slow calls on a shared machine moved the hit
# tail by up to 43 % from one run to the next, more than any bound may
# allow.  wall_s is pass_s on the wall clock, unscaled, which counts the
# time the host gives the core to other guests; speed_chunk_ms is the mean
# CPU time of a chunk of speed.py, which pass_s and the others are scaled by.
PRINTED_ONLY = (
    ("hit_p95_ms", "ms"),
    ("wall_s", "s"),
    ("speed_chunk_ms", "ms"),
)

# A speed chunk runs before the first operation of a pass, after the last,
# and before any operation that starts this many CPU seconds after the
# previous chunk: at most a tenth of a pass, so that it samples the speed
# states a pass meets.
SPEED_EVERY_S = 0.1

PER_LAYER = (
    ("exactla.cohomology_s", "s"),
    ("exactla.nullspace_s", "s"),
    ("exactla.validate_s", "s"),
    ("exactla.rank_s", "s"),
    ("exactla.pivot_nnz", "count"),
    ("exactla.nnz_total", "count"),
    ("exactla.largest_d_nnz", "count"),
    ("exactla.rank_total", "count"),
    ("bar.bar_complex_s", "s"),
    ("bar.two_sided_bar_s", "s"),
    ("bar.basis_total", "count"),
    ("bar.max_weight", "count"),
    ("dual.koszul_dual_slice_s", "s"),
    ("dual.homology_dims_s", "s"),
    ("dual.bidual_cohomology_s", "s"),
    ("dga.cohomology_ring_s", "s"),
    ("dga.ring_pairs", "count"),
    ("extres.minimal_resolution_s", "s"),
    ("extres.generators", "count"),
    ("artin.verify_square_s", "s"),
    ("artin.is_artin_s", "s"),
    ("artin.radical_filtration_s", "s"),
    ("dgmod.verify_free_filtration_s", "s"),
    ("dgmod.strict_tensor_s", "s"),
    ("cli.main_hit_s", "s"),
    ("cli.main_miss_s", "s"),
    ("cli.hits", "count"),
    ("cli.misses", "count"),
    ("cli.calls", "count"),
    ("cli.hit_ratio", "ratio"),
    ("cli.refusals", "count"),
    ("cli.cache_bytes", "bytes"),
    ("bench.self_s", "s"),
    ("exactla.self_s", "s"),
    ("bar.self_s", "s"),
    ("dual.self_s", "s"),
    ("dga.self_s", "s"),
    ("extres.self_s", "s"),
    ("artin.self_s", "s"),
    ("dgmod.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.self_total_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.probe_s", "s"),
    ("trace.spans", "count"),
)

# Spans whose summed self time is reported as the metric "<span>_s".
NAMED_SELF = (
    "exactla.cohomology", "exactla.nullspace", "exactla.validate",
    "bar.bar_complex", "bar.two_sided_bar",
    "dual.koszul_dual_slice", "dual.homology_dims", "dual.bidual_cohomology",
    "dga.cohomology_ring", "extres.minimal_resolution",
    "artin.verify_square", "artin.is_artin", "artin.radical_filtration",
    "dgmod.verify_free_filtration", "dgmod.strict_tensor",
)


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def environment():
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "koszul")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# -- set-up -------------------------------------------------------------------


SETUP_CODE = """\
import sys, time
start = time.process_time()
sys.path[:0] = [{src!r}, {here!r}]
import jobs
jobs.build({workload!r}, {seed!r}, {directory!r})
elapsed = time.process_time() - start
import speed, statistics
print(elapsed, statistics.fmean(speed.chunk_s() for _ in range(5)))
"""


def measure_setup(workload, seed, scratch):
    """CPU seconds to import koszul and build the workload, each time in a
    fresh interpreter, scaled by the speed that interpreter measures right
    after.  Returns (seconds, scaled seconds) per interpreter."""
    samples = []
    for i in range(SETUP_RUNS):
        directory = os.path.join(scratch, f"setup-{i}")
        code = SETUP_CODE.format(src=SRC, here=HERE, workload=workload,
                                 seed=seed, directory=directory)
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        elapsed, chunk = map(float, proc.stdout.split())
        samples.append((elapsed, elapsed * speed.NOMINAL_S / chunk))
        shutil.rmtree(directory, ignore_errors=True)
    return samples


# -- one pass -------------------------------------------------------------------


class NoSample(Exception):
    """A bounded metric has no successful operation to measure."""


class Pass:
    """Outcomes and timings of one pass over a workload's job list.  Only
    operations whose outcome is "ok" are timed.  Operation times are CPU
    seconds, unscaled; wall is the wall clock, which the traced run compares
    with."""

    def __init__(self):
        self.wall = 0.0             # the whole pass, probes left out
        self.cpu = 0.0              # the same on the CPU clock
        self.serve_s = 0.0          # CPU seconds of the serve calls of an
                                    # in-process workload
        self.serve_wall = 0.0       # the same on the wall clock
        self.seen = set()           # job names called so far
        self.job_times = {}         # job name -> seconds of its first call
        self.hits = []              # seconds per successful cache-hit call
        self.misses = []            # seconds per successful cache-miss call
        self.calls = {"hit": 0, "miss": 0}
        self.refusals = 0
        self.cache_bytes = 0
        self.attempted = 0
        self.wrong = []             # (job, detail)
        self.errors = []            # (job, detail): unexpected failures
        self.known = []             # (job, detail): the known seed defect
        self.probe_s = 0.0
        self.speed = []             # CPU seconds of each speed chunk
        self.rank_s = 0.0
        self.sizes = []             # per traced job
        self.largest = None         # largest differential of a traced pass
        self.largest_nnz = 0
        self.pivot_nnz = 0

    @property
    def scale(self):
        """Factor from this pass's CPU seconds to those of the reference
        machine."""
        return speed.NOMINAL_S / statistics.fmean(self.speed)

    @property
    def engine_cpu(self):
        return self.cpu - self.serve_s

    @property
    def engine_wall(self):
        return self.wall - self.serve_wall

    def record(self, job, seconds, outcome, detail):
        self.attempted += 1
        if job.name not in self.seen:
            self.seen.add(job.name)
            if outcome == "ok":
                self.job_times[job.name] = seconds
        if outcome == "wrong":
            self.wrong.append((job.name, detail))
        elif outcome == "error":
            self.errors.append((job.name, detail))
        elif outcome == "known":
            self.known.append((job.name, detail))


def _timed(tracer, name, kind, fn):
    """fn() and the CPU seconds it took."""
    start = time.process_time()
    if tracer is None:
        value = fn()
    else:
        value = tracer.run_job(name, kind, fn)
    return value, time.process_time() - start


def run_call(job, tracer):
    from koszul.exactla import RefusalError
    start = time.process_time()
    try:
        value, seconds = _timed(tracer, job.name, "call", job.call)
    except RefusalError as e:
        seconds = time.process_time() - start
        if job.refusal and job.refusal in str(e):
            return seconds, "ok", None
        return seconds, "error", f"refused: {e}"
    except Exception as e:  # an engine failure is a failed operation
        return time.process_time() - start, "error", repr(e)
    if job.refusal:
        return seconds, "wrong", "expected refusal did not happen"
    try:
        ok = job.check(value)
    except Exception as e:
        return seconds, "wrong", f"check raised {e!r}"
    return seconds, ("ok" if ok else "wrong"), None if ok else repr(value)[:300]


def run_cli(job, cache_dir, tracer, kind):
    """One koszul.cli.main call with stdout captured; returns (seconds,
    outcome, detail, exit code).  On the corrupt-entry call a
    JSONDecodeError is the known seed defect, outcome "known"."""
    from koszul import cli
    argv = job.argv + ["--cache-dir", cache_dir]
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, seconds = _timed(tracer, job.name, kind,
                                   lambda: cli.main(list(argv)))
        except (Exception, SystemExit) as e:
            known = kind == "corrupt" and isinstance(e, json.JSONDecodeError)
            return (time.process_time() - start, "known" if known else "error",
                    repr(e)[:300], None)
    if code != job.code:
        return seconds, "wrong", f"exit {code}: {err.getvalue()[:300]}", code
    try:
        ok = job.check(json.loads(out.getvalue()))
    except Exception as e:
        return seconds, "wrong", f"report check raised {e!r}", code
    return seconds, ("ok" if ok else "wrong"), None if ok else out.getvalue()[:300], code


def _dir_bytes(directory):
    return sum(os.path.getsize(os.path.join(directory, n))
               for n in os.listdir(directory))


def run_pass(workload, index, scratch, tracer=None):
    from jobs import CliCall
    from spans import pivot_nnz, probe_slices
    p = Pass()
    caches = {}     # round -> [cache directory, {job name: entry path}]
    start, start_cpu = time.perf_counter(), time.process_time()
    probe_cpu = 0.0
    speed_wall = speed_cpu = 0.0
    next_speed = start_cpu

    def measure_speed():
        nonlocal speed_wall, speed_cpu, next_speed
        t, t_cpu = time.perf_counter(), time.process_time()
        p.speed.append(speed.chunk_s())
        speed_wall += time.perf_counter() - t
        next_speed = time.process_time()
        speed_cpu += next_speed - t_cpu
        next_speed += SPEED_EVERY_S

    def probe(job_name):
        nonlocal probe_cpu
        t, t_cpu = time.perf_counter(), time.process_time()
        rank_s, summary, largest = probe_slices(tracer.job)
        summary["job"] = job_name
        p.sizes.append(summary)
        p.rank_s += rank_s
        if largest is not None and len(largest.entries) > p.largest_nnz:
            p.largest, p.largest_nnz = largest, len(largest.entries)
        tracer.job.slices.clear()
        p.probe_s += time.perf_counter() - t
        probe_cpu += time.process_time() - t_cpu

    def call_cli(op, kind=None):
        if op.round not in caches:
            caches[op.round] = [tempfile.mkdtemp(dir=scratch, prefix="cache-"), {}]
        cache, entries = caches[op.round]
        job = op.job
        entry = entries.get(job.name)
        hit = entry is not None and os.path.exists(entry)
        before = None if hit else set(os.listdir(cache))
        kind = kind or ("hit" if hit else "miss")
        wall = time.perf_counter()
        seconds, outcome, detail, code = run_cli(job, cache, tracer, kind)
        wall = time.perf_counter() - wall
        p.record(job, seconds, outcome, detail)
        if kind in p.calls:
            p.calls[kind] += 1
            if outcome == "ok":
                (p.hits if hit else p.misses).append(seconds)
        if op.serve:
            p.serve_s += seconds
            p.serve_wall += wall
        if code == 2:
            p.refusals += 1
        if not hit:
            new = set(os.listdir(cache)) - before
            if new:
                entries[job.name] = os.path.join(cache, new.pop())

    for op in workload.pass_ops(index):
        if time.process_time() >= next_speed:
            measure_speed()
        if isinstance(op, CliCall):
            call_cli(op)
        else:
            p.record(op, *run_call(op, tracer))
        if tracer is not None:
            probe(op.job.name if isinstance(op, CliCall) else op.name)

    if workload.corrupt is not None:
        # Truncate one cache entry to half its bytes, then call its job again.
        entry = caches[workload.corrupt.round][1][workload.corrupt.job.name]
        with open(entry, "r+", encoding="utf-8") as fh:
            text = fh.read()
            fh.seek(0)
            fh.truncate()
            fh.write(text[: len(text) // 2])
        call_cli(workload.corrupt, kind="corrupt")
        if tracer is not None:
            probe(workload.corrupt.job.name)

    measure_speed()
    p.wall = time.perf_counter() - start - p.probe_s - speed_wall
    p.cpu = time.process_time() - start_cpu - probe_cpu - speed_cpu
    for cache, _ in caches.values():
        p.cache_bytes += _dir_bytes(cache)
        shutil.rmtree(cache, ignore_errors=True)
    if p.largest is not None:
        t = time.perf_counter()
        p.pivot_nnz = pivot_nnz(p.largest)
        p.probe_s += time.perf_counter() - t
        p.largest = None
    return p


# -- metrics ------------------------------------------------------------------


def _samples(values, what):
    if not values:
        raise NoSample(f"no successful {what} in the run")
    return values


def end_to_end(workload, passes, setup_samples):
    """The end-to-end metrics.  Each time is scaled by the speed measured in
    its own pass, except wall_s.  pass_s and wall_s leave out the serve
    calls of an in-process workload; on cli_cache every call is the
    workload."""
    hits = _samples([s * p.scale for p in passes for s in p.hits], "cache hit")
    misses = _samples([s * p.scale for p in passes for s in p.misses],
                      "cache miss")
    largest = _samples([p.job_times[workload.largest] * p.scale for p in passes
                        if workload.largest in p.job_times],
                       f"first call of {workload.largest}")
    return {
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "pass_s": statistics.median(p.engine_cpu * p.scale for p in passes),
        "wall_s": statistics.median(p.engine_wall for p in passes),
        "largest_job_s": statistics.median(largest),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "hit_p50_ms": 1000 * percentile(hits, 50),
        "hit_p95_ms": 1000 * percentile(hits, 95),
        "miss_p50_ms": 1000 * percentile(misses, 50),
        "speed_chunk_ms": 1000 * statistics.fmean(
            c for p in passes for c in p.speed),
    }, {"hits": len(hits), "misses": len(misses), "passes": len(passes),
        "largest": len(largest)}


def per_layer(tracer, p, untraced_wall):
    from spans import LAYERS
    by_name, by_layer, cli_kind = tracer.self_times()
    hits, misses = p.calls["hit"], p.calls["miss"]
    out = {f"{span}_s": by_name.get(span, 0.0) for span in NAMED_SELF}
    out.update({f"{layer}.self_s": by_layer.get(layer, 0.0) for layer in LAYERS})
    self_total = sum(by_layer.values())
    out.update({
        "exactla.rank_s": p.rank_s,
        "exactla.pivot_nnz": p.pivot_nnz,
        "exactla.nnz_total": sum(s["nnz_total"] for s in p.sizes),
        "exactla.largest_d_nnz": p.largest_nnz,
        "exactla.rank_total": sum(s["rank_total"] for s in p.sizes),
        "bar.basis_total": sum(s["bar_basis"] for s in p.sizes),
        "bar.max_weight": max((c for s in p.sizes for c in s["weight_caps"]),
                              default=0),
        "dga.ring_pairs": sum(j.ring_pairs for j in tracer.jobs),
        "extres.generators": sum(j.generators for j in tracer.jobs),
        "cli.main_hit_s": cli_kind.get("hit", 0.0),
        "cli.main_miss_s": cli_kind.get("miss", 0.0),
        "cli.hits": hits,
        "cli.misses": misses,
        "cli.calls": hits + misses,
        "cli.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cli.refusals": p.refusals,
        "cli.cache_bytes": p.cache_bytes,
        "trace.self_total_s": self_total,
        "trace.traced_wall_s": p.wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": p.wall - untraced_wall,
        "trace.probe_s": p.probe_s,
        "trace.spans": len(tracer.spans),
    })
    return out


# -- running a workload -------------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    import jobs
    from spans import Tracer

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix=f"{name}-")
    try:
        env = environment()
        setup_samples = measure_setup(name, seed, scratch)
        workload = jobs.build(name, seed, os.path.join(scratch, "docs"))
        print(f"kbench workload={name} seed={seed} seconds={seconds} trace={trace}")
        print("env " + json.dumps(env, sort_keys=True))
        if workload.params:
            print("params " + json.dumps(workload.params, sort_keys=True))
        for entry in workload.job_list():
            print(f"job {entry['window'] or '-'} {entry['job']}")

        passes, traced, layer_values, traces = [], [], [], []
        start = time.perf_counter()
        while True:
            cycle = time.perf_counter()
            passes.append(run_pass(workload, len(passes) + len(traced), scratch))
            if trace:
                tracer = Tracer()
                tracer.install()
                try:
                    tp = run_pass(workload, len(passes) + len(traced), scratch,
                                  tracer)
                finally:
                    tracer.uninstall()
                traced.append(tp)
                layer_values.append(per_layer(tracer, tp, passes[-1].wall))
                traces.append({"jobs": [[j.name, j.kind] for j in tracer.jobs],
                               "spans": tracer.dump(), "sizes": tp.sizes})
            # Stop when one more pass (or traced cycle) would end nearer to
            # --seconds overshot than to --seconds undershot.
            now = time.perf_counter()
            if now - start + (now - cycle) / 2 >= seconds:
                break

        every = passes + traced
        attempted = sum(p.attempted for p in every)
        wrong = [w for p in every for w in p.wrong]
        errors = [e for p in every for e in p.errors]
        known = [k for p in every for k in p.known]
        failed = len(wrong) + len(errors) + len(known)
        for job_name, detail in sorted(set(wrong + errors)):
            print(f"FAILED {job_name}: {detail}")
        for job_name, detail in sorted(set(known)):
            print(f"FAILED (known seed defect, corrupt cache entry) "
                  f"{job_name}: {detail}")

        e2e, counts = end_to_end(workload, passes, setup_samples)
        if trace:
            units = PER_LAYER
            metrics = {key: statistics.median(v[key] for v in layer_values)
                       for key, _ in PER_LAYER}
        else:
            units = END_TO_END
            metrics = e2e
        for key, unit in units:
            print(f"{key} {metrics[key]:.6g} {unit}")
        if not trace:
            for key, unit in PRINTED_ONLY:
                print(f"{key} {e2e[key]:.6g} {unit} (printed only)")
        print(f"failed_frac {failed / attempted:.6g} "
              f"({failed} failed of {attempted} attempted)")
        print(f"samples passes={counts['passes']} hits={counts['hits']} "
              f"misses={counts['misses']} largest={counts['largest']} "
              f"setup={len(setup_samples)}")
        if trace:
            m = metrics
            print(f"self times account for {m['trace.self_total_s']:.4g} s of "
                  f"a {m['trace.traced_wall_s']:.4g} s traced pass; untraced "
                  f"wall {m['trace.untraced_wall_s']:.4g} s, overhead "
                  f"{m['trace.overhead_s']:.4g} s")

        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "env": env, "params": workload.params, "jobs": workload.job_list(),
            "setup_samples": setup_samples,
            "passes": [{"wall": p.wall, "cpu": p.cpu, "scale": p.scale,
                        "speed": p.speed,
                        "serve_s": p.serve_s,
                        "job_times": p.job_times,
                        "hits": len(p.hits), "misses": len(p.misses)}
                       for p in passes],
            "end_to_end": e2e, "metrics": metrics,
            "attempted": attempted, "failed": failed,
            "failures": sorted(set(wrong + errors)),
            "known_failures": sorted(set(known)),
            "traces": traces,
        }
        path = os.path.join(OUT, f"run-{name}-seed{seed}-trace{trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        return {
            "correct": not wrong and not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit}
                        for key, unit in units},
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_all(seed, seconds, trace):
    """Each workload in its own process (peak memory is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "koszul", "__init__.py")):
        sys.stderr.write(f"kbench: no engine sources under {SRC}\n")
        return 3
    sys.path[:0] = [SRC, HERE]
    import koszul
    if not os.path.abspath(koszul.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"kbench: imported koszul from {koszul.__file__}, "
                         f"not from {SRC}\n")
        return 3

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except NoSample as e:
        sys.stderr.write(f"kbench: {e}\n")
        return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
