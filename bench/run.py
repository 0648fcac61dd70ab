"""End-to-end benchmark of the nonarch CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One workload runs per process as a closed loop with one client: one job at
a time, no threads.  A job is one in-process call of
``nonarch.cli.main(argv)`` writing its artifact into a temporary directory
under ``.bench_out/``; every artifact-producing job is followed by its
``--check`` replay job.  The workload's job list (a batch) repeats while
another batch fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with times
in reference seconds (see ``Reference``).
``--trace 1`` runs two untraced batches, then one batch with every layer
wrapped from outside (tracing.py), reports the per-layer metrics and writes
``.bench_out/trace-<workload>-seed<seed>/`` (summary.json, spans.bin).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

import jobs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PYCACHE = os.path.join(OUT, "pycache")

# fresh-interpreter imports of nonarch.cli per setup_s measurement
SETUP_IMPORTS = 15
# reference loop time on a 2-core 2.1 GHz Xeon VM with Python 3.11.7; all
# reported times are wall times scaled to a host where the loop takes this
REFERENCE_NOMINAL_S = 0.0035
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "batch_s": "s", "run_s": "s", "replay_s": "s", "job_p50_s": "s",
    "job_tail_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
}


def tail_percentile(jobs_per_batch: int) -> float:
    """Highest percentile with at least TAIL_BEYOND jobs of one batch
    beyond it; fixed per workload, so every run reports the same one."""
    for p in TAIL_PERCENTILES:
        if jobs_per_batch - _rank(p, jobs_per_batch) >= TAIL_BEYOND:
            return p
    raise ValueError(f"a batch of {jobs_per_batch} jobs has no percentile "
                     f"with {TAIL_BEYOND} jobs beyond it")


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(p, len(values)) - 1]


def load_program():
    """Import nonarch.cli from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "nonarch", "cli.py")):
        print(f"error: no nonarch sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.pycache_prefix = PYCACHE    # keep bytecode out of src/
    import nonarch.cli as cli
    where = os.path.realpath(os.path.dirname(os.path.dirname(cli.__file__)))
    if where != os.path.realpath(SRC):
        print(f"error: imported nonarch from {cli.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return cli


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import nonarch.cli; "
                 "print(time.perf_counter() - t)")


class Reference:
    """A fixed stdlib-only loop (Fractions, big integers, lookups in a
    tuple-keyed dict larger than L2) that shares no code with nonarch.

    The host this runs on changes speed by up to half within minutes, so
    each batch times this loop between its jobs and reports its times
    scaled by REFERENCE_NOMINAL_S / (median loop time in that batch).
    """

    def __init__(self):
        rng = random.Random(1)
        self.table = {(i, i * 7 % 1013): i for i in range(20000)}
        self.keys = rng.sample(sorted(self.table), 4000)

    def seconds(self) -> float:
        # with the cyclic GC off, the heap the program keeps alive cannot
        # change the loop's time
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            acc, seen = Fraction(0), {}
            for i in range(1, 300):
                acc += Fraction(i, i + 1)
                seen[(i % 17, i)] = acc.numerator % 1009
            pow(3, 6000) * pow(5, 5000)
            total = 0
            for k in self.keys:
                total += self.table[k]
            sorted(seen.items())
            return time.perf_counter() - t
        finally:
            if enabled:
                gc.enable()


def scale(samples) -> float:
    """Factor taking wall seconds to reference seconds."""
    return REFERENCE_NOMINAL_S / statistics.median(samples)


def measure_setup(workload: str, seed: int, ref: Reference) -> float:
    """Median fresh-interpreter import of nonarch.cli plus median input
    generation, in reference seconds: what every CLI invocation pays
    before its first job."""
    imports, gens, refs = [], [], []
    for _ in range(SETUP_IMPORTS):
        refs.append(ref.seconds())
        out = subprocess.run(
            [sys.executable, "-I", "-X", f"pycache_prefix={PYCACHE}",
             "-c", _IMPORT_PROBE, SRC],
            check=True, capture_output=True, text=True, timeout=60)
        imports.append(float(out.stdout.strip().splitlines()[-1]))
        t = time.perf_counter()
        jobs.build(workload, seed)
        gens.append(time.perf_counter() - t)
    return (statistics.median(imports) + statistics.median(gens)) \
        * scale(refs)


class Batch:
    """Timings, failures and artifact bytes of one pass over a job list."""

    def __init__(self):
        self.run_times, self.replay_times = [], []
        self.ref_times = []          # Reference.seconds before each pair
        self.failures = []
        self.counters = collections.Counter()   # jobs.artifact_counters
        self.digest = hashlib.sha256()
        self.artifact_bytes = 0

    @property
    def attempted(self):
        return len(self.run_times) + len(self.replay_times)

    @property
    def wall(self):
        return sum(self.run_times) + sum(self.replay_times)

    @property
    def factor(self):
        return scale(self.ref_times)


def _call(cli, argv, tracer=None, job_id=-1):
    """(exit status, stdout, stderr, seconds) of one cli.main call."""
    if tracer is not None:
        tracer.job = job_id
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:           # a crash is a failed job, not a stop
            code = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t
    return code, out.getvalue(), err.getvalue(), dt


def run_batch(cli, job_list, workdir, ref, tracer=None) -> Batch:
    batch = Batch()
    for k, job in enumerate(job_list):
        batch.ref_times.append(ref.seconds())
        out_dir = os.path.join(workdir, str(k))
        path = os.path.join(out_dir, job.argv[0] + ".json")
        code, _, err, dt = _call(cli, job.argv + ("--out", out_dir),
                                 tracer, 2 * k)
        batch.run_times.append(dt)
        rcode, rout, rerr, rdt = _call(cli, ("--check", path), tracer,
                                       2 * k + 1)
        batch.replay_times.append(rdt)
        reason = None
        if code != 0:
            reason = f"exit status {code}: {err.strip()[-300:]}"
        else:
            with open(path, "rb") as fh:
                data = fh.read()
            art = json.loads(data)
            batch.digest.update(data)
            batch.artifact_bytes += len(data)
            batch.counters.update(jobs.artifact_counters(art))
            # --check compares sorted-key dumps; a stored file that is
            # itself the canonical dump makes a match byte-for-byte
            canonical = (json.dumps(art, sort_keys=True, indent=2)
                         + "\n").encode()
            if art.get("verdict") != job.verdict:
                reason = f"verdict {art.get('verdict')} != {job.verdict}"
            elif data != canonical:
                reason = "artifact is not in canonical form"
            elif job.check is not None:
                reason = job.check(art)
        if reason:
            batch.failures.append(f"{' '.join(job.argv)[:80]}: {reason}")
        if rcode != 0 or "replay matches" not in rout:
            batch.failures.append(
                f"replay of {' '.join(job.argv)[:80]}: status {rcode} "
                f"{(rout + rerr).strip()[-200:]}")
    return batch


def fresh_batch(cli, job_list, ref, tracer=None) -> Batch:
    """run_batch in a temporary directory under .bench_out/, removed after."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="jobs-", dir=OUT)
    try:
        return run_batch(cli, job_list, workdir, ref, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def tally(batches):
    """(attempted, failed) over batches; each failure goes to stderr."""
    for b in batches:
        for line in b.failures:
            print(f"FAILED {line}", file=sys.stderr)
    return (sum(b.attempted for b in batches),
            sum(len(b.failures) for b in batches))


def timed_run(cli, workload, seed, seconds):
    ref = Reference()
    setup_s = measure_setup(workload, seed, ref)
    job_list = jobs.build(workload, seed)
    batches = []
    t0 = time.perf_counter()
    while True:
        batches.append(fresh_batch(cli, job_list, ref))
        walls = [b.wall for b in batches]
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            break
    all_jobs = [t * b.factor for b in batches
                for t in b.run_times + b.replay_times]
    pct = tail_percentile(2 * len(job_list))
    digests = {b.digest.hexdigest() for b in batches}
    metrics = {
        "batch_s": statistics.median(b.wall * b.factor for b in batches),
        "run_s": statistics.median(sum(b.run_times) * b.factor
                                   for b in batches),
        "replay_s": statistics.median(sum(b.replay_times) * b.factor
                                      for b in batches),
        "job_p50_s": statistics.median(all_jobs),
        "job_tail_s": percentile(all_jobs, pct),
        "setup_s": setup_s,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted, failed = tally(batches)
    print(f"workload {workload}, seed {seed}: {len(batches)} batches of "
          f"{2 * len(job_list)} jobs, {attempted} jobs attempted, "
          f"{failed} failed, fail_ratio = {failed / attempted:g}")
    print(f"raw batch wall time {statistics.median(walls):.6g} s; times below "
          f"are in reference seconds (host factor "
          f"{statistics.median(b.factor for b in batches):.4g})")
    print(f"job_tail_s is p{pct:g} of {len(all_jobs)} jobs "
          f"({len(all_jobs) - _rank(pct, len(all_jobs))} beyond)")
    print(f"artifact sha256 {sorted(digests)[0]}"
          + ("" if len(digests) == 1 else " (DIFFERS between batches)"))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    return {"correct": failed == 0 and len(digests) == 1,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def traced_run(cli, workload, seed):
    job_list = jobs.build(workload, seed)
    ref = Reference()
    # the first batch fills the program's caches, so the overhead compares
    # two warm batches
    warm = fresh_batch(cli, job_list, ref)
    plain = fresh_batch(cli, job_list, ref)
    with tracing.Tracer() as tracer:
        traced_batch = fresh_batch(cli, job_list, ref, tracer)
    walls = [plain.wall * plain.factor,
             traced_batch.wall * traced_batch.factor]
    metrics, table = tracer.metrics()
    for name in ("derivlab.system_entries", "derivlab.span_products",
                 "rootlift.steps"):
        metrics[name] = traced_batch.counters[name]
    metrics["cli.artifact_bytes"] = traced_batch.artifact_bytes
    units = dict(tracing.per_layer_metric_units())
    trace_dir = os.path.join(OUT, f"trace-{workload}-seed{seed}")
    os.makedirs(trace_dir, exist_ok=True)
    tracer.write(os.path.join(trace_dir, "spans.bin"))
    summary = {
        "workload": workload, "seed": seed,
        "untraced_batch_s": walls[0], "traced_batch_s": walls[1],
        "tracing_overhead_s": walls[1] - walls[0],
        "artifact_sha256": traced_batch.digest.hexdigest(),
        "jobs": [list(j.argv) for j in job_list],
        "functions": table, "metrics": metrics,
        "span_names": tracer.names,
        "span_count": len(tracer.starts),
        "span_layout": ["name_id:i32", "start:f64", "end:f64",
                        "parent:i32", "job:i32"],
    }
    with open(os.path.join(trace_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
    attempted, failed = tally([warm, plain, traced_batch])
    same = len({b.digest.hexdigest()
                for b in (warm, plain, traced_batch)}) == 1
    print(f"workload {workload}, seed {seed}: traced batch_s "
          f"{walls[1]:.3f} s, untraced {walls[0]:.3f} s, tracing overhead "
          f"{walls[1] - walls[0]:.3f} s; {len(tracer.starts)} spans")
    print(f"artifact sha256 {traced_batch.digest.hexdigest()}"
          + ("" if same else " (DIFFERS from the untraced batches)"))
    print(f"trace written to {os.path.relpath(trace_dir, ROOT)}")
    return {"correct": failed == 0 and same, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()}}


def run_all(args):
    """Every workload in its own process, untraced then traced."""
    status = 0
    for name in jobs.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)])
            status = status or proc.returncode
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(jobs.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli = load_program()
    if args.trace:
        result = traced_run(cli, args.workload, args.seed)
    else:
        result = timed_run(cli, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
