#!/usr/bin/env python3
"""Benchmark of the modext certify pipeline.

    python3 perfbench/run.py --workload large-linear --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One job takes one input matroid through the certify pipeline (see job.py)
and checks the verdict against references that do not come from modext
(see reference.py).  The load is a closed loop: one client runs jobs back
to back in one thread, pass after pass over the workload's inputs, until
--seconds have elapsed, the current pass is done and at least two passes
were made.

With --trace 0 the last line of output is a JSON object whose metrics are
the end-to-end figures; with --trace 1 they are per-layer figures from a
traced run, given per pass.  Times are in reference seconds: wall time
scaled by the host speed sampled alongside it (see speed.py).
`--workload all` runs every workload untraced and traced, each in its own
process, and reports the tracing overhead.
modext is imported from src/ next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.speed import REF_KERNEL_S, Sampler  # noqa: E402

WORKLOADS = ("large-linear", "large-graph", "census")
SETUP_SAMPLES = 9  # fresh processes; five run before the loop, four after it
MIN_PASSES = 2     # a job time is a median over passes; one K8 pass takes about 20 s
SETUP_KERNELS = 5  # speed samples taken on each side of one set-up
MACHINE_NOTE = ("shared machine: its speed drifts by up to 2x in phases of "
                "seconds to minutes; times are scaled to reference seconds")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_modext():
    """Put src/ first on the path and import modext."""
    if not (SRC / "modext" / "__init__.py").is_file():
        fail(f"no modext sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import modext

    if Path(modext.__file__).resolve().parent != SRC / "modext":
        fail(f"imported modext from {modext.__file__}, not from {SRC}")


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"python {platform.python_version()}  cpu {cpu}  nproc {len(os.sched_getaffinity(0))}"


# ---------------------------------------------------------------------------
# set-up


def setup_once(workload: str, seed: int) -> dict:
    """Import modext and build every input matroid once; timed in a fresh
    process, with the host speed sampled before, during and after."""
    with Sampler() as sampler:
        for _ in range(SETUP_KERNELS):
            sampler.sample()
        start = perf_counter()
        import_modext()
        from perfbench import inputs

        specs = inputs.generate(workload, seed)
        for _, spec in specs:
            inputs.build(spec)
        end = perf_counter()
        for _ in range(SETUP_KERNELS):
            sampler.sample()
    return {"setup_s": sampler.ref_seconds(start, end), "wall_s": end - start,
            "digest": inputs.digest(specs)}


def setup_samples(workload: str, seed: int, count: int) -> list:
    """Set-up times of `count` fresh processes, run one after another."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, env=env, timeout=120, check=False)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# the measured loop


@dataclass(frozen=True)
class Record:
    """One job of the loop."""

    pass_no: int
    index: int          # position of the input in the pass
    seconds: float      # reference seconds
    wall: float         # wall seconds, sampling included
    verdict: object     # job.Verdict, or None when the job raised
    memo: int           # rank-memo entries when the job ended
    counts: tuple       # traced runs: (rank calls, oracle calls, closures,
                        # rank-equation calls) made by the job


def measure(specs, seconds, run_job, tracer):
    """Run passes over the inputs until `seconds` have elapsed and at least
    MIN_PASSES are done, sampling the host speed throughout; returns
    (records, passes, loop seconds, sampler, peak RSS in MB of the first pass).

    Peak memory is read after the first pass: the heap left by one pass
    raises the peak of the next, so the whole run's peak would depend on how
    many passes the host's speed allowed."""
    jobs = []
    passes = 0
    peak_rss_mb = None
    with Sampler() as sampler:
        start = perf_counter()
        while passes < MIN_PASSES or perf_counter() - start < seconds:
            for i, (_, spec) in enumerate(specs):
                if tracer is not None:
                    tracer.job = len(jobs)
                before = counts(tracer)
                t0 = perf_counter()
                try:
                    verdict, memo = run_job(spec)
                except Exception:  # a job that raises counts as failed
                    traceback.print_exc()
                    verdict, memo = None, 0
                t1 = perf_counter()
                delta = tuple(b - a for a, b in zip(before, counts(tracer)))
                jobs.append((passes, i, t0, t1, verdict, memo, delta))
            if passes == 0:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            passes += 1
        loop_s = perf_counter() - start
    records = [Record(p, i, sampler.ref_seconds(t0, t1), t1 - t0, verdict, memo, delta)
               for p, i, t0, t1, verdict, memo, delta in jobs]
    return records, passes, loop_s, sampler, peak_rss_mb


def counts(tracer) -> tuple:
    """Cumulative (rank calls, oracle calls, closures, rank-equation calls)."""
    if tracer is None:
        return (0, 0, 0, 0)
    return (tracer.rank_calls, tracer.sum_calls("_oracle"),
            tracer.calls["matroid.closure"],
            tracer.calls["modularity.violating_flat_in_context"])


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    import_modext()
    from perfbench import inputs, job

    probes = setup_samples(workload, seed, SETUP_SAMPLES // 2 + 1)
    specs = inputs.generate(workload, seed)
    digest = inputs.digest(specs)
    for _, spec in specs:
        inputs.build(spec).check_simple()

    tracer = None
    api = job.public_api()
    if trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
        api = tracer.install()
    tamper = workload == "census"

    def run_job(spec):
        m = inputs.build(spec)
        if tracer is not None:
            tracer.instrument(m)
        return job.certify(m, api, tamper), len(m._memo)

    try:
        records, passes, loop_s, sampler, peak_rss_mb = measure(
            specs, seconds, run_job if tracer is None else tracer.job_span(run_job), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Set-up is sampled on both sides of the loop, so that one slow stretch
    # of a shared machine does not set the median alone.
    probes += setup_samples(workload, seed, SETUP_SAMPLES - len(probes))
    if any(p["digest"] != digest for p in probes):
        fail("set-up probes generated different inputs")

    failed = count_failures(workload, specs, records)
    exact = exact_counters(records, passes)
    repeat_ok = all(c == exact[0] for c in exact)
    if not repeat_ok:
        print("FAILED: exact counters differ between passes", file=sys.stderr)

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"env {environment()}  ({MACHINE_NOTE})")
    print(f"inputs {len(specs)}  digest sha256:{digest}")
    print("setup_s samples " + " ".join(f"{p['setup_s']:.4f}" for p in probes)
          + "  (wall " + " ".join(f"{p['wall_s']:.4f}" for p in probes) + ")")
    print(f"host speed: kernel median {1e3 * REF_KERNEL_S / sampler.scale():.4f} ms "
          f"over {len(sampler.costs)} samples; reference {1e3 * REF_KERNEL_S:g} ms")
    print_inputs(workload, specs, records, traced=tracer is not None)
    negative = sum(1 for r in records if r.verdict is not None and not r.verdict.me)
    print(f"passes {passes}  jobs {len(records)}  failed {failed}  "
          f"failed_ratio {failed / len(records):.4f}  negative ME verdicts {negative}  "
          f"loop {loop_s:.3f} s  ({len(records) / loop_s:.4f} jobs/s)")
    print("exact counters per pass: rank_misses closure_calls flats cover_edges "
          "rank_equation_calls = " + " ".join(map(str, exact[0])))

    per_input = median_times(len(specs), records)
    # One pass at each input's median time, scaled by the share of jobs that
    # matched their references.
    jobs_per_s = len(per_input) / sum(per_input) * (len(records) - failed) / len(records)
    if tracer is None:
        metrics = {
            "jobs_per_s": (jobs_per_s, "1/s"),
            "job_p50_s": (statistics.median(per_input), "s"),
            "job_p90_s": (statistics.quantiles(per_input, n=10, method="inclusive")[8], "s"),
            "largest_job_s": (statistics.median(largest_times(workload, specs, records, per_input)),
                              "s"),
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, records, passes, jobs_per_s, sampler.scale())
        print_layers(tracer, passes, sampler.scale())
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{workload}.jsonl")
        print(f"spans {len(tracer.spans)} written to perfbench/out/trace-{workload}.jsonl")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and repeat_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def count_failures(workload, specs, records) -> int:
    """Jobs that raised, disagreed with a reference, or changed their verdict
    from an earlier pass; each is reported on standard error."""
    from perfbench import reference

    # References are computed outside the timed loop, once per distinct input.
    if workload == "census":
        refs = [reference.census_reference(spec) for _, spec in specs]
    else:
        refs = [reference.large_reference(name) for name, _ in specs]
    failed = 0
    first = {}      # input index -> verdict of its first completed job
    for r in records:
        if r.verdict is None:
            problems = ["raised"]
        else:
            problems = reference.mismatches(r.verdict, refs[r.index])
            if first.setdefault(r.index, r.verdict) != r.verdict:
                problems.append("verdict differs from an earlier pass")
        if problems:
            failed += 1
            print(f"FAILED pass {r.pass_no} input {specs[r.index][0]}: {'; '.join(problems)}",
                  file=sys.stderr)
    return failed


def exact_counters(records, passes) -> list:
    """Per pass: rank misses, closures, flats, cover edges, rank-equation calls."""
    out = [[0, 0, 0, 0, 0] for _ in range(passes)]
    for r in records:
        row = out[r.pass_no]
        row[0] += r.counts[1]
        row[1] += r.counts[2]
        row[4] += r.counts[3]
        if r.verdict is not None:
            row[2] += r.verdict.flats
            row[3] += r.verdict.cover_edges
    return [tuple(row) for row in out]


def median_times(n_inputs, records) -> list:
    """Each input's median job time over the passes of the run.

    Job times are in reference seconds, which take out most of the host's
    drift.  The median is steadier than the best: a best picks the repeat
    whose speed samples happened to read slowest.
    """
    times = [[] for _ in range(n_inputs)]
    for r in records:
        times[r.index].append(r.seconds)
    return [statistics.median(t) for t in times]


def largest_times(workload, specs, records, per_input) -> list:
    """Median times of the largest input: braid-7 or K8; in the census, of
    the tenth of the inputs with the most flats."""
    from perfbench import inputs

    if workload in inputs.LARGEST:
        return [t for (name, _), t in zip(specs, per_input) if name == inputs.LARGEST[workload]]
    flats = {r.index: r.verdict.flats for r in records if r.verdict is not None}
    largest = sorted(flats, key=lambda i: (-flats[i], i))[:max(1, len(specs) // 10)]
    return [per_input[i] for i in largest]


def print_inputs(workload, specs, records, traced):
    """One row per input of a large workload; one row per census backend."""
    from perfbench import inputs

    rows = {}
    for r in records:
        name, spec = specs[r.index]
        key = name.split("-")[0] if workload == "census" else name
        row = rows.setdefault(key, {"times": [], "walls": [], "atoms": set(), "flats": 0,
                                    "misses": 0, "inputs": set()})
        row["times"].append(r.seconds)
        row["walls"].append(r.wall)
        row["inputs"].add(r.index)
        row["atoms"].add(inputs.atom_count(spec))
        row["misses"] += r.counts[1]
        if r.verdict is not None:
            row["flats"] += r.verdict.flats
    for key, row in rows.items():
        jobs = len(row["times"])
        line = (f"input {key:<11} inputs {len(row['inputs'])}  "
                f"atoms {min(row['atoms'])}-{max(row['atoms'])}  "
                f"flats/job {row['flats'] / jobs:.1f}  jobs {jobs}  "
                f"time best {min(row['times']):.4f} s  median {statistics.median(row['times']):.4f} s  "
                f"max {max(row['times']):.4f} s  "
                f"(wall median {statistics.median(row['walls']):.4f} s)")
        if traced:
            line += f"  rank_misses/job {row['misses'] / jobs:.0f}"
        print(line)


# ---------------------------------------------------------------------------
# per-layer figures of a traced run


def layer_metrics(tracer, records, passes, traced_jobs_per_s, scale) -> dict:
    """Per-layer metrics, each a per-pass figure: totals divided by passes.
    Times are scaled to reference seconds by the run's median host speed."""
    per = 1 / passes
    sec = scale / passes
    t, c = tracer.total_s, tracer.calls
    selfs = tracer.layer_self_s()
    misses = tracer.sum_calls("_oracle")
    verdicts = [r.verdict for r in records if r.verdict is not None]
    cover_edges = sum(v.cover_edges for v in verdicts)
    m = {
        "algebra.row_rank_calls": (tracer.sum_calls("_row_rank") * per, "count"),
        "matroid.rank_calls": (tracer.rank_calls * per, "count"),
        "matroid.rank_misses": (misses * per, "count"),
        "matroid.memo_hit_ratio": (1 - misses / tracer.rank_calls, "ratio"),
        "matroid.memo_entries": (max(r.memo for r in records), "count"),
        "matroid.closure_calls": (c["matroid.closure"] * per, "count"),
        "matroid.closure_self_s": (tracer.self_s["matroid.closure"] * sec, "s"),
        "matroid.oracle_s": (tracer.sum_total_s("_oracle") * sec, "s"),
        "matroid.graphic_kernel_calls": (c["matroid.graphic_oracle"] * per, "count"),
        "gaingraph.kernel_calls": (tracer.sum_calls("_oracle", layer="gaingraph") * per, "count"),
        "lattice.enumerate_self_s": (tracer.self_s["lattice.enumerate_flats"] * sec, "s"),
        "lattice.flats": (sum(v.flats for v in verdicts) * per, "count"),
        "lattice.cover_edges": (cover_edges * per, "count"),
        "lattice.cover_yield": (cover_edges / tracer.by_parent["matroid.closure",
                                                               "lattice.enumerate_flats"], "ratio"),
        "lattice.mobius_s": (t["lattice.mobius"] * sec, "s"),
        "lattice.interval_charpoly_calls": (c["lattice.interval_charpoly"] * per, "count"),
        "lattice.interval_charpoly_s": (t["lattice.interval_charpoly"] * sec, "s"),
        "modularity.rank_equation_calls": (c["modularity.violating_flat_in_context"] * per, "count"),
        "modularity.rank_equation_s": (t["modularity.violating_flat_in_context"] * sec, "s"),
        "modularity.modular_flats_s": (t["modularity.modular_flats"] * sec, "s"),
        "modularity.chain_s": (t["modularity.supersolvable_chain"] * sec, "s"),
        "divisional.flag_s": (t["divisional.divisional_flag"] * sec, "s"),
        "joins.find_joins_s": (t["joins.find_modular_joins"] * sec, "s"),
        "joins.identity_checks": (c["joins.brylawski_identity_check"] * per, "count"),
        "joins.me_certify_s": (t["joins.me_certify"] * sec, "s"),
        "verify.verify_s": (t["verify.verify_certificate"] * sec, "s"),
        "verify.certificates_checked": (sum(v.verified for v in verdicts) * per, "count"),
        "verify.tampered_rejected": (sum(v.tampered_rejected for v in verdicts) * per, "count"),
    }
    for layer in ("matroid", "lattice", "modularity", "divisional", "joins", "verify"):
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0) * sec, "s")
    m["trace.jobs_per_s"] = (traced_jobs_per_s, "1/s")
    m["trace.spans"] = (len(tracer.spans) * per, "count")
    return m


def print_layers(tracer, passes, scale):
    """Self time per layer, and calls, total and self time per traced name,
    per pass, in reference seconds.  Kernels that are zero by design on a
    workload show here."""
    selfs = tracer.layer_self_s()
    whole = sum(selfs.values())
    sec = scale / passes
    for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"layer {layer:<11} self {s * sec:10.4f} s  {100 * s / whole:5.1f}%")
    for name in sorted(tracer.calls):
        print(f"name {name:<40} calls {tracer.calls[name] / passes:12.1f}  "
              f"total {tracer.total_s[name] * sec:9.4f} s  "
              f"self {tracer.self_s[name] * sec:9.4f} s")


# ---------------------------------------------------------------------------
# all workloads in one command


def run_all(seed: int, seconds: float):
    """Every workload untraced and traced, each in its own process."""
    results = {}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, env=env, timeout=600, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited with {proc.returncode}")
            results[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    print()
    for workload in WORKLOADS:
        plain = results[workload, 0]["metrics"]["jobs_per_s"]["value"]
        traced = results[workload, 1]["metrics"]["trace.jobs_per_s"]["value"]
        print(f"tracing overhead {workload}: jobs_per_s {plain:.4g} untraced, "
              f"{traced:.4g} traced ({100 * (1 - traced / plain):.1f}% slower)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": v for (w, _), r in results.items()
                    for name, v in r["metrics"].items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_once(args.workload, args.seed)))
    elif args.workload == "all":
        run_all(args.seed, args.seconds)
    else:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
