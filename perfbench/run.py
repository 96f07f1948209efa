"""rzeta benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 45 [--trace 1]

One process drives the program in a closed loop: one job in flight at a
time, each job one or two in-process calls of ``rzeta.cli.run`` on an
argv generated from the seed.  The process runs with one BLAS/OpenMP
thread.  One untimed warm-up job fills caches first.  Timed jobs start
while their summed wall time is below ``--seconds``; a run holds at
least two, and ``oracle`` and ``arith`` runs end on a block boundary.
Set-up probes (fresh interpreters importing ``rzeta.cli``) run between
jobs, spread over the run.  Outputs are checked after each job, outside
the timed region.  The last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  Each
run also writes its per-job records (argv, exit code, wall and CPU
time, computed values, check results) and environment under
``perfbench/out``.

``--all`` runs every workload in its own process and prints every
end-to-end metric by name and unit, the tail percentile included.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 5
# A run's median never rests on one job, and a traced run always has an
# untraced job to measure the tracing overhead against.
MIN_JOBS = 2

# One BLAS/OpenMP thread, set before numpy loads.  With two on a 2-vCPU
# Xeon VM, ``resonate --T 1e5`` took the same 14 s of wall time but 22 s
# of CPU instead of 14: the second thread mostly spin-waits, and a run
# then measures how much of the shared host that thread gets.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

sys.path.insert(0, ROOT)

from perfbench import stats, tracer as tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    BLOCK, WORKLOADS, Checker, jobs,
)

END_TO_END = (
    ("setup_s", "s"),
    ("job_s_p50", "s"),
    ("cpu_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("agree_digits", "digits"),
)

# (metric, unit); the values come from layer_metrics below.
PER_LAYER = (
    ("gridsum.plan_build.s", "s"),
    ("gridsum.plan_build.calls", "count"),
    ("gridsum.plan_run.s", "s"),
    ("gridsum.plan_run.calls", "count"),
    ("gridsum.fft.s", "s"),
    ("gridsum.spread.s", "s"),
    ("gridsum.route.direct.s", "s"),
    ("gridsum.route.direct.calls", "count"),
    ("gridsum.route.cumprod.s", "s"),
    ("gridsum.route.cumprod.calls", "count"),
    ("gridsum.route.nufft.s", "s"),
    ("gridsum.route.nufft.calls", "count"),
    ("gridsum.source_points", "count"),
    ("gridsum.fine_grid_points", "count"),
    ("quadrature.integrate_refine.s", "s"),
    ("quadrature.integrate_refine.self_s", "s"),
    ("quadrature.integrate_refine.calls", "count"),
    ("quadrature.levels", "count"),
    ("quadrature.nodes", "count"),
    ("quadrature.useful_node_share", "ratio"),
    ("engine.moment_M1.s", "s"),
    ("engine.moment_M2.s", "s"),
    ("engine.certificate.s", "s"),
    ("engine.bump_phi.s", "s"),
    ("engine.bump_phi.calls", "count"),
    ("engine.scan_max.s", "s"),
    ("engine.scan_max.self_s", "s"),
    ("engine.scan_samples.s", "s"),
    ("zeta.zeta_deriv_cauchy.s", "s"),
    ("zeta.zeta_deriv_cauchy.calls", "count"),
    ("zeta.zeta_em_array.s", "s"),
    ("zeta.zeta_em_array.calls", "count"),
    ("zeta.em_terms", "count"),
    ("zeta.dirichlet_poly.s", "s"),
    ("zeta.dirichlet_poly.calls", "count"),
    ("zeta.ring_cache.hit_ratio", "ratio"),
    ("jets.local_factor_jet.s", "s"),
    ("jets.local_factor_jet.calls", "count"),
    ("jets.jet_product.s", "s"),
    ("jets.jet_mul.calls", "count"),
    ("resonator.s_over_cardinality_jet.s", "s"),
    ("resonator.partition_over_cardinality.s", "s"),
    ("resonator.layer_product.s", "s"),
    ("resonator.S_brute.s", "s"),
    ("resonator.S_jet.s", "s"),
    ("resonator.enumerate_M.elements", "count"),
    ("precision.real.s", "s"),
    ("precision.real.calls", "count"),
    ("precision.rlog.s", "s"),
    ("precision.rlog.calls", "count"),
    ("primes.sieve_primes.s", "s"),
    ("primes.sieve_primes.calls", "count"),
    ("cli.run.s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

def layer_metrics(tr: tracing.Tracer, traced_jobs: int, overhead: float,
                  ring: tuple[int, int]) -> dict[str, float]:
    """Per-layer values, per traced job (ratios are taken over totals)."""
    totals = tracing.span_totals(tr)
    k = max(1, traced_jobs)

    def field(span, key):
        return totals.get(span, {}).get(key, 0.0) / k

    hits, misses = ring
    fft = tracing.child_time(tr, "gridsum.fft", "gridsum.plan_run") / k
    derived = {
        "gridsum.fft.s": fft,
        "gridsum.spread.s": field("gridsum.plan_run", "s") - fft,
        "gridsum.source_points": tr.counters["gridsum.source_points"] / k,
        "gridsum.fine_grid_points":
            tr.counters["gridsum.fine_grid_points"] / k,
        "quadrature.levels": field("quadrature.level", "calls"),
        "quadrature.nodes": tr.counters["quadrature.nodes"] / k,
        "quadrature.useful_node_share": tracing.useful_node_share(tr),
        "zeta.em_terms": tr.counters["zeta.em_terms"] / k,
        "zeta.ring_cache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "resonator.enumerate_M.elements":
            tr.counters["resonator.enumerate_M.elements"] / k,
        "trace.overhead_ratio": overhead,
    }
    out = {}
    for name, _unit in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        else:
            span, key = name.rsplit(".", 1)
            out[name] = field(span, key)
    return out


# -------------------------------------------------------- environment --

def _openblas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cache_bytes(level: int):
    # glibc sysconf names _SC_LEVEL2_CACHE_SIZE = 191, _SC_LEVEL3_CACHE_SIZE = 194
    code = {2: 191, 3: 194}[level]
    try:
        value = ctypes.CDLL(None).sysconf(code)
    except OSError:
        return None
    return value if value > 0 else None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "machine": platform.machine(),
    }


# -------------------------------------------------------------- runs --

def probe_setup() -> float:
    """One fresh interpreter, timed from process start to rzeta.cli
    imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), ROOT],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed to import rzeta.cli")
    return elapsed


def run_job(cli, job) -> tuple[list[int], float, float, str | None]:
    """Run every step of a job; returns (exit codes, wall s, CPU s, error)."""
    codes, error = [], None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in job.steps:
        try:
            code = cli.run(list(argv))
        except Exception as exc:  # a crash counts as a failed job
            codes.append(-1)
            error = f"{type(exc).__name__}: {exc}"
            break
        codes.append(code)
        if code != 0:
            break
    return (codes, time.perf_counter() - wall0,
            time.process_time() - cpu0, error)


def check_job(checker, job, codes, error) -> dict:
    """The check's fields for a job's record: ok, digits, values, notes."""
    rec = {"ok": False, "digits": 0.0}
    if error is not None:
        rec["error"] = error
    if len(codes) == len(job.steps) and all(c == 0 for c in codes):
        try:
            res = checker.check(job)
        except (OSError, ValueError, KeyError) as exc:
            rec["error"] = f"check: {type(exc).__name__}: {exc}"
        else:
            rec.update(ok=res.ok, digits=res.digits,
                       values=res.values, notes=res.notes)
    return rec


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    import rzeta.cli as cli

    work_dir = os.path.join(OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    checker = Checker(workload, ROOT, seed)
    tr = tracing.Tracer() if trace else None
    records, ring, warmup, probes = [], [0, 0], None, []
    # Untraced runs spread their set-up probes over the timed part, one
    # due each SETUP_PROBES-th of it, so that their median, like the
    # jobs', spans the run and not the few seconds before it.
    want_probes = 0 if trace else SETUP_PROBES
    try:
        if tr is None:
            # Lazy imports, the sieve and first-touch pages are paid here,
            # not by the first timed job.  A traced run keeps them in its
            # first job, where primes.sieve_primes records the sieve.
            warm = next(jobs(workload, seed, work_dir, warmup=True))
            codes, wall, cpu, error = run_job(cli, warm)
            warmup = {"argv": [list(s) for s in warm.steps],
                      "exit_codes": codes, "wall_s": wall, "cpu_s": cpu,
                      **check_job(checker, warm, codes, error)}
        else:
            tracing.install(tr)
        measured = 0.0
        for job in jobs(workload, seed, work_dir):
            if (len(records) >= MIN_JOBS and measured >= seconds
                    and job.index % BLOCK.get(workload, 1) == 0):
                break
            if (len(probes) < want_probes
                    and measured * want_probes >= len(probes) * seconds):
                probes.append(probe_setup())
            traced = tr is not None and job.index % 2 == 0
            ring0 = tracing.ring_cache_info()
            scope = tr.job_scope(job.index) if traced else contextlib.nullcontext()
            with scope:
                codes, wall, cpu, error = run_job(cli, job)
            if traced:
                ring1 = tracing.ring_cache_info()
                ring[0] += ring1[0] - ring0[0]
                ring[1] += ring1[1] - ring0[1]
            measured += wall
            records.append({
                "index": job.index, "argv": [list(s) for s in job.steps],
                "exit_codes": codes, "wall_s": wall, "cpu_s": cpu,
                "traced": traced, **check_job(checker, job, codes, error)})
        while len(probes) < want_probes:
            probes.append(probe_setup())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tr is not None:
            tr.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    setup = ({"probes_s": probes, "s": statistics.median(probes)}
             if probes else None)
    return setup, warmup, records, peak_rss_mb, tr, tuple(ring)


def summarize(workload, seed, seconds, trace, setup, warmup, records,
              peak_rss_mb, tr, ring):
    """The result document; a warm-up job counts as attempted and, if
    its check fails, as failed, but its times are in no metric."""
    walls = [r["wall_s"] for r in records]
    checked = records if warmup is None else [warmup, *records]
    failed = sum(1 for r in checked if not r["ok"])
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "attempted": len(checked), "failed": failed,
              "failed_frac": failed / len(checked)}
    if trace:
        traced = [r["wall_s"] for r in records if r["traced"]]
        plain = [r["wall_s"] for r in records if not r["traced"]]
        overhead = (statistics.median(traced) / statistics.median(plain)
                    if traced and plain else float("nan"))
        metrics = layer_metrics(tr, len(traced), overhead, ring)
        units = dict(PER_LAYER)
        grid_bytes = tr.counters["gridsum.max_grid_bytes"]
        env = result["environment"]
        result["working_set"] = {
            "gridsum_max_grid_bytes": grid_bytes,
            "over_l2": grid_bytes / env["l2_bytes"] if env["l2_bytes"] else None,
            "over_l3": grid_bytes / env["l3_bytes"] if env["l3_bytes"] else None,
        }
    else:
        digits = [r["digits"] for r in records]
        metrics = {
            "setup_s": setup["s"],
            "job_s_p50": statistics.median(walls),
            "cpu_s_p50": statistics.median([r["cpu_s"] for r in records]),
            "peak_rss_mb": peak_rss_mb,
            "agree_digits": statistics.median(digits),
        }
        units = dict(END_TO_END)
        result["setup"] = setup
        result["agree_digits_min"] = min(digits)
        tail = stats.tail(walls)
        result["job_s_tail"] = (
            None if tail is None else
            {"value": tail[0], "percentile": tail[1], "samples": tail[2]})
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in metrics.items()}
    result["warmup"] = warmup
    result["jobs"] = records
    return result


def records_path(workload, seed, trace):
    return os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")


def main_workload(args) -> int:
    setup, warmup, records, peak, tr, ring = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    result = summarize(args.workload, args.seed, args.seconds,
                       bool(args.trace), setup, warmup, records, peak, tr,
                       ring)
    path = records_path(args.workload, args.seed, args.trace)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    if tr is not None:
        tr.dump(path[: -len(".json")] + "-spans.json")
    for name, m in result["metrics"].items():
        print(f"{args.workload:8s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def main_all(args) -> int:
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            with open(records_path(workload, args.seed, trace)) as fh:
                result = json.load(fh)
            correct &= result["failed"] == 0
            rows = [(k, m["value"], m["unit"])
                    for k, m in result["metrics"].items()]
            if not trace:
                tail = result["job_s_tail"]
                if tail is not None:
                    rows.append((f"job_s_tail (p{tail['percentile']:.0f} of "
                                 f"{tail['samples']} jobs)", tail["value"], "s"))
                rows.append(("failed_frac", result["failed_frac"], "ratio"))
            for name, value, unit in rows:
                print(f"{workload:8s} {name:40s} {value:.6g} {unit}",
                      flush=True)
    print(json.dumps({"correct": correct}))
    return 0 if correct else 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload and print every metric")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src", "rzeta", "__init__.py")
    if not os.path.isfile(src):
        print(f"error: no rzeta sources at {os.path.dirname(src)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    return main_all(args) if args.all else main_workload(args)


if __name__ == "__main__":
    sys.exit(main())
