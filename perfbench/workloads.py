"""The four workloads: seeded job generation and independent checks.

A job is one or two ``rzeta`` command lines, run in process through
``rzeta.cli.run``.  Everything random in a job comes from the workload
name and the seed; derivative orders (and oracle heights) are dealt in
shuffled blocks, so any run of k jobs holds each order about k/3 times
and a run's median does not depend on which orders the seed favoured.

Each check compares the program's output with a route that does not
pass through the code being timed: mpmath's own zeta, direct Dirichlet
sums, a logarithmic-derivative route for S(x; l)/|M| written here, the
frozen acceptance ratios, and closed forms for the diagonal terms.
"""

from __future__ import annotations

import ast
import json
import math
import os
import random
from dataclasses import dataclass, field

import mpmath
import numpy as np

# -log10 of the double unit roundoff: the most digits a double can agree to.
DOUBLE_DIGITS = -math.log10(2.0**-53)
HIGH_DIGITS = 50  # working precision of the arith workload

# Dirichlet length T of the workloads that take one.  certify and scan
# run at 2e4, where a job takes about 2.5 s, so that a run's median rests
# on about twenty jobs, not two; oracle jobs are short at 1e5.
T_OF = {"certify": 2e4, "scan": 2e4, "oracle": 1e5}
CERTIFY_TOL = 1e-8  # QuadratureSettings().rel_tol, the moments' own target
SCAN_ARGMAX_TOL = 1e-10  # relative to the reported maximum
SCAN_ROW_TOL = 1e-11  # relative to sum |c_n|, as tests/test_gridsum.py pins
SCAN_ROWS_CHECKED = 64
ORACLE_TOL = 1e-8  # the oracle's own tail and two-grid refusal bound
PROP_FROZEN_TOL = 1e-9  # as test_criterion_3 applies PROP_RATIOS
HIGH_TOL = 10.0 ** (5 - HIGH_DIGITS)
ARITH_ELL_MAX = 3


@dataclass(frozen=True)
class Job:
    index: int
    steps: tuple  # one argv tuple per CLI call
    outputs: tuple  # the --output path of each step
    params: dict = field(default_factory=dict)


def _draws(rng: random.Random, workload: str):
    """(ell, t) pairs dealt in shuffled blocks.

    Each block holds every derivative order once; for ``oracle`` a block
    of six holds each order twice and one height from each sixth of
    [T, 2T], so a run's median is not at the mercy of where the seed
    happened to put its heights.
    """
    orders = (1, 2, ARITH_ELL_MAX) if workload == "arith" else (0, 1, 2)
    while True:
        if workload != "oracle":
            block = list(orders)
            rng.shuffle(block)
            yield from ((ell, None) for ell in block)
            continue
        ells = list(orders) * 2
        strata = list(range(BLOCK["oracle"]))
        rng.shuffle(ells)
        rng.shuffle(strata)
        for ell, k in zip(ells, strata):
            u = (k + rng.random()) / len(strata)
            yield ell, T_OF["oracle"] * (1.0 + u)


def _with_output(argv, path):
    return tuple(argv) + ("--no-timestamp", "--output", path)


def jobs(workload: str, seed: int, work_dir: str, warmup: bool = False):
    """Endless job stream for ``workload``; the same seed gives the same
    jobs.  Outputs go to files under ``work_dir``.  ``warmup`` selects a
    second stream from the same seed, for the untimed job that fills
    caches before a run, so it shares no height with the timed jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    key = f"{workload}:{seed}" + (":warmup" if warmup else "")
    draws = _draws(random.Random(key), workload)
    out_json = os.path.join(work_dir, "out.json")
    out_aux = os.path.join(work_dir, "out2")
    index = 0
    while True:
        ell, t = next(draws)
        params = {"ell": ell}
        ell = str(ell)
        T = f"{T_OF[workload]:g}" if workload in T_OF else None
        if workload == "certify":
            steps = [("resonate", "--x", "3", "--b", "3", "--T", T,
                      "--ell", ell)]
        elif workload == "scan":
            scan = ("scan", "--T", T, "--ell", ell, "--step", "0.068",
                    "--refine")
            steps = [scan, scan + ("--csv",)]
        elif workload == "oracle":
            t = f"{t:.6f}"
            params["t"] = float(t)
            steps = [("zeta", "--T", T, "--t", t, "--ell", ell,
                      "--oracle")]
        else:
            steps = [
                ("prop", "--x", "10000", "--b", "1000", "--J", "3",
                 "--ell", ell, "--precision", "50"),
                ("ssum", "--x", "17", "--b", "3", "--ell", ell,
                 "--method", "both", "--precision", "50"),
            ]
        outputs = (out_json, out_aux)[: len(steps)]
        yield Job(
            index,
            tuple(_with_output(s, o) for s, o in zip(steps, outputs)),
            outputs,
            params,
        )
        index += 1


# ------------------------------------------------------------- checks --

@dataclass
class CheckResult:
    ok: bool
    digits: float
    values: dict
    notes: list = field(default_factory=list)


def agree_digits(gap: float, cap: float) -> float:
    """-log10 of a relative gap, capped at the working precision."""
    gap = float(gap)
    if gap <= 0.0:
        return cap
    return min(cap, -math.log10(gap))


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


def _primes_upto(x: float) -> list[int]:
    n = int(math.floor(x))
    mask = bytearray([1]) * (n + 1)
    mask[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if mask[p]]


def s_over_m_reference(x: float, b: int, ell_max: int, dps: int = 60):
    """[S(x; l)/|M| for l = 0..ell_max], as (-1)^l F^(l)(1)/|M| through
    log F.

    F/|M| is the product over p <= x of f_p(s) = sum_v (1 - v/b) p^(-vs).
    With a_k = f_p^(k)(1) and g_k the derivatives of log f_p, the
    recursion a_(n+1) = sum_i C(n,i) a_(n-i) g_(i+1) yields g_k; the
    g_k add over primes, and the complete Bell polynomials turn their
    sums back into F^(l)/F.  The package's jet route instead multiplies
    Taylor expansions of the f_p, so the two routes share no arithmetic.
    """
    with mpmath.workdps(dps):
        tiny = mpmath.mpf(10) ** (-dps - 15)
        log_f0 = mpmath.mpf(0)
        G = [mpmath.mpf(0)] * (ell_max + 1)
        for p in _primes_upto(x):
            logp = mpmath.log(p)
            a = [mpmath.mpf(0)] * (ell_max + 1)
            pv = mpmath.mpf(1)
            for v in range(b):
                term = (1 - mpmath.mpf(v) / b) * pv
                for k in range(ell_max + 1):
                    a[k] += term
                    term *= -v * logp
                pv /= p
                if pv < tiny:
                    break
            g = [mpmath.mpf(0)] * (ell_max + 1)
            for n in range(ell_max):
                acc = a[n + 1]
                for i in range(n):
                    acc -= math.comb(n, i) * a[n - i] * g[i + 1]
                g[n + 1] = acc / a[0]
            for k in range(1, ell_max + 1):
                G[k] += g[k]
            log_f0 += mpmath.log(a[0])
        Y = [mpmath.mpf(1)]
        for n in range(ell_max):
            Y.append(sum(math.comb(n, i) * Y[n - i] * G[i + 1]
                          for i in range(n + 1)))
        f0 = mpmath.exp(log_f0)
        return [(-1) ** ell * f0 * Y[ell] for ell in range(ell_max + 1)]


def frozen_prop_ratios(root: str) -> dict[int, float]:
    """PROP_RATIOS as frozen in tests/test_acceptance.py (read only)."""
    path = os.path.join(root, "tests", "test_acceptance.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "PROP_RATIOS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise ValueError(f"PROP_RATIOS not found in {path}")


class Checker:
    """Per-workload correctness checks, run outside the timed region."""

    def __init__(self, workload: str, root: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.frozen = frozen_prop_ratios(root) if workload == "arith" else {}
        self._cache: dict = {}

    def check(self, job: Job) -> CheckResult:
        return getattr(self, f"_check_{self.workload}")(job)

    @staticmethod
    def _load(path):
        with open(path) as fh:
            return json.load(fh)

    def _check_certify(self, job):
        doc = self._load(job.outputs[0])
        size = 3 ** len(_primes_upto(3))  # |M| = b^pi(x)
        gap_ratio = _rel(doc["ratio"], doc["rhs_prediction"])
        gap_m1 = _rel(doc["M1"], 0.75 * T_OF["certify"] * size)
        ok = gap_ratio <= CERTIFY_TOL and gap_m1 <= CERTIFY_TOL
        digits = min(agree_digits(gap_ratio, DOUBLE_DIGITS),
                     agree_digits(gap_m1, DOUBLE_DIGITS))
        values = {**doc, "gap_ratio": gap_ratio, "gap_M1": gap_m1}
        return CheckResult(ok, digits, values)

    def _coeff_scale(self, ell):
        key = ("scale", ell)
        if key not in self._cache:
            n = np.arange(1, int(T_OF["scan"]) + 1, dtype=np.float64)
            self._cache[key] = math.fsum(np.log(n) ** ell / n)
        return self._cache[key]

    def _check_scan(self, job):
        from rzeta.zeta import EvalPoint, dirichlet_poly

        ell = job.params["ell"]
        doc = self._load(job.outputs[0])
        rows = np.loadtxt(job.outputs[1], delimiter=",", skiprows=1)
        notes = []
        csv_max = float(rows[:, 1].max())
        ok = True
        if rows.shape[0] != doc["grid_points"]:
            ok = False
            notes.append(f"CSV has {rows.shape[0]} rows, report says "
                         f"{doc['grid_points']}")
        if not doc["max_value"] >= csv_max:
            ok = False
            notes.append(f"refined max {doc['max_value']} < CSV max {csv_max}")

        def amp(t):
            return abs(dirichlet_poly(EvalPoint(t, ell, T_OF["scan"])))

        gap_argmax = _rel(doc["max_value"], amp(doc["argmax_t"]))
        rng = random.Random(f"scan-rows:{self.seed}:{job.index}")
        picks = sorted(rng.sample(range(rows.shape[0]), SCAN_ROWS_CHECKED))
        scale = self._coeff_scale(ell)
        sampled = [(float(rows[i, 0]), float(rows[i, 1])) for i in picks]
        errors = np.array([v - amp(t) for t, v in sampled]) / scale
        gap_rows_max = float(np.max(np.abs(errors)))
        # The RMS over rows is steadier from seed to seed than the maximum.
        gap_rows_rms = float(np.sqrt(np.mean(errors**2)))
        if gap_argmax > SCAN_ARGMAX_TOL or gap_rows_max > SCAN_ROW_TOL:
            ok = False
        digits = min(agree_digits(gap_argmax, DOUBLE_DIGITS),
                     agree_digits(gap_rows_rms, DOUBLE_DIGITS))
        values = {**doc, "csv_rows": int(rows.shape[0]), "csv_max": csv_max,
                  "csv_sampled": sampled, "gap_argmax": gap_argmax,
                  "gap_rows_max_over_sum_c": gap_rows_max,
                  "gap_rows_rms_over_sum_c": gap_rows_rms}
        return CheckResult(ok, digits, values, notes)

    def _check_oracle(self, job):
        ell, t = job.params["ell"], job.params["t"]
        doc = self._load(job.outputs[0])
        got = complex(doc["oracle_re"], doc["oracle_im"])
        with mpmath.workdps(20):
            ref = (-1) ** ell * complex(mpmath.zeta(mpmath.mpc(1, t),
                                                    derivative=ell))
        gap = _rel(got, ref)
        ok = gap <= ORACLE_TOL and doc["t"] == t
        values = {**doc, "mpmath_re": ref.real, "mpmath_im": ref.imag,
                  "gap": gap}
        return CheckResult(ok, agree_digits(gap, DOUBLE_DIGITS), values)

    def _reference(self, x, b, ell):
        key = (x, b)
        if key not in self._cache:
            self._cache[key] = s_over_m_reference(x, b, ARITH_ELL_MAX)
        return self._cache[key][ell]

    def _check_arith(self, job):
        ell = job.params["ell"]
        prop = self._load(job.outputs[0])
        ssum = self._load(job.outputs[1])
        notes = []
        with mpmath.workdps(60):
            s_over_m = mpmath.mpf(prop["S_over_M"])
            target = (mpmath.exp(mpmath.euler) / (ell + 1)
                      * mpmath.log(10000) ** (ell + 1))
            gaps = {
                "S_over_M": _rel(s_over_m, self._reference(10000, 1000, ell)),
                "target": _rel(mpmath.mpf(prop["target"]), target),
                "ratio": _rel(mpmath.mpf(prop["ratio"]), s_over_m / target),
                "ssum_S": _rel(mpmath.mpf(ssum["S"]),
                               3 ** len(_primes_upto(17))
                               * self._reference(17, 3, ell)),
            }
        gaps = {k: float(v) for k, v in gaps.items()}
        gaps["ssum_rel_diff"] = float(ssum["rel_diff"])
        ok = all(g <= HIGH_TOL for g in gaps.values())
        if ell in self.frozen:
            frozen = self.frozen[ell]
            gaps["frozen_ratio"] = _rel(float(prop["ratio"]), frozen)
            if gaps["frozen_ratio"] > PROP_FROZEN_TOL:
                ok = False
                notes.append(f"ratio {prop['ratio']} vs frozen {frozen}")
        digits = min(agree_digits(g, HIGH_DIGITS)
                     for k, g in gaps.items() if k != "frozen_ratio")
        values = {"prop": prop, "ssum": ssum, "gaps": gaps}
        return CheckResult(ok, digits, values, notes)


# Short-job workloads end a run only on a block boundary, so every run
# holds each derivative order (and oracle height band) equally often;
# their job times differ by order, and an unbalanced run shifts the
# median.  certify and scan jobs cost the same at every order.
BLOCK = {"oracle": 2 * 3, "arith": 3}

WORKLOADS = {
    "certify": "resonate at T=2e4: engine, quadrature and gridsum",
    "scan": "scan --refine and its CSV dump at T=2e4: gridsum and cli output",
    "oracle": "zeta --oracle at T=1e5: Euler-Maclaurin rings and fsum",
    "arith": "prop and ssum at 50 digits: jets, resonator, precision, primes",
}
