"""CLI behaviour: payloads, exit codes, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from datetime import datetime, timedelta, timezone

import mpmath
import pytest

import rzeta
import rzeta.engine
import rzeta.resonator
import rzeta.zeta
from rzeta.cli import comparison_rows, run
from rzeta.resonator import yang_factor


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ssum_value(capsys):
    code, out, _ = invoke(
        capsys, "ssum", "--x", "3", "--b", "2", "--ell", "0", "--no-timestamp"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["S"] == pytest.approx(35 / 6, rel=1e-12)


def test_ssum_both_methods(capsys):
    code, out, _ = invoke(
        capsys,
        "ssum", "--x", "13", "--b", "3", "--ell", "4",
        "--method", "both", "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rel_diff"] < 1e-10


def test_prop_partition_zero(capsys):
    code, out, _ = invoke(
        capsys,
        "prop", "--x", "3", "--b", "2", "--J", "1", "--ell", "1",
        "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["partition_bound_over_M"] == 0.0
    for key in ("S_over_M", "target", "ratio", "error_budget"):
        assert key in doc


def test_unknown_flag_exits_1(capsys):
    code, _, err = invoke(capsys, "ssum", "--bogus", "3")
    assert code == 1
    assert "usage" in err.lower()


def test_validation_error_exits_1(capsys):
    code, _, err = invoke(
        capsys, "ssum", "--x", "1.2", "--b", "2", "--ell", "0"
    )
    assert code == 1
    assert "error" in err.lower()


def test_byte_identical_reruns(capsys):
    args = (
        "prop", "--x", "10", "--b", "3", "--J", "2", "--ell", "1",
        "--no-timestamp",
    )
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2


def test_timestamp_present_by_default(capsys):
    code, out, _ = invoke(capsys, "sieve", "--limit", "30")
    assert code == 0
    # the text form of datetime.now(timezone.utc).isoformat()
    stamp = json.loads(out)["timestamp"]
    assert re.fullmatch(
        r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00", stamp
    )
    when = datetime.fromisoformat(stamp)
    assert when.utcoffset() == timedelta(0)
    assert abs(when - datetime.now(timezone.utc)) < timedelta(seconds=60)


def test_sieve_payload(capsys):
    code, out, _ = invoke(capsys, "sieve", "--limit", "100", "--no-timestamp")
    doc = json.loads(out)
    assert doc["count"] == 25
    assert doc["largest"] == 97
    assert doc["primes"][:4] == [2, 3, 5, 7]


def test_lemma_payload(capsys):
    # the paper's Euler-product lemma is the J = 1, ell = 0 proposition
    code, out, _ = invoke(
        capsys, "prop", "--x", "1000", "--b", "100", "--J", "1", "--ell", "0",
        "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["ratio"] - 1) < 0.1


def test_zeta_payload(capsys):
    code, out, _ = invoke(
        capsys, "zeta", "--T", "3", "--t", "0", "--ell", "0", "--no-timestamp"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dirichlet_re"] == pytest.approx(11 / 6, rel=1e-12)


def test_zeta_oracle_flag(capsys):
    code, out, _ = invoke(
        capsys,
        "zeta", "--T", "500", "--t", "700", "--ell", "1", "--no-timestamp",
        "--oracle",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["abs_error"] < 0.05


def test_scan_payload_and_csv(tmp_path, capsys):
    code, out, _ = invoke(
        capsys,
        "scan", "--T", "1000", "--ell", "0", "--step", "0.1",
        "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_value"] > 1.0
    assert 1000 <= doc["argmax_t"] <= 2000

    target = tmp_path / "samples.csv"
    code, _, _ = invoke(
        capsys,
        "scan", "--T", "1000", "--ell", "0", "--step", "0.1",
        "--csv", "--output", str(target), "--no-timestamp",
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == doc["grid_points"] + 1
    first_t, first_v = lines[1].split(",")
    assert float(first_t) == 1000.0
    assert float(first_v) <= doc["max_value"] + 1e-12


def test_factors_table(capsys):
    code, out, _ = invoke(
        capsys, "factors", "--ellmax", "3", "--T", "1e30", "--no-timestamp"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4
    assert doc["rows"][0]["factor"] is None
    assert doc["rows"][1]["factor"] == 2.0


def test_factors_csv(capsys):
    code, out, _ = invoke(
        capsys, "factors", "--ellmax", "2", "--T", "1e30", "--csv",
        "--no-timestamp",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell,new_bound,yang_bound,factor"
    assert len(lines) == 4
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[3] == ""


def test_comparison_rows_vs_independent():
    from fractions import Fraction

    rows = comparison_rows(10, 1e30)
    assert len(rows) == 11
    for ell in range(1, 11):
        exact = Fraction(ell + 1, ell) ** ell
        assert rows[ell]["factor"] == pytest.approx(float(exact), rel=1e-13)
        assert rows[ell]["factor"] == pytest.approx(yang_factor(ell), rel=1e-15)
    with pytest.raises(ValueError):
        comparison_rows(0, 1e30)
    with pytest.raises(ValueError):
        comparison_rows(3, 10.0)


def test_high_precision_flag(capsys):
    code, out, _ = invoke(
        capsys,
        "ssum", "--x", "3", "--b", "2", "--ell", "0",
        "--precision", "50", "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    # high-precision payloads carry the value as a digit string
    assert isinstance(doc["S"], str)
    assert doc["S"].startswith("5.8333333333")


def test_precision_above_50_digits(capsys):
    code, out, err = invoke(
        capsys,
        "ssum", "--x", "3", "--b", "2", "--ell", "0",
        "--precision", "60", "--no-timestamp",
    )
    assert code == 0, err
    assert json.loads(out)["S"] == "5.8" + "3" * 58


def test_ssum_cap_flag_is_gone(capsys):
    code, out, err = invoke(
        capsys, "ssum", "--x", "3", "--b", "2", "--ell", "0", "--cap", "5"
    )
    assert code == 1
    assert out == ""
    assert "--cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ssum", "--x", "3", "--b", "2", "--ell", "1"),
        ("prop", "--x", "10", "--b", "3", "--J", "1", "--ell", "0"),
    ],
    ids=lambda a: a[0],
)
def test_precision_zero_is_refused(capsys, argv):
    # double is the flag omitted; 0 is no alias for it
    code, out, err = invoke(capsys, *argv, "--precision", "0",
                            "--no-timestamp")
    assert code == 1
    assert out == ""
    assert "50 to 1000 digits" in err and "got 0" in err


def test_console_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rzeta.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "rzeta.cli", "sieve", "--limit", "10",
         "--no-timestamp"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("sieve", "--limit", "10"),
        ("factors", "--ellmax", "3", "--T", "1e30", "--csv"),
    ],
    ids=["sieve-json", "factors-csv"],
)
@pytest.mark.parametrize(
    "target", ["no/such/x.out", ""], ids=["missing-dir", "directory"]
)
def test_unwritable_output_exits_1(capsys, tmp_path, argv, target):
    output = tmp_path / target
    code, out, err = invoke(
        capsys, *argv, "--output", str(output), "--no-timestamp"
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {output}: ")


def test_unwritable_output_ends_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(rzeta.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "rzeta.cli", "sieve", "--limit", "10",
         "--output", str(tmp_path / "missing" / "x.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write")
    assert "Traceback" not in proc.stderr


def test_scan_certificate_is_resonate_ratio(capsys):
    code, out, err = invoke(
        capsys, "resonate", "--x", "3", "--b", "3", "--T", "2e4",
        "--ell", "1", "--no-timestamp",
    )
    assert code == 0, err
    ratio = json.loads(out)["ratio"]
    scan = ("scan", "--T", "2e4", "--ell", "1", "--step", "0.068")
    code, out, err = invoke(
        capsys, *scan, "--x", "3", "--b", "3", "--no-timestamp"
    )
    assert code == 0, err
    assert json.loads(out)["certificate_ratio"] == ratio
    code, out, err = invoke(capsys, *scan, "--x", "3", "--no-timestamp")
    assert code == 1
    assert out == ""
    assert "scan needs both --x and --b, or neither" in err


def test_scan_refines_above_ell_8(capsys):
    # EvalPoint, and with it dirichlet_poly, refuses ell > 8; the
    # refinement reads P's Taylor model, which takes any ell the grid does
    scan = ("scan", "--T", "2e4", "--ell", "9", "--step", "0.068")
    code, out, err = invoke(capsys, *scan, "--no-timestamp")
    assert code == 0, err
    grid = json.loads(out)
    code, out, err = invoke(capsys, *scan, "--refine", "--no-timestamp")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["refined"] and doc["ell"] == 9
    assert doc["max_value"] >= grid["max_value"]


def test_scan_refuses_a_coefficient_sum_past_the_double_range(
    capsys, monkeypatch
):
    # with the log-space refusal of dirichlet_terms out of the way, the
    # check after the last coefficient block refuses, as an error line
    monkeypatch.setattr(rzeta.zeta, "_LOG_DBL_MAX", math.inf)
    scan = ("scan", "--T", "1e4", "--ell", "400", "--step", "0.06")
    with warnings.catch_warnings(record=True) as caught:
        code, out, err = invoke(capsys, *scan, "--csv", "--no-timestamp")
    assert code == 1
    assert out == ""
    assert err == (
        "error: Dirichlet coefficients (log n)^400/n for n <= 10000 leave "
        "the double range at ell=400\n"
    )
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_scan_csv_rejects_negative_ell(capsys):
    code, out, err = invoke(
        capsys,
        "scan", "--T", "1000", "--ell", "-1", "--step", "0.1", "--csv",
        "--no-timestamp",
    )
    assert code == 1
    assert out == ""
    assert "ell" in err


@pytest.mark.parametrize(
    "extra, named",
    [("--x 3 --b 3", "--x and --b"), ("--x 3", "--x"), ("--b 3", "--b"),
     ("--refine", None)],
    ids=["x-and-b", "x", "b", "refine"],
)
def test_scan_csv_refuses_a_resonator(capsys, extra, named):
    # the samples carry no certificate, so a resonator would be dropped
    # silently; --refine is accepted and has no effect on them
    code, out, err = invoke(
        capsys, "scan", "--T", "100", "--ell", "0", "--step", "0.1",
        "--csv", *extra.split(), "--no-timestamp",
    )
    if named is None:
        assert code == 0, err
        assert out.startswith("t,value\n")
    else:
        assert code == 1
        assert out == ""
        assert f"drop {named}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ssum", "--x", "3", "--b", "2", "--ell", "0", "--precision", "60"),
        ("resonate", "--x", "3", "--b", "3", "--T", "2e4", "--ell", "1"),
    ],
    ids=lambda a: a[0],
)
def test_output_does_not_depend_on_asserts(argv):
    # python -O strips assert statements: no check may live in one
    src = os.path.dirname(os.path.dirname(os.path.abspath(rzeta.__file__)))
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "rzeta.cli", *argv,
             "--no-timestamp"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("height", ["nan", "inf", "-inf", "0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ("factors", "--ellmax", "2"),
        ("resonate", "--x", "3", "--b", "2", "--ell", "0"),
        ("scan", "--ell", "0", "--step", "0.1"),
        ("zeta", "--t", "1500", "--ell", "0"),
    ],
    ids=lambda a: a[0] if isinstance(a, tuple) else a,
)
def test_non_finite_or_nonpositive_T_exits_1(capsys, argv, height):
    code, out, err = invoke(capsys, *argv, f"--T={height}", "--no-timestamp")
    assert code == 1
    assert out == ""
    assert "--T" in err and "finite and positive" in err


@pytest.mark.parametrize("step", ["0", "-inf", "nan", "-0.1"])
def test_scan_step_must_be_finite_and_positive(capsys, step):
    code, out, err = invoke(
        capsys, "scan", "--T", "1000", "--ell", "0", f"--step={step}",
        "--no-timestamp",
    )
    assert code == 1
    assert out == ""
    assert "step" in err and "finite and positive" in err


def test_resonate_refuses_max_element_above_sqrt_T_quickly(capsys):
    # max M is the product of the primes below 1e5: about 43000 digits,
    # which the refusal must neither build nor print.
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "resonate", "--x", "1e5", "--b", "2", "--T", "2e4",
        "--ell", "0", "--no-timestamp",
    )
    assert code == 1
    assert out == ""
    assert "sqrt(T)" in err and len(err) < 200
    assert time.perf_counter() - start < 5.0


def test_resonate_at_T_1e7_exits_0(capsys):
    # the moments are window sums, so no node budget limits T; with
    # m <= 36, every n m'/m != 1 has |T log(n m'/m)| >= T/72 > PHI_BAND,
    # so only the diagonal is in the window and the ratio is S(x; l)/|M|
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "resonate", "--x", "3", "--b", "3", "--T", "1e7",
        "--ell", "1", "--no-timestamp",
    )
    assert code == 0, err
    assert time.perf_counter() - start < 2.0
    doc = json.loads(out)
    assert abs(doc["ratio"] - doc["rhs_prediction"]) <= 1e-12


def test_resonate_with_vanishing_moment(capsys):
    # b = 1: M = {1} and S(x; 1) = 0, so M2 is ~0 and the certificate
    # ratio with it; the moments converge at the first refinements
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "resonate", "--x", "2", "--b", "1", "--T", "1e4",
        "--ell", "1", "--no-timestamp",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["ratio"] < 1e-12
    assert math.copysign(1.0, doc["rhs_prediction"]) == 1.0
    assert doc["rhs_prediction"] == 0.0
    assert time.perf_counter() - start < 5.0


def test_resonate_at_b_1_skips_the_per_prime_loops(capsys, monkeypatch):
    # M = {1} at b = 1: past the sieve of the 664579 primes below 1e7,
    # nothing runs over the primes
    class NoIteration(tuple):
        def __iter__(self):
            raise AssertionError("a loop over the primes at b = 1")

    sieved = rzeta.resonator._primes_upto
    monkeypatch.setattr(rzeta.resonator, "_primes_upto",
                        lambda limit: NoIteration(sieved(limit)))
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "resonate", "--x", "1e7", "--b", "1", "--T", "1e7",
        "--ell", "9", "--no-timestamp",
    )
    assert code == 0, err
    assert time.perf_counter() - start < 2.0
    assert json.loads(out) == {
        "M1": 7500000.0, "M2_abs": 0.0, "T": 1e7, "b": 1, "ell": 9,
        "ratio": 0.0, "rhs_prediction": 0.0, "x": 1e7,
    }


@pytest.mark.parametrize(
    "argv, key",
    [
        (("ssum", "--x", "3", "--b", "1", "--ell", "1", "--method", "both"),
         "S_jet"),
        (("prop", "--x", "3", "--b", "1", "--J", "1", "--ell", "1"),
         "S_over_M"),
    ],
    ids=["ssum", "prop"],
)
def test_zero_sum_prints_positive_zero(capsys, argv, key):
    # b = 1: S(x; 1) = 0, and the odd-ell sign must not make it -0.0
    code, out, err = invoke(capsys, *argv, "--no-timestamp")
    assert code == 0, err
    assert json.loads(out)[key] == 0.0
    assert "-0.0" not in out


def test_lemma_fields_at_working_precision(capsys):
    code, out, err = invoke(
        capsys, "prop", "--x", "100", "--b", "5", "--J", "1", "--ell", "0",
        "--precision", "60", "--no-timestamp",
    )
    assert code == 0, err
    doc = json.loads(out)
    primes = [q for q in range(2, 101) if all(q % d for d in range(2, q))]
    with mpmath.workdps(80):
        product = mpmath.mpf(1)
        for p in primes:
            product *= mpmath.fsum(
                (1 - mpmath.mpf(v) / 5) * mpmath.mpf(p) ** -v
                for v in range(5)
            )
        asym = mpmath.exp(mpmath.euler) * mpmath.log(100)
        want = {"S_over_M": product, "target": asym, "ratio": product / asym}
        for key, ref in want.items():
            assert abs(mpmath.mpf(doc[key]) - ref) < mpmath.mpf(10) ** -58, key


# The names perfbench's tracer reads and replaces on cli, by home module.
_CLI_LAZY_NAMES = {
    "certificate": "engine",
    "scan_max": "engine",
    "scan_samples": "engine",
    "zeta_deriv_cauchy": "zeta",
    "dirichlet_poly": "zeta",
    "S_brute": "resonator",
    "S_jet": "resonator",
    "layer_product": "resonator",
    "sieve_primes": "primes",
}

_LAZY_NAME = """
import importlib, json, sys
import rzeta.cli as cli
name, home = sys.argv[1], "rzeta." + sys.argv[2]
before = [m for m in ("numpy", home) if m in sys.modules]
value = getattr(cli, name)
print(json.dumps([before, home in sys.modules,
                  value is getattr(importlib.import_module(home), name)]))
"""


@pytest.mark.parametrize("name", sorted(_CLI_LAZY_NAMES))
def test_cli_loads_a_pipeline_name_from_its_home_on_first_read(name):
    src = os.path.dirname(os.path.dirname(os.path.abspath(rzeta.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_NAME, name, _CLI_LAZY_NAMES[name]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], True, True]


@pytest.mark.parametrize("name", ["nonexistent", "ResonatorSpec", "EvalPoint"])
def test_cli_has_no_other_lazy_names(name):
    from rzeta import cli

    with pytest.raises(AttributeError, match=name):
        getattr(cli, name)


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rzeta.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rzeta.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Runs each argv in one fresh interpreter, in order, and prints per argv
# the exit code, which of the watched modules are then loaded, and the
# output.
_COLD_START = """
import sys
start = set(sys.modules)
import contextlib, io, json
from rzeta import cli
lazy = {"mpmath", "fractions", "csv", "numpy"} | {
    f"rzeta.{name}" for name in (
        "engine", "zeta", "gridsum", "resonator", "jets", "primes",
        "quadrature",
    )
}
# start-up costs, watched only when new since the interpreter started,
# as a site hook may preload them
watched = {"dataclasses", "inspect", "datetime"}
def loaded():
    now = set(sys.modules)
    return sorted(lazy & now), sorted(watched & (now - start))
report = [["import", 0, *loaded(), ""]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv.split() + ["--no-timestamp"])
    report.append([argv, code, *loaded(), out.getvalue()])
print(json.dumps(report))
"""

# recorded payload of the high-precision command below
_PROP_50 = {
    "J": 2,
    "S_over_M": "2.0737559442963443657204818442635701113607572296389",
    "b": 3,
    "ell": 1,
    "error_budget": "2.7931995577783111771399910409047797261821687754585",
    "partition_bound_over_M":
        "0.54154550434798483866472020236941634085900735867732",
    "ratio": "0.4392124923062033743070497677321306766338441380208",
    "target": "4.7215322437837110989419982178756612847657971271767",
    "x": 10.0,
}


def test_double_precision_commands_leave_mpmath_unloaded():
    # each module loads only where used: numpy and the numerical modules
    # for the subcommand that runs them, mpmath for --precision, csv for
    # --csv; --help and a refused argument load none of them, nor
    # dataclasses, inspect or datetime (numpy loads the last two itself),
    # and no command loads dataclasses
    argvs = [
        "--help",
        "zeta --T -1 --t 5 --ell 0",
        "zeta --T 1e4 --t 1.5e4 --ell 1 --oracle",
        "sieve --limit 10",
        "resonate --x 3 --b 3 --T 2e4 --ell 1",
        "scan --T 2e4 --ell 1 --step 0.068 --csv",
        "prop --x 10 --b 3 --J 2 --ell 1 --precision 50",
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(rzeta.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [(argv, code) for argv, code, _, _, _ in report] == [
        ("import", 0), ("--help", 0), (argvs[1], 1)
    ] + [(argv, 0) for argv in argvs[2:]]
    zeta = ["numpy", "rzeta.zeta"]
    sieve = sorted(zeta + ["rzeta.primes"])
    numeric = sorted(sieve + [
        "rzeta.engine", "rzeta.gridsum", "rzeta.jets", "rzeta.quadrature",
        "rzeta.resonator",
    ])
    loaded = [modules for _, _, modules, _, _ in report]
    assert loaded == [
        [], [], [], zeta, sieve, numeric,
        sorted(numeric + ["csv"]), sorted(numeric + ["csv", "mpmath"]),
    ]
    watched = [modules for _, _, _, modules, _ in report]
    assert watched[:3] == [[], [], []]
    assert not any("dataclasses" in modules for modules in watched)
    assert json.loads(report[-1][4]) == _PROP_50


def _match(got, want, path="payload"):
    """Floats to rel 1e-13, every other value exactly."""
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert got == pytest.approx(want, rel=1e-13, abs=0), path
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _match(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _match(g, w, f"{path}[{i}]")
    else:
        assert got == want, path


_GOLDEN = os.path.join(os.path.dirname(__file__), "golden_payloads.json")
with open(_GOLDEN) as _fh:
    GOLDEN_PAYLOADS = json.load(_fh)


@pytest.mark.parametrize(
    "command", sorted(GOLDEN_PAYLOADS), ids=lambda c: c.split()[0]
)
def test_golden_payloads(capsys, command):
    # recorded payloads: a refactor must not move a computed number
    code, out, err = invoke(capsys, *command.split(), "--no-timestamp")
    assert code == 0, err
    _match(json.loads(out), GOLDEN_PAYLOADS[command])


def test_factors_past_ell_142_matches_exact_reference(capsys):
    from fractions import Fraction

    from rzeta.precision import EXP_GAMMA
    from rzeta.primes import iterated_log

    code, out, err = invoke(
        capsys, "factors", "--ellmax", "143", "--T", "1e30", "--no-timestamp"
    )
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 144
    eg = Fraction(EXP_GAMMA)
    log2T = Fraction(iterated_log(1e30, 2))
    log3T = Fraction(iterated_log(1e30, 3))
    for ell, row in enumerate(rows):
        new = eg / (ell + 1) * log2T ** (ell + 1)
        yang = (
            eg * Fraction(ell**ell, (ell + 1) ** (ell + 1))
            * (log2T - log3T) ** (ell + 1)
        )
        assert row["new_bound"] == pytest.approx(float(new), rel=1e-12)
        assert row["yang_bound"] == pytest.approx(float(yang), rel=1e-12)


@pytest.mark.parametrize("ellmax", ["500", "1001"])
def test_factors_refuses_an_unprintable_table(capsys, ellmax):
    # at T = 1e30 the l = 500 row overflows a double; 1001 rows is past
    # the table's size limit at any T
    code, out, err = invoke(
        capsys, "factors", "--ellmax", ellmax, "--T", "1e30", "--no-timestamp"
    )
    assert code == 1
    assert out == ""
    assert "ell" in err and ellmax in err


def test_precision_limit_refuses_before_gamma(capsys, monkeypatch):
    import rzeta.cli as cli

    def never(prec):
        raise AssertionError("constants computed for a refused precision")

    argv = ("ssum", "--x", "3", "--b", "2", "--ell", "0", "--no-timestamp")
    with monkeypatch.context() as m:
        m.setattr(cli, "check_constants", never)
        code, out, err = invoke(capsys, *argv, "--precision", "100000")
        assert code == 1 and out == "" and "1000 digits" in err
    code, out, err = invoke(capsys, *argv, "--precision", "1000")
    assert code == 0, err
    assert json.loads(out)["S"].startswith("5.8333333333")


@pytest.mark.parametrize(
    "argv,limit",
    [
        (("zeta", "--T", "1e12", "--t", "1.5e12", "--ell", "0"), "10000000"),
        (("scan", "--T", "1000", "--ell", "0", "--step", "1e-9"), "5000000"),
        (("sieve", "--limit", "10000000000"), "100000000"),
        (("prop", "--x", "1e9", "--b", "2", "--J", "1", "--ell", "0"),
         "100000000"),
    ],
    ids=lambda a: a[0] if isinstance(a, tuple) else None,
)
def test_oversized_inputs_refused_before_allocating(capsys, argv, limit):
    # each of these would ask for gigabytes to terabytes if not refused
    code, out, err = invoke(capsys, *argv, "--no-timestamp")
    assert code == 1
    assert out == ""
    assert limit in err


@pytest.mark.parametrize(
    "argv, ell, hint",
    [
        (("ssum", "--x", "13", "--b", "3", "--method", "both"), 171, True),
        (("prop", "--x", "10", "--b", "3", "--J", "2"), 171, True),
        (("resonate", "--x", "3", "--b", "3", "--T", "2e4"), 200, False),
    ],
    ids=["ssum", "prop", "resonate"],
)
def test_double_jets_refuse_ell_above_170(capsys, argv, ell, hint):
    # ell! leaves the double range; resonate refuses before its moments
    # and, being double-only, advises no --precision it does not take
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv, "--ell", str(ell), "--no-timestamp")
    assert code == 1
    assert out == ""
    assert f"ell={ell}" in err
    assert ("--precision" in err) == hint
    assert time.perf_counter() - start < 5.0


def test_resonate_refuses_its_height_before_the_jets(capsys):
    # S/|M| at ell = 170 overflows a double here; the term count of T is
    # refused first, and nothing advises a --precision resonate lacks
    code, out, err = invoke(
        capsys, "resonate", "--x", "30", "--b", "16", "--T", "1e308",
        "--ell", "170", "--no-timestamp",
    )
    assert code == 1
    assert out == ""
    assert "1e+308 terms" in err and "--precision" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("resonate", "--x", "3", "--b", "3", "--T", "2e4", "--ell", "400"),
        ("scan", "--T", "2e4", "--ell", "400", "--step", "0.06"),
    ],
    ids=["resonate", "scan"],
)
def test_unrepresentable_ell_refused_up_front(capsys, argv):
    # (log n)^400/n overflows a double: exit 1 naming ell, no NaN, no
    # numpy warning, no quadrature
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv, "--no-timestamp")
    assert code == 1
    assert out == ""
    assert "ell=400" in err
    assert "Warning" not in err and "nan" not in err
    assert time.perf_counter() - start < 5.0


def test_ssum_both_methods_at_ell_170_and_171(capsys):
    argv = ("ssum", "--x", "13", "--b", "3", "--method", "both",
            "--no-timestamp")
    code, out, err = invoke(capsys, *argv, "--ell", "170")
    assert code == 0, err
    assert json.loads(out)["rel_diff"] < 1e-12
    code, out, err = invoke(capsys, *argv, "--ell", "171", "--precision", "50")
    assert code == 0, err
    assert json.loads(out)["rel_diff"] < 1e-45


def test_s_over_m_beyond_the_double_range_refused(capsys):
    # S/|M| is about 6.5e314 here (50 digits): exit 1 naming ell, no inf
    code, out, err = invoke(
        capsys, "prop", "--x", "13", "--b", "1000", "--J", "1",
        "--ell", "170", "--no-timestamp",
    )
    assert code == 1
    assert out == ""
    assert "ell=170" in err and "double range" in err


@pytest.mark.parametrize("method", ["brute", "both"])
def test_brute_sum_refuses_ell_beyond_double(method):
    # (log k)^250 overflows a double: one error line naming ell and the
    # way out, and no numpy warning before it
    src = os.path.dirname(os.path.dirname(os.path.abspath(rzeta.__file__)))
    argv = ("ssum", "--x", "13", "--b", "3", "--ell", "250",
            "--method", method, "--no-timestamp")
    proc = subprocess.run(
        [sys.executable, "-m", "rzeta.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "ell=250" in proc.stderr and "--precision" in proc.stderr


def test_brute_sum_at_ell_beyond_double_in_high_precision(capsys):
    code, out, err = invoke(
        capsys, "ssum", "--x", "13", "--b", "3", "--ell", "250",
        "--method", "brute", "--precision", "50", "--no-timestamp",
    )
    assert code == 0, err
    assert json.loads(out)["S"].endswith("e+319")


@pytest.mark.parametrize(
    "argv, names",
    [
        (("zeta", "--T", "1e5", "--t", "1e9", "--ell", "1", "--oracle"),
         ("t = 1e+09", "10000000")),
        (("resonate", "--x", "2", "--b", "1", "--T", "1e300", "--ell", "0"),
         ("1e+300 terms", "10000000")),
        (("zeta", "--T", "1e300", "--t", "1e300", "--ell", "0"),
         ("1e+300 terms", "10000000")),
        (("scan", "--T", "1e300", "--ell", "0", "--step", "1e-3"),
         ("1e+303 grid points", "5000000")),
        (("ssum", "--x", "1e300", "--b", "3", "--ell", "1"),
         ("sieve limit", "got 1e+300", "100000000")),
        (("sieve", "--limit", "100000001"),
         ("got 100000001", "100000000")),
        (("scan", "--T", "1.5", "--ell", "0", "--step", "0.01"),
         ("need T >= 2", "got 1.5")),
        (("scan", "--T", "2", "--ell", "0", "--step", "0.5"),
         ("need T > e^e", "got 2")),
        (("scan", "--T", "1e4", "--ell", "3", "--step", "5e-324"),
         ("grid_step 5e-324", "5000000")),
        (("ssum", "--x", "3", "--b", "171", "--ell", "170"),
         ("29241", "double range", "--precision")),
        (("zeta", "--T", "1e4", "--t", "1e308", "--ell", "8"),
         ("t = 1e+308", "N = 10000", "2^53")),
        (("zeta", "--T", "1e4", "--t", "1e17", "--ell", "8"),
         ("t = 1e+17", "N = 10000", "2^53")),
        (("ssum", "--x", "50", "--b", "2", "--ell", "250", "--method",
          "brute"),
         ("overflow a double at ell=250", "--precision")),
        (("resonate", "--x", "3", "--b", "3", "--T", "2e4", "--ell", "-1"),
         ("ell must be >= 0, got -1",)),
    ],
    ids=["oracle-height", "resonate-T", "zeta-T", "scan-T", "ssum-x",
         "sieve-limit", "scan-T-below-2", "scan-T-below-e-e",
         "scan-step-tiny", "ssum-S-overflow", "zeta-t-phase",
         "zeta-t-phase-1e17", "ssum-brute-overflow", "resonate-ell"],
)
def test_size_refusals_name_the_input_readably(capsys, argv, names):
    # the oracle height lies outside [T, 2T]: its RangeAdvisory is kept
    # out of the error text measured here
    with warnings.catch_warnings(record=True):
        code, out, err = invoke(capsys, *argv, "--no-timestamp")
    assert code == 1
    assert out == ""
    assert len(err) < 200, err
    for name in names:
        assert name in err


def test_ssum_refuses_b_pi_x_before_the_sieve(capsys, monkeypatch):
    # pi(x) > x/ln x puts 8^pi(1e7) past the double range and past the
    # enumeration cap before any of the 664579 primes is sieved
    def never(limit):
        raise AssertionError("primes sieved for a refused spec")

    monkeypatch.setattr(rzeta.resonator, "_primes_upto", never)
    for method, limit in (("jet", "double range"), ("both", "cap 1000000")):
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "ssum", "--x", "1e7", "--b", "8", "--ell", "1",
            "--method", method, "--no-timestamp",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        for name in ("--x 1e+07", "--b 8", "8^620420", "x/ln x", limit):
            assert name in err


def test_scan_refuses_T_below_e_e_before_the_grid(capsys, monkeypatch):
    # the bound constants need T > e^e; the 75001-point grid and its
    # refinement are not built for a T they refuse
    def never(T, ell, grid_step):
        raise AssertionError("grid built for a refused T")

    monkeypatch.setattr(rzeta.engine, "scan_samples", never)
    code, out, err = invoke(
        capsys, "scan", "--T", "15", "--ell", "0", "--step", "0.0002",
        "--refine", "--no-timestamp",
    )
    assert code == 1 and out == ""
    assert "need T > e^e" in err


@pytest.mark.parametrize("argv, message", [
    ("--ell 0 --refine --x 30 --b 3",
     "max resonator element prod_(p <= 30) p^2 exceeds sqrt(T) = 316.2"),
    ("--ell 200 --x 3 --b 3",
     "ell=200 exceeds 170: ell! leaves the double range, and the "
     "certificate is computed in double only"),
], ids=["sqrt_T", "ell_200"])
def test_scan_refuses_the_certificate_before_the_grid(
    capsys, monkeypatch, argv, message
):
    # the certificate's refusals came after a 1.6 to 3 s scan and refine
    def never(T, ell, grid_step):
        raise AssertionError("grid built for a refused certificate")

    monkeypatch.setattr(rzeta.engine, "scan_samples", never)
    code, out, err = invoke(
        capsys, "scan", "--T", "1e5", "--step", "0.06", *argv.split(),
        "--no-timestamp",
    )
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_resonate_at_b_1_folds_no_prime(capsys):
    # M = {1} and every local factor is 1: the jets skip the 664579 primes
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "resonate", "--x", "1e7", "--b", "1", "--T", "1e7",
        "--ell", "9", "--no-timestamp",
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0, err
    assert json.loads(out) == {
        "x": 1e7, "b": 1, "T": 1e7, "ell": 9, "ratio": 0.0,
        "rhs_prediction": 0.0, "M1": 7.5e6, "M2_abs": 0.0,
    }


_DOUBLE_ONLY = [
    ("resonate", "--x", "3", "--b", "3", "--T", "2e4", "--ell", "1"),
    ("zeta", "--T", "1e4", "--t", "15000.5", "--ell", "2"),
    ("scan", "--T", "2e4", "--ell", "1", "--step", "0.068"),
    ("sieve", "--limit", "100"),
    ("factors", "--ellmax", "10", "--T", "1e30"),
]


@pytest.mark.parametrize("argv", _DOUBLE_ONLY, ids=lambda a: a[0])
def test_double_only_commands_refuse_precision_flag(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--precision", "50",
                            "--no-timestamp")
    assert code == 1
    assert out == ""
    assert "--precision" in err


# mpmath.zeta(mpc(1, t), derivative=ell) at 30 digits, rounded to 20;
# recorded because ell >= 5 at t = 1.5e5 takes mpmath over 2 s a value
_ORACLE_REFERENCE = [
    (1234.5, 0, "1.1568157567200118006", "-0.50291005783922823281"),
    (1234.5, 1, "0.020224797665159101034", "-0.0029487120576156976727"),
    (1234.5, 2, "0.15979912006226791823", "2.4672472989804504745"),
    (1234.5, 3, "-3.7200172685795142115", "-14.581937657623700766"),
    (1234.5, 4, "29.837095842963276907", "72.633615774828016644"),
    (1234.5, 5, "-189.75618527273699568", "-349.77947779035705673"),
    (1234.5, 6, "1102.3744353994900879", "1683.0563714064571658"),
    (1234.5, 7, "-6135.458599388072907", "-8168.9905106861849995"),
    (1234.5, 8, "33388.206784505241547", "40077.306998691628247"),
    (20345.6, 0, "0.40893391148247610903", "-0.10215281904469634511"),
    (20345.6, 1, "0.40264925049929060513", "0.14652394722681463855"),
    (20345.6, 2, "-0.33635202985223456003", "-0.55628862771560416905"),
    (20345.6, 3, "1.4290359889145636088", "2.5678038837356547587"),
    (20345.6, 4, "-15.229765692742536975", "-11.644800167658735055"),
    (20345.6, 5, "159.45512014222887253", "52.94932172970384489"),
    (20345.6, 6, "-1572.9347515650880049", "-243.95606784263760675"),
    (20345.6, 7, "14882.919387502031429", "1091.9374047721057171"),
    (20345.6, 8, "-136695.27597809699586", "-4041.615090806531708"),
    (150123.4, 0, "1.1879987788269116305", "-0.77853672051557439225"),
    (150123.4, 1, "-0.6602738027683529725", "0.99994751836232033519"),
    (150123.4, 2, "3.427718513238873898", "-2.0356117377566075876"),
    (150123.4, 3, "-22.661935077375382763", "6.6399445598116336531"),
    (150123.4, 4, "171.05641747231821308", "-34.887873437283581002"),
    (150123.4, 5, "-1398.386020758449283", "274.73000231413835636"),
    (150123.4, 6, "12023.411473393774907", "-2693.9391105077969374"),
    (150123.4, 7, "-106870.18850932436209", "28572.058462877121853"),
    (150123.4, 8, "972017.47765350386475", "-308576.75840301355345"),
    (172151.591775, 2, "-0.025983382048670910472", "-0.0070798360335530771999"),
]


def test_oracle_reference_is_mpmath():
    # the cheap row, t = 1234.5, recomputed
    with mpmath.workdps(30):
        for t, ell, re, im in _ORACLE_REFERENCE[:9]:
            got = mpmath.zeta(mpmath.mpc(1, t), derivative=ell)
            ref = mpmath.mpc(re, im)
            assert abs(got - ref) <= 1e-19 * abs(ref)


@pytest.fixture(scope="module")
def shared_rings():
    # the orders at one height share a cached ring; the cache is emptied
    # after them, so counts of ring evaluations elsewhere start clean
    yield
    rzeta.zeta._zeta_ring_values.cache_clear()


@pytest.mark.parametrize(
    "t, ell, re, im", _ORACLE_REFERENCE,
    ids=[f"t{row[0]}-ell{row[1]}" for row in _ORACLE_REFERENCE],
)
def test_oracle_within_1e_9_of_mpmath(capsys, shared_rings, t, ell, re, im):
    # every order EvalPoint accepts, at heights from 1e3 to 1.5e5; at
    # t = 172151.591775, |zeta''| = 0.027, where the ring's relative
    # error is largest
    T = 10.0 ** math.floor(math.log10(t))
    with warnings.catch_warnings(record=True):  # RangeAdvisory for ell
        code, out, err = invoke(
            capsys, "zeta", "--T", repr(T), "--t", repr(t), "--ell",
            str(ell), "--oracle", "--no-timestamp",
        )
    assert code == 0, err
    doc = json.loads(out)
    got = (-1) ** ell * complex(doc["oracle_re"], doc["oracle_im"])
    ref = complex(float(re), float(im))
    assert abs(got - ref) <= 1e-9 * abs(ref)
