"""Command-line front end.

Each subcommand runs one verification pipeline and returns its payload:
a flat dict, or with ``--csv`` a (header, rows) pair for the tabular
payloads (scan samples, constant-comparison table).  :func:`run` renders
the payload as JSON or CSV and writes it once, to stdout or
``--output``.  Identical argv produce byte-identical output when
``--no-timestamp`` is given.

Exit codes: 0 success, 1 validation error or an unwritable output,
2 numerical-accuracy failure.

Importing this module loads ``argparse``, ``json``, ``errors`` and
``precision``, and nothing else that the interpreter has not loaded at
start-up: no numpy, and the timestamp comes from ``time``.  Each
subcommand imports what it runs inside its body: ``zeta`` loads
``zeta``; ``sieve`` loads ``primes``; ``ssum``,
``prop`` and ``factors`` load ``resonator`` (with ``jets`` and
``primes``); ``resonate`` and ``scan`` load ``engine``.  So ``--help``
and a refused argument finish without any of them.  mpmath loads only
under ``--precision``, and ``csv`` only for ``--csv``.
"""

import argparse
import importlib
import io
import json
import math
import sys
import time
import warnings

from .errors import AccuracyError
from .precision import (
    DOUBLE,
    MAX_DIGITS,
    Precision,
    check_constants,
    real_text,
)

# perfbench/tracer.py reads and replaces these names on this module, and
# no caller here uses them: each is looked up in its home module on every
# read, so importing cli loads none of those modules.  The table goes
# when the tracer stops patching module attributes (ROADMAP item 9).
_TRACED_NAMES = {
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


def __getattr__(name):
    home = _TRACED_NAMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __package__), name)


MAX_TABLE_ELL = 1000  # largest ell_max of the constant-comparison table


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def height(text: str) -> float:
    """argparse type for --T: a finite, positive float."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text}")
    return value


def _utc_now() -> str:
    """The current UTC time in the text form of
    ``datetime.now(timezone.utc).isoformat()``, microseconds truncated
    and omitted when zero, without importing datetime."""
    seconds, nanos = divmod(time.time_ns(), 10**9)
    text = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    micros = nanos // 1000
    return f"{text}.{micros:06d}+00:00" if micros else f"{text}+00:00"


def _render(payload, args, prec: Precision) -> str:
    """A subcommand's payload as text: a dict as JSON, a (header, rows)
    pair as CSV."""
    if isinstance(payload, tuple):
        import csv

        header, rows = payload
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if not args.no_timestamp:
        payload = {**payload, "timestamp": _utc_now()}
    # a high-precision real is the one non-JSON type a payload holds
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                      default=lambda value: real_text(value, prec)) + "\n"


# ------------------------------------------------------------ subcommands --

def _cmd_sieve(args, prec):
    from .primes import sieve_primes

    primes = sieve_primes(args.limit)
    doc = {
        "limit": args.limit,
        "count": len(primes),
        "largest": primes[-1] if primes else None,
    }
    if len(primes) <= 200:
        doc["primes"] = list(primes)
    return doc


def _cmd_ssum(args, prec):
    from .resonator import ResonatorSpec, S_brute, S_jet

    spec = ResonatorSpec(args.x, args.b)
    doc = {"x": args.x, "b": args.b, "ell": args.ell, "method": args.method}
    if args.method in ("brute", "both"):
        doc["S_brute"] = S_brute(spec, args.ell, prec=prec)
    if args.method in ("jet", "both"):
        doc["S_jet"] = S_jet(spec, args.ell, prec=prec)
    if args.method == "both":
        sb, sj = doc["S_brute"], doc["S_jet"]
        scale = max(abs(sb), abs(sj), 1e-300)
        doc["rel_diff"] = float(abs(sb - sj) / scale)
    doc["S"] = doc.get("S_jet", doc.get("S_brute"))
    return doc


def _cmd_prop(args, prec):
    from .resonator import ResonatorSpec, proposition_report

    spec = ResonatorSpec(args.x, args.b, args.J)
    rep = proposition_report(spec, args.ell, prec)
    doc = {"x": args.x, "b": args.b, "J": args.J, "ell": args.ell}
    doc.update(rep._asdict())
    return doc


def _cmd_zeta(args, prec):
    from .zeta import EvalPoint, dirichlet_poly, zeta_deriv_cauchy

    point = EvalPoint(args.t, args.ell, args.T)
    point.warn_if_off_range()
    value = dirichlet_poly(point)
    doc = {
        "T": args.T,
        "t": args.t,
        "ell": args.ell,
        "dirichlet_re": value.real,
        "dirichlet_im": value.imag,
    }
    if args.oracle:
        z = zeta_deriv_cauchy(1 + 1j * args.t, args.ell)
        signed = (-1) ** args.ell * z
        doc["oracle_re"] = signed.real
        doc["oracle_im"] = signed.imag
        doc["abs_error"] = abs(signed - value)
    return doc


def _cmd_resonate(args, prec):
    from .engine import certificate
    from .resonator import ResonatorSpec

    spec = ResonatorSpec(args.x, args.b)
    cert = certificate(spec, args.T, args.ell)
    doc = {"x": args.x, "b": args.b, "T": args.T, "ell": args.ell}
    doc.update(cert._asdict())
    return doc


def _cmd_scan(args, prec):
    from .engine import scan_max, scan_samples
    from .resonator import ResonatorSpec

    if args.csv:
        t, v = scan_samples(args.T, args.ell, args.step)
        rows = ((repr(float(a)), repr(float(b))) for a, b in zip(t, v))
        return ("t", "value"), rows
    spec = None
    if args.x is not None or args.b is not None:
        if args.x is None or args.b is None:
            raise ValueError("scan needs both --x and --b, or neither")
        spec = ResonatorSpec(args.x, args.b)
    report = scan_max(args.T, args.ell, args.step, refine=args.refine, spec=spec)
    return report._asdict()


def comparison_rows(ell_max: int, T: float) -> list[dict]:
    """Rows of the constant-comparison table: the improved main term
    e^gamma/(l+1) (log_2 T)^(l+1) against the older
    e^gamma l^l/(l+1)^(l+1) (log_2 T - log_3 T)^(l+1), with the
    improvement factor (1+1/l)^l.  Asymptotic O(1) terms are rendered 0.

    Refuses, before building any row, an ell_max above MAX_TABLE_ELL or
    one whose row leaves the double range; with log_2 T > 1 the last row
    is the largest."""
    from .resonator import bound_constants, yang_factor

    if not 1 <= ell_max <= MAX_TABLE_ELL:
        raise ValueError(
            f"need 1 <= ell_max <= {MAX_TABLE_ELL}, got {ell_max}"
        )
    try:
        bound_constants(ell_max, T)
    except OverflowError:
        raise ValueError(
            f"the ell={ell_max} row overflows a double at T={T}"
        ) from None
    rows = []
    for ell in range(ell_max + 1):
        new_bound, yang_bound = bound_constants(ell, T)
        rows.append(
            {
                "ell": ell,
                "new_bound": new_bound,
                "yang_bound": yang_bound,
                "factor": yang_factor(ell) if ell >= 1 else None,
            }
        )
    return rows


def _cmd_factors(args, prec):
    rows = comparison_rows(args.ellmax, args.T)
    if args.csv:
        return ("ell", "new_bound", "yang_bound", "factor"), (
            (
                r["ell"],
                repr(r["new_bound"]),
                repr(r["yang_bound"]),
                "" if r["factor"] is None else repr(r["factor"]),
            )
            for r in rows
        )
    return {"T": args.T, "ell_max": args.ellmax, "rows": rows}


# ----------------------------------------------------------------- parser --

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rzeta",
        description=(
            "Resonance-method certificates and verification suites for "
            "large values of zeta derivatives on the 1-line."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write to file")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp for byte-identical reruns",
    )
    # only ssum and prop compute in high precision
    precise = argparse.ArgumentParser(add_help=False, parents=[common])
    precise.add_argument(
        "--precision",
        type=int,
        default=None,
        help=f"significant decimal digits (50 to {MAX_DIGITS}) for the "
        "combinatorial routines; hardware double if omitted",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", parents=[common], help="prime table summary")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("ssum", parents=[precise], help="weighted divisor sum")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--method", choices=("brute", "jet", "both"), default="jet")
    p.set_defaults(func=_cmd_ssum)

    p = sub.add_parser(
        "prop", parents=[precise], help="normalized sum vs asymptotic target"
    )
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_cmd_prop)

    p = sub.add_parser(
        "zeta", parents=[common], help="Dirichlet polynomial at one height"
    )
    p.add_argument("--T", type=height, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser(
        "resonate", parents=[common], help="moment-ratio certificate"
    )
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--T", type=height, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_cmd_resonate)

    p = sub.add_parser("scan", parents=[common], help="grid maximum search")
    p.add_argument("--T", type=height, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--refine", action="store_true")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--csv", action="store_true", help="dump (t, value) samples")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "factors", parents=[common], help="constant-comparison table"
    )
    p.add_argument("--ellmax", type=int, required=True)
    p.add_argument("--T", type=height, required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_factors)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # double when --precision is omitted or the command lacks it
        digits = getattr(args, "precision", None)
        prec = DOUBLE if digits is None else Precision(digits)
        check_constants(prec)
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            text = _render(args.func(args, prec), args, prec)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 2
    try:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        target = args.output or "stdout"
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
