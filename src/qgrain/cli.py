"""Command-line front end.

Subcommands: capacity, encode, decode, pauli-verify, saturate, niven,
uncertainty, reduce.  Each ``cmd_*(args, cfg)`` returns ``(ok, doc,
text_lines)`` and prints nothing to stdout; ``main`` is its only writer, and
``saturate --timings`` writes per-phase wall times to stderr.  It builds the
RunConfig, rejects csv outside saturate, and prints ``doc`` with a
schema_version field (--format json) or the text lines (text, or csv for
saturate).  Output is a pure function of the arguments, seed, precision and
constants file.  Exit codes: 0 success, 1 verified-property failure (``ok``
false), 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Optional

import numpy as np

from . import bitstring, gravity, nested, signed_perm
from .qubit import DiscretisedQubit, Direction, coarsen, niven_admissible, uncertainty_check

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    fmt: str
    seed: int


Result = tuple[bool, dict, list[str]]


def _decimal(text: str, what: str) -> Decimal:
    try:
        return Decimal(text)
    except InvalidOperation:
        raise ValueError(f"{what} must be a decimal number, got {text!r}")


def cmd_capacity(args: argparse.Namespace, cfg: RunConfig) -> Result:
    if args.constants:
        constants = gravity.PhysicalConstants.from_file(args.constants, args.precision)
    else:
        constants = gravity.constants_from_env(precision=args.precision)
    scenario = gravity.Scenario(
        M=_decimal(args.mass, "--mass"),
        b=_decimal(args.sep, "--sep"),
        qubit_multiplier=args.qubits,
        R_override=_decimal(args.radius, "--radius") if args.radius else None,
    )
    report = gravity.scenario_report(scenario, constants)
    doc = {
        "command": "capacity",
        "mass": str(scenario.M),
        "separation": str(scenario.b),
        "qubit_multiplier": scenario.qubit_multiplier,
        **report.to_dict(),
    }
    text = [
        f"M = {scenario.M} kg x {scenario.qubit_multiplier}, b = {scenario.b} m",
        f"R      = {report.R:.6E} m",
        f"beta   = {report.beta:.6E}",
        f"E_G    = {report.E_G:.6E} J",
        f"tau_DP = {report.tau_DP:.6E} s",
        f"tau_M  = {report.tau_M:.6E} s",
        f"log10 L = {report.log10_L:.6f}",
        f"log2 L  = {report.log2_L:.6f}",
        f"n_max   = {report.n_max}",
    ]
    return True, doc, text


def cmd_encode(args: argparse.Namespace, cfg: RunConfig) -> Result:
    q = DiscretisedQubit(args.m, args.n, args.L)
    s = bitstring.encode(q)
    doc = {
        "command": "encode",
        "m": q.m,
        "n": q.n,
        "L": q.L,
        "bits": bitstring.to_text(s),
    }
    return True, doc, [doc["bits"]]


def cmd_decode(args: argparse.Namespace, cfg: RunConfig) -> Result:
    decoded = bitstring.decode(bitstring.from_text(args.bits))
    q = decoded.qubit
    doc = {
        "command": "decode",
        "m": q.m,
        "n": q.n,
        "L": q.L,
        "degenerate": decoded.degenerate,
    }
    text = f"m={q.m} n={q.n} L={q.L}"
    if decoded.degenerate:
        text += " (degenerate: phase unobservable)"
    return True, doc, [text]


def cmd_pauli_verify(args: argparse.Namespace, cfg: RunConfig) -> Result:
    L = args.L
    quaternion = signed_perm.verify_quaternion(L)
    spin = signed_perm.verify_spin_identities(L)
    split = signed_perm.self_similar_split(L) if L % 8 == 0 else None
    checks = {"quaternion": quaternion, "spin": spin, "split": split}
    all_pass = all(v for v in checks.values() if v is not None)
    doc = {"command": "pauli-verify", "L": L, **checks, "all_pass": all_pass}
    text = [
        f"L = {L}",
        f"quaternion identities: {'pass' if quaternion else 'FAIL'}",
        f"spin identities:       {'pass' if spin else 'FAIL'}",
        "self-similar split:    "
        + ("skipped (needs 8 | L)" if split is None else ("pass" if split else "FAIL")),
    ]
    return all_pass, doc, text


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return int(lo), int(hi)
    single = int(text)
    return single, single


def cmd_saturate(args: argparse.Namespace, cfg: RunConfig) -> Result:
    n_lo, n_hi = _parse_range(args.n)
    timings = {} if args.timings else None
    rows = nested.saturation_experiment(
        args.L, n_lo, n_hi, args.samples, cfg.seed, timings=timings
    )
    if timings is not None:
        for phase in nested.SATURATION_PHASES:
            print(f"timing {phase:<10} {timings[phase]:.6f} s", file=sys.stderr)
    doc = {
        "command": "saturate",
        "L": args.L,
        "samples": args.samples,
        "seed": cfg.seed,
        "rows": [row._asdict() for row in rows],
    }
    csv = ["N,median_fidelity,p10_fidelity,min_segment_len"] + [
        f"{row.N},{row.median_fidelity!r},{row.p10_fidelity!r},{row.min_segment_len}"
        for row in rows
    ]
    return True, doc, csv


def cmd_niven(args: argparse.Namespace, cfg: RunConfig) -> Result:
    try:
        c = Fraction(args.cos)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--cos must be a rational like 1/2, got {args.cos!r}")
    admissible = niven_admissible(c)
    doc = {"command": "niven", "cos": str(c), "admissible": admissible}
    return True, doc, ["admissible" if admissible else "not admissible"]


def cmd_uncertainty(args: argparse.Namespace, cfg: RunConfig) -> Result:
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    rng = np.random.default_rng(cfg.seed & ((1 << 64) - 1))
    vecs = rng.normal(size=(args.samples, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    lhs, rhs, ok = uncertainty_check(Direction(*vecs.T))
    satisfied = int(np.count_nonzero(ok))
    worst = float(np.min(lhs - rhs))
    all_ok = satisfied == args.samples
    doc = {
        "command": "uncertainty",
        "samples": args.samples,
        "seed": cfg.seed,
        "satisfied": satisfied,
        "all_ok": all_ok,
        "min_margin": worst,
    }
    return all_ok, doc, [f"{satisfied}/{args.samples} satisfied"]


def cmd_reduce(args: argparse.Namespace, cfg: RunConfig) -> Result:
    q = coarsen(DiscretisedQubit(args.m, args.n, args.L), args.to)
    doc = {"command": "reduce", "m": q.m, "n": q.n, "L": q.L}
    return True, doc, [f"m={q.m} n={q.n} L={q.L}"]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text; csv for saturate only)",
    )
    common.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
    common.add_argument(
        "--precision", type=int, default=None,
        help="significant decimal digits (default: the constants file's precision, else 120)",
    )
    common.add_argument("--constants", default=None, help="path to a key=value constants file")

    parser = argparse.ArgumentParser(
        prog="qgrain",
        description="Granular qubit states, bit-string codecs and capacity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", parents=[common], help="scenario capacity report")
    p.add_argument("--mass", required=True, help="mass in kg")
    p.add_argument("--sep", required=True, help="superposition separation in m")
    p.add_argument("--qubits", type=int, default=1, help="entangled-qubit mass multiplier")
    p.add_argument("--radius", default=None, help="override characteristic radius in m")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("encode", parents=[common], help="grid state to bit string")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", parents=[common], help="bit string to grid state")
    p.add_argument("--bits", required=True, help="string over + and -")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("pauli-verify", parents=[common], help="check the operator identities")
    p.add_argument("--L", type=int, required=True)
    p.set_defaults(func=cmd_pauli_verify)

    p = sub.add_parser("saturate", parents=[common], help="fidelity saturation sweep")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n", required=True, help="qubit range, e.g. 1..14")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument(
        "--timings", action="store_true",
        help="print the wall time of each phase (draw, encode, decode, amplitudes, "
        "fidelity) to stderr",
    )
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("niven", parents=[common], help="rational-cosine admissibility")
    p.add_argument("--cos", required=True, help="rational cosine, e.g. 1/2")
    p.set_defaults(func=cmd_niven)

    p = sub.add_parser("uncertainty", parents=[common], help="sample the spread-product bound")
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("reduce", parents=[common], help="coarsen a grid state")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--to", type=int, required=True, help="target granularity")
    p.set_defaults(func=cmd_reduce)

    return parser


_LEADING_DASH_VALUE_FLAGS = ("--bits", "--cos")


def _merge_bits_value(argv: list[str]) -> list[str]:
    # "--bits --++" or "--cos -1/2" would be read as missing arguments;
    # fold such values into flag=value form.
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _LEADING_DASH_VALUE_FLAGS and i + 1 < len(argv):
            merged.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _merge_bits_value(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig(args.format, args.seed)
        if cfg.fmt == "csv" and args.command != "saturate":
            raise ValueError(f"csv format is only available for saturate, not {args.command}")
        ok, doc, text_lines = args.func(args, cfg)
        if cfg.fmt == "json":
            print(json.dumps({"schema_version": SCHEMA_VERSION, **doc}))
        else:
            for line in text_lines:
                print(line)
        return 0 if ok else 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: input too large for available memory: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
