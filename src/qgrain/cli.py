"""Command-line front end.

Subcommands: capacity, encode, decode, pauli-verify, saturate, niven,
uncertainty, reduce.  Each ``cmd_*(args, cfg)`` returns ``(ok, doc,
text_lines)`` and prints nothing to stdout; ``main`` is its only writer, and
``saturate --timings`` writes per-phase wall times to stderr.  Each
subcommand takes ``--format``, ``--seed`` and the flags it reads; the parser,
not ``main``, exits 2 on any other flag and on ``--format csv`` outside
saturate.  ``main`` builds the RunConfig and prints ``doc`` with a
schema_version field (--format json) or the text lines (text, or csv for
saturate).  Output is a pure function of the arguments and, for capacity, of
the constants file that ``--constants`` or else ``QGRAIN_CONSTANTS`` names.
Exit codes: 0 success, 1 verified-property failure (``ok`` false), 2 usage
or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from decimal import Decimal, InvalidOperation, Overflow, Underflow
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
    constants = gravity.constants_from_env(args.precision, args.constants)
    scenario = gravity.Scenario(
        M=_decimal(args.mass, "--mass"),
        b=_decimal(args.sep, "--sep"),
        qubit_multiplier=args.qubits,
        R_override=_decimal(args.radius, "--radius") if args.radius is not None else None,
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
    doc = {"command": "encode", **asdict(q), "bits": bitstring.to_text(bitstring.encode(q))}
    return True, doc, [doc["bits"]]


def cmd_decode(args: argparse.Namespace, cfg: RunConfig) -> Result:
    decoded = bitstring.decode(bitstring.from_text(args.bits))
    q = decoded.qubit
    doc = {"command": "decode", **asdict(q), "degenerate": decoded.degenerate}
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
    csv = [",".join(nested.SaturationRow._fields)] + [",".join(map(repr, row)) for row in rows]
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
    # Drawn and checked 4,096 samples at a time: normal() gives the same
    # stream however the draws are split, and Direction refuses a NaN, so the
    # count and the minimum do not depend on the slicing.
    satisfied, worst = 0, float("inf")
    for lo in range(0, args.samples, 4096):
        vecs = rng.normal(size=(min(4096, args.samples - lo), 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        lhs, rhs, ok = uncertainty_check(Direction(*vecs.T))
        satisfied += int(np.count_nonzero(ok))
        worst = min(worst, float(np.min(lhs - rhs)))
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
    doc = {"command": "reduce", **asdict(q)}
    return True, doc, [f"m={q.m} n={q.n} L={q.L}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgrain",
        description="Granular qubit states, bit-string codecs and capacity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, formats=("text", "json")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=formats, default="text", help="output format")
        p.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
        p.set_defaults(func=func)
        return p

    p = command("capacity", cmd_capacity, "scenario capacity report")
    p.add_argument("--mass", required=True, help="mass in kg")
    p.add_argument("--sep", required=True, help="superposition separation in m")
    p.add_argument("--qubits", type=int, default=1, help="entangled-qubit mass multiplier")
    p.add_argument("--radius", default=None, help="override characteristic radius in m")
    p.add_argument(
        "--precision", type=int, default=None,
        help="significant decimal digits (default: the constants file's precision, else 120)",
    )
    p.add_argument("--constants", default=None, help="path to a key=value constants file")

    p = command("encode", cmd_encode, "grid state to bit string")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)

    p = command("decode", cmd_decode, "bit string to grid state")
    p.add_argument("--bits", required=True, help="string over + and -")

    p = command("pauli-verify", cmd_pauli_verify, "check the operator identities")
    p.add_argument("--L", type=int, required=True)

    p = command("saturate", cmd_saturate, "fidelity saturation sweep", ("text", "json", "csv"))
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n", required=True, help="qubit range, e.g. 1..14")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument(
        "--timings", action="store_true",
        help=f"print the wall time of each phase ({', '.join(nested.SATURATION_PHASES)}) "
        "to stderr",
    )

    p = command("niven", cmd_niven, "rational-cosine admissibility")
    p.add_argument("--cos", required=True, help="rational cosine, e.g. 1/2")

    p = command("uncertainty", cmd_uncertainty, "sample the spread-product bound")
    p.add_argument("--samples", type=int, required=True)

    p = command("reduce", cmd_reduce, "coarsen a grid state")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--to", type=int, required=True, help="target granularity")

    return parser


_LEADING_DASH_VALUE_FLAGS = ("--bits", "--cos")


def _merge_bits_value(argv: list[str]) -> list[str]:
    # "--bits --++" or "--cos -1/2" would be read as missing arguments;
    # fold such values into flag=value form.
    merged = []
    for token in argv:
        if merged and merged[-1] in _LEADING_DASH_VALUE_FLAGS:
            merged[-1] += f"={token}"
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
        ok, doc, text_lines = args.func(args, cfg)
        if cfg.fmt == "json":
            print(json.dumps({"schema_version": SCHEMA_VERSION, **doc}))
        else:
            for line in text_lines:
                print(line)
        return 0 if ok else 1
    except (Overflow, Underflow):
        print("error: the scenario leaves the decimal exponent range (±10^6)", file=sys.stderr)
        return 2
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
