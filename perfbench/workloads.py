"""Workload definitions and the output gate.

Every workload is a fixed list of CLI argument vectors (one "round").  The
benchmark's seed is passed to the CLI's ``--seed``; nothing else about the
inputs varies, so the same seed always gives the same invocations.

Output gate:
- cli-mix: stdout is compared byte for byte with goldens captured from the
  code (the text output of these commands does not depend on --seed).
- saturate-*: every invocation in a run must print the same bytes; for the
  golden seed the bytes must hash to the digest stored for the CLI's
  ``SCHEMA_VERSION``, and for any seed the CSV must have the header, one row
  per N in order, fidelities in [0, 1] and a segment length in [0, L].
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")
GOLDEN_SEED = 0

SATURATE_HEADER = "N,median_fidelity,p10_fidelity,min_segment_len"

# --samples is chosen so one invocation does ~1 s of codec work, several
# times the ~0.2 s interpreter + import set-up, and a run holds 25-35 of them.
SATURATE = {
    "saturate-readme": {"L": 4096, "n": (1, 14), "samples": 16},
    "saturate-wide": {"L": 1048576, "n": (1, 4), "samples": 1},
}

# The README's commands other than saturate.  pauli-verify is 1/8 of a round
# and the slowest command, so it sets the 90th percentile; set-up sets p50.
CLI_MIX = (
    ("capacity", "--mass", "1e-30", "--sep", "5e-9"),
    ("capacity", "--mass", "1e-30", "--sep", "5e-9", "--qubits", "640"),
    ("encode", "--m", "2", "--n", "0", "--L", "4"),
    ("decode", "--bits", "--++"),
    ("pauli-verify", "--L", "1048576"),
    ("niven", "--cos", "1/2"),
    ("uncertainty", "--samples", "100000"),
    ("reduce", "--m", "3", "--n", "5", "--L", "8", "--to", "1"),
)

WORKLOADS = ("saturate-readme", "saturate-wide", "cli-mix")


def saturate_argv(name: str) -> list[str]:
    spec = SATURATE[name]
    lo, hi = spec["n"]
    return [
        "saturate", "--L", str(spec["L"]), "--n", f"{lo}..{hi}",
        "--samples", str(spec["samples"]),
    ]


def base_round(workload: str) -> list[list[str]]:
    """One round of the workload, without --seed."""
    if workload == "cli-mix":
        return [list(argv) for argv in CLI_MIX]
    if workload in SATURATE:
        return [saturate_argv(workload)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def invocation_round(workload: str, seed: int) -> list[list[str]]:
    """One round of the workload with the benchmark seed passed to --seed."""
    return [argv + ["--seed", str(seed)] for argv in base_round(workload)]


def trees_per_invocation(workload: str) -> int:
    """Random trees quantised, encoded, decoded and scored by one saturate call."""
    spec = SATURATE[workload]
    lo, hi = spec["n"]
    return spec["samples"] * (hi - lo + 1)


def schema_version(src_dir: str) -> int:
    """``qgrain.cli.SCHEMA_VERSION``, read from the source without importing it."""
    with open(os.path.join(src_dir, "qgrain", "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "SCHEMA_VERSION"
        ):
            return ast.literal_eval(node.value)
    raise ValueError("qgrain/cli.py defines no SCHEMA_VERSION")


def load_goldens(path: str = GOLDENS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def argv_key(argv: list[str]) -> str:
    """Golden key: the argument vector without its --seed pair."""
    out = []
    skip = False
    for token in argv:
        if skip:
            skip = False
        elif token == "--seed":
            skip = True
        else:
            out.append(token)
    return " ".join(out)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def saturate_invariants(argv: list[str], stdout: bytes) -> Optional[str]:
    """Seed-independent shape checks of saturate's CSV; returns a reason or None."""
    L = int(argv[argv.index("--L") + 1])
    lo, _, hi = argv[argv.index("--n") + 1].partition("..")
    try:
        lines = stdout.decode("ascii").splitlines()
    except UnicodeDecodeError:
        return "saturate output is not ASCII"
    if not lines or lines[0] != SATURATE_HEADER:
        return "saturate header missing"
    expected = list(range(int(lo), int(hi) + 1))
    if len(lines) - 1 != len(expected):
        return f"saturate printed {len(lines) - 1} rows, expected {len(expected)}"
    for N, line in zip(expected, lines[1:]):
        parts = line.split(",")
        if len(parts) != 4:
            return f"malformed saturate row {line!r}"
        try:
            row_n, median, p10, min_seg = int(parts[0]), float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            return f"malformed saturate row {line!r}"
        if row_n != N:
            return f"saturate row for N={row_n}, expected N={N}"
        if not (0.0 <= median <= 1.0 and 0.0 <= p10 <= 1.0):
            return f"fidelity outside [0, 1] in row {line!r}"
        if not 0 <= min_seg <= L:
            return f"segment length outside [0, L] in row {line!r}"
    return None


@dataclass
class OutputGate:
    """Decides whether one invocation's exit code and stdout are correct."""

    workload: str
    seed: int
    schema: int
    goldens: dict
    _first_output: dict = field(default_factory=dict)

    def check(self, argv: list[str], code: int, stdout: bytes) -> Optional[str]:
        """Return None when the output is correct, else a one-line reason."""
        reason = self._problem(argv, code, stdout)
        return None if reason is None else f"{' '.join(argv)}: {reason}"

    def _problem(self, argv: list[str], code: int, stdout: bytes) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        key = argv_key(argv)
        if self.workload == "cli-mix":
            golden = self.goldens["cli-mix"].get(key)
            if golden is None:
                return "no golden for this command"
            if stdout != golden.encode("utf-8"):
                return "stdout differs from golden"
            return None
        first = self._first_output.setdefault(key, stdout)
        if stdout != first:
            return "saturate output differs between invocations of one run"
        if self.seed == GOLDEN_SEED:
            digest = self.goldens["saturate"].get(str(self.schema), {}).get(key)
            if digest is not None and sha256(stdout) != digest:
                return f"stdout digest differs from golden for schema {self.schema}"
        return saturate_invariants(argv, stdout)
