"""Capture the output goldens in goldens.json from the current sources.

    python3 perfbench/capture_goldens.py

cli-mix stdout is stored verbatim (and checked to be the same for two
seeds, since the gate ignores --seed); saturate stdout at the golden seed is
stored as a SHA-256 digest under the CLI's SCHEMA_VERSION.  Digests stored
under other schema versions are kept.  Re-run only for a deliberate,
versioned output change.
"""

from __future__ import annotations

import json
import os
import sys

import workloads
from run import OUT, SRC, child_env, cli_argv, run_child


def capture(argv: list, env: dict) -> bytes:
    child = run_child(cli_argv(argv), env)
    if child.code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {child.code}: {child.stderr.decode()}")
    return child.stdout


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    schema = str(workloads.schema_version(SRC))
    try:
        goldens = workloads.load_goldens()
    except FileNotFoundError:
        goldens = {"cli-mix": {}, "saturate": {}}
    cli_mix = {}
    for argv in workloads.base_round("cli-mix"):
        outputs = {capture(argv + ["--seed", str(seed)], env) for seed in (0, 1)}
        if len(outputs) != 1:
            raise SystemExit(f"{' '.join(argv)}: stdout depends on --seed")
        cli_mix[workloads.argv_key(argv)] = outputs.pop().decode("utf-8")
    goldens["cli-mix"] = cli_mix
    digests = goldens["saturate"].setdefault(schema, {})
    for name in workloads.SATURATE:
        argv = workloads.saturate_argv(name) + ["--seed", str(workloads.GOLDEN_SEED)]
        stdout = capture(argv, env)
        reason = workloads.saturate_invariants(argv, stdout)
        if reason:
            raise SystemExit(f"{name}: {reason}")
        digests[workloads.argv_key(argv)] = workloads.sha256(stdout)
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
