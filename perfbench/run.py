"""qgrain benchmark: drives the real CLI and reports end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload saturate-readme --seed 0 --seconds 36 --trace 0

--trace 0 is the untraced run.  One closed-loop client runs one child
``python -m qgrain.cli ...`` (PYTHONPATH=src) at a time, round-robin over the
workload's commands, for --seconds seconds after one discarded warm-up round.
Set-up probes (``python -c "import qgrain.cli"``) are spread through the run.
It reports the end-to-end metrics of BENCHMARK.json.

--trace 1 is the traced run.  It splits set-up with ``python -X importtime``
children, then runs the workload in-process through ``qgrain.cli.main``,
alternating untraced and traced passes of one round each, and reports the
per-layer metrics of BENCHMARK.json.  Spans go to perfbench/out/.

Every invocation passes the output gate in workloads.py.  The last stdout
line is one JSON object with the keys correct, attempted, failed, metrics;
the line before it holds the run record (hardware, versions, commit, seed)
and the sample count behind each statistic.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass

import workloads
from tracer import Tracer, layer_value, repeatable_counts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

CHILD_TIMEOUT_S = 60.0
SETUP_PROBES = 15          # spread over an untraced run
MIN_SETUP_PROBES = 5
IMPORTTIME_LAUNCHES = 9    # per set-up component in a traced run
MIN_TRACED_PASSES = 2
SETUP_ARGV = ["-c", "import qgrain.cli"]
# One BLAS thread per process.  The default pool spins a second thread that
# burns ~0.3 s of CPU per saturate-readme call without shortening its wall
# time, and on a shared 2-vCPU host that spinning only adds noise.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, **ONE_THREAD)
    env.pop("QGRAIN_CONSTANTS", None)
    return env


def run_child(argv: list, env: dict) -> Child:
    """Run ``python <argv>`` to completion; wall time and peak RSS via wait4."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss)


def cli_argv(argv: list) -> list:
    return ["-m", "qgrain.cli", *argv]


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tally:
    """Invocations attempted and failed, run-level check failures, and the
    first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.run_checks_ok = True
        self.reasons: list[str] = []

    def record(self, reason) -> None:
        """One invocation; reason is None when it passed the gate."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self._keep(reason)

    def fail_run(self, reason: str) -> None:
        """A check on the run as a whole, not on one invocation, failed."""
        self.run_checks_ok = False
        self._keep(reason)

    def _keep(self, reason: str) -> None:
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def invoke(argv: list, env: dict, gate: workloads.OutputGate, tally: Tally) -> Child:
    child = run_child(cli_argv(argv), env)
    tally.record(gate.check(argv, child.code, child.stdout))
    return child


def probe_setup(env: dict, tally: Tally) -> float:
    child = run_child(SETUP_ARGV, env)
    tally.record(None if child.code == 0 else f"import qgrain.cli exited {child.code}")
    return child.wall_s


def untraced_run(workload: str, seed: int, seconds: float, gate, tally: Tally):
    env = child_env()
    commands = workloads.invocation_round(workload, seed)
    probe_setup(env, tally)
    for argv in commands:
        invoke(argv, env, gate, tally)

    setup, walls, rounds, rss_kb = [], [], [], []
    per_command: dict[str, list] = {}
    start = time.perf_counter()
    # Whole rounds only, so every command keeps its share of the samples.
    while True:
        round_s = 0.0
        for argv in commands:
            due = SETUP_PROBES * (time.perf_counter() - start) / seconds
            if len(setup) < min(SETUP_PROBES, due):
                setup.append(probe_setup(env, tally))
            child = invoke(argv, env, gate, tally)
            walls.append(child.wall_s)
            round_s += child.wall_s
            rss_kb.append(child.maxrss_kb)
            per_command.setdefault(argv[0], []).append(child.wall_s)
        rounds.append(round_s)
        if time.perf_counter() >= start + seconds:
            break
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(probe_setup(env, tally))

    values = {
        "setup_s": statistics.median(setup),
        "cmd_ms_p50": percentile(walls, 50) * 1e3,
        "round_ms_p50": percentile(rounds, 50) * 1e3,
        "peak_rss_mb": max(rss_kb) / 1024.0,
    }
    detail = {
        "samples": {
            "setup_s": len(setup), "cmd_ms_p50": len(walls),
            "round_ms_p50": len(rounds), "peak_rss_mb": len(rss_kb),
        },
        # A tail indicator only, with no bound: on identical saturate calls it
        # measures the host's slow spells.
        "cmd_ms_p90": {"value": percentile(walls, 90) * 1e3, "samples": len(walls)},
        "cmd_ms_p50_by_command": {
            name: {"value": percentile(ws, 50) * 1e3, "samples": len(ws)}
            for name, ws in per_command.items()
        },
    }
    if workload in workloads.SATURATE:
        detail["trees_per_s"] = workloads.trees_per_invocation(workload) * len(walls) / sum(walls)
    return values, detail


def _importtime_split(stderr: bytes) -> tuple[float, float]:
    """(numpy, qgrain-without-numpy) import seconds from ``-X importtime`` output."""
    numpy_us = None
    qgrain_us = 0
    for line in stderr.decode("utf-8", "replace").splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        name = name_field[1:]
        if name.strip() == "numpy" and numpy_us is None:
            numpy_us = int(cumulative)
        if not name.startswith(" ") and name.split(".")[0] == "qgrain":
            qgrain_us += int(cumulative)
    if numpy_us is None or not qgrain_us:
        raise ValueError("importtime output lacks the numpy or qgrain entries")
    return numpy_us / 1e6, (qgrain_us - numpy_us) / 1e6


def setup_split(tally: Tally) -> tuple[dict, dict]:
    env = child_env()
    interpreter, numpy_s, qgrain_s = [], [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        child = run_child(["-c", "pass"], env)
        tally.record(None if child.code == 0 else f"python -c pass exited {child.code}")
        interpreter.append(child.wall_s)
        child = run_child(["-X", "importtime", *SETUP_ARGV], env)
        try:
            split = _importtime_split(child.stderr) if child.code == 0 else None
        except ValueError as exc:
            split = None
            tally.record(str(exc))
        else:
            tally.record(None if split else f"importtime child exited {child.code}")
        if split:
            numpy_s.append(split[0])
            qgrain_s.append(split[1])
    values = {
        "setup.interpreter_s": statistics.median(interpreter),
        "setup.numpy_import_s": statistics.median(numpy_s),
        "setup.qgrain_import_s": statistics.median(qgrain_s),
    }
    samples = {"setup.interpreter_s": len(interpreter), "setup.numpy_import_s": len(numpy_s),
               "setup.qgrain_import_s": len(qgrain_s)}
    return values, samples


def call_cli(cli, argv: list) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except Exception:  # a traceback breaks the CLI contract: count it, keep running
            traceback.print_exc()
            code = -1
    return code, buf.getvalue().encode("utf-8")


def traced_run(workload: str, seed: int, seconds: float, gate, tally: Tally, names: list):
    start = time.perf_counter()
    setup_values, setup_samples = setup_split(tally)

    os.environ.update(ONE_THREAD)  # before numpy loads OpenBLAS
    sys.path.insert(0, SRC)
    cli = importlib.import_module("qgrain.cli")
    tracer = Tracer()
    commands = workloads.invocation_round(workload, seed)
    for argv in commands:
        code, stdout = call_cli(cli, argv)
        tally.record(gate.check(argv, code, stdout))

    overhead = []
    passes = 0
    while passes < MIN_TRACED_PASSES or time.perf_counter() < start + seconds:
        # Alternate which side runs first so drift in machine load cancels.
        walls, outputs = {}, {}
        for traced in ((False, True) if passes % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.begin_pass()
            outs = []
            t0 = time.perf_counter()
            for argv in commands:
                if traced:
                    tracer.invocation += 1
                outs.append(call_cli(cli, argv))
            walls[traced] = time.perf_counter() - t0
            if traced:
                tracer.end_pass()
                tracer.uninstall()
            outputs[traced] = outs
        for argv, plain, traced_out in zip(commands, outputs[False], outputs[True]):
            tally.record(gate.check(argv, *plain))
            differs = f"{' '.join(argv)}: traced output differs from untraced output"
            tally.record(gate.check(argv, *traced_out) or (differs if traced_out != plain else None))
        overhead.append(walls[True] / walls[False])
        passes += 1

    summaries = tracer.pass_summaries()
    if any(repeatable_counts(s) != repeatable_counts(summaries[0]) for s in summaries):
        tally.fail_run("calls or counters differ between traced passes")

    values = dict(setup_values, trace_overhead_ratio=statistics.median(overhead))
    for name in names:
        if name not in values:
            values[name] = layer_value(name, summaries, tracer.span_names)
    detail = {
        "samples": dict(setup_samples, trace_overhead_ratio=len(overhead), traced_passes=passes),
        "calls": summaries[0]["calls"],
        "counts": summaries[0]["counts"],
    }
    write_spans(workload, seed, tracer)
    return values, detail


def write_spans(workload: str, seed: int, tracer: Tracer) -> None:
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "invocation"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))


def _read(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def machine() -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    indexes = sorted(n for n in os.listdir(base) if n.startswith("index")) if os.path.isdir(base) else []
    for index in indexes:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = _read(os.path.join(base, index, "size"))
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "qgrain", "cli.py")) or not os.path.isfile(spec_path):
        print(f"error: no qgrain sources under {SRC} or no BENCHMARK.json", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    os.makedirs(OUT, exist_ok=True)
    schema = workloads.schema_version(SRC)
    gate = workloads.OutputGate(args.workload, args.seed, schema, workloads.load_goldens())
    tally = Tally()
    if args.trace:
        values, detail = traced_run(args.workload, args.seed, args.seconds, gate, tally, names)
    else:
        values, detail = untraced_run(args.workload, args.seed, args.seconds, gate, tally)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "schema_version": schema,
        **machine(),
        "fail_ratio": tally.failed / tally.attempted,
        "failures": tally.reasons,
        **detail,
    }
    result = {
        "correct": tally.failed == 0 and tally.run_checks_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
