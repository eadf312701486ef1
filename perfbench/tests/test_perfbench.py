"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from qgrain import bitstring, cli, gravity, nested, signed_perm  # noqa: E402
from tracer import Tracer, layer_value, repeatable_counts  # noqa: E402

SMALL_ARGVS = [
    ["saturate", "--L", "64", "--n", "1..5", "--samples", "6", "--seed", "3"],
    ["pauli-verify", "--L", "64"],
    ["capacity", "--mass", "1e-30", "--sep", "5e-9"],
    ["encode", "--m", "2", "--n", "0", "--L", "4"],
    ["decode", "--bits", "--++"],
    ["niven", "--cos", "1/2"],
    ["uncertainty", "--samples", "100", "--seed", "2"],
    ["reduce", "--m", "3", "--n", "5", "--L", "8", "--to", "1"],
    ["decode", "--bits", "+-+-"],  # exit 2: errors must pass through unchanged too
]


@pytest.fixture
def tracer():
    t = Tracer()
    yield t
    t.uninstall()


def traced_pass(tracer, argvs):
    tracer.install()
    tracer.begin_pass()
    try:
        outs = [run.call_cli(cli, argv) for argv in argvs]
    finally:
        tracer.end_pass()
        tracer.uninstall()
    return outs


def test_wrappers_leave_outputs_unchanged(tracer):
    plain = [run.call_cli(cli, argv) for argv in SMALL_ARGVS]
    assert plain[-1][0] == 2
    assert traced_pass(tracer, SMALL_ARGVS) == plain


def test_install_patches_every_binding_and_uninstall_restores(tracer):
    originals = (bitstring.cyc, signed_perm.cyc, nested.n_max, gravity.n_max,
                 bitstring.BitString.__init__)
    assert signed_perm.cyc is bitstring.cyc and gravity.n_max is nested.n_max
    tracer.install()
    assert signed_perm.cyc is bitstring.cyc is not originals[0]
    assert gravity.n_max is nested.n_max is not originals[2]
    assert bitstring.BitString.__init__ is not originals[4]
    assert isinstance(bitstring.iota(4, 2), bitstring.BitString)
    tracer.uninstall()
    assert (bitstring.cyc, signed_perm.cyc, nested.n_max, gravity.n_max,
            bitstring.BitString.__init__) == originals


def test_gravity_spans_follow_the_calls_made(tracer):
    traced_pass(tracer, [["capacity", "--mass", "1e-30", "--sep", "5e-9"]])
    (summary,) = tracer.pass_summaries()
    assert summary["calls"]["gravity.scenario_report"] == 1
    assert summary["calls"]["gravity.l_of_scenario"] == 1
    assert summary["calls"]["nested.n_max"] == 1  # bound in gravity, defined in nested
    assert summary["calls"]["cli.cmd_capacity"] == 1


def test_self_times_partition_the_root_spans(tracer):
    traced_pass(tracer, SMALL_ARGVS[:2])
    (summary,) = tracer.pass_summaries()
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(summary["self_ns"].values()) == roots
    assert all(v >= 0 for v in summary["self_ns"].values())


def test_counts_repeat_exactly_across_passes(tracer):
    traced_pass(tracer, SMALL_ARGVS[:2])
    traced_pass(tracer, SMALL_ARGVS[:2])
    first, second = tracer.pass_summaries()
    assert repeatable_counts(first) == repeatable_counts(second)
    counts = first["counts"]
    assert counts["nested.encode_nested.bits"] == 64 * (1 + 2 + 3 + 4 + 5) * 6
    assert counts["nested.encode_nested.segments"] == sum((1 << N) - 1 for N in range(1, 6)) * 6
    assert counts["signed_perm.compose.entries"] == 4 * 64


def test_every_per_layer_metric_is_computable(tracer):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    traced_pass(tracer, SMALL_ARGVS)
    summaries = tracer.pass_summaries()
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.startswith("setup.") or name == "trace_overhead_ratio":
            continue
        assert layer_value(name, summaries, tracer.span_names) >= 0, name
    with pytest.raises(ValueError):
        layer_value("nested.no_such_function.self_s", summaries, tracer.span_names)


def test_cli_mix_gate_catches_a_one_byte_change():
    goldens = workloads.load_goldens()
    gate = workloads.OutputGate("cli-mix", 5, 1, goldens)
    argv = ["pauli-verify", "--L", "1048576", "--seed", "5"]
    good = goldens["cli-mix"]["pauli-verify --L 1048576"].encode()
    assert gate.check(argv, 0, good) is None
    bad = bytearray(good)
    bad[-2] ^= 1
    assert gate.check(argv, 0, bytes(bad)) is not None
    assert gate.check(argv, 1, good).endswith("exit code 1")


def test_saturate_gate_catches_a_one_byte_change():
    argv = ["saturate", "--L", "64", "--n", "1..2", "--samples", "3", "--seed", "0"]
    good = b"N,median_fidelity,p10_fidelity,min_segment_len\n1,0.99,0.98,12\n2,0.97,0.9,3\n"
    bad = good.replace(b"0.97", b"0.96")
    assert workloads.saturate_invariants(argv, bad) is None  # only the digest can tell
    goldens = {"saturate": {"1": {workloads.argv_key(argv): workloads.sha256(good)}}}
    assert workloads.OutputGate("saturate-readme", 0, 1, goldens).check(argv, 0, good) is None
    assert workloads.OutputGate("saturate-readme", 0, 1, goldens).check(argv, 0, bad) is not None
    # A new schema version has no digest yet, so only the invariants apply.
    assert workloads.OutputGate("saturate-readme", 0, 2, goldens).check(argv, 0, bad) is None
    # Within one run, every invocation must repeat the first output.
    other_seed = workloads.OutputGate("saturate-readme", 7, 1, goldens)
    assert other_seed.check(argv, 0, good) is None
    assert other_seed.check(argv, 0, bad) is not None


def test_saturate_invariants_reject_malformed_output():
    argv = ["saturate", "--L", "64", "--n", "1..2", "--samples", "3", "--seed", "9"]
    head = b"N,median_fidelity,p10_fidelity,min_segment_len\n"
    assert workloads.saturate_invariants(argv, head + b"1,0.9,0.8,3\n") is not None
    assert workloads.saturate_invariants(argv, head + b"1,0.9,0.8,3\n2,1.5,0.8,3\n") is not None
    assert workloads.saturate_invariants(argv, head + b"2,0.9,0.8,3\n1,0.9,0.8,3\n") is not None
    assert workloads.saturate_invariants(argv, b"1,0.9,0.8,3\n2,0.9,0.8,3\n") is not None


def test_goldens_cover_both_saturate_workloads_at_the_current_schema():
    digests = workloads.load_goldens()["saturate"][str(workloads.schema_version(run.SRC))]
    for name in workloads.SATURATE:
        assert workloads.argv_key(workloads.saturate_argv(name)) in digests


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(4).random(37))
    for q in (0, 10, 50, 90, 100):
        assert run.percentile(values, q) == pytest.approx(np.percentile(values, q), abs=0)


def test_each_percentile_is_reported_with_its_sample_count(monkeypatch):
    goldens = workloads.load_goldens()
    walls = iter(np.linspace(0.1, 0.9, 1000))

    def fake_child(argv, env):
        stdout = goldens["cli-mix"].get(workloads.argv_key(argv[2:]), "").encode()
        return run.Child(0, stdout, b"", float(next(walls)), 2048)

    monkeypatch.setattr(run, "run_child", fake_child)
    gate = workloads.OutputGate("cli-mix", 0, 1, goldens)
    tally = run.Tally()
    values, detail = run.untraced_run("cli-mix", 0, 1e-9, gate, tally)
    assert tally.failed == 0
    assert set(detail["samples"]) == set(values)
    assert detail["samples"]["cmd_ms_p50"] == len(workloads.CLI_MIX)  # one whole round
    assert detail["samples"]["round_ms_p50"] == 1
    assert detail["cmd_ms_p90"]["samples"] == len(workloads.CLI_MIX)
    assert detail["samples"]["setup_s"] >= run.MIN_SETUP_PROBES
    assert all(v["samples"] >= 1 for v in detail["cmd_ms_p50_by_command"].values())
    assert values["peak_rss_mb"] == 2.0


def test_importtime_split():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1000 |       2000 | site\n"
        "import time:       500 |     100000 |       numpy\n"
        "import time:       100 |     120000 |   qgrain\n"
        "import time:       100 |     130000 | qgrain.cli\n"
    ).encode()
    numpy_s, qgrain_s = run._importtime_split(stderr)
    assert numpy_s == pytest.approx(0.1)
    assert qgrain_s == pytest.approx(0.03)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
