import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qgrain import cli
from qgrain import gravity, nested, signed_perm

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_text(capsys):
    code, out, _ = run_cli(capsys, "encode", "--m", "2", "--n", "0", "--L", "4")
    assert code == 0
    assert out.strip() == "--++"


def test_encode_odd_length_exits_2(capsys):
    code, _, err = run_cli(capsys, "encode", "--m", "2", "--n", "0", "--L", "3")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["encode", "--m", "1", "--n", "0", "--L", str(2**64)],
            "encoding needs even L in [2, 2^63)",
        ),
        (["pauli-verify", "--L", str(2**64)], "operator needs L < 2^63"),
    ],
    ids=["encode", "pauli-verify"],
)
def test_length_beyond_int64_exits_2_naming_the_limit(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message} (int64 limit), got L={2**64}\n"


def test_decode_round_trip(capsys):
    code, out, _ = run_cli(capsys, "decode", "--bits", "--++")
    assert code == 0
    assert out.strip() == "m=2 n=0 L=4"


def test_decode_degenerate_flagged(capsys):
    code, out, _ = run_cli(capsys, "decode", "--bits", "++++")
    assert code == 0
    assert "degenerate" in out


def test_decode_not_codeword_exits_2(capsys):
    code, _, err = run_cli(capsys, "decode", "--bits", "+-+-")
    assert code == 2
    assert "cyclic" in err


def test_decode_refuses_a_length_header(capsys):
    code, out, err = run_cli(capsys, "decode", "--bits", "4:--++")
    assert (code, out) == (2, "")
    assert err == "error: bit-string text must be non-empty over '+' and '-'\n"


def test_decode_json(capsys):
    code, out, _ = run_cli(capsys, "decode", "--bits", "--++", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema_version"] == 1
    assert (doc["m"], doc["n"], doc["L"], doc["degenerate"]) == (2, 0, 4, False)


def test_capacity_json_electron(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--mass", "1e-30", "--sep", "5e-9", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert 192 <= doc["log10_L"] <= 194
    assert doc["n_max"] == 649
    assert doc["L"].startswith("1")
    assert float(doc["beta"]) < 1e-40


def test_capacity_qubit_multiplier(capsys):
    code, out, _ = run_cli(
        capsys,
        "capacity", "--mass", "1e-30", "--sep", "5e-9", "--qubits", "640",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert 161 <= doc["log10_L"] <= 163
    assert doc["n_max"] == 546


def test_capacity_million_qubits_collapse_time(capsys):
    code, out, _ = run_cli(
        capsys,
        "capacity", "--mass", "1e-30", "--sep", "5e-9", "--qubits", "1000000",
        "--format", "json",
    )
    assert code == 0
    tau = float(json.loads(out)["tau_DP"])
    assert 83 <= math.log10(tau) <= 85


def test_capacity_invalid_argument_exits_2(capsys):
    code, _, err = run_cli(capsys, "capacity", "--mass", "-1", "--sep", "5e-9")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "capacity", "--mass", "bogus", "--sep", "5e-9")
    assert code == 2
    code, out, err = run_cli(capsys, "capacity", "--mass", "1e-30", "--sep", "5e-9", "--radius", "")
    assert (code, out) == (2, "") and "--radius must be a decimal number, got ''" in err


@pytest.mark.parametrize(
    "extra,field",
    [
        (["--mass", "Infinity", "--sep", "5e-9"], "M"),
        (["--mass", "NaN", "--sep", "5e-9"], "M"),
        (["--mass", "1e-30", "--sep=-Infinity"], "b"),
        (["--mass", "1e-30", "--sep", "5e-9", "--radius", "Infinity"], "R_override"),
    ],
)
def test_capacity_non_finite_input_exits_2(capsys, extra, field):
    code, out, err = run_cli(capsys, "capacity", *extra)
    assert code == 2
    assert out == ""
    assert f"error: scenario {field} must be finite" in err


@pytest.mark.parametrize("mass", ["1e-500", "1e-3000"])
def test_capacity_with_l_beyond_int_string_limit(capsys, mass):
    # L has more decimal digits than int -> str conversion allows (4300).
    code, out, err = run_cli(capsys, "capacity", "--mass", mass, "--sep", "5e-9")
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("n_max   = ")
    code, out, err = run_cli(
        capsys, "capacity", "--mass", mass, "--sep", "5e-9", "--format", "json"
    )
    assert code == 0 and err == ""
    report = gravity.scenario_report(gravity.Scenario(M=Decimal(mass), b=Decimal("5e-9")))
    assert Decimal(json.loads(out)["L"]) == report.L


def test_capacity_constants_file(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("G = 6.67430e-11\nhbar = 1.054571817e-34\nt_P = 5.391247e-44\nE_P = 1.9561e9\n")
    code, out, _ = run_cli(
        capsys,
        "capacity", "--mass", "1e-30", "--sep", "5e-9",
        "--constants", str(path), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["log10_L"] == pytest.approx(193.035, abs=0.01)


def _e_g_digits(out: str) -> int:
    return len(Decimal(json.loads(out)["E_G"]).as_tuple().digits)


def test_constants_file_precision_applies_unless_flag_given(capsys, tmp_path, monkeypatch):
    path = tmp_path / "c.txt"
    path.write_text("precision = 60\n")
    argv = ["capacity", "--mass", "1e-30", "--sep", "5e-9", "--format", "json"]
    monkeypatch.delenv("QGRAIN_CONSTANTS", raising=False)
    assert _e_g_digits(run_cli(capsys, *argv)[1]) == 120
    assert _e_g_digits(run_cli(capsys, *argv, "--constants", str(path))[1]) == 60
    flagged = argv + ["--constants", str(path), "--precision", "80"]
    assert _e_g_digits(run_cli(capsys, *flagged)[1]) == 80
    monkeypatch.setenv("QGRAIN_CONSTANTS", str(path))
    assert _e_g_digits(run_cli(capsys, *argv)[1]) == 60
    assert _e_g_digits(run_cli(capsys, *argv, "--precision", "80")[1]) == 80


def _error_lines(err: str) -> int:
    return sum("error:" in line for line in err.splitlines())


@pytest.mark.parametrize(
    "contents,message",
    [
        ("t_P = Infinity\n", "constant t_P must be finite, got Infinity"),
        ("hbar = nan\n", "constant hbar must be finite, got NaN"),
        ("G = abc\n", "constants key 'G' in {path} has unparsable value 'abc'"),
    ],
    ids=["infinite", "nan", "unparsable"],
)
def test_capacity_refuses_bad_constants_file(capsys, tmp_path, contents, message):
    path = tmp_path / "c.txt"
    path.write_text(contents)
    code, out, err = run_cli(
        capsys, "capacity", "--mass", "1e-30", "--sep", "5e-9", "--constants", str(path)
    )
    assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("mass", ["1e-9999999", "1e999999"], ids=["underflow", "overflow"])
def test_capacity_beyond_decimal_exponent_range_exits_2_in_words(capsys, mass):
    code, out, err = run_cli(capsys, "capacity", "--mass", mass, "--sep", "5e-9")
    assert (code, out) == (2, "")
    assert err == "error: the scenario leaves the decimal exponent range (±10^6)\n"


def test_only_capacity_loads_constants(capsys, tmp_path, monkeypatch):
    # A missing QGRAIN_CONSTANTS file fails capacity alone: the other commands
    # never read the constants, and refuse --precision as a usage error.
    capacity = ["capacity", "--mass", "1e-30", "--sep", "5e-9"]
    monkeypatch.setenv("QGRAIN_CONSTANTS", str(tmp_path / "missing.txt"))
    assert run_cli(capsys, "encode", "--m", "2", "--n", "0", "--L", "4") == (0, "--++\n", "")
    code, out, err = run_cli(capsys, *capacity)
    assert (code, out) == (2, "") and "No such file or directory" in err
    monkeypatch.delenv("QGRAIN_CONSTANTS")
    code, out, err = run_cli(capsys, "niven", "--cos", "1/2", "--precision", "10")
    assert (code, out) == (2, "") and _error_lines(err) == 1
    code, out, err = run_cli(capsys, *capacity, "--precision", "10")
    assert (code, out) == (2, "") and "precision must be >= 50" in err


def test_pauli_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "pauli-verify", "--L", "8")
    assert code == 0
    assert out.count("pass") == 3


def test_pauli_verify_skips_split_when_not_multiple_of_8(capsys):
    code, out, _ = run_cli(capsys, "pauli-verify", "--L", "12")
    assert code == 0
    assert "skipped" in out


def test_pauli_verify_bad_length_exits_2(capsys):
    code, _, err = run_cli(capsys, "pauli-verify", "--L", "6")
    assert code == 2 and "error:" in err


def test_pauli_verify_identity_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(signed_perm, "verify_quaternion", lambda L: False)
    code, out, _ = run_cli(capsys, "pauli-verify", "--L", "8")
    assert code == 1
    assert "FAIL" in out


def test_pauli_verify_megabit_under_five_seconds(capsys):
    t0 = time.perf_counter()
    code, _, _ = run_cli(capsys, "pauli-verify", "--L", str(1 << 20))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 5.0


def test_saturate_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "saturate", "--L", "64", "--n", "1..3", "--samples", "20", "--seed", "5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,median_fidelity,p10_fidelity,min_segment_len"
    assert len(lines) == 4
    assert lines[1].startswith("1,")


def test_saturate_smallest_case(capsys):
    code, out, _ = run_cli(
        capsys, "saturate", "--L", "2", "--n", "1..1", "--samples", "10", "--seed", "0"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_saturate_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "saturate", "--L", "64", "--n", "2..3", "--samples", "10",
        "--seed", "1", "--format", "json",
    )
    doc = json.loads(out)
    assert code == 0
    assert [row["N"] for row in doc["rows"]] == [2, 3]


def test_saturate_timings_go_to_stderr_only(capsys):
    argv = ["saturate", "--L", "64", "--n", "1..3", "--samples", "7", "--seed", "4"]
    for fmt in ("text", "json", "csv"):
        plain = run_cli(capsys, *argv, "--format", fmt)
        timed = run_cli(capsys, *argv, "--format", fmt, "--timings")
        assert plain[0] == 0 and plain[2] == ""
        assert timed[:2] == plain[:2]
        lines = timed[2].splitlines()
        assert [line.split()[1] for line in lines] == list(nested.SATURATION_PHASES)
        assert all(line.startswith("timing ") and line.endswith(" s") for line in lines)
        assert all(float(line.split()[2]) >= 0 for line in lines)


def test_saturate_matches_benchmark_goldens():
    # The digests the benchmark's output gate checks at seed 0, for the
    # current schema.  A child process with one BLAS thread, as the benchmark
    # runs it: np.vdot's summation order depends on the thread count.
    with open(ROOT / "perfbench" / "goldens.json", encoding="utf-8") as fh:
        digests = json.load(fh)["saturate"][str(cli.SCHEMA_VERSION)]
    assert len(digests) == 2
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"
    )
    env.pop("QGRAIN_CONSTANTS", None)
    for key, digest in digests.items():
        proc = subprocess.run(
            [sys.executable, "-m", "qgrain.cli", *key.split(), "--seed", "0"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, key


def test_saturate_leaves_numpy_ma_unimported():
    # np.median and np.percentile import numpy.ma on first use, ~20 ms per
    # CLI call; the sweep's row statistics call neither.
    script = (
        "import contextlib, io, sys\n"
        "from qgrain import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['saturate', '--L', '64', '--n', '1..4', '--samples', '9'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"


@pytest.mark.parametrize("L", [2**63, 2**64, 2**641], ids=["2^63", "2^64", "2^641"])
def test_saturate_granularity_beyond_int64_exits_2(capsys, L):
    code, out, err = run_cli(capsys, "saturate", "--L", str(L), "--n", "1..2", "--samples", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "2^63" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--m", "1", "--n", "0", "--L", str(2**62)],
        ["pauli-verify", "--L", str(2**62)],
        ["saturate", "--L", str(2**62), "--n", "1..2", "--samples", "2"],
    ],
    ids=["encode", "pauli-verify", "saturate"],
)
def test_unallocatable_length_exits_2_as_memory_error(capsys, argv):
    # 2^62 is inside the int64 limit, so the first allocation is what fails,
    # and every command words that failure the same way.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: input too large for available memory: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_saturate_bad_range_exits_2(capsys):
    code, _, _ = run_cli(capsys, "saturate", "--L", "64", "--n", "5..2", "--samples", "5")
    assert code == 2


@pytest.mark.parametrize("n", ["1..", "..2", "1...3", "a..b", "1.5", ""])
def test_saturate_malformed_range_is_refused_by_the_parser(capsys, n):
    code, out, err = run_cli(capsys, "saturate", "--L", "8", "--n", n, "--samples", "2")
    assert (code, out) == (2, "")
    assert _error_lines(err) == 1 and f"argument --n: must be N or LO..HI, got {n}" in err
    assert "int()" not in err


def test_niven(capsys):
    code, out, _ = run_cli(capsys, "niven", "--cos", "1/2")
    assert code == 0 and out.strip() == "admissible"
    code, out, _ = run_cli(capsys, "niven", "--cos", "1/3")
    assert code == 0 and out.strip() == "not admissible"
    code, _, _ = run_cli(capsys, "niven", "--cos", "7/2")
    assert code == 2
    code, _, _ = run_cli(capsys, "niven", "--cos", "pi")
    assert code == 2


def test_uncertainty(capsys):
    code, out, _ = run_cli(capsys, "uncertainty", "--samples", "5000", "--seed", "1")
    assert code == 0
    assert out.strip() == "5000/5000 satisfied"


def test_uncertainty_full_sample(capsys):
    code, out, _ = run_cli(capsys, "uncertainty", "--samples", "100000", "--seed", "1")
    assert code == 0
    assert out.strip() == "100000/100000 satisfied"


def test_uncertainty_memory_is_bounded_in_samples():
    # Drawn in slices of 4096 samples whatever the count: no (samples x 3)
    # table, and no slice that widens with the count.
    for samples in ("100000", "1000000"):
        argv = ["uncertainty", "--samples", samples]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)  # first-call allocations out of the way
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2**20, f"uncertainty --samples {samples} peaked at {peak / 2**20:.2f} MiB"


def _peak_rss_mb(*argv: str) -> float:
    # ru_maxrss of one child, one BLAS thread as the benchmark runs it.
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"
    )
    env.pop("QGRAIN_CONSTANTS", None)
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, argv
    return usage.ru_maxrss / 1024  # KiB on Linux


def test_whole_process_peak_rss_stays_near_the_import_floor():
    # tracemalloc sees numpy's allocations but not page-level growth, so this
    # reads the number the benchmark reports: each command's peak RSS over
    # the imports it cannot avoid.
    cli_floor = _peak_rss_mb("-c", "import qgrain.cli")
    random_floor = _peak_rss_mb("-c", "import qgrain.cli, numpy.random")
    verify = _peak_rss_mb("-m", "qgrain.cli", "pauli-verify", "--L", "1048576")
    sample = _peak_rss_mb("-m", "qgrain.cli", "uncertainty", "--samples", "100000")
    assert verify - cli_floor <= 6, (verify, cli_floor)
    assert sample - random_floor <= 3, (sample, random_floor)


def test_reduce(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "--m", "3", "--n", "5", "--L", "8", "--to", "1"
    )
    assert code == 0
    assert out.strip() == "m=0 n=0 L=1"
    code, _, _ = run_cli(capsys, "reduce", "--m", "3", "--n", "5", "--L", "8", "--to", "16")
    assert code == 2


def test_csv_rejected_outside_saturate(capsys):
    code, _, err = run_cli(capsys, "niven", "--cos", "1/2", "--format", "csv")
    assert code == 2 and "csv" in err


# One cheap, successful invocation of each command.
_RUNS = {
    "capacity": ["capacity", "--mass", "1e-30", "--sep", "5e-9"],
    "encode": ["encode", "--m", "2", "--n", "0", "--L", "4"],
    "decode": ["decode", "--bits", "--++"],
    "pauli-verify": ["pauli-verify", "--L", "8"],
    "saturate": ["saturate", "--L", "32", "--n", "1..2", "--samples", "5"],
    "niven": ["niven", "--cos", "-1/2"],
    "uncertainty": ["uncertainty", "--samples", "100"],
    "reduce": ["reduce", "--m", "3", "--n", "5", "--L", "8", "--to", "2"],
}


def _refused_flags(command: str, constants: str) -> list[list[str]]:
    refused = []
    if command != "capacity":
        refused += [["--precision", "80"], ["--constants", constants]]
    if command != "saturate":
        refused.append(["--format", "csv"])
    return refused


@pytest.mark.parametrize("command", sorted(_RUNS))
def test_each_command_refuses_flags_it_does_not_read(capsys, tmp_path, command):
    constants = tmp_path / "c.txt"
    constants.write_text("precision = 80\n")
    for extra in _refused_flags(command, str(constants)):
        code, out, err = run_cli(capsys, *_RUNS[command], *extra)
        assert (code, out) == (2, ""), extra
        assert _error_lines(err) == 1, extra
    assert run_cli(capsys, *_RUNS[command], "--seed", "3")[0] == 0


@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5"])
@pytest.mark.parametrize("command", ["saturate", "uncertainty"])
def test_seed_outside_64_bits_exits_2(capsys, command, seed):
    code, out, err = run_cli(capsys, *_RUNS[command], "--seed", seed)
    assert (code, out) == (2, "")
    assert _error_lines(err) == 1 and "argument --seed:" in err
    assert "in [0, 2^64)" in err and "_seed" not in err


def test_readme_cli_lines_parse():
    # Parse, do not run: the README's saturate sweep alone takes seconds.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## CLI\n"):]
    block = section[section.index("```sh\n") + 6:]
    block = block[:block.index("```")]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    lines = [line for line in lines if line[:1] == ["qgrain"]]
    assert len(lines) >= 8
    parser = cli.build_parser()
    for line in lines:
        try:
            args = parser.parse_args(cli._merge_bits_value(line[1:]))
        except SystemExit:
            pytest.fail(f"README line does not parse: {' '.join(line)}")
        assert args.command == line[1]


def test_unknown_command_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", list(_RUNS.values()))
def test_every_command_emits_versioned_json(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == argv[0]


# sha256 of each README command's --format json stdout, with the sweep cut to
# --L 64 --n 1..6 --samples 9, plus a capacity whose L has 5,364 digits, past
# the 4,300-digit limit of int-to-str conversion, and both seeded commands at
# the largest seed, 2^64 - 1.
_JSON_SHA256 = {
    "capacity --mass 1e-30 --sep 5e-9":
        "88a413b0c36750c0b432b193c5a40bc8ca2c4a67b4839bae11f1eb9677b5544a",
    "capacity --mass 1e-30 --sep 5e-9 --qubits 640":
        "9d13ea1afe1551da9b324a018c588ab96f72740bdf092a3d0f1b983cc160636c",
    "capacity --mass 1e-500 --sep 5e-9":
        "103a9673e4be71fb25706528d1b9d5bdfdd0190bd627cbccf33dc7ba1a5823e7",
    "encode --m 2 --n 0 --L 4":
        "7aad46e62cc03d8ce39f4a1b40fb87cdc811236b2cae825d15fd7490497cfe6f",
    "decode --bits --++":
        "b1b00b57244c7d280ca1c2745a1e10be93b9dea3445f98f384b0c3a32dcab22a",
    "pauli-verify --L 1048576":
        "f60584004baa36ddad7ad6c408b3498a903c04ec92c9e28bc10e5902f0b3323b",
    "saturate --L 64 --n 1..6 --samples 9 --seed 7":
        "0c25820513cc6ab0eedfc006eda7cd980232ffbdd58766b616d6bb3a8519092d",
    "niven --cos 1/2":
        "9e3820d30844d85ed32d58fb35010bc9e9c6df86b3598b31bd3e614460e831f4",
    "uncertainty --samples 100000 --seed 1":
        "9a0021e6e14088c7f8555873c88dd8af3b5a2df89a630435c82264d46f8742a0",
    f"saturate --L 64 --n 1..6 --samples 9 --seed {2**64 - 1}":
        "cbad49ee429520f14380cd8f3dc29465c88ca27be79610225825ca6f3b40ab1d",
    f"uncertainty --samples 100000 --seed {2**64 - 1}":
        "b4f914f9a9af8e2bce914059fdeb67f2f1ad82959bb189dc68f5f3f85e80cf99",
    "reduce --m 3 --n 5 --L 8 --to 1":
        "ee9eb45d47a94900c62b94a8b3428e12d87854848b78b0f646ac1303eb17ac18",
}


@pytest.mark.parametrize("line", sorted(_JSON_SHA256))
def test_json_documents_keep_their_bytes(capsys, monkeypatch, line):
    monkeypatch.delenv("QGRAIN_CONSTANTS", raising=False)
    code, out, err = run_cli(capsys, *line.split(), "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _JSON_SHA256[line], out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qgrain.cli", "niven", "--cos", "1/2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "admissible"


_FLAGS = {
    "capacity": ["--mass", "--sep", "--qubits", "--radius"],
    "encode": ["--m", "--n", "--L"],
    "decode": ["--bits"],
    "pauli-verify": ["--L"],
    "saturate": ["--L", "--n", "--samples", "--timings"],
    "niven": ["--cos"],
    "uncertainty": ["--samples"],
    "reduce": ["--m", "--n", "--L", "--to"],
    "frobnicate": ["--L"],
}
_COMMON_FLAGS = ["--format", "--seed", "--precision", "--constants"]
_SWITCHES = {"--timings"}
_VALUES = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "4", "8", "-1", "-2", str(1 << 62)]),
    st.sampled_from(
        ["nan", "Infinity", "1e-500", "1/2", "1..3", "3..1", "..", "1..", "..2", "1...3",
         "a..b", "1..25", "--++", "+-+-", "+", "", ":", "4:--++", "3:--++", "+-:", "-:+"]
    ),
)
_FORMATS = st.sampled_from(["text", "json", "csv", "xml"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag in _FLAGS[command] + _COMMON_FLAGS:
        # Command flags are usually present so the commands run; common ones rarely.
        if draw(st.integers(0, 9)) < (8 if flag in _FLAGS[command] else 1):
            argv.append(flag)
            if flag not in _SWITCHES:
                argv.append(draw(_FORMATS if flag == "--format" else _VALUES))
    return argv


@settings(max_examples=200)
@given(_argv())
def test_generated_argv_keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
