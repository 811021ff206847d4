"""CLI behavior: formats, flags, exit codes, determinism."""
import argparse
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from _oracles import argparse_cli_parser, dense_apply, w_under_locals
from qprep3.circuit import apply_circuit, format_number, parse_circuit
from qprep3.cli import _parse, main, parse_state_text
from qprep3.errors import SynthesisInvariantError
from qprep3.state import PureState3, basis_state, random_state
from qprep3.synth import disentangle3

GHZ_FILE = """\
# GHZ
0.7071067811865476 0
0 0
0 0
0 0
0 0
0 0
0 0
0.7071067811865476 0
"""

DELTA_NEG_FILE = """\
0.5 0
0 0
0 0
-0.5 0
0 0
0.5 0
0.5 0
0 0
"""

BASIS_FILE = "1 0\n" + "0 0\n" * 7

# real, delta ~ -1.2e-14: inside DELTA_ZERO_BAND but negative; near delta = 0
# real mode runs the flow beside the chain prefix, and keeps the prefix's
# 10 gates
DELTA_BAND_NEG_FILE = "".join(
    f"{x} 0\n"
    for x in (
        -0.11016575129041184, -0.14537163302430256, -0.41182964805712247, -0.16802829114784248,
        -0.8456147450497388, -0.22745400264124313, -0.04575791734471385, 0.00015015580590393204,
    )
)

COMPLEX_FILE = "0.7071067811865476 0\n" + "0 0\n" * 6 + "0 0.7071067811865476\n"

BELL_FILE = """\
0.7071067811865476 0
0 0
0 0
0.7071067811865476 0
"""


def write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content, encoding="utf-8")
    return str(p)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseStateText:
    def test_ghz(self):
        amps = parse_state_text(GHZ_FILE)
        assert len(amps) == 8
        assert amps[0].real == pytest.approx(1 / math.sqrt(2))

    def test_comments_and_blanks(self):
        amps = parse_state_text("1 0  # basis\n\n# note\n" + "0 0\n" * 3)
        assert len(amps) == 4

    def test_bad_pair(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_state_text("1\n")

    def test_bad_count(self):
        with pytest.raises(ValueError, match="4 or 8"):
            parse_state_text("1 0\n0 0\n")

    def test_17_digit_decimals_round_trip_exactly(self):
        from qprep3.state import random_state

        for i in range(50):
            amps = random_state((888, i)).amps
            text = "\n".join("%.17g %.17g" % (a.real, a.imag) for a in amps)
            assert np.array_equal(parse_state_text(text), amps)


class TestSynthCommand:
    def test_ghz_verify(self, tmp_path, capsys):
        path = write(tmp_path, "ghz.txt", GHZ_FILE)
        code, out, _ = run_cli(capsys, ["synth", path, "--verify"])
        assert code == 0
        status = out.strip().splitlines()[-1]
        assert status.startswith("cz=")
        fields = dict(kv.split("=") for kv in status.split())
        assert int(fields["cz"]) <= 3
        assert float(fields["fidelity"]) >= 1 - 1e-9

    def test_basis_state_has_no_cz_lines(self, tmp_path, capsys):
        path = write(tmp_path, "zero.txt", BASIS_FILE)
        code, out, _ = run_cli(capsys, ["synth", path])
        assert code == 0
        assert not [ln for ln in out.splitlines() if ln.startswith("CZ")]

    def test_real_mode_on_delta_negative(self, tmp_path, capsys):
        path = write(tmp_path, "tv.txt", DELTA_NEG_FILE)
        code, out, _ = run_cli(capsys, ["synth", path, "--real", "--verify"])
        assert code == 0
        status = out.strip().splitlines()[-1]
        fields = dict(kv.split("=") for kv in status.split())
        assert int(fields["cz"]) <= 3
        assert fields["all_real"] == "true"

    def test_real_mode_rejects_complex(self, tmp_path, capsys):
        path = write(tmp_path, "cx.txt", COMPLEX_FILE)
        code, _, err = run_cli(capsys, ["synth", path, "--real"])
        assert code == 2
        assert "real" in err

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "1 0\nbroken\n")
        code, out, err = run_cli(capsys, ["synth", path])
        assert code == 1
        assert out == ""  # no partial circuit
        assert "line 2" in err

    def test_norm_error_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "norm.txt", "0.5 0\n" + "0 0\n" * 7)
        code, out, err = run_cli(capsys, ["synth", path])
        assert code == 1 and out == ""

    def test_out_file_parses_and_simulates(self, tmp_path, capsys):
        path = write(tmp_path, "ghz.txt", GHZ_FILE)
        out_path = str(tmp_path / "circ.txt")
        code, out, _ = run_cli(capsys, ["synth", path, "--out", out_path, "--verify"])
        assert code == 0
        assert out.startswith("cz=")  # only the status line on stdout
        circ = parse_circuit(open(out_path, encoding="utf-8").read())
        ghz = PureState3(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))
        final = apply_circuit(circ, ghz)
        assert abs(final.amps[0]) >= 1 - 1e-9

    def test_prepare_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "ghz.txt", GHZ_FILE)
        code, out, _ = run_cli(capsys, ["synth", path, "--prepare"])
        assert code == 0
        circ = parse_circuit(out)
        produced = apply_circuit(circ, basis_state(3, 0))
        ghz = PureState3(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))
        assert abs(np.vdot(ghz.amps, produced.amps)) >= 1 - 1e-9

    def test_ry_lines_for_real_circuit(self, tmp_path, capsys):
        path = write(tmp_path, "tv.txt", DELTA_NEG_FILE)
        code, out, _ = run_cli(capsys, ["synth", path, "--real", "--ry"])
        assert code == 0
        n_local = len([ln for ln in out.splitlines() if ln.startswith("L ")])
        n_ry = len([ln for ln in out.splitlines() if ln.startswith("RY ")])
        assert n_ry == n_local > 0

    def test_ry_comment_for_complex_circuit(self, tmp_path, capsys):
        path = write(tmp_path, "cx.txt", COMPLEX_FILE)
        code, out, _ = run_cli(capsys, ["synth", path, "--ry"])
        assert code == 0
        if "RY " not in out:
            assert "# ry unavailable" in out

    def test_two_qubit_file(self, tmp_path, capsys):
        path = write(tmp_path, "bell.txt", BELL_FILE)
        code, out, _ = run_cli(capsys, ["synth", path, "--verify"])
        assert code == 0
        assert "qubits=2" in out.splitlines()[0]
        status = out.strip().splitlines()[-1]
        assert status.startswith("cz=1 ")

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, "ghz.txt", GHZ_FILE)
        _, out1, _ = run_cli(capsys, ["synth", path, "--verify", "--ry"])
        _, out2, _ = run_cli(capsys, ["synth", path, "--verify", "--ry"])
        assert out1.encode() == out2.encode()


def _near_zero_state_file() -> str:
    """|000> + 1e-8 * complex Gaussian noise, renormalized, at 17 digits."""
    rng = np.random.default_rng(0)
    v = np.zeros(8, dtype=np.complex128)
    v[0] = 1.0
    v = v + 1e-8 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    v /= np.linalg.norm(v)
    return "".join("%.17g %.17g\n" % (z.real, z.imag) for z in v)


def _flow_state_file() -> str:
    """A W state under local gates at 17 digits: its discriminant is 0, so
    synthesis runs the flow, then the chain prefix (a Haar state takes the
    prefix alone, and GHZ, a chain, the finisher alone)."""
    return "".join("%.17g %.17g\n" % (z.real, z.imag) for z in PureState3(w_under_locals(7)).w)


# every attempt builds its first gate with mat2.u_from_pair, so the flow
# and the chain prefix both fail, and the flow's error, the first, is raised;
# the child runs ARGV through RUN, `main` or `entry`
FAILING_GATE_CHILD = """
import sys
import qprep3.cli
import qprep3.synth
from qprep3.errors import ZeroPairError

def failing(*_):
    raise ZeroPairError("u_from_pair requires a nonzero pair")

qprep3.synth.u_from_pair = failing
if RUN == "main":
    raise SystemExit(qprep3.cli.main(ARGV))
sys.argv[1:] = ARGV
qprep3.cli.entry()
"""


def _failing_gate_child(argv, run):
    return _run_python(["-c", f"ARGV = {argv!r}\nRUN = {run!r}\n" + FAILING_GATE_CHILD])


class TestSynthErrorContract:
    def test_library_error_exits_3_with_trace(self, tmp_path):
        # a library error inside the synthesis (not an invariant failure)
        # still follows the exit-3 contract: trace on stderr, no traceback
        path = write(tmp_path, "w.txt", _flow_state_file())
        proc = _failing_gate_child(["synth", path, "--verify"], "main")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "branch trace: pencil\n" in proc.stderr
        assert proc.stdout == ""

    def test_near_zero_state_synthesizes(self, tmp_path, capsys):
        # |000> + 1e-8 noise, which once failed in l1 with exit 3
        path = write(tmp_path, "near000.txt", _near_zero_state_file())
        code, out, err = run_cli(capsys, ["synth", path, "--verify"])
        assert code == 0 and err == ""
        *gates, status = out.splitlines()
        circ = parse_circuit("\n".join(gates))
        amps = parse_state_text(_near_zero_state_file())
        assert abs(dense_apply(circ, amps)[0]) >= 1 - 1e-9
        assert status.startswith(f"cz={circ.cz_count} ") and circ.cz_count <= 3

    def test_failed_final_check_exits_3_with_trace(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("qprep3.synth.FID_MIN", 1.5)
        path = write(tmp_path, "w.txt", _flow_state_file())
        code, out, err = run_cli(capsys, ["synth", path, "--verify"])
        assert code == 3 and out == ""
        assert "error: SynthesisInvariantError: final fidelity " in err
        assert "branch trace: pencil > " in err

    def test_failed_final_check_prints_the_state_as_synthesized(self, tmp_path, capsys, monkeypatch):
        # the file is 1e-8 off unit norm, so the printed state is the
        # renormalized one, and it reads back bit for bit
        monkeypatch.setattr("qprep3.synth.FID_MIN", 1.5)
        text = "".join("%.17g %.17g\n" % (z.real * (1 + 1e-8), z.imag) for z in random_state((7, 0)).w)
        path = write(tmp_path, "off-norm.txt", text)
        code, out, err = run_cli(capsys, ["synth", path, "--verify"])
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert lines[1].startswith("branch trace: ")
        assert lines[2] == "# state as synthesized, after renormalization:"
        replayed = parse_state_text("\n".join(lines[2:]))
        synthesized = PureState3(parse_state_text(text)).w
        assert [(z.real.hex(), z.imag.hex()) for z in replayed] == [(z.real.hex(), z.imag.hex()) for z in synthesized]
        assert replayed != parse_state_text(text)

    def test_sweep_counts_library_errors_as_violations(self, capsys, monkeypatch):
        import qprep3.cli as cli
        from qprep3.errors import NonSingularInputError

        def failing(_state, _mode):
            raise NonSingularInputError("l1 requires det = 0", ["detB0=0"])

        monkeypatch.setattr(cli, "disentangle", failing)
        code, out, err = run_cli(capsys, ["sweep", "--n", "2", "--seed", "1"])
        assert code == 3
        assert "violations        2" in out
        assert "sample 0: NonSingularInputError: l1 requires det = 0" in err


class TestDeltaCommand:
    def test_ghz(self, tmp_path, capsys):
        path = write(tmp_path, "ghz.txt", GHZ_FILE)
        code, out, _ = run_cli(capsys, ["delta", path])
        assert code == 0
        (value,) = out.split()
        assert float(value.partition("=")[2]) == pytest.approx(0.25, abs=1e-15)

    def test_negative_vector(self, tmp_path, capsys):
        path = write(tmp_path, "tv.txt", DELTA_NEG_FILE)
        code, out, _ = run_cli(capsys, ["delta", path])
        assert code == 0
        assert out.strip() == "delta=-0.25"

    def test_zero_band(self, tmp_path, capsys):
        path = write(tmp_path, "zero.txt", BASIS_FILE)
        code, out, _ = run_cli(capsys, ["delta", path])
        assert code == 0
        assert out.strip() == "delta~0"

    def test_negative_zero_band_has_bound_3(self, tmp_path, capsys):
        path = write(tmp_path, "band.txt", DELTA_BAND_NEG_FILE)
        code, out, _ = run_cli(capsys, ["delta", path])
        assert code == 0
        assert out.strip() == "delta~0"
        # real mode runs the flow and the prefix here, and meets the bound of 3 CZ
        code, out, _ = run_cli(capsys, ["synth", path, "--real", "--verify"])
        assert code == 0
        assert out.splitlines()[-1].startswith("cz=3 ")

    def test_complex_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "cx.txt", COMPLEX_FILE)
        code, _, _ = run_cli(capsys, ["delta", path])
        assert code == 2


class TestSweepCommand:
    def test_general_sweep(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--n", "60", "--seed", "3"])
        assert code == 0
        assert "violations        0" in out
        hist_keys = _hist_keys(out)
        assert hist_keys and hist_keys <= {0, 1, 2, 3}

    def test_real_sweep(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--n", "60", "--seed", "3", "--real", "--machine"])
        assert code == 0
        assert _hist_keys(out) <= {0, 1, 2, 3}
        assert "delta<0 fraction" in out
        assert "max gate imag     0\n" in out
        machine = [ln for ln in out.splitlines() if ln.startswith("machine ")]
        assert len(machine) == 1 and "violations=0" in machine[0]

    def test_real_sweep_keeps_a_nan_gate_imag(self, capsys, monkeypatch):
        # one sample of three reads NaN: the maximum must keep it wherever it
        # comes (max(0.0, nan) would drop it)
        reads = iter([0.0, math.nan, 0.0])
        monkeypatch.setattr("qprep3.circuit.Circuit.max_local_imag", lambda c: next(reads))
        code, out, _ = run_cli(capsys, ["sweep", "--n", "3", "--seed", "3", "--real", "--machine"])
        assert code == 0
        assert "max gate imag     nan\n" in out
        assert " max_gate_imag=nan " in out

    def test_real_sweep_counts_delta_negative_samples(self, capsys):
        # delta computed here from the amplitudes, apart from the package
        n = 40
        for seed in (5, 1):
            negative = 0
            for i in range(n):
                w = random_state((seed, i), real_only=True).amps.real
                s1 = w[0] * w[7] - w[1] * w[6] - w[2] * w[5] + w[3] * w[4]
                negative += s1 * s1 - 4.0 * (w[1] * w[2] - w[0] * w[3]) * (w[5] * w[6] - w[4] * w[7]) < 0.0
            assert 0 < negative < n
            code, out, _ = run_cli(capsys, ["sweep", "--n", str(n), "--seed", str(seed), "--real", "--machine"])
            assert code == 0
            assert f" delta_negative_fraction={format_number(negative / n)} " in out
            assert f" cz_hist=3:{n} " in out

    def test_deterministic(self, capsys):
        args = ["sweep", "--n", "25", "--seed", "11", "--real"]
        _, out1, _ = run_cli(capsys, args)
        _, out2, _ = run_cli(capsys, args)
        assert out1.encode() == out2.encode()

    def test_single_sample(self, capsys):
        args = ["sweep", "--n", "1", "--seed", "0"]
        code1, out1, _ = run_cli(capsys, args)
        code2, out2, _ = run_cli(capsys, args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_min_fidelity_not_clamped_at_one(self, capsys):
        # the one sample's fidelity is 1.0000000000000004, above 1: a minimum
        # that starts at 1.0 would print "1"
        fid = format_number(disentangle3(random_state((0, 0))).fidelity)
        code, out, _ = run_cli(capsys, ["sweep", "--n", "1", "--seed", "0", "--machine"])
        assert code == 0
        assert f"min fidelity      {fid}\n" in out
        assert f" min_fidelity={fid} " in out

    def test_min_fidelity_none_without_successes(self, capsys, monkeypatch):
        def fail(s, mode):
            raise SynthesisInvariantError("forced")

        monkeypatch.setattr("qprep3.cli.disentangle", fail)
        code, out, _ = run_cli(capsys, ["sweep", "--n", "2", "--seed", "0", "--machine"])
        assert code == 3
        assert "min fidelity      none\n" in out
        assert " min_fidelity=none " in out


def _hist_keys(out: str) -> set[int]:
    keys = set()
    active = False
    for line in out.splitlines():
        if line.startswith("cz histogram"):
            active = True
        elif active and not line.startswith(" "):
            break
        if active:
            keys.add(int(line.split()[-2].rstrip(":")))
    return keys


def _run_python(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    # buffered stdout, as a user gets by default; a test that wants it
    # unbuffered passes -u
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=stderr, text=True, env=env, **kwargs)


def _run_module(argv):
    return _run_python(["-m", "qprep3", *argv])


def _bytes_file(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return str(p)


@pytest.mark.parametrize(
    "argv, msg",
    [
        (lambda tmp: ["synth", str(tmp / "missing.txt")], "No such file"),
        (lambda tmp: ["synth", str(tmp)], "Is a directory"),
        (lambda tmp: ["delta", _bytes_file(tmp, "latin1.txt", b"0.5 0\n\xff\xfe 0\n")], "can't decode"),
        (
            lambda tmp: ["synth", write(tmp, "ghz.txt", GHZ_FILE), "--out", str(tmp / "no-such-dir" / "c.txt")],
            "No such file",
        ),
        (lambda tmp: ["delta", write(tmp, "bell.txt", BELL_FILE)], "delta requires a 3-qubit state file"),
        (lambda tmp: ["sweep", "--n", "0", "--seed", "1"], "--n must be at least 1"),
        (lambda tmp: ["sweep", "--n", "1", "--seed", "-1"], "--seed must be nonnegative"),
    ],
    ids=["missing-file", "directory", "non-utf8", "out-missing-dir", "delta-2-qubit", "n-0", "seed-negative"],
)
def test_input_errors_exit_1_with_one_error_line(tmp_path, capsys, argv, msg):
    code, _, err = run_cli(capsys, argv(tmp_path))
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and msg in lines[0]


def test_empty_out_path_exits_1_with_one_error_line(tmp_path, capsys):
    # an empty --out path cannot be written; it is not stdout
    path = write(tmp_path, "ghz.txt", GHZ_FILE)
    code, out, err = run_cli(capsys, ["synth", path, "--out="])
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_closed_stdout_exits_1_with_one_error_line(tmp_path):
    # stdout is a pipe whose reader is gone, as after `| head -c 1`: the
    # output cannot be written, which is exit 1, and no traceback
    path = write(tmp_path, "ghz.txt", GHZ_FILE)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_python(["-m", "qprep3", "synth", path, "--verify"], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("buffering", [[], ["-u"]], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["synth", write(tmp, "ghz.txt", GHZ_FILE), "--verify"],
        lambda tmp: ["sweep", "--n", "3", "--seed", "1"],
    ],
    ids=["synth", "sweep"],
)
def test_full_stdout_exits_1_with_one_error_line(tmp_path, argv, buffering):
    # every write to /dev/full fails with ENOSPC: unbuffered in the command's
    # own write, buffered in the flush after it; either way exit 1, no traceback
    with open("/dev/full", "w") as full:
        proc = _run_python([*buffering, "-m", "qprep3", *argv(tmp_path)], stdout=full)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "No space left" in lines[0]


def test_stdout_closed_at_start_exits_1_with_one_error_line(tmp_path):
    # fd 1 closed at start leaves sys.stdout None: a command that writes to
    # it fails as on any stdout that cannot be written, and one that writes
    # only a file succeeds
    ghz = write(tmp_path, "ghz.txt", GHZ_FILE)
    out = tmp_path / "c.txt"
    for argv, code in [(["synth", ghz, "--verify"], 1), (["synth", ghz, "--out", str(out)], 0)]:
        proc = _run_python(["-m", "qprep3", *argv], stdout=None, preexec_fn=lambda: os.close(1))
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert lines == (["error: [Errno 9] Bad file descriptor"] if code else [])
    assert out.read_text(encoding="utf-8").startswith("# qprep3 v1 ")


# the child runs ARGV through entry() with a hook that reports on stdout any
# exception that escapes it
ESCAPE_HOOK_CHILD = """
import sys
import qprep3.cli
sys.excepthook = lambda kind, *_: print("escaped:", kind.__name__)
if CLOSE_STDERR:
    sys.stderr = None
sys.argv[1:] = ARGV
qprep3.cli.entry()
"""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("buffering", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_stderr_that_cannot_be_written_exits_1(tmp_path, buffering):
    # the error line for a missing file cannot be written: entry ends the
    # run itself with code 1, and no exception escapes it, whether stderr is
    # a full device or was closed at start (then None)
    argv = ["synth", str(tmp_path / "missing.txt")]
    with open("/dev/full", "w") as full:
        proc = _run_python([*buffering, "-m", "qprep3", *argv], stderr=full)
        assert (proc.returncode, proc.stdout) == (1, "")
        for close in (False, True):
            child = f"ARGV = {argv!r}\nCLOSE_STDERR = {close}\n" + ESCAPE_HOOK_CHILD
            proc = _run_python([*buffering, "-c", child], stderr=full)
            assert (proc.returncode, proc.stdout) == (1, "")


@pytest.mark.parametrize("command, flags", [("synth", ["--verify"]), ("delta", [])])
def test_byte_order_mark_is_skipped(tmp_path, capsys, command, flags):
    # a file that starts with a UTF-8 BOM reads as the same file without it
    plain = write(tmp_path, "plain.txt", DELTA_NEG_FILE)
    bom = _bytes_file(tmp_path, "bom.txt", b"\xef\xbb\xbf" + DELTA_NEG_FILE.encode("utf-8"))
    code, out, err = run_cli(capsys, [command, plain, *flags])
    assert (code, err) == (0, "")
    assert run_cli(capsys, [command, bom, *flags]) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [[], ["synth"], ["sweep", "--n", "x", "--seed", "1"], ["synth", "state.txt", "--bogus"]],
    ids=["no-command", "synth-no-file", "sweep-n-not-int", "unknown-flag"],
)
def test_usage_errors_exit_2_with_usage(argv):
    # the argv parser rejects these before any command runs: exit 2, the
    # usage of the (sub)command and one error line
    proc = _run_module(argv)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[0].startswith("usage: qprep3")
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv, code",
    [
        (lambda tmp: ["synth", write(tmp, "ghz.txt", GHZ_FILE), "--verify"], 0),
        (lambda tmp: ["synth", write(tmp, "neg.txt", DELTA_NEG_FILE), "--real", "--prepare", "--ry", "--verify"], 0),
        (lambda tmp: ["synth", write(tmp, "ghz.txt", GHZ_FILE), "--out", str(tmp / "c.txt"), "--verify"], 0),
        (lambda tmp: ["synth", write(tmp, "complex.txt", COMPLEX_FILE), "--real"], 2),
        (lambda tmp: ["synth", str(tmp / "missing.txt")], 1),
        (lambda tmp: ["--help"], 0),
    ],
    ids=["synth-verify", "real-prepare-ry", "out", "real-on-complex", "missing-file", "help"],
)
def test_module_entry_point(tmp_path, capsys, argv, code):
    # `python -m qprep3` ends with os._exit after flushing stdout and stderr
    # itself: it writes the same bytes and exits with the same code as main
    argv = argv(tmp_path)
    out_path = tmp_path / "c.txt"
    proc = _run_module(argv)
    written = out_path.read_bytes() if out_path.exists() else None
    try:
        in_process = main(argv)
    except SystemExit as exc:  # argparse's exit, for --help
        in_process = exc.code
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (in_process, captured.out, captured.err)
    assert proc.returncode == code and (proc.stdout or proc.stderr)
    if written is not None:
        assert written == out_path.read_bytes() and written.startswith(b"# qprep3 v1 ")


def test_entry_exits_3_as_main_does(tmp_path):
    # a synthesis error through entry(): the same exit 3, trace and state
    # dump as through main, flushed before the process ends
    path = write(tmp_path, "w.txt", _flow_state_file())
    by_entry, by_main = (_failing_gate_child(["synth", path, "--verify"], run) for run in ("entry", "main"))
    assert (by_entry.returncode, by_entry.stdout, by_entry.stderr) == (3, "", by_main.stderr)
    assert by_main.returncode == 3 and "branch trace: pencil\n" in by_entry.stderr


NO_NUMPY_CHILD = """
import sys
before = set(sys.modules)
import qprep3.cli
codes = [qprep3.cli.main(argv) for argv in ARGVS]
assert codes == [0, 0, 0], codes
added = set(sys.modules) - before
parser_modules = {"argparse", "gettext", "locale", "encodings.utf_8_sig"}
assert not added & parser_modules, sorted(added & parser_modules)
assert "numpy" not in sys.modules, "synth/delta imported numpy"
assert "dataclasses" not in sys.modules, "synth/delta imported dataclasses"
assert "inspect" not in sys.modules, "synth/delta imported inspect"
import numpy as np
from qprep3 import random_state
amps = random_state(1).amps
assert isinstance(amps, np.ndarray) and amps.dtype == np.complex128, type(amps)
assert not amps.flags.writeable
"""


def test_synth_and_delta_never_import_numpy(tmp_path):
    ghz = write(tmp_path, "ghz.txt", GHZ_FILE)
    neg = write(tmp_path, "neg.txt", DELTA_NEG_FILE)
    argvs = [
        ["synth", ghz, "--verify"],
        ["synth", ghz, "--real", "--prepare", "--ry", "--verify"],
        ["delta", neg],
    ]
    proc = _run_python(["-c", f"ARGVS = {argvs!r}\n" + NO_NUMPY_CHILD])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("cz=") == 2 and "delta=" in proc.stdout


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    # the installed console script calls main() with no argv
    path = write(tmp_path, "neg.txt", DELTA_NEG_FILE)
    monkeypatch.setattr(sys, "argv", ["qprep3", "delta", path])
    assert run_cli(capsys, None) == (0, "delta=-0.25\n", "")


# argvs that the CLI reads without importing argparse: a command, its
# switches and its positionals
EXACT_FORMS = [
    ["synth", "f", "--verify"],
    ["synth", "f", "--real", "--prepare", "--ry", "--verify"],
    ["delta", "f"],
]
# argvs with a valued option, which argparse reads
VALUED_FORMS = [
    ["synth", "f", "--out", "c.txt", "--verify"],
    ["sweep", "--n", "3", "--seed", "1", "--real", "--machine"],
    ["sweep", "--seed", "0", "--n", "1"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "s.txt"],
        ["synth", "--real", "s.txt", "--verify"],
        ["synth", "s.txt", "--prepare", "--ry", "--real", "--verify"],
        ["synth", "s.txt", "--out=c.txt"],
        ["synth", "--out", "c.txt", "s.txt"],
        ["synth", "s.txt", "--out="],
        ["synth", "s.txt", "--ver"],
        ["synth", "--pre", "s.txt", "--ou=c.txt", "--ve"],
        ["synth", "--out", "-1", "-"],
        ["synth", "--", "-s.txt"],
        ["synth", "s.txt", "--real", "--real", "--out", "a", "--out", "b"],
        ["sweep", "--n", "5", "--seed=1"],
        ["sweep", "--seed", "-1", "--n=0", "--real", "--mach"],
        ["sweep", "--n", "1", "--seed", "1", "--r"],
        ["sweep", "--n", " 7", "--seed", "+3", "--n", "2"],
        ["delta", "s.txt"],
        ["delta", "-a file.txt"],
        ["synth", "--out", "-c d.txt", "s.txt"],
        *EXACT_FORMS,
        *VALUED_FORMS,
    ],
)
def test_accepted_argv_reads_as_argparse_reads_it(argv):
    assert vars(_parse(argv)) == vars(argparse_cli_parser().parse_args(argv))


EXACT_FORM_CHILD = """
import sys
from qprep3.cli import _parse
parser_modules = {"argparse", "gettext", "locale"}
for argv in EXACT_FORMS:
    _parse(argv)
    assert not parser_modules & set(sys.modules), (argv, sorted(parser_modules & set(sys.modules)))
assert vars(_parse(["synth", "f", "--ver"])) == vars(_parse(["synth", "f", "--verify"]))
for argv in VALUED_FORMS:
    for name in parser_modules:
        sys.modules.pop(name, None)
    _parse(argv)
    assert {"argparse", "gettext"} <= set(sys.modules), argv
"""


def test_exact_forms_are_read_without_argparse():
    # an abbreviation or a valued option is read by argparse, as the full
    # switch and the positionals are without it
    forms = f"EXACT_FORMS = {EXACT_FORMS!r}\nVALUED_FORMS = {VALUED_FORMS!r}\n"
    proc = _run_python(["-c", forms + EXACT_FORM_CHILD])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["synth"],
        ["delta"],
        ["sweep"],
        ["sweep", "--seed", "1"],
        ["sweep", "--n", "x", "--seed", "1"],
        ["sweep", "--n", "1.5", "--seed", "1"],
        ["synth", "s.txt", "--bogus"],
        ["--bogus", "synth", "s.txt"],
        ["synth", "s.txt", "extra"],
        ["synth", "s.txt", "--out"],
        ["synth", "--out", "--real", "s.txt"],
        ["synth", "s.txt", "--r"],
        ["synth", "s.txt", "--real=1"],
        ["synth", "s.txt", "--help=x"],
    ],
)
def test_rejected_argv_exits_2_as_argparse_does(capsys, monkeypatch, argv):
    # argparse wraps its usage to the terminal; the CLI's usage is fixed at
    # the width of an 80-column one
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as ours:
        main(argv)
    out, err = capsys.readouterr()
    with pytest.raises(SystemExit) as reference:
        argparse_cli_parser().parse_args(argv)
    _, expected = capsys.readouterr()
    assert ours.value.code == reference.value.code == 2 and out == ""
    assert err.splitlines()[0] == expected.splitlines()[0]
    assert err.splitlines()[0].startswith("usage: qprep3")
    # the same program prefix on the error line, which ends the output
    assert err.splitlines()[-1].partition(": error: ")[0] == expected.splitlines()[-1].partition(": error: ")[0]


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, "synth", "sweep", "delta"])
def test_help_shows_the_usage_and_every_flag(capsys, monkeypatch, command, flag):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [flag] if command is None else [command, flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    parser = argparse_cli_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if command is not None:
        parser = commands.choices[command]
    assert out.split("\n\n")[0] + "\n" == parser.format_usage()
    formatter = parser._get_formatter()
    rows = [(formatter._format_action_invocation(a), a.help) for a in parser._actions if a.help]
    if command is None:
        rows += [(a.dest, a.help) for a in commands._choices_actions]
    flat = " ".join(out.split())
    for invocation, text in rows:
        assert f" {invocation} {' '.join(text.split())} " in f" {flat} "
