"""Golden CLI output: the exact text of `synth`, `delta` and `sweep` for fixed inputs.

Every file case writes its state file at 17 significant digits and runs its
commands on it in-process; the sweeps run on fixed seeds. Each entry records
the exit code and stdout, and stderr when there is any. The concatenated
output must equal `tests/golden_cli.txt` byte for byte, so any change in an
emitted digit, gate order, branch choice, summary line or error message shows
up here.

A second check hashes the library output for a few hundred seeded Haar
states and for 300 seeded near-degenerate draws of test_degenerate's
families, which take the screened route, in general mode and, on the real
draws, in real mode (`SEEDED_SHA256`), to pin byte-identity beyond the
golden cases. A third
hashes only their structure, the cz count, realness and branch trace of each
run (`SEEDED_STRUCTURE_SHA256`); a change to emitted numbers or gate lists
that keeps every branch decision leaves it as it is.

After a deliberate output change, regenerate the file and print both new
digests with

    PYTHONPATH=src python tests/test_golden.py

It also counts the golden lines that changed, and those that changed in
more than a sign of zero (a `-0` token where the old line has `0`, or the
reverse).
"""
import contextlib
import hashlib
import io
import math
import os
import tempfile
from functools import partial

import numpy as np

from test_degenerate import instances
from qprep3.circuit import emit_circuit
from qprep3.cli import main
from qprep3.errors import Qprep3Error
from qprep3.state import PureState3, random_state, random_state2
from qprep3.synth import disentangle, prepare

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.txt")

GENERAL = [["synth", "--verify"], ["synth", "--prepare", "--verify"]]
REAL = [["synth", "--real", "--verify"], ["synth", "--real", "--prepare", "--ry", "--verify"]]
RY = [["synth", "--ry", "--verify"]]
DELTA = [["delta"]]
# complex input where real amplitudes are required: exit 2
REAL_ON_COMPLEX = [["synth", "--real"], ["synth", "--real", "--prepare", "--verify"]]
SWEEPS = [
    ["sweep", "--n", "40", "--seed", str(seed), *real, "--machine"]
    for seed in (1, 2)
    for real in ([], ["--real"])
]


def _normalized(v):
    v = np.asarray(v, dtype=np.complex128)
    return v / np.linalg.norm(v)


def _kron(*factors):
    out = np.ones(1, dtype=np.complex128)
    for f in factors:
        out = np.kron(out, f)
    return out


def _haar(seed, real):
    rng = np.random.default_rng([seed, 700])
    v = rng.standard_normal(8).astype(np.complex128)
    if not real:
        v += 1j * rng.standard_normal(8)
    return _normalized(v)


def _rotated_product():
    rng = np.random.default_rng(701)
    return _kron(*[_normalized(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(3)])


def cases():
    """(name, amplitudes, commands): each command is a subcommand and its flags."""
    r = 1.0 / math.sqrt(2.0)
    ghz = _normalized([1, 0, 0, 0, 0, 0, 0, 1])
    delta_neg = np.array([1, 0, 0, -1, 0, 1, 1, 0], dtype=np.complex128) / 2.0
    out = [
        ("ghz", ghz, GENERAL + REAL + RY),
        ("w", _normalized([0, 1, 1, 0, 1, 0, 0, 0]), GENERAL + REAL),
        ("rotated-product", _rotated_product(), GENERAL + RY),
        ("one-bell", np.array([0, 0, 0, 0, r, 0, 0, r], dtype=np.complex128), GENERAL + REAL),
        ("delta-neg", delta_neg, GENERAL + REAL),
        ("bell", np.array([r, 0, 0, r], dtype=np.complex128), GENERAL + REAL),
    ]
    for seed in range(3):
        out.append((f"haar-{seed}", _haar(seed, real=False), GENERAL))
    for seed in range(3):
        out.append((f"haar-real-{seed}", _haar(seed, real=True), GENERAL + REAL))
    out += [
        ("ghz", ghz, DELTA),
        ("delta-neg", delta_neg, DELTA),
        ("haar-0", _haar(0, real=False), DELTA + REAL_ON_COMPLEX),
        ("bell-phase", np.array([r, 0, 0, 1j * r], dtype=np.complex128), REAL_ON_COMPLEX),
    ]
    return out


def _render(argv, header) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    chunk = f"=== {header} -> exit {code}\n{out.getvalue()}"
    if err.getvalue():
        chunk += f"--- stderr\n{err.getvalue()}"
    return chunk


def render_all() -> str:
    chunks = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, amps, commands in cases():
            path = os.path.join(tmp, f"{name}.txt")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines("%.17g %.17g\n" % (z.real, z.imag) for z in amps)
            for command, *flags in commands:
                chunks.append(_render([command, path, *flags], f"{name}: {' '.join([command, *flags])}"))
    for argv in SWEEPS:
        chunks.append(_render(argv, " ".join(argv)))
    return "".join(chunks)


def _draws(make, count):
    return lambda: [(i, make(i)) for i in range(count)]


def _screened(real_only):
    """(index, state) of the first 300 draws of test_degenerate._instance
    from rng 794, near-degenerate inputs the route screens: every draw, or
    the real ones only."""
    draws = enumerate(instances(794, 300))
    return [(i, PureState3(v)) for i, (_, real, v) in draws if real or not real_only]


# (label, library call, include_ry, maker of the (index, state) pairs it runs on)
SEEDED = [
    ("general", disentangle, False, _draws(lambda i: random_state((790, i)), 100)),
    ("real", partial(disentangle, mode="real"), False, _draws(lambda i: random_state((791, i), real_only=True), 75)),
    ("real-prepare", partial(prepare, mode="real"), True, _draws(lambda i: random_state((792, i), real_only=True), 75)),
    ("two-qubit", prepare, False, _draws(lambda i: random_state2((793, i)), 50)),
    ("screened", disentangle, False, partial(_screened, False)),
    ("screened-real", partial(disentangle, mode="real"), False, partial(_screened, True)),
]
SEEDED_SHA256 = "a9543e2d104602279ed0c7b72eb6ded98d9bb84f638ec03c8d99626bc27e60f0"
SEEDED_STRUCTURE_SHA256 = "0bce567ae7a85fb026d125fba54b5d114d5a634c3873fda66df678e0368aa83e"


def _seeded_outcomes():
    """(header, include_ry, report or the Qprep3Error raised) of every SEEDED run."""
    out = []
    for label, run, include_ry, states in SEEDED:
        for i, s in states():
            try:
                res = run(s)
            except Qprep3Error as exc:
                res = exc
            out.append((f"=== {label} {i}\n", include_ry, res))
    return out


def render_seeded() -> str:
    """Emitted text and status fields of every SEEDED run, one block per state."""
    chunks = []
    for head, include_ry, res in _seeded_outcomes():
        if isinstance(res, Qprep3Error):
            chunks.append(f"{head}error {type(res).__name__}: {res} trace={res.branch_trace}\n")
            continue
        chunks.append(
            f"{head}cz={res.cz_count} real={res.all_real} fid={res.fidelity!r} trace={list(res.branch_trace)}\n"
            + emit_circuit(res.circuit, include_ry=include_ry)
        )
    return "".join(chunks)


def render_structure() -> str:
    """The cz count, realness and branch trace of every SEEDED run (no numbers)."""
    chunks = []
    for head, _, res in _seeded_outcomes():
        if isinstance(res, Qprep3Error):
            chunks.append(f"{head}error {type(res).__name__} trace={res.branch_trace}\n")
        else:
            chunks.append(f"{head}cz={res.cz_count} real={res.all_real} trace={list(res.branch_trace)}\n")
    return "".join(chunks)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_seeded_output_digest():
    assert _sha256(render_seeded()) == SEEDED_SHA256


def test_seeded_structure_digest():
    assert _sha256(render_structure()) == SEEDED_STRUCTURE_SHA256


def test_cli_output_matches_golden_file():
    with open(GOLDEN_PATH, encoding="utf-8", newline="\n") as fh:
        expected = fh.read()
    actual = render_all()
    assert actual.splitlines() == expected.splitlines()
    assert actual == expected


def _zero_sign_blind(line: str) -> str:
    return " ".join("0" if tok == "-0" else tok for tok in line.split(" "))


if __name__ == "__main__":
    with open(GOLDEN_PATH, encoding="utf-8", newline="\n") as fh:
        old = fh.read().splitlines()
    new = render_all()
    with open(GOLDEN_PATH, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(new)
    new = new.splitlines()
    changed = [(a, b) for a, b in zip(old, new) if a != b]
    beyond = sum(_zero_sign_blind(a) != _zero_sign_blind(b) for a, b in changed)
    print(f"golden lines: {len(old)} -> {len(new)}, changed: {len(changed)}, beyond a sign of zero: {beyond}")
    print(f"SEEDED_SHA256 = {_sha256(render_seeded())!r}")
    print(f"SEEDED_STRUCTURE_SHA256 = {_sha256(render_structure())!r}")
