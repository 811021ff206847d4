"""Golden CLI output: the exact circuit text and `--verify` line for fixed inputs.

Every case writes its state file at 17 significant digits and runs
`qprep3 synth` in-process. The concatenated output must equal
`tests/golden_cli.txt` byte for byte, so any change in an emitted digit,
gate order or branch choice shows up here.

After a deliberate output change, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import math
import os
import tempfile

import numpy as np

from qprep3.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.txt")

GENERAL = [["--verify"], ["--prepare", "--verify"]]
REAL = [["--real", "--verify"], ["--real", "--prepare", "--ry", "--verify"]]


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
    """(name, amplitudes, flag sets)."""
    r = 1.0 / math.sqrt(2.0)
    out = [
        ("ghz", _normalized([1, 0, 0, 0, 0, 0, 0, 1]), GENERAL + REAL + [["--ry", "--verify"]]),
        ("w", _normalized([0, 1, 1, 0, 1, 0, 0, 0]), GENERAL + REAL),
        ("rotated-product", _rotated_product(), GENERAL + [["--ry", "--verify"]]),
        ("one-bell", np.array([0, 0, 0, 0, r, 0, 0, r], dtype=np.complex128), GENERAL + REAL),
        ("delta-neg", np.array([1, 0, 0, -1, 0, 1, 1, 0], dtype=np.complex128) / 2.0, GENERAL + REAL),
        ("bell", np.array([r, 0, 0, r], dtype=np.complex128), GENERAL + REAL),
    ]
    for seed in range(3):
        out.append((f"haar-{seed}", _haar(seed, real=False), GENERAL))
    for seed in range(3):
        out.append((f"haar-real-{seed}", _haar(seed, real=True), GENERAL + REAL))
    return out


def render_all() -> str:
    chunks = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, amps, flag_sets in cases():
            path = os.path.join(tmp, f"{name}.txt")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines("%.17g %.17g\n" % (z.real, z.imag) for z in amps)
            for flags in flag_sets:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(["synth", path, *flags])
                chunks.append(f"=== {name}: synth {' '.join(flags)} -> exit {code}\n{buf.getvalue()}")
    return "".join(chunks)


def test_cli_output_matches_golden_file():
    with open(GOLDEN_PATH, encoding="utf-8", newline="\n") as fh:
        expected = fh.read()
    actual = render_all()
    assert actual.splitlines() == expected.splitlines()
    assert actual == expected


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_all())
