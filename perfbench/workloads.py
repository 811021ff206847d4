"""Workload inputs (made from the seed only) and the operations that drive qprep3.

Every operation goes through the public API (`qprep3.<name>`, looked up at
call time so the tracer's wrappers are seen) or through the `qprep3` CLI in a
fresh interpreter. `call` is the timed part; `verify` checks its result with
the independent oracle outside the timed region.
"""
import math
import os
import re
import subprocess
from dataclasses import dataclass, field

import numpy as np

import oracle

GHZ = np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=np.complex128) / math.sqrt(2.0)
W = np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=np.complex128) / math.sqrt(3.0)


@dataclass
class Op:
    kind: str  # "d3", "d3r", "prep_text" or "cli"
    amps: np.ndarray
    mode: str = "general"  # CZ bound and realness rules the oracle applies
    family: str = ""
    argv: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return 2 if len(self.amps) == 4 else 3


@dataclass
class Result:
    reason: object  # oracle rejection or failure class, None when verified
    key: str  # exact text of the output, for the digest and later-pass comparison
    cz: int = 0
    gates: int = 0


# --- input generation --------------------------------------------------------


def _normalized(v):
    return v / np.linalg.norm(v)


def _gaussian(rng, length, real):
    v = rng.standard_normal(length).astype(np.complex128)
    if not real:
        v += 1j * rng.standard_normal(length)
    return v


def _local_unitary(rng, real):
    if real:
        t = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=np.complex128)
    q, r = np.linalg.qr(_gaussian(rng, 4, False).reshape(2, 2))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotate(rng, v, real):
    u = np.kron(_local_unitary(rng, real), np.kron(_local_unitary(rng, real), _local_unitary(rng, real)))
    return u @ v


def _real_delta_zero(rng):
    """Real state with an exactly double root of det(A + zB) = 0 (delta = 0)."""
    m = np.outer(rng.standard_normal(2), rng.standard_normal(2)).reshape(-1)  # rank 1
    b = rng.standard_normal(4)
    # det(M + tB) = t*c1 + t^2*det(B) when det(M) = 0; c1 = g.b, so remove
    # b's component along g to make t = 0 a double root
    g = np.array([m[3], -m[2], -m[1], m[0]])
    b = b - (g @ b) / (g @ g) * g
    z0 = rng.standard_normal()
    return np.concatenate([m - z0 * b, b]).astype(np.complex128)


def _near_degenerate_instance(rng, i):
    """One input of the degeneracy families, eps log-uniform in [1e-16, 1e-2]."""
    family = ["rot_000_111", "noise_000", "ghz_w", "one_pair", "rot_product", "real_delta0"][i % 6]
    eps = 10.0 ** rng.uniform(-16.0, -2.0)
    real = family == "real_delta0" or rng.random() < 0.5
    noise = _normalized(_gaussian(rng, 8, real))
    if family == "rot_000_111":
        v = np.zeros(8, dtype=np.complex128)
        v[0], v[7] = 1.0, eps
        v = _rotate(rng, v, real)
    elif family == "noise_000":
        v = np.zeros(8, dtype=np.complex128)
        v[0] = 1.0
        v = v + eps * noise
    elif family == "ghz_w":
        v = (GHZ if i % 12 < 6 else W) + eps * noise
    elif family == "one_pair":
        v = np.zeros(8, dtype=np.complex128)
        v[4:] = _normalized(_gaussian(rng, 4, real))
        v = v + eps * noise
    elif family == "rot_product":
        v = np.ones(1, dtype=np.complex128)
        for _ in range(3):
            v = np.kron(v, _normalized(_gaussian(rng, 2, real)))
        v = v + eps * noise
    else:
        v = _normalized(_real_delta_zero(rng)) + eps * noise
    return family, real, _normalized(v)


def haar_general(seed, workdir, size):
    rng = np.random.default_rng([seed, 1])
    return [Op("d3", _normalized(_gaussian(rng, 8, False))) for _ in range(size)]


def haar_real_prepare(seed, workdir, size):
    rng = np.random.default_rng([seed, 2])
    ops = []
    while len(ops) < size:
        v = _normalized(_gaussian(rng, 8, True))
        if (oracle.delta(v) < 0.0) == (len(ops) % 2 == 1):  # alternate the sign of delta
            ops.append(Op("prep_text", v, "real"))
    return ops


def near_degenerate(seed, workdir, size):
    rng = np.random.default_rng([seed, 3])
    ops = []
    for i in range(size):
        family, real, v = _near_degenerate_instance(rng, i)
        ops.append(Op("d3", v, "general", family))
        if real:
            ops.append(Op("d3r", v, "real", family))
    return ops


def cli_oneshot(seed, workdir, size=None):
    rng = np.random.default_rng([seed, 4])
    negative = []
    while len(negative) < 2:
        v = _normalized(_gaussian(rng, 8, True))
        if oracle.delta(v) < 0.0:
            negative.append(v)
    states = [
        ("general-1", _normalized(_gaussian(rng, 8, False)), False),
        ("general-2", _normalized(_gaussian(rng, 8, False)), False),
        ("real-neg-1", negative[0], True),
        ("real-neg-2", negative[1], True),
        ("pair-complex", _normalized(_gaussian(rng, 4, False)), False),
        ("pair-real", _normalized(_gaussian(rng, 4, True)), True),
        ("ghz", GHZ, True),
    ]
    os.makedirs(workdir, exist_ok=True)
    ops = []
    for name, amps, real in states:
        path = os.path.join(workdir, f"{name}.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {name}, made by perfbench from seed {seed}\n")
            fh.writelines(f"{float(z.real)!r} {float(z.imag)!r}\n" for z in amps)
        ops.append(Op("cli", amps, "general", name, ["synth", path, "--verify"]))
        if real:
            ops.append(Op("cli", amps, "real", name, ["synth", path, "--real", "--prepare", "--ry", "--verify"]))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object
    size: object  # inputs per pass (None: set by the build function); exact metrics use the first pass
    # fixed, so runs compare; p90 rather than p99 in-process, where p99 spread
    # 17% between runs of the same code on the 2-vCPU VM. A run goes on until
    # at least 10 samples lie above it.
    tail_pct: float


WORKLOADS = {
    w.name: w
    for w in [
        Workload("haar_general", "Haar complex 3-qubit states through disentangle3: the bulk sweep path, "
                 "where per-gate state/circuit/kernels cost dominates", haar_general, 1000, 90.0),
        Workload("haar_real_prepare", "real states, both signs of delta, through prepare(real), emit_circuit(RY) "
                 "and parse_circuit: inversion, simulation and circuit text", haar_real_prepare, 600, 90.0),
        Workload("cli_oneshot", "fresh qprep3 synth processes on seed-made state files: interpreter start "
                 "and imports dominate, synthesis is under 1 ms", cli_oneshot, None, 80.0),
        Workload("near_degenerate", "degeneracy families with eps in [1e-16, 1e-2], general and real mode: "
                 "every zero/singular threshold; fails today (ROADMAP item 2)", near_degenerate, 600, 90.0),
    ]
}


# --- operations --------------------------------------------------------------


def call(q, op, cli):
    """The timed operation. Raises whatever the package raises."""
    if op.kind == "d3":
        return q.disentangle3(q.PureState3(op.amps))
    if op.kind == "d3r":
        return q.disentangle3_real(q.PureState3(op.amps))
    if op.kind == "prep_text":
        rep = q.prepare(q.PureState3(op.amps), "real")
        text = q.emit_circuit(rep.circuit, include_ry=True)
        return rep, text, q.parse_circuit(text)
    return cli.run(op.argv)


def verify(op, raw, first_pass=True):
    """Oracle verdict on a returned value (an exception is classified by the caller).

    Later passes only compare the output text with the first pass's.
    """
    if op.kind in ("d3", "d3r"):
        gates = oracle.gates_from_circuit(raw.circuit)
        reason = oracle.check(op.n, gates, op.amps, op.mode, prepared=False) if first_pass else None
        return _result(reason, oracle.render(gates), gates)
    if op.kind == "prep_text":
        rep, text, parsed = raw
        if not first_pass:
            return Result(None, text)
        try:
            read = oracle.CircuitText(text)
        except ValueError:
            return _result("unreadable-output", text, [])
        ours = oracle.render(read.gates)
        if ours != oracle.render(oracle.gates_from_circuit(parsed)) or ours != oracle.render(
            oracle.gates_from_circuit(rep.circuit)
        ):
            return _result("text-round-trip", text, [])
        reason = oracle.check(3, read.gates, op.amps, op.mode, prepared=True) or oracle.check_ry(read)
        return _result(reason, text, read.gates)
    code, out, err = raw
    if code != 0 or "Traceback" in err:
        return Result(cli_failure_class(code, err), f"EXIT {code}\n{out}")
    if not first_pass:
        return Result(None, out)
    try:
        read = oracle.CircuitText(out)
    except ValueError:
        return _result("unreadable-output", out, [])
    prepared = "--prepare" in op.argv
    reason = oracle.check(op.n, read.gates, op.amps, op.mode, prepared)
    if reason is None and read.num_qubits != op.n:
        reason = "qubit-count"
    if reason is None and (read.status is None or int(read.status["cz"]) != sum(g[0] == "CZ" for g in read.gates)):
        reason = "status-line"
    if reason is None and "--ry" in op.argv:
        reason = oracle.check_ry(read)
    return _result(reason, out, read.gates)


def _result(reason, key, gates):
    """Oracle verdict; a rejection reason is tagged so it is not read as an exception class."""
    return Result(reason and "oracle:" + reason, key, sum(g[0] == "CZ" for g in gates), len(gates))


def cli_failure_class(code, err):
    """Exception class named on a traceback's last line, else the CLI exit code."""
    if "Traceback" in err:
        match = re.search(r"^(?:[\w.]+\.)?(\w+)(?::|$)", err.strip().splitlines()[-1])
        return match.group(1) if match else "other"
    return "SynthesisInvariantError" if code == 3 else f"exit{code}"


class Cli:
    """Runs `python -m qprep3 ...` (or the traced child) and collects its rusage."""

    def __init__(self, python, env, workdir):
        self.python = python
        self.env = env
        self.stderr_path = os.path.join(workdir, "cli-stderr.txt")
        self.traced_child = None  # (script, spans path) while tracing
        self.maxrss_kb = 0

    def run(self, argv):
        if self.traced_child:
            cmd = [self.python, self.traced_child[0], self.traced_child[1], *argv]
        else:
            cmd = [self.python, "-m", "qprep3", *argv]
        # stderr goes to a file so that neither pipe can fill while the other
        # is read; the child is reaped with wait4 to get its own peak RSS
        with open(self.stderr_path, "w+", encoding="utf-8") as err_fh:
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE, stderr=err_fh,
                                    stdin=subprocess.DEVNULL, text=True)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            err_fh.seek(0)
            err = err_fh.read()
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        return proc.returncode, out, err
