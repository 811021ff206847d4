"""Command-line front end.

Subcommands:

    synth <file> [--real] [--prepare] [--verify] [--ry] [--out <path>]
    sweep --n <k> --seed <s> [--real] [--machine]
    delta <file>

State files hold one amplitude per line as `<re> <im>` decimals in basis
order |000>..|111> (or |00>..|11> for 2 qubits); `#` starts a comment.
Files are UTF-8; a leading byte-order mark is skipped. Inputs within 1e-6
of unit norm are renormalized, anything farther is rejected.

Exit codes: 0 success, 1 bad input (a state file that cannot be read,
decoded, parsed or normalized, a 2-qubit file to delta, an --out path that
cannot be written, --n < 1 or --seed < 0; one `error:` line on stderr), 2
mode violation (complex input where real amplitudes are required) or usage
error (no command, a missing or malformed argument such as `--n x`, an
unknown flag; argparse prints the usage and an `error:` line to stderr), 3
any other synthesis error, such as an internal invariant or bound failure
(the error and the branch trace are dumped to stderr). All output is
deterministic given (input, flags, seed).
"""
from __future__ import annotations

import argparse
import sys

from .circuit import emit_circuit, format_number
from .errors import NotNormalizedError, NotRealError, Qprep3Error
from .mat2 import DELTA_ZERO_BAND
from .state import PureState2, PureState3, delta, random_state
from .synth import disentangle, prepare

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MODE = 2
EXIT_INVARIANT = 3


def parse_state_text(text: str) -> list[complex]:
    """Parse a state file into a list of 4 or 8 Python complex amplitudes."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<re> <im>'")
        try:
            values.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric amplitude") from None
    if len(values) not in (4, 8):
        raise ValueError(f"expected 4 or 8 amplitudes, got {len(values)}")
    return values


# what reading and validating a state file raises on bad input (exit 1)
_INPUT_ERRORS = (OSError, ValueError, NotNormalizedError)


def _load_state(path: str):
    """The state in the file at path, or None after one `error:` line on
    stderr when the file cannot be read, decoded, parsed or normalized.
    A UTF-8 byte-order mark at the start of the file is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            amps = parse_state_text(fh.read())
        return PureState3(amps) if len(amps) == 8 else PureState2(amps)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _dump_synthesis_error(exc: Qprep3Error) -> None:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    print("branch trace: " + (" > ".join(exc.branch_trace) or "(empty)"), file=sys.stderr)


def _cmd_synth(args) -> int:
    state = _load_state(args.file)
    if state is None:
        return EXIT_INPUT
    mode = "real" if args.real else "general"
    try:
        report = prepare(state, mode) if args.prepare else disentangle(state, mode)
    except NotRealError:
        print("error: --real requires real amplitudes", file=sys.stderr)
        return EXIT_MODE
    except Qprep3Error as exc:
        _dump_synthesis_error(exc)
        return EXIT_INVARIANT

    if args.ry:
        try:
            text = emit_circuit(report.circuit, include_ry=True)
        except ValueError:
            text = emit_circuit(report.circuit) + "# ry unavailable: non-real local gates\n"
    else:
        text = emit_circuit(report.circuit)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    if args.verify:
        flag = "true" if report.all_real else "false"
        print(f"cz={report.cz_count} fidelity={format_number(report.fidelity)} all_real={flag}")
    return EXIT_OK


def _cmd_delta(args) -> int:
    state = _load_state(args.file)
    if state is None:
        return EXIT_INPUT
    if not isinstance(state, PureState3):
        print("error: delta requires a 3-qubit state file", file=sys.stderr)
        return EXIT_INPUT
    try:
        d = delta(state)
    except NotRealError:
        print("error: delta is defined only for real states", file=sys.stderr)
        return EXIT_MODE
    # the bound follows the sign of delta, also within the band printed as ~0
    shown = "delta~0" if abs(d) <= DELTA_ZERO_BAND else f"delta={format_number(d)}"
    print(f"{shown} bound={3 if d >= 0 else 4}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    hist: dict[int, int] = {}
    fidelities: list[float] = []
    max_gate_imag = 0.0
    negative = 0
    violations: list[str] = []
    mode = "real" if args.real else "general"
    for i in range(args.n):
        # the library raises on every guaranteed bound: cz count, fidelity, real gates
        try:
            rep = disentangle(random_state((args.seed, i), real_only=args.real), mode)
        except Qprep3Error as exc:
            violations.append(f"sample {i}: {type(exc).__name__}: {exc}")
            trace = exc.branch_trace
        else:
            hist[rep.cz_count] = hist.get(rep.cz_count, 0) + 1
            fidelities.append(rep.fidelity)
            if args.real:
                # printed in real mode only
                max_gate_imag = max(max_gate_imag, rep.circuit.max_local_imag())
            trace = rep.branch_trace
        # real mode's first branch label is the sign of delta
        if trace and trace[0] == "delta<0":
            negative += 1

    # (printed label, machine key, values): a row prints one aligned line per
    # value, labelled on the first, and one key=v1,v2,... field
    rows = [
        ("samples", "samples", [args.n]),
        ("mode", "mode", [mode]),
        ("seed", "seed", [args.seed]),
        # one `k: count` value per CZ count, none when every sample failed
        ("cz histogram", "cz_hist", [f"{k}: {hist[k]}" for k in sorted(hist)]),
        ("min fidelity", "min_fidelity", [format_number(min(fidelities)) if fidelities else "none"]),
    ]
    if args.real:
        rows.append(("delta<0 fraction", "delta_negative_fraction", [format_number(negative / args.n)]))
        rows.append(("max gate imag", "max_gate_imag", [format_number(max_gate_imag)]))
    rows.append(("violations", "violations", [len(violations)]))
    for label, _, values in rows:
        for v in values:
            print(f"{label:<18}{v}")
            label = ""
    if args.machine:
        # no other value holds ": ", so this only writes the histogram as k:count
        fields = (f"{key}=" + ",".join(map(str, values)).replace(": ", ":") for _, key, values in rows)
        print("machine " + " ".join(fields))
    for v in violations[:20]:
        print(f"violation: {v}", file=sys.stderr)
    return EXIT_INVARIANT if violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprep3",
        description="Compile 2- and 3-qubit pure states into local + controlled-Z circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a circuit for a state file")
    p_synth.add_argument("file", help="state file (4 or 8 '<re> <im>' lines)")
    p_synth.add_argument("--real", action="store_true", help="all-real gates (real input only)")
    p_synth.add_argument("--prepare", action="store_true", help="emit the |0..0> -> state circuit")
    p_synth.add_argument("--verify", action="store_true", help="print cz count and simulated fidelity")
    p_synth.add_argument("--ry", action="store_true", help="append RY angle lines for real gates")
    p_synth.add_argument("--out", help="write the circuit here instead of stdout")
    p_synth.set_defaults(func=_cmd_synth)

    p_sweep = sub.add_parser("sweep", help="randomized synthesis sweep with CZ/fidelity bounds")
    p_sweep.add_argument("--n", type=int, required=True, help="number of sampled states")
    p_sweep.add_argument("--seed", type=int, required=True, help="base RNG seed")
    p_sweep.add_argument("--real", action="store_true", help="sample real states, real-mode synthesis")
    p_sweep.add_argument("--machine", action="store_true", help="append a machine-readable summary line")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_delta = sub.add_parser(
        "delta",
        help="print the real-state discriminant and its CZ bound (4 for delta < 0, while real mode "
        "keeps its 4-CZ fallback; the chain prefix gives 3 on every Haar-random such state sampled)",
    )
    p_delta.add_argument("file", help="state file (8 '<re> <im>' lines, real)")
    p_delta.set_defaults(func=_cmd_delta)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
