"""Command-line front end.

Subcommands:

    synth <file> [--real] [--prepare] [--verify] [--ry] [--out <path>]
    sweep --n <k> --seed <s> [--real] [--machine]
    delta <file>

State files hold one amplitude per line as `<re> <im>` decimals in basis
order |000>..|111> (or |00>..|11> for 2 qubits); `#` starts a comment.
Files are UTF-8; a leading byte-order mark is skipped. Inputs within 1e-6
of unit norm are renormalized, anything farther is rejected.

Exit codes: 0 success, 1 bad input or output that cannot be written (a
state file that cannot be read, decoded, parsed or normalized, a 2-qubit
file to delta, an --out path that cannot be written, a stdout that cannot
be written (a closed pipe, a full device, a descriptor closed at start),
--n < 1 or --seed < 0; one `error:` line on stderr, and none when stderr
itself cannot be written), 2
mode violation (complex input where real amplitudes are required) or usage
error (no command, a missing or malformed argument such as `--n x`, an
unknown or ambiguous flag; the usage and one `error:` line go to stderr), 3
any other synthesis error, such as an internal invariant or bound failure
(the error, the branch trace and the state as synthesized are dumped to
stderr), 130 interrupted (Ctrl-C, SIGINT: one `error: interrupted` line on
stderr, and none when stderr cannot be written; output not yet flushed is
dropped). All output is deterministic given (input, flags, seed).

Options may come before or after the positional, as `--opt value` or
`--opt=value`, and any unique prefix of a flag names it (`--ver` for
`--verify`). `-h`/`--help` prints the help of the program or of a command.
Everything after `--` is positional.

argparse is the one definition of that grammar, its help and its usage
errors, but it is imported only for an argv outside the import-free form,
which is read without it: a command with no required option, then only that
command's switches spelled in full and exactly its positionals (none
starting with `-`), in any order. `synth f.txt --real --verify` and
`delta f.txt` are in that form; a valued option (`--out c.txt`, any `sweep`
line), help, a flag prefix, `--opt=value`, `--`, a positional starting with
`-`, and every usage error pay for the argparse import, a few ms.
"""
from __future__ import annotations

import errno
import os
import sys
from types import SimpleNamespace

from .circuit import emit_circuit, format_number
from .errors import NotNormalizedError, NotRealError, Qprep3Error
from .mat2 import DELTA_ZERO_BAND, _max_abs
from .state import PureState2, PureState3, delta, random_state
from .synth import disentangle, prepare

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MODE = 2
EXIT_INVARIANT = 3
EXIT_INTERRUPTED = 130


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
        with open(path, encoding="utf-8") as fh:
            amps = parse_state_text(fh.read().removeprefix("\ufeff"))
        return PureState3(amps) if len(amps) == 8 else PureState2(amps)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _dump_synthesis_error(exc: Qprep3Error, state) -> None:
    """The error, its branch trace, and the state as synthesized (after
    renormalization) in the state-file format, so the failure can be replayed."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    print("branch trace: " + (" > ".join(exc.branch_trace) or "(empty)"), file=sys.stderr)
    print("# state as synthesized, after renormalization:", file=sys.stderr)
    for z in state.w:
        print(f"{format_number(z.real)} {format_number(z.imag)}", file=sys.stderr)


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
        _dump_synthesis_error(exc, state)
        return EXIT_INVARIANT

    if args.ry:
        try:
            text = emit_circuit(report.circuit, include_ry=True)
        except ValueError:
            text = emit_circuit(report.circuit) + "# ry unavailable: non-real local gates\n"
    else:
        text = emit_circuit(report.circuit)

    if args.out is not None:
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
    print("delta~0" if abs(d) <= DELTA_ZERO_BAND else f"delta={format_number(d)}")
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
        state = random_state((args.seed, i), real_only=args.real)
        # the library raises on every guaranteed bound: cz count, fidelity, real gates
        try:
            rep = disentangle(state, mode)
        except Qprep3Error as exc:
            violations.append(f"sample {i}: {type(exc).__name__}: {exc}")
        else:
            hist[rep.cz_count] = hist.get(rep.cz_count, 0) + 1
            fidelities.append(rep.fidelity)
            if args.real:
                # printed in real mode only; _max_abs keeps a NaN, which
                # max(0.0, nan) would drop
                max_gate_imag = _max_abs(max_gate_imag, rep.circuit.max_local_imag())
        if args.real and delta(state) < 0.0:
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


# The command-line table. Per command: the function that runs it, its help
# string, its positionals as (name, help) and its options as
# (flag, type, required, help). Type None makes a switch; str or int makes an
# option that takes one value, shown as the flag's name in upper case.
_COMMANDS = {
    "synth": (
        _cmd_synth,
        "synthesize a circuit for a state file",
        [("file", "state file (4 or 8 '<re> <im>' lines)")],
        [
            ("--real", None, False, "all-real gates (real input only)"),
            ("--prepare", None, False, "emit the |0..0> -> state circuit"),
            ("--verify", None, False, "print cz count and simulated fidelity"),
            ("--ry", None, False, "append RY angle lines for real gates"),
            ("--out", str, False, "write the circuit here instead of stdout"),
        ],
    ),
    "sweep": (
        _cmd_sweep,
        "randomized synthesis sweep with CZ/fidelity bounds",
        [],
        [
            ("--n", int, True, "number of sampled states"),
            ("--seed", int, True, "base RNG seed"),
            ("--real", None, False, "sample real states, real-mode synthesis"),
            ("--machine", None, False, "append a machine-readable summary line"),
        ],
    ),
    "delta": (
        _cmd_delta,
        "print the real-state discriminant",
        [("file", "state file (8 '<re> <im>' lines, real)")],
        [],
    ),
}
_DESCRIPTION = "Compile 2- and 3-qubit pure states into local + controlled-Z circuits."
_WIDTH = 78  # the line width argparse used on an 80-column terminal


def _argparse_parser():
    """The command line as an argparse parser, built from _COMMANDS: the one
    definition of help, usage errors and flag abbreviations."""
    import argparse  # only an argv outside the import-free form pays for this import

    def formatter(prog):
        return argparse.HelpFormatter(prog, width=_WIDTH)

    parser = argparse.ArgumentParser(prog="qprep3", description=_DESCRIPTION, formatter_class=formatter)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, positionals, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=text, formatter_class=formatter)
        for pos, pos_help in positionals:
            sub.add_argument(pos, help=pos_help)
        for flag, typ, required, opt_help in options:
            if typ is None:
                sub.add_argument(flag, action="store_true", help=opt_help)
            else:
                sub.add_argument(flag, type=typ, required=required, help=opt_help)
    return parser


def _parse(argv: list[str]):
    """The fields of a command line as attributes, `command` naming the
    subcommand, read as argparse reads them. An argv in the import-free form
    (a command with no required option, its switches spelled in full, its
    positionals) is read here; any other, a valued option included, goes to
    argparse, which exits 0 after printing the help, or 2 after a usage and
    an error line."""
    if argv and argv[0] in _COMMANDS:
        _, _, positionals, options = _COMMANDS[argv[0]]
        switches = {flag for flag, typ, _, _ in options if typ is None}
        free = [token for token in argv[1:] if token not in switches]
        required = any(req for _, _, req, _ in options)
        if not required and len(free) == len(positionals) and not any(t.startswith("-") for t in free):
            # a valued option is not given here, so it reads as its default, None
            fields = {flag[2:]: flag in argv[1:] if typ is None else None for flag, typ, _, _ in options}
            fields.update(zip((name for name, _ in positionals), free))
            return SimpleNamespace(command=argv[0], **fields)
    return _argparse_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    return _COMMANDS[args.command][0](args)


class _ClosedStream:
    """A standard stream whose descriptor was closed at start (None in sys):
    every write fails, as on any stream that cannot be written."""

    def write(self, _text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self):
        pass


def entry() -> None:
    """Run main on sys.argv, flush the standard streams and end the process
    with main's code, skipping interpreter teardown: a one-shot process need
    not free its heap, and no exit-time flush or atexit handler runs after
    this. argparse's exit (help, usage errors) still takes the normal path.
    A stream that cannot be written ends the run with code 1, and an
    interrupt (Ctrl-C) with code 130; either writes one `error:` line when
    stderr can take it, and no traceback."""
    if sys.stdout is None:
        sys.stdout = _ClosedStream()
    if sys.stderr is None:
        sys.stderr = _ClosedStream()
    message = ""
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # what is left in stdout's buffer is dropped at the exit below
        code = EXIT_INPUT
        message = f"error: {exc}\n"
    except KeyboardInterrupt:
        code = EXIT_INTERRUPTED
        message = "error: interrupted\n"
    try:
        sys.stderr.write(message)
        sys.stderr.flush()
    except OSError:
        # stderr is the stream that fails: the code alone reports it
        pass
    os._exit(code)


if __name__ == "__main__":
    entry()
