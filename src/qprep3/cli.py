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
unknown or ambiguous flag; the usage and one `error:` line go to stderr), 3
any other synthesis error, such as an internal invariant or bound failure
(the error, the branch trace and the state as synthesized are dumped to
stderr). All output is deterministic given (input, flags, seed).

Options may come before or after the positional, as `--opt value` or
`--opt=value`, and any unique prefix of a flag names it (`--ver` for
`--verify`). `-h`/`--help` prints the help of the program or of a command.
Everything after `--` is positional.
"""
from __future__ import annotations

import sys
from types import SimpleNamespace

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
    # real mode's bound is 3 CZ for either sign of delta
    shown = "delta~0" if abs(d) <= DELTA_ZERO_BAND else f"delta={format_number(d)}"
    print(f"{shown} bound=3")
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
        "print the real-state discriminant and real mode's CZ bound (3 for either sign; delta < 0 "
        "takes the chain prefix)",
        [("file", "state file (8 '<re> <im>' lines, real)")],
        [],
    ),
}
_HELP = ("-h/--help", None, False, "show this help message and exit")
_DESCRIPTION = "Compile 2- and 3-qubit pure states into local + controlled-Z circuits."
_WIDTH = 78  # the line width argparse used on an 80-column terminal


def _spelled(flag: str, typ) -> str:
    return flag if typ is None else f"{flag} {flag[2:].upper()}"


def _usage(cmd) -> str:
    """The usage line(s) of cmd, or of the program when cmd is None."""
    if cmd is None:
        prog, opts, pos = "qprep3", [], ["{" + ",".join(_COMMANDS) + "}", "..."]
    else:
        _, _, positionals, options = _COMMANDS[cmd]
        prog, pos = f"qprep3 {cmd}", [name for name, _ in positionals]
        opts = [_spelled(f, t) if req else f"[{_spelled(f, t)}]" for f, t, req, _ in options]
    head = " ".join(["usage:", prog, "[-h]", *opts])
    if len(head) + 1 + len(" ".join(pos)) > _WIDTH:
        # too long for one line: the positionals go under the first option
        return head + "\n" + " " * (len(prog) + 8) + " ".join(pos)
    return " ".join([head, *pos])


def _help(cmd) -> str:
    import textwrap  # only a help request pays for this import

    if cmd is None:
        blocks = [_DESCRIPTION]
        sections = [("commands", [(name, spec[1]) for name, spec in _COMMANDS.items()]), ("options", [])]
    else:
        _, _, positionals, options = _COMMANDS[cmd]
        blocks = []
        sections = [("positional arguments", positionals)] if positionals else []
        sections.append(("options", [(_spelled(f, t), text) for f, t, _, text in options]))
    sections[-1][1].insert(0, ("-h, --help", _HELP[3]))
    column = 4 + max(len(name) for _, rows in sections for name, _ in rows)
    for title, rows in sections:
        lines = [
            textwrap.fill(text, _WIDTH, initial_indent=f"  {name}".ljust(column),
                          subsequent_indent=" " * column, break_on_hyphens=False)
            for name, text in rows
        ]
        blocks.append("\n".join([f"{title}:", *lines]))
    return "\n\n".join([_usage(cmd), *blocks]) + "\n"


def _fail(cmd, message: str):
    """Print the usage and one error line to stderr, then exit 2."""
    prog = "qprep3" if cmd is None else f"qprep3 {cmd}"
    sys.stderr.write(f"{_usage(cmd)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _classify(cmd, token: str, options):
    """How one argument of cmd reads: (None, None) for a positional; for an
    option, its table row, or () if unknown, and the text after '=', or None.
    A unique prefix of a long option names that option; a negative number is
    a positional."""
    number = token[1:].replace(".", "", 1).isdecimal() and not token.endswith(".")
    if token[:1] != "-" or token in ("-", "--") or number:
        return None, None
    flags = {"-h": _HELP, "--help": _HELP, **{row[0]: row for row in options}}
    name, eq, value = token.partition("=")
    if token in flags:
        return flags[token], None
    if eq and name in flags:
        return flags[name], value
    if token.startswith("--"):
        hits = [flag for flag in flags if flag.startswith(name)]
        if len(hits) > 1:
            _fail(cmd, f"ambiguous option: {token} could match {', '.join(hits)}")
        if hits:
            return flags[hits[0]], value if eq else None
    if " " in token:
        return None, None
    return (), None


def _switch(cmd, row, value) -> bool:
    """A switch is set by its bare flag; -h/--help prints the help and exits 0."""
    if value is not None:
        _fail(cmd, f"argument {row[0]}: ignored explicit argument {value!r}")
    if row is _HELP:
        sys.stdout.write(_help(cmd))
        raise SystemExit(EXIT_OK)
    return True


def _parse(argv: list[str]):
    """The fields of a command line as attributes, `command` naming the
    subcommand, read as argparse read them. Exits 0 after printing the help
    for -h/--help, and 2 after printing the usage and one error line."""
    extras = []
    for i, token in enumerate(argv):
        row, value = _classify(None, token, [])
        if row is None:
            break
        if row:
            _switch(None, row, value)
        extras.append(token)
    else:
        _fail(None, "the following arguments are required: command")
    cmd = argv[i]
    if cmd not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(None, f"argument command: invalid choice: {cmd!r} (choose from {choices})")
    _, _, positionals, options = _COMMANDS[cmd]

    items = []  # (row, value, token); row is None for a positional, "--" for the separator
    tokens = iter(argv[i + 1:])
    for token in tokens:
        if token == "--":
            items.append(("--", None, token))
            items.extend((None, None, t) for t in tokens)
        else:
            items.append((*_classify(cmd, token, options), token))

    fields = {"command": cmd, **{f[2:]: (False if t is None else None) for f, t, _, _ in options}}
    free, seen = [], set()
    k = 0
    while k < len(items):
        row, value, token = items[k]
        k += 1
        if row is None:
            (free if len(free) < len(positionals) else extras).append(token)
        elif row == ():
            extras.append(token)
        elif row != "--":
            flag, typ = row[0], row[1]
            if typ is None:
                value = _switch(cmd, row, value)
            else:
                if value is None:
                    if k == len(items) or items[k][0] is not None:
                        _fail(cmd, f"argument {flag}: expected one argument")
                    value = items[k][2]
                    k += 1
                try:
                    value = typ(value)
                except ValueError:
                    _fail(cmd, f"argument {flag}: invalid {typ.__name__} value: {value!r}")
            fields[flag[2:]] = value
            seen.add(flag)
    missing = [name for name, _ in positionals[len(free):]] + [f for f, _, req, _ in options if req and f not in seen]
    if missing:
        _fail(cmd, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    fields.update(zip((name for name, _ in positionals), free))
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    return _COMMANDS[args.command][0](args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
