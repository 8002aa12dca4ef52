"""Command-line driver.

Subcommands: eval, classify, square, prove, verify-paper, diagram, each
with its handler, positionals and options in the one table `_COMMANDS`.
Exit codes: 0 pass, 1 expectation failure, 2 usage or input error.
`verify-paper` is handled here and imports the report; the other
handlers are in `commands`, which loads only when one of them runs.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from .errors import TwoSquaresError
from .synthetic import MAX_UNIVERSE_DIRECT, Reading


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify_paper(args) -> int:
    from .report import report_json, report_text, run_verify_paper

    report = run_verify_paper(args.bound, args.atoms)
    _write(report_json(report) if args.json else report_text(report), args.out)
    return 0 if report["pass"] else 1


def _later(name: str):
    """The handler of command `name`: `commands.run_<name>`, loaded when it runs."""

    def run(args) -> int:
        from . import commands

        return getattr(commands, f"run_{name}")(args)

    return run


_REQUIRED = object()  # the default of an option that must be given
_HELP = ("--help", "help", None, None, "show this help message and exit")  # kind None
_SEMANTICS = (
    ("--semantics", "semantics", ("analytic", "synthetic"), "synthetic", ""),
    ("--import", "existential_import", ("on", "off"), "on", ""),
    ("--reading", "reading", tuple(r.value for r in Reading), Reading.DIRECT.value, ""),
    ("--allow-empty", "allow_empty", bool, False, ""),
)
_SQUARE = (*_SEMANTICS, ("--bound", "bound", int, 3, ""))
_OUT = ("--out", "out", str, None, "write output to FILE instead of stdout")
_OUTPUT = (("--json", "json", bool, False, ""), _OUT)
# Each command's handler, help, positionals and options.  An option is
# (string, dest, kind, default or _REQUIRED, help); its kind is bool for a
# flag, int, str or a tuple of the choices.  None names the top level.
_COMMANDS = {
    None: (None, "verification workbench for the analytic and synthetic squares of opposition",
           ("command",), ()),
    "eval": (_later("eval"), "evaluate a formula against a model file", ("formula",),
             (("--model", "model", str, _REQUIRED, "JSON model file"), *_SEMANTICS, *_OUTPUT)),
    "classify": (_later("classify"), "classify the opposition relation of two formulas",
                 ("first", "second"), (*_SQUARE, *_OUTPUT)),
    "square": (_later("square"), "verify a full square of opposition", (), (*_SQUARE, *_OUTPUT)),
    "diagram": (_later("diagram"), "emit a DOT diagram of a verified square", (), (*_SQUARE, _OUT)),
    "prove": (_later("prove"), "check a proof script", ("script",), (
        ("--axioms", "axioms", str, "a5,a6,a7,a8,def",
         "comma list from a5,a6,a7,a8,def (default: all)"), *_OUTPUT)),
    "verify-paper": (_cmd_verify_paper, "run the full verification suite", (), (
        ("--bound", "bound", int, 3, f"synthetic model bound (1..{MAX_UNIVERSE_DIRECT})"),
        ("--atoms", "atoms", int, 2, "algebra atom count (1..4)"), *_OUTPUT)),
}


class _Refused(Exception):
    """(command, message): a usage error in the arguments of `command`
    (None for the top level), or with message None a request for its help."""


def _lookup(arg, names, command):
    """How `arg` reads against the option strings `names`: None for a
    positional (a word not led by `-`, a lone `-`, a negative number or,
    unless it names an option, a word with a space), else the option
    string it names in full or by a unique prefix (None if it names
    none) and the value after its `=` (None if there is none)."""
    if arg[:1] != "-" or arg == "-":
        return None
    head, eq, value = arg.partition("=")
    if head in names:
        return head, value if eq else None
    if arg == "--":  # a bare `--` is no prefix of every long option: it names none
        return None, None
    if arg[1] == "-":  # a long option, by any unique prefix
        found = [(name, value if eq else None) for name in names if name.startswith(head)]
    else:  # a short option, joined to its value
        found = [("-h", arg[2:])] if arg.startswith("-h") else []
    if len(found) > 1:
        raise _Refused(command, f"ambiguous option: {arg} could match {', '.join(dict(found))}")
    if found:
        return found[0]
    # the pattern is compiled on first use, which known options never reach
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg else (None, None)


def _read(argv, command=None):
    """Read `argv` in order for `command`, or with `command` None for the
    top level, whose positional names the command that reads the rest.
    An option takes its value after its `=` or as the next word, and the
    last of repeated ones wins; help, or an error, is raised where it is
    met, but missing and unrecognized words only at the end.  Returns
    the values by dest and the words nothing took."""
    _, _, positionals, options = _COMMANDS[command]
    names = {"-h": _HELP, "--help": _HELP, **{option[0]: option for option in options}}
    kinds = [_lookup(arg, names, command) for arg in argv]
    values = {dest: default for _, dest, _, default, _ in options}
    wanted, extras, i = list(positionals), [], 0
    while i < len(argv):
        arg, kind, i = argv[i], kinds[i], i + 1
        if kind is None and command is None:
            if arg not in _COMMANDS:
                raise _Refused(None, f"argument command: invalid choice: {arg!r}")
            values, more = _read(argv[i:], arg)
            return {"command": arg, **values}, extras + more
        if kind is None or kind[0] is None:
            if kind is None and wanted:
                values[wanted.pop(0)] = arg
            else:
                extras.append(arg)
            continue
        name, value = kind
        string, dest, form, _, _ = names[name]
        # a flag takes no value; `-hh` is `-h` twice
        twice = name == "-h" and set(value or "") == {"h"}
        if value is not None and form in (bool, None) and not twice:
            raise _Refused(command, f"argument {string}: ignored explicit argument {value!r}")
        if form is None:
            raise _Refused(command, None)
        if form is not bool and value is None:
            if i == len(argv) or kinds[i] is not None:
                raise _Refused(command, f"argument {string}: expected one argument")
            value, i = argv[i], i + 1
        if form is int:
            try:
                value = int(value)
            except ValueError:
                message = f"argument {string}: invalid int value: {value!r}"
                raise _Refused(command, message) from None
        elif isinstance(form, tuple) and value not in form:
            raise _Refused(command, f"argument {string}: invalid choice: {value!r}")
        values[dest] = True if form is bool else value
    missing = wanted + [name for name, dest, _, _, _ in options if values[dest] is _REQUIRED]
    if missing:
        raise _Refused(command, f"the following arguments are required: {', '.join(missing)}")
    return values, extras


def _form(option) -> str:
    name, dest, form, _, _ = option
    if form is bool:
        return name
    return f"{name} {'{' + ','.join(form) + '}' if isinstance(form, tuple) else dest.upper()}"


def _usage(command) -> str:
    if command is None:
        return "usage: twosquares [-h] {" + ",".join(filter(None, _COMMANDS)) + "} ..."
    _, _, positionals, options = _COMMANDS[command]
    words = (_form(o) if o[3] is _REQUIRED else f"[{_form(o)}]" for o in options)
    return " ".join(("usage: twosquares", command, "[-h]", *words, *positionals))


def _help(command) -> str:
    """The usage line, what the command does, then a line for each of its
    positionals (each command, at the top level) and options."""
    _, about, positionals, options = _COMMANDS[command]
    rows = [(c, _COMMANDS[c][1]) for c in _COMMANDS if c] if command is None else []
    rows += [(name, "") for name in positionals if command] + [("-h, --help", _HELP[4])]
    rows += [(_form(option), option[4]) for option in options]
    width = max(len(left) for left, _ in rows)
    lines = (f"  {left:<{width}}  {text}".rstrip() + "\n" for left, text in rows)
    return f"{_usage(command)}\n\n{about}\n\n" + "".join(lines)


def parse_args(argv: list[str]):
    """The namespace of `argv`, or the exit code once help (0) or a usage
    error (2) is written."""
    try:
        values, extras = _read(argv)
        if extras:
            raise _Refused(None, f"unrecognized arguments: {' '.join(extras)}")
    except _Refused as exc:
        command, message = exc.args
        if message is None:
            sys.stdout.write(_help(command))
            return 0
        prog = " ".join(filter(None, ("twosquares", command)))
        sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
        return 2
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):
        return args
    try:
        return _COMMANDS[args.command][0](args)
    except (TwoSquaresError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
