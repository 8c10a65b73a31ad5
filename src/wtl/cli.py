"""The `wtl` command line: one subcommand per engine.

Structured output is JSON on stdout; human diagnostics go to stderr.
Exit codes: 0 for a positive answer, 1 for a negative one, 2 for usage or
parse errors, 3 for a satisfiable verdict whose extracted model failed
verification.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple, Optional

from . import __version__
from .axioms import run_suite
from .bisimulation import (
    are_bisimilar, distinguishing_formula, generalized_bisimilarity,
    quotient_model, weighted_bisimilarity,
)
from .formulas import FormulaError, model_check, parse_formula, print_formula
from .tableau import (
    Sat, _start, _verdict_of, build_tableau, is_valid, tableau_to_json,
)
from .wts import ModelError, parse_wts, serialize_wts

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_GAP = 3


class _UsageError(Exception):
    pass


# The command line is one table: each parser's flags and one-of groups.
# `_parse` reads argv from it by argparse's rules, which `wtl` was first
# built on: the same words are accepted, with the same values, and the
# same words refused, with argparse's message.  argparse itself took 18
# to 30 us a request, the table takes 4 to 7 (Python 3.11).  A flag's kind
# says what it takes: a switch nothing, a value flag one word (the last one
# given wins), an int flag one word read by `int`, a repeatable flag one
# word per use, kept in a list.
_SWITCH, _VALUE, _INT, _REPEAT, _HELP = "switch", "value", "int", "repeat", "help"


class _Flag(NamedTuple):
    names: tuple[str, ...]
    dest: Optional[str]
    kind: str
    help: str = ""
    required: bool = False
    default: object = None
    metavar: Optional[str] = None


class _Level:
    """One parser of the table, `wtl` itself or one subcommand: its flags,
    `-h/--help` first, and its one-of groups, each of which needs exactly
    one member."""

    def __init__(self, prog: str, summary: str, flags: tuple, one_of: tuple = ()):
        self.prog = prog
        self.summary = summary
        self.flags = (_Flag(("-h", "--help"), None, _HELP, "show this help message and exit"),
                      *flags)
        self.options = {name: flag for flag in self.flags for name in flag.names}
        # each long option under every prefix of it, for abbreviations
        self.prefixed: dict[str, list[str]] = {}
        for name in self.options:
            if name.startswith("--"):
                for end in range(2, len(name) + 1):
                    self.prefixed.setdefault(name[:end], []).append(name)
        self.defaults = {flag.dest: flag.default for flag in flags}
        self.one_of = tuple(tuple(self.options[name] for name in group) for group in one_of)
        self.rivals = {flag.dest: tuple(f for f in group if f is not flag)
                       for group in self.one_of for flag in group}


_FORMULA = (
    _Flag(("--formula",), "formula", _VALUE, "formula text"),
    _Flag(("--formula-file",), "formula_file", _VALUE, "file with formula text ('-' for stdin)"),
)
_ONE_FORMULA = (("--formula", "--formula-file"),)
_MODEL = _Flag(("--model",), "model", _VALUE, required=True)

_WTL = _Level("wtl", __doc__, (
    _Flag(("--pretty",), "pretty", _SWITCH, "indent JSON output", default=False),
    _Flag(("--version",), "version", _SWITCH, "print version and exit", default=False),
))

_COMMANDS = {
    "mc": _Level("wtl mc", "check a formula at a state of a model", (
        _MODEL, _Flag(("--state",), "state", _VALUE, required=True), *_FORMULA,
    ), _ONE_FORMULA),
    "sat": _Level("wtl sat", "decide satisfiability", (
        *_FORMULA,
        _Flag(("--emit-model",), "emit_model", _VALUE,
              "write the extracted model here when satisfiable", metavar="OUT"),
        _Flag(("--dump-tableau",), "dump_tableau", _VALUE,
              "write the tableau as JSON here", metavar="OUT"),
    ), _ONE_FORMULA),
    "valid": _Level("wtl valid", "decide validity", _FORMULA, _ONE_FORMULA),
    "bisim": _Level("wtl bisim", "bisimilarity partition or pair check", (
        _MODEL,
        _Flag(("--weighted",), "weighted", _SWITCH,
              "exact weight matching instead of bound matching", default=False),
        _Flag(("--state",), "state", _REPEAT, "give twice for a pair verdict", default=[]),
    )),
    "distinguish": _Level("wtl distinguish", "formula separating two states", (
        _MODEL, _Flag(("--state",), "state", _REPEAT, required=True),
    )),
    "quotient": _Level("wtl quotient", "minimize under bound bisimilarity", (
        _MODEL, _Flag(("-o", "--output"), "output", _VALUE, "write the quotient model here"),
    )),
    "axioms": _Level("wtl axioms", "run the soundness suite", (
        _Flag(("--seed",), "seed", _INT, required=True),
        _Flag(("--trials",), "trials", _INT, required=True),
        _Flag(("--schema",), "schema", _REPEAT, "restrict to these schemas (repeatable)"),
    )),
    "fmt": _Level("wtl fmt", "canonical reprint of a model or formula", (
        _Flag(("--model",), "model", _VALUE), *_FORMULA,
    ), (("--model", "--formula", "--formula-file"),)),
}

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _label(flag: _Flag) -> str:
    return "/".join(flag.names)


def _option(level: _Level, word: str):
    """What one word reads as to one parser: None for a value, else the
    flag (None when the parser has no such option), the option string and
    the value attached to the word (None when there is none)."""
    if not word or word[0] != "-":
        return None
    options = level.options
    flag = options.get(word)
    if flag is not None:
        return flag, word, None
    if len(word) == 1:
        return None
    name, eq, value = word.partition("=")
    if eq and name in options:
        return options[name], name, value
    if word[1] == "-":
        found = [(options[o], o, value if eq else None)
                 for o in level.prefixed.get(name, ())]
    else:
        # a short option runs on into its value: -oFILE
        short = word[:2]
        found = [(flag, o, word[2:] if o == short else None)
                 for o, flag in options.items() if o == short or o.startswith(word)]
    if len(found) > 1:
        matches = ", ".join(o for _, o, _ in found)
        raise _UsageError(f"ambiguous option: {word} could match {matches}")
    if found:
        return found[0]
    if " " in word or _NEGATIVE_NUMBER.match(word):
        return None
    return None, word, None


def _scan(level: _Level, argv: list[str]) -> list:
    """How `level` reads each word before the first `--`; the words from
    that `--` on are values."""
    words = []
    for word in argv:
        if word == "--":
            break
        words.append(_option(level, word))
    return words


def _take(level: _Level, flag: _Flag, value, args, seen: set) -> None:
    if flag.kind == _INT:
        try:
            value = int(value)
        except ValueError:
            raise _UsageError(
                f"argument {_label(flag)}: invalid int value: {value!r}") from None
    for rival in level.rivals.get(flag.dest, ()):
        if rival.dest in seen:
            raise _UsageError(
                f"argument {_label(flag)}: not allowed with argument {_label(rival)}")
    seen.add(flag.dest)
    if flag.kind == _SWITCH:
        value = True
    elif flag.kind == _REPEAT:
        value = [*(getattr(args, flag.dest) or ()), value]
    setattr(args, flag.dest, value)


def _options(level: _Level, argv: list[str], words: list, i: int,
             args, seen: set, extras: list) -> Optional[int]:
    """Take the options from `argv[i]` on, in order, up to the first word
    that is neither an option nor an option's value, and return its index;
    None when -h/--help takes effect.  Options the parser does not know go
    to `extras`."""
    while i < len(words):
        word = words[i]
        if word is None:
            return i
        flag, name, value = word
        if flag is None:
            extras.append(argv[i])
            i += 1
            continue
        taken = []
        while True:
            takes_value = flag.kind not in (_SWITCH, _HELP)
            if value is None:
                i += 1
                if takes_value:
                    if i >= len(words) or words[i] is not None:
                        raise _UsageError(f"argument {_label(flag)}: expected one argument")
                    value = argv[i]
                    i += 1
                taken.append((flag, value))
                break
            if takes_value:
                taken.append((flag, value))
                i += 1
                break
            # a short switch runs on into the next short option: -ho FILE
            following = level.options.get("-" + value[0]) if value and name[1] != "-" else None
            if following is None:
                raise _UsageError(f"argument {_label(flag)}: ignored explicit argument {value!r}")
            taken.append((flag, None))
            flag, name, value = following, "-" + value[0], value[1:] or None
        for flag, value in taken:
            if flag.kind == _HELP:
                return None
            _take(level, flag, value, args, seen)
    return i


def _parse(argv: list[str]):
    """The namespace `_dispatch` reads, or the help text when -h/--help
    takes effect.  Raises _UsageError with argparse's wording for every
    argv argparse refused."""
    args = SimpleNamespace(**_WTL.defaults, command=None)
    extras: list[str] = []
    words = _scan(_WTL, argv)
    i = _options(_WTL, argv, words, 0, args, set(), extras)
    if i is None:
        return _help(_WTL)
    # the subcommand: the first value word, or any word after a `--`
    if i < len(words) or i + 1 < len(argv):
        level = _COMMANDS.get(argv[i])
        if level is None:
            choices = ", ".join(map(repr, _COMMANDS))
            raise _UsageError(
                f"argument command: invalid choice: {argv[i]!r} (choose from {choices})")
        args.command = argv[i]
        vars(args).update(level.defaults)
        rest = argv[i + 1:]
        words, seen, j = _scan(level, rest), set(), 0
        while True:
            j = _options(level, rest, words, j, args, seen, extras)
            if j is None:
                return _help(level)
            if j == len(words):
                break
            extras.append(rest[j])
            j += 1
        extras += rest[j:]
        missing = [_label(f) for f in level.flags if f.required and f.dest not in seen]
        if missing:
            raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
        for group in level.one_of:
            if not any(f.dest in seen for f in group):
                names = " ".join(map(_label, group))
                raise _UsageError(f"one of the arguments {names} is required")
    else:
        extras += argv[i:]
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _usage(flag: _Flag, name: str) -> str:
    if flag.kind in (_SWITCH, _HELP):
        return name
    return f"{name} {flag.metavar or flag.dest.upper()}"


def _help(level: _Level) -> str:
    """The usage line and the flag list of one parser, from the table."""
    grouped = {f.dest: group for group in level.one_of for f in group}
    parts = []
    for flag in level.flags:
        group = grouped.get(flag.dest)
        if group is None:
            usage = _usage(flag, flag.names[0])
            parts.append(usage if flag.required else f"[{usage}]")
        elif flag is group[0]:
            parts.append("(" + " | ".join(_usage(f, f.names[0]) for f in group) + ")")
    commands = "{" + ",".join(_COMMANDS) + "}"
    if level is _WTL:
        parts.append(commands + " ...")
    lines = [f"usage: {level.prog} {' '.join(parts)}", "", level.summary.strip(), ""]

    def entry(invocation: str, text: str) -> None:
        if len(invocation) > 20 and text:
            lines.extend([f"  {invocation}", " " * 24 + text])
        else:
            lines.append(f"  {invocation:20}  {text}".rstrip())

    if level is _WTL:
        lines.append("positional arguments:")
        entry(commands, "")
        for name, command in _COMMANDS.items():
            entry(f"  {name}", command.summary)
        lines.append("")
    lines.append("options:")
    for flag in level.flags:
        entry(", ".join(_usage(flag, name) for name in flag.names), flag.help)
    return "\n".join(lines) + "\n"


def _read_source(path: str, stdin: Optional[bytes]) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read() if stdin is None else stdin
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path!r}: {e.strerror}") from None


def _load_model(path: str, stdin: Optional[bytes]):
    return parse_wts(_read_source(path, stdin))


def _load_formula(args, stdin: Optional[bytes]):
    if args.formula is not None:
        return parse_formula(args.formula)
    return parse_formula(_read_source(args.formula_file, stdin))


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as e:
        raise _UsageError(f"cannot write {path!r}: {e.strerror}") from None


def run(argv: list[str], stdin: Optional[bytes] = b"") -> tuple[int, str, str]:
    """Dispatch one invocation; returns (exit code, stdout, stderr).

    A path of '-' reads `stdin`; when `stdin` is None it reads the
    process's standard input instead, at the point the path is met."""
    try:
        args = _parse(argv)
    except _UsageError as e:
        return EXIT_ERROR, "", json.dumps({"error": str(e)}) + "\n"
    if isinstance(args, str):  # the help text
        return EXIT_YES, args, ""
    if args.version:
        return EXIT_YES, f"wtl {__version__}\n", ""
    if args.command is None:
        return EXIT_ERROR, "", json.dumps({"error": "no subcommand given"}) + "\n"

    def emit(obj) -> str:
        if args.pretty:
            return json.dumps(obj, indent=2) + "\n"
        return json.dumps(obj, separators=(",", ":")) + "\n"

    try:
        code, out = _dispatch(args, stdin, emit)
        return code, out, ""
    except (_UsageError, ModelError, FormulaError, ValueError, KeyError) as e:
        return EXIT_ERROR, "", json.dumps({"error": str(e)}) + "\n"
    except RecursionError:
        # The parser and the engines recurse on the formula's nesting.
        error = "formula nested too deeply for this interpreter's recursion limit"
        return EXIT_ERROR, "", json.dumps({"error": error}) + "\n"


def _dispatch(args, stdin: Optional[bytes], emit) -> tuple[int, str]:
    if args.command == "mc":
        model = _load_model(args.model, stdin)
        holds = model_check(model, args.state, _load_formula(args, stdin))
        return (EXIT_YES if holds else EXIT_NO), emit({"holds": holds})

    if args.command == "sat":
        phi = _load_formula(args, stdin)
        tableau = None
        if args.dump_tableau:
            tableau = build_tableau(phi)
            dump = json.dumps(tableau_to_json(tableau), indent=2) + "\n"
            _write(args.dump_tableau, dump.encode("utf-8"))
        # a dumped tree already holds the verdict: the search runs once
        verdict = _verdict_of(_start(phi) if tableau is None else tableau.root)
        if not isinstance(verdict, Sat):
            return EXIT_NO, emit({"satisfiable": False})
        if args.emit_model:
            _write(args.emit_model, serialize_wts(verdict.model))
        body = {
            "satisfiable": True,
            "verified": verdict.verified,
            "state": verdict.state,
        }
        return (EXIT_YES if verdict.verified else EXIT_GAP), emit(body)

    if args.command == "valid":
        answer = is_valid(_load_formula(args, stdin))
        return (EXIT_YES if answer else EXIT_NO), emit({"valid": answer})

    if args.command == "bisim":
        model = _load_model(args.model, stdin)
        if len(args.state) not in (0, 2):
            raise _UsageError("--state must be given exactly zero or two times")
        if args.state:
            flavor = "weighted" if args.weighted else "generalized"
            same = are_bisimilar(model, *args.state, flavor)
            return (EXIT_YES if same else EXIT_NO), emit({"bisimilar": same})
        partition = (
            weighted_bisimilarity(model) if args.weighted
            else generalized_bisimilarity(model)
        )
        return EXIT_YES, emit({"blocks": partition.as_lists()})

    if args.command == "distinguish":
        model = _load_model(args.model, stdin)
        if len(args.state) != 2:
            raise _UsageError("--state must be given exactly twice")
        formula = distinguishing_formula(model, *args.state)
        if formula is None:
            return EXIT_NO, emit({"distinguishable": False, "bisimilar": True})
        return EXIT_YES, emit(
            {"distinguishable": True, "formula": print_formula(formula)}
        )

    if args.command == "quotient":
        model = _load_model(args.model, stdin)
        partition = generalized_bisimilarity(model)
        quotient = quotient_model(model, partition)
        data = serialize_wts(quotient)
        body = {"blocks": partition.as_lists()}
        if args.output:
            _write(args.output, data)
            body["written"] = args.output
        else:
            body["model"] = json.loads(data)
        return EXIT_YES, emit(body)

    if args.command == "axioms":
        report = run_suite(args.seed, args.trials, schemas=args.schema)
        code = EXIT_YES if report.unexpected_violations == 0 else EXIT_NO
        return code, emit(report.as_dict())

    if args.command == "fmt":
        if args.model is not None:
            return EXIT_YES, serialize_wts(_load_model(args.model, stdin)).decode("utf-8")
        return EXIT_YES, print_formula(_load_formula(args, stdin)) + "\n"

    raise _UsageError(f"unknown command {args.command!r}")


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, out, err = run(argv, None)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
