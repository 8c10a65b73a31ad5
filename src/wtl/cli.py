"""The `wtl` command line: one subcommand per engine.

Structured output is JSON on stdout; human diagnostics go to stderr.
Exit codes: 0 for a positive answer, 1 for a negative one, 2 for usage or
parse errors, 3 for a satisfiable verdict, or a "not valid" one, whose
extracted model failed verification.
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace
from typing import NamedTuple, Optional

from . import __version__
from .axioms import run_suite
from .bisimulation import (
    are_bisimilar, distinguishing_formula, generalized_bisimilarity, minimize,
    weighted_bisimilarity,
)
from .formulas import FormulaError, Not, model_check, parse_formula, print_formula
from .tableau import Sat, _verdict_of, build_tableau, tableau_to_json
from .wts import ModelError, parse_wts, serialize_wts

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_GAP = 3


class _UsageError(Exception):
    pass


class _HelpText(Exception):
    pass


# The command line is one table: each subcommand's flags, keyed by their
# long option strings, and its one-of groups, each of which needs
# exactly one member.  argparse reads argv by it (`_argparser`).
# `_quick` reads the one shape scripted callers send and gives it the
# namespace argparse gives it, without importing argparse, in under a
# tenth of argparse's time.  A flag's kind says what it takes: a switch
# nothing, a value flag one word (the last one given wins), an int flag
# one word read by `int`, a repeatable flag one word per use, kept in a
# list.
_SWITCH, _VALUE, _INT, _REPEAT = "switch", "value", "int", "repeat"


class _Flag(NamedTuple):
    dest: str
    kind: str = _VALUE
    help: Optional[str] = None
    required: bool = False
    default: object = None
    metavar: Optional[str] = None
    short: Optional[str] = None


class _Level(NamedTuple):
    summary: str
    flags: dict[str, _Flag]
    one_of: tuple[tuple[str, ...], ...] = ()


_FORMULA = {
    "--formula": _Flag("formula", help="formula text"),
    "--formula-file": _Flag("formula_file", help="file with formula text ('-' for stdin)"),
}
_ONE_FORMULA = (("--formula", "--formula-file"),)
_MODEL = _Flag("model", required=True)

_COMMANDS = {
    "mc": _Level("check a formula at a state of a model", {
        "--model": _MODEL, "--state": _Flag("state", required=True), **_FORMULA,
    }, _ONE_FORMULA),
    "sat": _Level("decide satisfiability", {
        **_FORMULA,
        "--emit-model": _Flag("emit_model", help="write the extracted model here when satisfiable",
                              metavar="OUT"),
        "--dump-tableau": _Flag("dump_tableau", help="write the tableau as JSON here",
                                metavar="OUT"),
    }, _ONE_FORMULA),
    "valid": _Level("decide validity", _FORMULA, _ONE_FORMULA),
    "bisim": _Level("bisimilarity partition or pair check", {
        "--model": _MODEL,
        "--weighted": _Flag("weighted", _SWITCH,
                            "exact weight matching instead of bound matching", default=False),
        "--state": _Flag("state", _REPEAT, "give twice for a pair verdict", default=[]),
    }),
    "distinguish": _Level("formula separating two states", {
        "--model": _MODEL, "--state": _Flag("state", _REPEAT, required=True),
    }),
    "quotient": _Level("minimize under bound bisimilarity", {
        "--model": _MODEL,
        "--output": _Flag("output", help="write the quotient model here", short="-o"),
    }),
    "axioms": _Level("run the soundness suite", {
        "--seed": _Flag("seed", _INT, required=True),
        "--trials": _Flag("trials", _INT, required=True),
        "--schema": _Flag("schema", _REPEAT, "restrict to these schemas (repeatable)"),
    }),
    "fmt": _Level("canonical reprint of a model or formula", {
        "--model": _Flag("model"), **_FORMULA,
    }, (("--model", "--formula", "--formula-file"),)),
}

_ACTION = {_SWITCH: {"action": "store_true"}, _VALUE: {}, _INT: {"type": int},
           _REPEAT: {"action": "append"}}


@functools.cache
def _argparser():
    """argparse's parser of the table, built on first use."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

        def print_help(self, file=None):
            # -h/--help on any parser: hand the text back to `run` instead
            # of printing it and exiting the process.
            raise _HelpText(self.format_help())

    parser = Parser(prog="wtl", description=__doc__)
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    parser.add_argument("--version", action="store_true", help="print version and exit")
    commands = parser.add_subparsers(dest="command")
    for command, level in _COMMANDS.items():
        sub = commands.add_parser(command, help=level.summary)
        group_of = {}
        for group in level.one_of:
            group_of.update(dict.fromkeys(group, sub.add_mutually_exclusive_group(required=True)))
        for name, flag in level.flags.items():
            options = dict(_ACTION[flag.kind], dest=flag.dest, help=flag.help,
                           required=flag.required, default=flag.default)
            if flag.metavar:
                options["metavar"] = flag.metavar
            group_of.get(name, sub).add_argument(*filter(None, (flag.short, name)), **options)
    return parser


def _quick(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives `argv`, for the one shape scripted
    callers send; None for every other argv.  The shape: the subcommand
    first, then only long flags spelt in full, each as `--flag value` (a
    value that is `-`, or does not start with `-`) or `--flag=value`,
    with every required flag and one member of each one-of group."""
    level = _COMMANDS.get(argv[0]) if argv else None
    if level is None:
        return None
    flags = level.flags
    values = {flag.dest: flag.default for flag in flags.values()}
    given = set()
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=")
        flag = flags.get(name)
        if flag is None:
            return None
        if flag.kind == _SWITCH:
            if eq:
                return None
            value = True
        elif not eq:
            value = next(words, None)
            if value is None or value[:1] == "-" and value != "-":
                return None
        if flag.kind == _INT:
            try:
                value = int(value)
            except ValueError:
                return None
        elif flag.kind == _REPEAT:
            value = [*(values[flag.dest] or ()), value]
        values[flag.dest] = value
        given.add(name)
    if any(flag.required and name not in given for name, flag in flags.items()):
        return None
    if any(sum(name in given for name in group) != 1 for group in level.one_of):
        return None
    return SimpleNamespace(pretty=False, version=False, command=argv[0], **values)


# Before Python 3.13 argparse drops an option's attached value `--`
# (`--formula=--`, `-o--`) and stores an empty list in its place; so it
# reads a stand-in, and `--` is put back in the values and in the error.
_DASHES = "<dash-dash>"


def _parse(argv: list[str]):
    """The namespace `_dispatch` reads, or the help text when -h/--help
    takes effect.  Raises _UsageError with argparse's message for every
    argv argparse refuses."""
    args = _quick(argv)
    if args is not None:
        return args
    words = [w[:-2] + _DASHES if w.startswith("-") and w.endswith(("=--", "-o--")) else w
             for w in argv]
    try:
        args = _argparser().parse_args(words)
    except _UsageError as e:
        raise _UsageError(str(e).replace(_DASHES, "--")) from None
    except _HelpText as e:
        return e.args[0]
    if words != argv:
        for key, value in vars(args).items():
            if isinstance(value, str):
                setattr(args, key, value.replace(_DASHES, "--"))
            elif isinstance(value, list):
                setattr(args, key, [v.replace(_DASHES, "--") for v in value])
    return args


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
        # The tableau recurses on a formula's modal nesting, and its dump on
        # the explored tree's depth; the parser and the evaluators do not.
        error = "formula nested too deeply for this interpreter's recursion limit"
        return EXIT_ERROR, "", json.dumps({"error": error}) + "\n"


def _dispatch(args, stdin: Optional[bytes], emit) -> tuple[int, str]:
    if args.command == "mc":
        model = _load_model(args.model, stdin)
        holds = model_check(model, args.state, _load_formula(args, stdin))
        return (EXIT_YES if holds else EXIT_NO), emit({"holds": holds})

    if args.command == "sat":
        tableau = build_tableau(_load_formula(args, stdin))
        if args.dump_tableau:
            dump = json.dumps(tableau_to_json(tableau), indent=2) + "\n"
            _write(args.dump_tableau, dump.encode("utf-8"))
        verdict = _verdict_of(tableau.root)
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
        # "No" only with a countermodel that the negation's search gave
        # and that was checked; one that failed its check is a gap.
        verdict = _verdict_of(build_tableau(Not(_load_formula(args, stdin))).root)
        if not isinstance(verdict, Sat):
            return EXIT_YES, emit({"valid": True})
        if verdict.verified:
            return EXIT_NO, emit({"valid": False})
        return EXIT_GAP, emit({"valid": False, "verified": False})

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
        partition, quotient = minimize(model)
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
