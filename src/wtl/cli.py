"""The `wtl` command line: one subcommand per engine.

Structured output is JSON on stdout; human diagnostics go to stderr.
Exit codes: 0 for a positive answer, 1 for a negative one, 2 for usage or
parse errors, 3 for a satisfiable verdict whose extracted model failed
verification.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Optional

from . import __version__
from .axioms import run_suite
from .bisimulation import (
    are_bisimilar, distinguishing_formula, generalized_bisimilarity,
    quotient_model, weighted_bisimilarity,
)
from .formulas import FormulaError, model_check, parse_formula, print_formula
from .tableau import Sat, build_tableau, is_satisfiable, is_valid, tableau_to_json
from .wts import ModelError, parse_wts, serialize_wts

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_GAP = 3


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        # -h/--help on any parser: hand the text back to `run` instead of
        # printing it and exiting the process.
        raise _HelpRequested(self.format_help())


def _build_parser() -> _Parser:
    parser = _Parser(prog="wtl", description=__doc__, add_help=True)
    parser.add_argument("--pretty", action="store_true",
                        help="indent JSON output")
    parser.add_argument("--version", action="store_true",
                        help="print version and exit")
    sub = parser.add_subparsers(dest="command")

    def add_formula_flags(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--formula", help="formula text")
        group.add_argument("--formula-file", help="file with formula text ('-' for stdin)")

    mc = sub.add_parser("mc", help="check a formula at a state of a model")
    mc.add_argument("--model", required=True)
    mc.add_argument("--state", required=True)
    add_formula_flags(mc)

    sat = sub.add_parser("sat", help="decide satisfiability")
    add_formula_flags(sat)
    sat.add_argument("--emit-model", metavar="OUT",
                     help="write the extracted model here when satisfiable")
    sat.add_argument("--dump-tableau", metavar="OUT",
                     help="write the tableau as JSON here")

    valid = sub.add_parser("valid", help="decide validity")
    add_formula_flags(valid)

    bisim = sub.add_parser("bisim", help="bisimilarity partition or pair check")
    bisim.add_argument("--model", required=True)
    bisim.add_argument("--weighted", action="store_true",
                       help="exact weight matching instead of bound matching")
    bisim.add_argument("--state", action="append", default=[],
                       help="give twice for a pair verdict")

    dist = sub.add_parser("distinguish", help="formula separating two states")
    dist.add_argument("--model", required=True)
    dist.add_argument("--state", action="append", required=True)

    quot = sub.add_parser("quotient", help="minimize under bound bisimilarity")
    quot.add_argument("--model", required=True)
    quot.add_argument("-o", "--output", help="write the quotient model here")

    ax = sub.add_parser("axioms", help="run the soundness suite")
    ax.add_argument("--seed", type=int, required=True)
    ax.add_argument("--trials", type=int, required=True)
    ax.add_argument("--schema", action="append",
                    help="restrict to these schemas (repeatable)")

    fmt = sub.add_parser("fmt", help="canonical reprint of a model or formula")
    fmt_group = fmt.add_mutually_exclusive_group(required=True)
    fmt_group.add_argument("--model")
    fmt_group.add_argument("--formula")
    fmt_group.add_argument("--formula-file")
    return parser


# Built once: parse_args leaves the parser unchanged, so every call can share it.
_PARSER = _build_parser()


def _read_source(path: str, stdin: bytes) -> bytes:
    if path == "-":
        return stdin
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path!r}: {e.strerror}") from None


def _load_model(path: str, stdin: bytes):
    return parse_wts(_read_source(path, stdin))


def _load_formula(args, stdin: bytes):
    if args.formula is not None:
        return parse_formula(args.formula)
    return parse_formula(_read_source(args.formula_file, stdin))


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as e:
        raise _UsageError(f"cannot write {path!r}: {e.strerror}") from None


def run(argv: list[str], stdin: bytes = b"") -> tuple[int, str, str]:
    """Dispatch one invocation; returns (exit code, stdout, stderr)."""
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as e:
        return EXIT_ERROR, "", json.dumps({"error": str(e)}) + "\n"
    except _HelpRequested as e:
        return EXIT_YES, e.args[0], ""
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
        # Parser, printer and engines recurse on the formula's nesting.
        error = "formula nested too deeply for this interpreter's recursion limit"
        return EXIT_ERROR, "", json.dumps({"error": error}) + "\n"


def _dispatch(args, stdin: bytes, emit) -> tuple[int, str]:
    if args.command == "mc":
        model = _load_model(args.model, stdin)
        holds = model_check(model, args.state, _load_formula(args, stdin))
        return (EXIT_YES if holds else EXIT_NO), emit({"holds": holds})

    if args.command == "sat":
        phi = _load_formula(args, stdin)
        if args.dump_tableau:
            dump = json.dumps(tableau_to_json(build_tableau(phi)), indent=2) + "\n"
            _write(args.dump_tableau, dump.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            verdict = is_satisfiable(phi)
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
    stdin = sys.stdin.buffer.read() if "-" in argv else b""
    code, out, err = run(argv, stdin)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
