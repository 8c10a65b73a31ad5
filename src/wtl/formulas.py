"""Formula AST, concrete grammar, and satisfaction semantics.

The core AST has exactly seven constructors: atoms, the two constants,
negation, conjunction, and the two weight-bound modalities.  `AtLeast(r, f)`
holds at a state when the cheapest transition into the states satisfying
`f` costs at least `r`; `AtMost(r, f)` holds when the most expensive such
transition costs at most `r`.  Surface forms (`|`, `->`, `<->`, `<>`, `[]`)
are desugared by the parser; every engine consumes core AST only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .wts import NEG_INF, POS_INF, Wts, as_weight, format_rational, read_rational

__all__ = [
    "Formula", "Atom", "Top", "Bottom", "Not", "And", "AtLeast", "AtMost",
    "lor", "implies", "iff", "diamond", "box", "conjoin",
    "FormulaError", "parse_formula", "print_formula",
    "sat_set", "model_check", "modal_depth", "random_formula",
]


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class AtLeast(Formula):
    """Every transition into the operand's states costs at least `bound`,
    and there is at least one such transition."""

    bound: Fraction
    operand: Formula

    def __post_init__(self):
        object.__setattr__(self, "bound", as_weight(self.bound))


@dataclass(frozen=True)
class AtMost(Formula):
    """Every transition into the operand's states costs at most `bound`,
    and there is at least one such transition."""

    bound: Fraction
    operand: Formula

    def __post_init__(self):
        object.__setattr__(self, "bound", as_weight(self.bound))


# Derived connectives, desugared to core on construction.

def lor(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def diamond(f: Formula) -> Formula:
    return AtLeast(0, f)


def box(f: Formula) -> Formula:
    return Not(AtLeast(0, Not(f)))


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Left-fold conjunction; empty input gives the true constant."""
    result: Optional[Formula] = None
    for f in formulas:
        result = f if result is None else And(result, f)
    return Top() if result is None else result


class FormulaError(ValueError):
    """Formula text violates the grammar."""


_TWO_CHAR = ("<->", "->", "<>", "[]")
_SINGLE = "()[]!&|"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        matched = False
        for op in _TWO_CHAR:
            if text.startswith(op, i):
                tokens.append((op, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if c in _SINGLE:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdecimal():
            try:
                value, end = read_rational(text, i)
            except ValueError as e:
                raise FormulaError(f"position {i}: {e}") from None
            tokens.append(("rat", value, i))
            i = end
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise FormulaError(f"position {i}: unexpected character {c!r}")
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise FormulaError(
                f"position {tok[2]}: expected {kind!r}, got {self._show(tok)}"
            )
        self.pos += 1
        return tok

    @staticmethod
    def _show(tok) -> str:
        return "end of input" if tok[0] == "end" else repr(tok[1])

    def formula(self) -> Formula:
        left = self.disj()
        kind = self.peek()[0]
        if kind == "->":
            self.take("->")
            return implies(left, self.formula())
        if kind == "<->":
            self.take("<->")
            return iff(left, self.formula())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek()[0] == "|":
            self.take("|")
            f = lor(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.prefix()
        while self.peek()[0] == "&":
            self.take("&")
            f = And(f, self.prefix())
        return f

    def prefix(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "!":
            self.take("!")
            return Not(self.prefix())
        if kind == "<>":
            self.take("<>")
            return diamond(self.prefix())
        if kind == "[]":
            self.take("[]")
            return box(self.prefix())
        if kind == "(":
            self.take("(")
            f = self.formula()
            self.take(")")
            return f
        if kind == "ident":
            if value in ("L", "M") and self.peek_is_bracket():
                self.take("ident")
                self.take("[")
                bound = self.take("rat")[1]
                self.take("]")
                operand = self.prefix()
                return AtLeast(bound, operand) if value == "L" else AtMost(bound, operand)
            if value == "true":
                self.take("ident")
                return Top()
            if value == "false":
                self.take("ident")
                return Bottom()
            self.take("ident")
            return Atom(value)
        raise FormulaError(
            f"position {pos}: unexpected {self._show(self.peek())}"
        )

    def peek_is_bracket(self) -> bool:
        return self.tokens[self.pos + 1][0] == "["


def parse_formula(text: Union[bytes, str]) -> Formula:
    """Parse formula text into core AST (derived forms desugared)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    end = parser.peek()
    if end[0] != "end":
        raise FormulaError(f"position {end[2]}: trailing input {parser._show(end)}")
    return f


def print_formula(f: Formula) -> str:
    """Deterministic, fully parenthesized text; parse_formula inverse."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        return "!" + print_formula(f.operand)
    if isinstance(f, And):
        return f"({print_formula(f.left)} & {print_formula(f.right)})"
    if isinstance(f, AtLeast):
        return f"L[{format_rational(f.bound)}] {print_formula(f.operand)}"
    if isinstance(f, AtMost):
        return f"M[{format_rational(f.bound)}] {print_formula(f.operand)}"
    raise TypeError(f"not a formula: {f!r}")


def sat_set(m: Wts, f: Formula, _cache: Optional[dict] = None) -> frozenset[str]:
    """States of `m` satisfying `f`, computed bottom-up.

    Atoms absent from the model's labels are false everywhere.  A shared
    cache dict may be passed to reuse work across related formulas.
    """
    if _cache is None:
        _cache = {}
    return _eval(m, f, _cache)


def _eval(m: Wts, f: Formula, cache: dict) -> frozenset[str]:
    hit = cache.get(f)
    if hit is not None:
        return hit
    if isinstance(f, Atom):
        result = frozenset(s for s in m.states if f.name in m.labels[s])
    elif isinstance(f, Top):
        result = m.states
    elif isinstance(f, Bottom):
        result = frozenset()
    elif isinstance(f, Not):
        result = m.states - _eval(m, f.operand, cache)
    elif isinstance(f, And):
        result = _eval(m, f.left, cache) & _eval(m, f.right, cache)
    elif isinstance(f, AtLeast):
        bounds = _bounds_into(m, _eval(m, f.operand, cache))
        result = frozenset(s for s, (lo, _) in bounds if lo >= f.bound)
    elif isinstance(f, AtMost):
        bounds = _bounds_into(m, _eval(m, f.operand, cache))
        result = frozenset(s for s, (_, hi) in bounds if hi <= f.bound)
    else:
        raise TypeError(f"not a formula: {f!r}")
    cache[f] = result
    return result


def _bounds_into(m: Wts, targets: frozenset[str]):
    """(s, (theta_min, theta_max) of s toward `targets`) for every state,
    from one scan of each state's out-edges."""
    inside = {s: s in targets for s in m.states}
    for s in m.states:
        yield s, m.bounds_by_block(s, inside).get(True, (NEG_INF, POS_INF))


def model_check(m: Wts, s: str, f: Formula) -> bool:
    """Does state `s` of `m` satisfy `f`?"""
    m._require_state(s)
    return s in sat_set(m, f)


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Atom, Top, Bottom)):
        return 0
    if isinstance(f, Not):
        return modal_depth(f.operand)
    if isinstance(f, And):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, (AtLeast, AtMost)):
        return 1 + modal_depth(f.operand)
    raise TypeError(f"not a formula: {f!r}")


def random_formula(
    seed: int,
    atoms: Iterable[str],
    max_md: int,
    index_pool: Iterable,
) -> Formula:
    """Seed-deterministic random core formula with modal depth <= max_md."""
    rng = random.Random(seed)
    names = sorted(atoms)
    pool = sorted(as_weight(w) for w in index_pool)
    return _grow(rng, names, max_md, pool, budget=rng.randint(3, 10))


def _grow(rng, names, md_left, pool, budget) -> Formula:
    leaves = ["atom"] * 6 + ["top", "bottom"]
    if budget <= 1 or (not names and rng.random() < 0.5):
        kind = rng.choice(leaves) if names else rng.choice(["top", "bottom"])
    else:
        choices = ["atom", "atom", "not", "not", "and", "and"]
        if md_left > 0 and pool:
            choices += ["atleast", "atleast", "atmost", "atmost"]
        kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice(names)) if names else Top()
    if kind == "top":
        return Top()
    if kind == "bottom":
        return Bottom()
    if kind == "not":
        return Not(_grow(rng, names, md_left, pool, budget - 1))
    if kind == "and":
        split = rng.randint(1, max(1, budget - 2))
        return And(
            _grow(rng, names, md_left, pool, split),
            _grow(rng, names, md_left, pool, budget - 1 - split),
        )
    operand = _grow(rng, names, md_left - 1, pool, budget - 1)
    if kind == "atleast":
        return AtLeast(rng.choice(pool), operand)
    return AtMost(rng.choice(pool), operand)
