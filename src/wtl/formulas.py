"""Formula AST, concrete grammar, and satisfaction semantics.

The core AST has exactly seven constructors: atoms, the two constants,
negation, conjunction, and the two weight-bound modalities.  `AtLeast(r, f)`
holds at a state when the cheapest transition into the states satisfying
`f` costs at least `r`; `AtMost(r, f)` holds when the most expensive such
transition costs at most `r`.  Surface forms (`|`, `->`, `<->`, `<>`, `[]`)
are desugared by the parser; every engine consumes core AST only.

The parser reads a formula in two passes.  The scanner is one compiled
pattern run by `findall`: after whitespace (`str.isspace`), each match is
an operator, a rational's text, an identifier or a stray character, so
the character loop runs in C; it reads every rational (`read_rational`)
before parsing starts, so the first lexical error in input order wins.
The recursive-descent parser then reads the token columns by index.  An
error names the token's position and quotes it as the input has it.

The constructors are also the operations of an `Algebra` (tagless
style), with the derived connectives desugared once in the base class.
Its two carriers are the formulas themselves (`FORMULAS`) and the sets of
a model's states (`StateSets(m)`), which is the one definition of the set
semantics: the sat set of each constructor from the sat sets of its
operands, a modality evaluated backward over the in-edges of its
operand's states.

Two evaluators share these semantics.  `sat_set` is global: it folds a
formula into `StateSets(m)`, bottom-up, a whole set at a time.
`model_check` is local: it walks forward from its one state over the
out-edges and looks only at the states within the formula's modal depth
of it.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Optional, Union

from .wts import (
    IDENT_RE, Wts, as_weight, decode_utf8, format_rational, read_rational,
)

__all__ = [
    "Formula", "Atom", "Top", "Bottom", "Not", "And", "AtLeast", "AtMost",
    "lor", "implies", "iff", "diamond", "box", "conjoin",
    "FormulaError", "parse_formula", "print_formula",
    "Algebra", "FORMULAS", "StateSets",
    "sat_set", "model_check", "modal_depth", "random_formula",
]


class Formula:
    """Base of the core constructors: frozen, slotted dataclasses compared
    by structure.

    A node's hash is `hash` of the tuple of its fields, the stock hash of a
    frozen dataclass, computed by the node's `__init__` and kept in the
    `_hash` slot.  Children are made first, so that hash reads each
    child's slot and goes one level deep, however deep the formula; and no
    dict or set probe of the model checker's and the tableau's caches
    walks a subtree.  The slot is no field, so equality, `repr` and
    pickled state leave it out; a node read back from a pickle is made
    again by its `__init__`.
    """

    __slots__ = ("_hash",)


_set_hash = Formula._hash.__set__


def _node(cls):
    """Make `cls` a frozen, slotted dataclass that keeps the `__init__`
    written in its body.

    That `__init__` is the one call that makes a node: it stores the
    fields through `cls._setters`, the setters of their slots in field
    order, and then the hash.  A frozen dataclass refuses `setattr`, and
    `object.__setattr__` would check the class's `__setattr__` on every
    field; the parser, the tableau, the separators and the soundness suite
    make nodes by the thousand.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cls._setters = tuple(cls.__dict__[f.name].__set__ for f in fields(cls))
    cls.__hash__ = _stored_hash
    cls.__setstate__ = _init_from_state
    return cls


def _stored_hash(self) -> int:
    return self._hash


def _init_from_state(self, state) -> None:
    self.__init__(*state)


@_node
class Atom(Formula):
    name: str

    def __init__(self, name: str):
        (set_name,) = self._setters
        set_name(self, name)
        _set_hash(self, hash((name,)))


_EMPTY_HASH = hash(())


@_node
class Top(Formula):
    def __init__(self):
        _set_hash(self, _EMPTY_HASH)


@_node
class Bottom(Formula):
    def __init__(self):
        _set_hash(self, _EMPTY_HASH)


@_node
class Not(Formula):
    operand: Formula

    def __init__(self, operand: Formula):
        (set_operand,) = self._setters
        set_operand(self, operand)
        _set_hash(self, hash((operand,)))


@_node
class And(Formula):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        set_left, set_right = self._setters
        set_left(self, left)
        set_right(self, right)
        _set_hash(self, hash((left, right)))


def _init_modality(self, bound, operand: Formula) -> None:
    """The `__init__` of both modalities: the bound is coerced to a weight."""
    bound = as_weight(bound)
    set_bound, set_operand = self._setters
    set_bound(self, bound)
    set_operand(self, operand)
    _set_hash(self, hash((bound, operand)))


@_node
class AtLeast(Formula):
    """Every transition into the operand's states costs at least `bound`,
    and there is at least one such transition."""

    bound: Fraction
    operand: Formula

    __init__ = _init_modality


@_node
class AtMost(Formula):
    """Every transition into the operand's states costs at most `bound`,
    and there is at least one such transition."""

    bound: Fraction
    operand: Formula

    __init__ = _init_modality


class Algebra:
    """The core constructors as operations on some carrier, in the tagless
    style of Carette, Kiselyov & Shan (JFP 2009).

    A subclass gives `Atom(name)`, `Top()`, `Bottom()`, `Not(a)`,
    `And(a, b)`, `AtLeast(r, a)` and `AtMost(r, a)`.  The derived
    connectives are desugared here, once, into `Not` and `And`, so a term
    written against an algebra, such as an axiom schema, means the same in
    every carrier: in `FORMULAS` it builds the core formula, and in
    `StateSets(m)` it computes that formula's sat set in `m`.
    """

    __slots__ = ()

    def lor(self, a, b):
        return self.Not(self.And(self.Not(a), self.Not(b)))

    def implies(self, a, b):
        return self.Not(self.And(a, self.Not(b)))

    def iff(self, a, b):
        return self.And(self.implies(a, b), self.implies(b, a))


class _Syntax(Algebra):
    """The formula algebra: each operation is the core constructor."""

    __slots__ = ()
    Atom, Top, Bottom, Not, And, AtLeast, AtMost = (
        Atom, Top, Bottom, Not, And, AtLeast, AtMost)


FORMULAS = _Syntax()

# Derived connectives, desugared to core on construction.
lor = FORMULAS.lor
implies = FORMULAS.implies
iff = FORMULAS.iff


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


# One match per token, after any whitespace (`\s` is the set of
# `str.isspace`): an operator, an identifier (`IDENT_RE`), the text of an
# unsigned rational (what `read_rational` reads), or any other character,
# which is an error.  The longest operator wins: `[]` over `[`.
_TOKEN_RE = re.compile(
    r"\s*(?:([()!&|\]]|\[\]?|<->|->|<>)"
    rf"|({IDENT_RE.pattern})"
    r"|([0-9]+(?:/[0-9]*|\.[0-9]*)?)"
    r"|(\S))"
)


def _tokenize(text: str):
    """The tokens of `text` as three columns: operators (the text, "" for
    other tokens, and a last "end"), names ("" for other tokens) and the
    rationals by token index.

    The whole text is read before the parser starts, so the first lexical
    error in input order wins.  Positions are found again only for an
    error (`_token_at`)."""
    found = _TOKEN_RE.findall(text)
    found.append(("end", "", "", ""))
    ops, names, numbers, bad = zip(*found)
    stop = len(found) - 1
    if any(bad):
        stop = next(k for k, c in enumerate(bad) if c)
    bounds = {}
    for k, number in enumerate(numbers[:stop]):
        if number:
            try:
                bounds[k] = read_rational(number)[0]
            except ValueError as e:
                raise _error(text, k, str(e)) from None
    if bad[stop]:
        raise _error(text, stop, f"unexpected character {bad[stop]!r}")
    return ops, names, bounds


def _token_at(text: str, k: int):
    """The position and the text of token `k`; past the last token, the
    end of the input and None."""
    for j, match in enumerate(_TOKEN_RE.finditer(text)):
        if j == k:
            return match.start(match.lastindex), match.group(match.lastindex)
    return len(text), None


def _error(text: str, k: int, message: str) -> FormulaError:
    return FormulaError(f"position {_token_at(text, k)[0]}: {message}")


class _Parser:
    """Recursive descent over `_tokenize`'s columns, read by index: `i` is
    the next token.  Errors quote the token as the input has it."""

    __slots__ = ("text", "ops", "names", "bounds", "i")

    def __init__(self, text: str):
        self.text = text
        self.ops, self.names, self.bounds = _tokenize(text)
        self.i = 0

    def fail(self, k: int, message: str) -> FormulaError:
        """`message`, then token `k`."""
        token = _token_at(self.text, k)[1]
        shown = "end of input" if token is None else repr(token)
        return _error(self.text, k, f"{message} {shown}")

    def formula(self) -> Formula:
        left = self.disj()
        op = self.ops[self.i]
        if op == "->":
            self.i += 1
            return implies(left, self.formula())
        if op == "<->":
            self.i += 1
            return iff(left, self.formula())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.ops[self.i] == "|":
            self.i += 1
            f = lor(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.prefix()
        while self.ops[self.i] == "&":
            self.i += 1
            f = And(f, self.prefix())
        return f

    def prefix(self) -> Formula:
        ops, i = self.ops, self.i
        op = ops[i]
        if not op:
            name = self.names[i]
            if not name:
                raise self.fail(i, "unexpected")
            if name in ("L", "M") and ops[i + 1] == "[":
                bound = self.bounds.get(i + 2)
                if bound is None:
                    raise self.fail(i + 2, "expected a number, got")
                if ops[i + 3] != "]":
                    raise self.fail(i + 3, "expected ']', got")
                self.i = i + 4
                operand = self.prefix()
                return AtLeast(bound, operand) if name == "L" else AtMost(bound, operand)
            self.i = i + 1
            if name == "true":
                return Top()
            if name == "false":
                return Bottom()
            return Atom(name)
        if op == "!":
            self.i = i + 1
            return Not(self.prefix())
        if op == "(":
            self.i = i + 1
            f = self.formula()
            if ops[self.i] != ")":
                raise self.fail(self.i, "expected ')', got")
            self.i += 1
            return f
        if op == "<>":
            self.i = i + 1
            return diamond(self.prefix())
        if op == "[]":
            self.i = i + 1
            return box(self.prefix())
        raise self.fail(i, "unexpected")


def parse_formula(text: Union[bytes, str]) -> Formula:
    """Parse formula text into core AST (derived forms desugared).

    Bytes are read as UTF-8; bytes that are not raise `FormulaError` with
    the offset of the first bad byte."""
    if isinstance(text, bytes):
        text = decode_utf8(text, FormulaError)
    parser = _Parser(text)
    f = parser.formula()
    if parser.ops[parser.i] != "end":
        raise parser.fail(parser.i, "trailing input")
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


class StateSets(Algebra):
    """The set algebra of the model `m`: each core constructor as an
    operation on sets of `m`'s states, the sets where its formulas hold.

    This is the one definition of the bound logic's set semantics.
    `sat_set` folds a formula into it, and the soundness suite applies its
    schemas to it directly.  A modality is evaluated backward, over the
    in-edges of its operand's states (`Wts.ranked_in_edges`), with one
    `bisect` of its bound `r` over a table of keys for `m.weights`.  By
    default that table is `m.weights` itself, so `r` is a weight, as a
    formula's bound is.  `_keys` may give any other ascending table that
    orders as `m.weights` does, one key per weight; `r` is then a key in
    that table's scale.  The soundness suite passes the weights times the
    lcm of its index pool's denominators, so its bounds are ints.
    """

    __slots__ = ("m", "_keys")

    def __init__(self, m: Wts, _keys: Optional[tuple] = None):
        self.m = m
        self._keys = m.weights if _keys is None else _keys

    def Atom(self, name: str) -> frozenset[str]:
        return self.m.states_labelled(name)

    def Top(self) -> frozenset[str]:
        return self.m.states

    def Bottom(self) -> frozenset[str]:
        return frozenset()

    def Not(self, a: frozenset[str]) -> frozenset[str]:
        return self.m.states - a

    def And(self, a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return a & b

    def AtLeast(self, r, a: frozenset[str]) -> frozenset[str]:
        keys = self._keys
        into = self.m.ranked_in_edges()[1]
        return _reaching_within(into, a, bisect_left(keys, r), len(keys))

    def AtMost(self, r, a: frozenset[str]) -> frozenset[str]:
        into = self.m.ranked_in_edges()[1]
        return _reaching_within(into, a, 0, bisect_right(self._keys, r))


def _reaching_within(into, targets: frozenset[str], lo: int, hi: int) -> frozenset[str]:
    """States with a transition into `targets` whose every such transition
    has a weight rank in [lo, hi), from one pass over the targets' in-edges.

    `into` is `Wts.ranked_in_edges()[1]`.  For `L[r]` the ranks below
    `bisect_left(keys, r)` are the weights under r; for `M[r]` those from
    `bisect_right(keys, r)` on are the weights over r (`StateSets`).
    """
    reach, spoilt = set(), set()
    for t in targets:
        for rank, src in into[t]:
            reach.add(src)
            if not lo <= rank < hi:
                spoilt.add(src)
    return frozenset(reach - spoilt)


def sat_set(m: Wts, f: Formula, _cache: Optional[dict] = None) -> frozenset[str]:
    """States of `m` satisfying `f`, computed bottom-up, a set at a time.

    The fold of `f` into `StateSets(m)`, so the whole model is evaluated;
    to ask about one state, `model_check` is local.  That algebra's key
    table is the default one, `m.weights`, so each modality's bound is
    compared with the weights as it is.  Atoms absent from the
    model's labels are false everywhere.  A shared cache dict may be
    passed to reuse work across related formulas.
    """
    if _cache is None:
        _cache = {}
    return _eval(StateSets(m), f, _cache)


def _eval(sets: StateSets, f: Formula, cache: dict) -> frozenset[str]:
    """The fold of `f` into `sets`, memoized per subformula in `cache`."""
    hit = cache.get(f)
    if hit is not None:
        return hit
    if isinstance(f, Atom):
        result = sets.Atom(f.name)
    elif isinstance(f, Top):
        result = sets.Top()
    elif isinstance(f, Bottom):
        result = sets.Bottom()
    elif isinstance(f, Not):
        result = sets.Not(_eval(sets, f.operand, cache))
    elif isinstance(f, And):
        result = sets.And(_eval(sets, f.left, cache), _eval(sets, f.right, cache))
    elif isinstance(f, AtLeast):
        result = sets.AtLeast(f.bound, _eval(sets, f.operand, cache))
    elif isinstance(f, AtMost):
        result = sets.AtMost(f.bound, _eval(sets, f.operand, cache))
    else:
        raise TypeError(f"not a formula: {f!r}")
    cache[f] = result
    return result


def model_check(m: Wts, s: str, f: Formula) -> bool:
    """Does state `s` of `m` satisfy `f`?

    Local and top-down: the walk starts at `s` and follows the ranked
    out-edges, so it looks only at the states within `f`'s modal depth of
    `s` and builds none of the model's indexes.  Each answer is kept per
    (subformula, state) for the call, so a formula that shares subformulas
    costs at most one evaluation of each node at each state:
    O(|subformulas| * |edges|) in the worst case, as `sat_set`.
    """
    m._require_state(s)
    return _holds(m, s, f, {})


def _holds(m: Wts, s: str, f: Formula, memo: dict) -> bool:
    """`model_check`'s walker; `memo` maps (subformula, state) to its answer.

    `L[r] g` scans the out-edges of `s` in ascending rank and stops at the
    first whose target satisfies `g`: that edge carries the least weight
    into `g`, so the formula holds iff it is at least r.  `M[r] g` scans in
    descending rank, for the greatest.  With no edge into `g` both are
    false, as on an empty image.
    """
    if isinstance(f, Atom):
        return f.name in m.labels[s]
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    key = (f, s)
    hit = memo.get(key)
    if hit is not None:
        return hit
    result = False
    if isinstance(f, Not):
        result = not _holds(m, s, f.operand, memo)
    elif isinstance(f, And):
        result = _holds(m, s, f.left, memo) and _holds(m, s, f.right, memo)
    elif isinstance(f, AtLeast):
        for rank, t in m._out[s]:
            if _holds(m, t, f.operand, memo):
                result = m.weights[rank] >= f.bound
                break
    elif isinstance(f, AtMost):
        for rank, t in reversed(m._out[s]):
            if _holds(m, t, f.operand, memo):
                result = m.weights[rank] <= f.bound
                break
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = result
    return result


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
    return _draw_formula(
        seed, sorted(atoms), max_md, sorted(as_weight(w) for w in index_pool))


def _draw_formula(seed: int, names: list[str], max_md: int, pool: list) -> Formula:
    """`random_formula`'s draw, from atom names and bounds already sorted
    (and the bounds coerced), so a caller that draws many formulas from
    one pool normalizes it once."""
    rng = random.Random(seed)
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
