"""Formula AST, concrete grammar, and satisfaction semantics.

The core AST has exactly seven constructors: atoms, the two constants,
negation, conjunction, and the two weight-bound modalities.  `AtLeast(r, f)`
holds at a state when the cheapest transition into the states satisfying
`f` costs at least `r`; `AtMost(r, f)` holds when the most expensive such
transition costs at most `r`.  Surface forms (`|`, `->`, `<->`, `<>`, `[]`)
are desugared by the parser; every engine consumes core AST only.  The
nodes are frozen, slotted records (`_record.record`) rather than
dataclasses, so importing the package loads neither `dataclasses` nor
`inspect`.

The parser reads a formula in two passes.  The scanner is one compiled
pattern with one group, run by `findall`, so the character loop runs in
C and gives one flat list of token texts: after whitespace
(`str.isspace`), each is an operator, a rational's text, an identifier
or a stray character.  One pass over that list, before parsing starts,
finds the first lexical error in input order and reads every rational
(`read_rational`), with its hash, through a process-wide memo of at most
`BOUND_MEMO_SIZE` texts.  The recursive-descent parser then compares the
token texts, read by index.  It recurses on parentheses, but reads a
chain of prefixes (`!`, `L[r]`, `M[r]`, `<>`, `[]`) in one loop, and a
chain of `->` and `<->` in another, so a chain of any length parses.
It makes each modality node through `_modality`, from the memo's bound
and hash, so a bound whose text the memo holds costs no `Fraction` work
in Python.  An error names the token's position and quotes it as the
input has it.

The constructors are also the operations of an `Algebra` (tagless
style), with the derived connectives desugared once in the base class.
Its two carriers are the formulas themselves (`FORMULAS`) and the sets of
a model's states (`StateSets(m)`), which is the one definition of the set
semantics: the sat set of each constructor from the sat sets of its
operands, a modality evaluated by one forward scan of every state's
out-edges.

Two evaluators share these semantics.  `sat_set` is global: it folds a
formula into `StateSets(m)`, bottom-up, a whole set at a time.
`model_check` is local: it walks forward from its one state over the
out-edges and looks only at the states within the formula's modal depth
of it.  It keys its memo by node identity and compares each weight with
a bound as two products of ints, so no node hash and no `Fraction`
comparison runs in Python.
"""

from __future__ import annotations

import functools
import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Optional, Union

from ._record import record
from .wts import (
    IDENT_RE, Wts, as_weight, decode_utf8, format_rational, read_rational,
)

__all__ = [
    "Formula", "Atom", "Top", "Bottom", "Not", "And", "AtLeast", "AtMost",
    "lor", "implies", "iff", "diamond", "box", "conjoin",
    "FormulaError", "parse_formula", "print_formula",
    "Algebra", "FORMULAS", "StateSets",
    "sat_set", "model_check", "random_formula",
]


class Formula:
    """Base of the core constructors: frozen, slotted records compared by
    structure (`_record.record`).

    A node's hash is `hash` of the tuple of its fields, computed by the
    node's `__init__` (for the parser's modalities, by `_modality`) and
    kept in the `_hash` slot.  Children are made first, so that hash
    reads each child's slot and goes one level deep, however deep the
    formula; and no dict or set probe keyed by a node walks a subtree.
    The slot is no field, so equality, `repr` and pickled state leave it
    out; a node read back from a pickle is made again by its `__init__`.
    """

    __slots__ = ("_hash",)


_set_hash = Formula._hash.__set__


def _node(cls):
    """Make `cls` a frozen record that keeps the `__init__` written in its
    body, hashed by its `_hash` slot.

    That `__init__` is the one call that makes a node: it stores the
    fields through `cls._setters`, the setters of their slots in field
    order, and then the hash.  A frozen record refuses `setattr`, and
    `object.__setattr__` would check the class's `__setattr__` on every
    field; the parser, the tableau, the separators and the soundness suite
    make nodes by the thousand.
    """
    cls = record(cls)
    cls.__hash__ = _stored_hash
    cls.__setstate__ = _init_from_state
    return cls


def _stored_hash(self) -> int:
    return self._hash


def _init_from_state(self, state) -> None:
    self.__init__(*state)


@_node
class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        (set_name,) = self._setters
        set_name(self, name)
        _set_hash(self, hash((name,)))


_EMPTY_HASH = hash(())


@_node
class Top(Formula):
    __slots__ = ()

    def __init__(self):
        _set_hash(self, _EMPTY_HASH)


@_node
class Bottom(Formula):
    __slots__ = ()

    def __init__(self):
        _set_hash(self, _EMPTY_HASH)


@_node
class Not(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        (set_operand,) = self._setters
        set_operand(self, operand)
        _set_hash(self, hash((operand,)))


@_node
class And(Formula):
    __slots__ = ("left", "right")

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


def _modality_eq(self, other):
    """The `__eq__` of both modalities: the stored hashes first, so that
    two nodes whose bounds differ seldom reach `Fraction.__eq__`, which
    runs in Python; then the fields as one tuple, as every record compares
    them, where a bound that both nodes share is equal by identity."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._hash == other._hash and (self.bound, self.operand) == (other.bound, other.operand)


@_node
class AtLeast(Formula):
    """Every transition into the operand's states costs at least `bound`,
    and there is at least one such transition."""

    __slots__ = ("bound", "operand")

    __init__ = _init_modality
    __eq__ = _modality_eq


@_node
class AtMost(Formula):
    """Every transition into the operand's states costs at most `bound`,
    and there is at least one such transition."""

    __slots__ = ("bound", "operand")

    __init__ = _init_modality
    __eq__ = _modality_eq


_new_node = object.__new__


def _modality(cls, bound: Fraction, bound_hash: int, operand: Formula) -> Formula:
    """`cls(bound, operand)`, for the parser, given `hash(bound)`.

    The parser's bounds are weights already, since its grammar reads only
    non-negative rationals, and `_read_bound` gives each with its hash;
    so this runs neither `as_weight` nor `Fraction.__hash__`.  The node
    hash is the one `__init__` stores: a non-negative `Fraction` hashes
    into [0, 2**61 - 1), never to -1, and an int in that range hashes to
    itself, so `hash((bound_hash, operand))` is `hash((bound, operand))`.
    """
    f = _new_node(cls)
    set_bound, set_operand = cls._setters
    set_bound(f, bound)
    set_operand(f, operand)
    _set_hash(f, hash((bound_hash, operand)))
    return f


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
# `str.isspace`), and one group, so `findall` gives the token texts: an
# operator, an identifier (`IDENT_RE`), the text of an unsigned rational
# (what `read_rational` reads), or any other character, which is an
# error.  The longest operator wins: `[]` over `[`.  Every token is at
# least one character long, so "" marks the end.
_TOKEN_RE = re.compile(
    r"\s*([()!&|\]]|\[\]?|<->|->|<>"
    rf"|{IDENT_RE.pattern}"
    r"|[0-9]+(?:/[0-9]*|\.[0-9]*)?"
    r"|\S)"
)
_OPERATORS = frozenset(["(", ")", "!", "&", "|", "]", "[", "[]", "<->", "->", "<>"])
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")

# The bound memo holds at most this many rational texts (least recently
# used first out).  It is shared process-wide: a text's value depends on
# the text alone.  A text that does not read is not kept.
BOUND_MEMO_SIZE = 256


@functools.lru_cache(maxsize=BOUND_MEMO_SIZE)
def _read_bound(text: str) -> tuple[Fraction, int]:
    """The value of a bound's text, and its hash.

    The parser makes each modality node from both (`_modality`), so a
    text read from the memo costs no `Fraction.__hash__`, which runs in
    Python and takes a modular inverse."""
    value = read_rational(text)[0]
    return value, hash(value)


def _tokenize(text: str):
    """The token texts of `text`, then "", and the values of its
    rationals by token index.

    One pass reads the whole text before the parser starts, so the first
    lexical error in input order wins: a stray character, or a rational
    `read_rational` refuses.  Positions are found again only for an
    error (`_token_at`)."""
    tokens = _TOKEN_RE.findall(text)
    bounds = {}
    for k, token in enumerate(tokens):
        if token in _OPERATORS:
            continue
        first = token[0]
        if first in _NAME_START:
            continue
        if first not in _DIGITS:
            raise _error(text, k, f"unexpected character {token!r}")
        try:
            bounds[k] = _read_bound(token)
        except ValueError as e:
            raise _error(text, k, str(e)) from None
    tokens.append("")
    return tokens, bounds


def _token_at(text: str, k: int):
    """The position and the text of token `k`; past the last token, the
    end of the input and None."""
    for j, match in enumerate(_TOKEN_RE.finditer(text)):
        if j == k:
            return match.start(1), match.group(1)
    return len(text), None


def _error(text: str, k: int, message: str) -> FormulaError:
    return FormulaError(f"position {_token_at(text, k)[0]}: {message}")


# The bound of `<>` and `[]`, which are `L[0]` and `!L[0]!`, as `diamond`
# and `box` build them.
_ZERO = Fraction(0)
_ZERO_HASH = hash(_ZERO)


class _Parser:
    """Recursive descent over `_tokenize`'s token texts, read by index:
    `i` is the next token.  A token is a name when its first character
    starts an identifier; "" is the end.  Errors quote the token as the
    input has it.  `bounds` maps a rational's token index to its value
    and hash, as `_read_bound` gives them."""

    __slots__ = ("text", "tokens", "bounds", "i")

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.bounds = _tokenize(text)
        self.i = 0

    def fail(self, k: int, message: str) -> FormulaError:
        """`message`, then token `k`."""
        token = _token_at(self.text, k)[1]
        shown = "end of input" if token is None else repr(token)
        return _error(self.text, k, f"{message} {shown}")

    def formula(self) -> Formula:
        """A chain of disjunctions joined by `->` and `<->`, read in one
        loop and folded from the right: `a <-> b -> c` is
        `a <-> (b -> c)`.  There is no call per arrow, so a chain of any
        length parses."""
        f = self.disj()
        token = self.tokens[self.i]
        if token != "->" and token != "<->":
            return f
        operands, arrows = [f], []
        while token == "->" or token == "<->":
            self.i += 1
            arrows.append(implies if token == "->" else iff)
            operands.append(self.disj())
            token = self.tokens[self.i]
        f = operands.pop()
        while arrows:
            f = arrows.pop()(operands.pop(), f)
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.tokens[self.i] == "|":
            self.i += 1
            f = lor(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.prefix()
        while self.tokens[self.i] == "&":
            self.i += 1
            f = And(f, self.prefix())
        return f

    def prefix(self) -> Formula:
        """A chain of prefixes (`!`, `L[r]`, `M[r]`, `<>`, `[]`), then
        their operand: a name or a parenthesized formula.

        One loop reads the chain forward to its operand, and a second
        applies it to the operand, innermost first, going back over the
        same tokens: before the operand, a "]" can only close a bound.
        There is no call per prefix, so a chain of any length parses."""
        tokens, bounds = self.tokens, self.bounds
        start = i = self.i
        while True:
            token = tokens[i]
            if token == "!" or token == "<>" or token == "[]":
                i += 1
            elif (token == "L" or token == "M") and tokens[i + 1] == "[":
                if i + 2 not in bounds:
                    raise self.fail(i + 2, "expected a number, got")
                if tokens[i + 3] != "]":
                    raise self.fail(i + 3, "expected ']', got")
                i += 4
            else:
                break
        if token[:1] in _NAME_START:
            self.i = i + 1
            if token == "true":
                f = Top()
            elif token == "false":
                f = Bottom()
            else:
                f = Atom(token)
        elif token == "(":
            self.i = i + 1
            f = self.formula()
            if tokens[self.i] != ")":
                raise self.fail(self.i, "expected ')', got")
            self.i += 1
        else:
            raise self.fail(i, "unexpected")
        while i > start:
            i -= 1
            token = tokens[i]
            if token == "]":
                i -= 3
                bound, bound_hash = bounds[i + 2]
                f = _modality(AtLeast if tokens[i] == "L" else AtMost, bound, bound_hash, f)
            elif token == "!":
                f = Not(f)
            elif token == "<>":
                f = _modality(AtLeast, _ZERO, _ZERO_HASH, f)
            else:  # "[]"
                f = Not(_modality(AtLeast, _ZERO, _ZERO_HASH, Not(f)))
        return f


def parse_formula(text: Union[bytes, str]) -> Formula:
    """Parse formula text into core AST (derived forms desugared).

    Bytes are read as UTF-8; bytes that are not raise `FormulaError` with
    the offset of the first bad byte."""
    if isinstance(text, bytes):
        text = decode_utf8(text, FormulaError)
    parser = _Parser(text)
    f = parser.formula()
    if parser.tokens[parser.i]:
        raise parser.fail(parser.i, "trailing input")
    return f


def print_formula(f: Formula) -> str:
    """Deterministic, fully parenthesized text; parse_formula inverse.

    Iterative: a stack holds the pending text and subformulas, so any
    depth of nesting prints."""
    parts = []
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is str:
            parts.append(g)
        elif isinstance(g, Atom):
            parts.append(g.name)
        elif isinstance(g, Not):
            parts.append("!")
            stack.append(g.operand)
        elif isinstance(g, And):
            parts.append("(")
            stack += (")", g.right, " & ", g.left)
        elif isinstance(g, AtLeast):
            parts.append(f"L[{format_rational(g.bound)}] ")
            stack.append(g.operand)
        elif isinstance(g, AtMost):
            parts.append(f"M[{format_rational(g.bound)}] ")
            stack.append(g.operand)
        elif isinstance(g, Top):
            parts.append("true")
        elif isinstance(g, Bottom):
            parts.append("false")
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(parts)


class StateSets(Algebra):
    """The set algebra of the model `m`: each core constructor as an
    operation on sets of `m`'s states, the sets where its formulas hold.

    This is the one definition of the bound logic's set semantics.
    `sat_set` folds a formula into it, and the soundness suite applies its
    schemas to it directly.  A modality scans every state's out-edges
    forward, as `model_check` does one state's: in ascending rank the
    first edge into the operand's states carries the least weight, and in
    descending rank the greatest.  One `bisect` turns its bound `r` into a
    rank, over a table of keys for `m.weights`.  By default that table is
    `m.weights` itself, so `r` is a weight, as a formula's bound is.
    `_keys` may give any other ascending table that orders as `m.weights`
    does, one key per weight; `r` is then a key in that table's scale.
    The soundness suite passes the weights times the lcm of its index
    pool's denominators, so its bounds are ints.  Nothing is built or kept
    on the model: each operation costs one pass over the labels or the
    edges.
    """

    __slots__ = ("m", "_keys")

    def __init__(self, m: Wts, _keys: Optional[tuple] = None):
        self.m = m
        self._keys = m.weights if _keys is None else _keys

    def Atom(self, name: str) -> frozenset[str]:
        return frozenset(s for s, props in self.m.labels.items() if name in props)

    def Top(self) -> frozenset[str]:
        return self.m.states

    def Bottom(self) -> frozenset[str]:
        return frozenset()

    def Not(self, a: frozenset[str]) -> frozenset[str]:
        return self.m.states - a

    def And(self, a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return a & b

    def AtLeast(self, r, a: frozenset[str]) -> frozenset[str]:
        lo = bisect_left(self._keys, r)
        result = []
        for s, es in self.m._out.items():
            for rank, t in es:
                if t in a:
                    if rank >= lo:
                        result.append(s)
                    break
        return frozenset(result)

    def AtMost(self, r, a: frozenset[str]) -> frozenset[str]:
        hi = bisect_right(self._keys, r)
        result = []
        for s, es in self.m._out.items():
            for rank, t in reversed(es):
                if t in a:
                    if rank < hi:
                        result.append(s)
                    break
        return frozenset(result)


def sat_set(m: Wts, f: Formula) -> frozenset[str]:
    """States of `m` satisfying `f`, computed bottom-up, a set at a time.

    The fold of `f` into `StateSets(m)`, so the whole model is evaluated,
    each modality by a forward scan of every state's out-edges, with no
    index built on the model; to ask about one state, `model_check` is
    local.  That algebra's key table is the default one, `m.weights`, so
    each modality's bound is compared with the weights as it is.  Atoms
    absent from the model's labels are false everywhere.
    """
    return _eval(StateSets(m), f, {})


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
    `s`.  Answers are kept per (node, state) for the call, so a node that
    the formula shares costs at most one evaluation at each state:
    O(|nodes| * |edges|) in the worst case, as `sat_set`.  A `Not` over
    anything but a `Not` keeps no answer: it is met at most once per
    evaluation of a parent, and its operand keeps its own.  Equal nodes
    that are distinct objects are evaluated apart, with equal answers.
    """
    m._require_state(s)
    return _holds(m, s, f, {})


def _holds(m: Wts, s: str, f: Formula, memo: dict) -> bool:
    """`model_check`'s walker; `memo` maps (id of a node, state) to the
    answer of an `And`, `L` or `M` node, or of a `Not` over a `Not`.

    The formula is alive for the whole call, so no two of its nodes share
    an id, and the key hashes in C, with no call of the nodes' `__hash__`.
    A node is told by its exact class, as the tableau tells it.  Any other
    `Not` takes no memo entry: its parents are memoized, or are the root,
    so it is visited at most once per parent's evaluation at a state, and
    the walk stays O(|nodes| * |edges|).  A `Not` over a `Not` keeps its
    entry, so a chain of negations that many nodes share is walked once
    per state, not once per use.

    `L[r] g` scans the out-edges of `s` in ascending rank and stops at the
    first whose target satisfies `g`: that edge carries the least weight
    into `g`, so the formula holds iff it is at least r.  `M[r] g` scans in
    descending rank, for the greatest.  With no edge into `g` both are
    false, as on an empty image.  Weights and bounds are both `Fraction`s,
    whose denominators are positive, so `w >= r` is the comparison of two
    products of ints, `w.num * r.den >= r.num * w.den`.  Those ints are
    read from the `_numerator` and `_denominator` slots, since the
    `numerator` and `denominator` properties, like `Fraction.__ge__`, run
    in Python.
    """
    kind = f.__class__
    if kind is Atom:
        return f.name in m.labels[s]
    if kind is Top:
        return True
    if kind is Bottom:
        return False
    if kind is Not and f.operand.__class__ is not Not:
        return not _holds(m, s, f.operand, memo)
    key = (id(f), s)
    hit = memo.get(key)
    if hit is not None:
        return hit
    result = False
    if kind is Not:
        result = not _holds(m, s, f.operand, memo)
    elif kind is And:
        result = _holds(m, s, f.left, memo) and _holds(m, s, f.right, memo)
    elif kind is AtLeast:
        for rank, t in m._out[s]:
            if _holds(m, t, f.operand, memo):
                w, r = m.weights[rank], f.bound
                result = w._numerator * r._denominator >= r._numerator * w._denominator
                break
    elif kind is AtMost:
        for rank, t in reversed(m._out[s]):
            if _holds(m, t, f.operand, memo):
                w, r = m.weights[rank], f.bound
                result = w._numerator * r._denominator <= r._numerator * w._denominator
                break
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = result
    return result


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
