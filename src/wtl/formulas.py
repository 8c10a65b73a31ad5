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

The parser reads a formula in one pass.  The scanner is one compiled
pattern with one group, run by `findall`, so the character loop runs in
C and gives one flat list of token texts: after whitespace
(`str.isspace`), each is an operator, a rational's text, an identifier
or a stray character.  The parser compares the token texts, read by
index, in one loop with no recursion: a parenthesis pushes the
enclosing level onto a list, and its close pops it.  So nesting, chains
of prefixes and chains of infix operators parse at any depth and
length, and `parse_formula` reads back everything `print_formula`
prints.  It reads each bound where it meets it (`read_rational`), with
its hash, through a process-wide memo of at most `BOUND_MEMO_SIZE`
texts, and makes each modality node through `_modality`, from the
memo's bound and hash, so a bound whose text the memo holds costs no
`Fraction` work in Python.  The first lexical error in input order (a
stray character, or a rational `read_rational` refuses) wins over a
syntax error; every token before the one a parse stops at was accepted,
so the tokens are scanned for a lexical error only from there on, and
only when the parse fails.  An error names the token's position and
quotes it as the input has it.

The constructors are also the operations of an `Algebra` (tagless
style), with the derived connectives desugared once in the base class.
Its two carriers are the formulas themselves (`FORMULAS`) and the sets of
a model's states (`StateSets(m)`), which is the one definition of the set
semantics: the sat set of each constructor from the sat sets of its
operands, a derived connective as one set operation, and a modality
evaluated by one forward scan of every state's out-edges, once per
algebra instance for each bound and operand set.  `random_formula`'s
drawer builds in any algebra, so a draw into `StateSets(m)` is the
drawn formula's sat set.

Two evaluators share these semantics.  `sat_set` is global: it folds a
formula into `StateSets(m)`, bottom-up, a whole set at a time, in one
loop over the distinct nodes, so it answers at any nesting depth.
`model_check` is local: it walks forward from its one state over the
out-edges and looks only at the states within the formula's modal depth
of it.  It keys its memo by node identity and compares each weight with
a bound as two products of ints, so no node hash and no `Fraction`
comparison runs in Python.  The walk recurses, so a formula nested past
the interpreter's recursion limit is answered by `sat_set` instead.
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
    """Base of the core constructors: frozen, slotted records
    (`_record.record`) compared by structure.

    A node's hash is `hash` of the tuple of its fields, computed by the
    node's `__init__` (for the parser's modalities, by `_modality`) and
    kept in the `_hash` slot.  Children are made first, so that hash
    reads each child's slot and goes one level deep, however deep the
    formula; and no dict or set probe keyed by a node walks a subtree.
    The slot is no field, so `repr` and pickled state leave it out; a
    node read back from a pickle is made again by its `__init__`.

    `==` walks both formulas in one loop, so any depth compares, and each
    pair of conjunctions once: operands shared within a formula, as `<->`
    shares them, cost time linear in its distinct nodes, not its unfolding.
    """

    __slots__ = ("_hash",)


_set_hash = Formula._hash.__set__


def _node(cls):
    """Make `cls` a frozen record hashed by its `_hash` slot and compared
    by `_formula_eq`: all that a node does otherwise than a record.

    The `__init__` written in its body is the one call that makes a node,
    a pickled one too: it stores the fields through `cls._setters`, the
    setters of their slots in field order, and then the hash.  A frozen
    record refuses `setattr`, and `object.__setattr__` would check the
    class's `__setattr__` on every field; the parser, the tableau, the
    separators and the soundness suite make nodes by the thousand.
    """
    cls = record(cls)
    cls.__hash__ = _stored_hash
    cls.__eq__ = _formula_eq
    return cls


def _stored_hash(self) -> int:
    return self._hash


def _formula_eq(self, other):
    """The `__eq__` of every node.  Stored hashes come before names and
    bounds, so that bounds that differ seldom reach `Fraction.__eq__`,
    which runs in Python; the right operands of conjunctions wait on a
    list made only at the first conjunction, so most calls allocate none."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    a, b = self, other
    pending = seen = None
    while True:
        if a is not b:
            cls = a.__class__
            if b.__class__ is not cls or a._hash != b._hash:
                return False
            if cls is Atom:
                if a.name != b.name:
                    return False
            elif cls is Not:
                a, b = a.operand, b.operand
                continue
            elif cls is And:
                if pending is None:
                    pending, seen = [], set()
                pair = (id(a), id(b))
                if pair not in seen:
                    seen.add(pair)
                    pending.append((a.right, b.right))
                    a, b = a.left, b.left
                    continue
            elif cls is not Top and cls is not Bottom:
                if a.bound is not b.bound and a.bound != b.bound:
                    return False
                a, b = a.operand, b.operand
                continue
        if not pending:
            return True
        a, b = pending.pop()


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


@_node
class AtLeast(Formula):
    """Every transition into the operand's states costs at least `bound`,
    and there is at least one such transition."""

    __slots__ = ("bound", "operand")

    __init__ = _init_modality


@_node
class AtMost(Formula):
    """Every transition into the operand's states costs at most `bound`,
    and there is at least one such transition."""

    __slots__ = ("bound", "operand")

    __init__ = _init_modality


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
    `StateSets(m)` it computes that formula's sat set in `m`.  A carrier
    may override a derived connective with an operation that gives the
    value of its desugaring, as `StateSets` does.
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


def _token_at(text: str, k: int):
    """The position and the text of token `k`; past the last token, the
    end of the input and None."""
    for j, match in enumerate(_TOKEN_RE.finditer(text)):
        if j == k:
            return match.start(1), match.group(1)
    return len(text), None


def _error(text: str, k: int, message: str) -> FormulaError:
    return FormulaError(f"position {_token_at(text, k)[0]}: {message}")


def _stopped(text: str, tokens: list, k: int, message: str) -> FormulaError:
    """The error of a parse that stopped at token `k`: the first lexical
    error from token `k` on (a stray character, or a rational
    `read_rational` refuses), else `message`, then token `k`."""
    for j in range(k, len(tokens) - 1):
        token = tokens[j]
        if token[0] in _DIGITS:
            try:
                read_rational(token)
            except ValueError as e:
                return _error(text, j, str(e))
        elif token not in _OPERATORS and token[0] not in _NAME_START:
            return _error(text, j, f"unexpected character {token!r}")
    token = _token_at(text, k)[1]
    shown = "end of input" if token is None else repr(token)
    return _error(text, k, f"{message} {shown}")


# The bound of `<>` and `[]`, which are `L[0]` and `!L[0]!`, as `diamond`
# and `box` build them.
_ZERO = Fraction(0)
_ZERO_HASH = hash(_ZERO)


def _parse(text: str) -> Formula:
    """The whole text as one formula, read in one loop over its token
    texts, by index, with no recursion.

    A token is a name when its first character starts an identifier; ""
    is the end.  An operand is a chain of prefixes (`!`, `L[r]`, `M[r]`,
    `<>`, `[]`), read forward to a name or a `(`; a bound is read where
    it is met (`_read_bound`), and a bound that does not read is the
    error at once.  A level folds its operands as it reads them: `&`
    into `conj`, `|` into `disj`, and a chain of `->` and `<->` into
    `chain`, each disjunction followed by its arrow, to be folded from
    the right at the level's end (`a <-> b -> c` is `a <-> (b -> c)`).
    A `(` pushes the enclosing level and the span of its prefixes onto
    `stack`; its `)` pops them, and the finished formula becomes an
    operand there.  Prefixes are applied to their operand innermost
    first, going back over their tokens: before the operand, a "]" can
    only close a bound.  Nothing recurses, so nesting and chains of any
    length parse.

    The first lexical error in input order wins over a syntax error, yet
    a text that parses is read once.  Every token before the one the
    parse stops at was compared with an operator, taken as a name, or
    read as a bound, so none of them is a lexical error; `_stopped`
    looks for one only from the stop on."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    bounds = {}
    stack = []
    conj = disj = None
    chain = []
    i = 0
    while True:
        start = i
        while True:
            token = tokens[i]
            if token == "!" or token == "<>" or token == "[]":
                i += 1
            elif (token == "L" or token == "M") and tokens[i + 1] == "[":
                i += 2
                if tokens[i][:1] not in _DIGITS:
                    raise _stopped(text, tokens, i, "expected a number, got")
                try:
                    bounds[i] = _read_bound(tokens[i])
                except ValueError as e:
                    raise _error(text, i, str(e)) from None
                i += 1
                if tokens[i] != "]":
                    raise _stopped(text, tokens, i, "expected ']', got")
                i += 1
            else:
                break
        if token == "(":
            stack.append((start, i, conj, disj, chain))
            conj = disj = None
            chain = []
            i += 1
            continue
        if token[:1] not in _NAME_START:
            raise _stopped(text, tokens, i, "unexpected")
        if token == "true":
            f = Top()
        elif token == "false":
            f = Bottom()
        else:
            f = Atom(token)
        end = i
        i += 1
        while True:  # `f` is an operand: fold it in, or close the level
            while end > start:
                end -= 1
                token = tokens[end]
                if token == "]":
                    end -= 3
                    bound, bound_hash = bounds[end + 2]
                    f = _modality(AtLeast if tokens[end] == "L" else AtMost, bound, bound_hash, f)
                elif token == "!":
                    f = Not(f)
                elif token == "<>":
                    f = _modality(AtLeast, _ZERO, _ZERO_HASH, f)
                else:  # "[]"
                    f = Not(_modality(AtLeast, _ZERO, _ZERO_HASH, Not(f)))
            conj = f if conj is None else And(conj, f)
            token = tokens[i]
            if token == "&":
                break
            disj = conj if disj is None else lor(disj, conj)
            conj = None
            if token == "|":
                break
            if token == "->" or token == "<->":
                chain += (disj, implies if token == "->" else iff)
                disj = None
                break
            f = disj
            while chain:  # the arrow is popped first, then its left operand
                f = chain.pop()(chain.pop(), f)
            if not stack:
                if token:
                    raise _stopped(text, tokens, i, "trailing input")
                return f
            if token != ")":
                raise _stopped(text, tokens, i, "expected ')', got")
            i += 1
            start, end, conj, disj, chain = stack.pop()
        i += 1


def parse_formula(text: Union[bytes, str]) -> Formula:
    """Parse formula text into core AST (derived forms desugared).

    Bytes are read as UTF-8; bytes that are not raise `FormulaError` with
    the offset of the first bad byte."""
    if isinstance(text, bytes):
        text = decode_utf8(text, FormulaError)
    return _parse(text)


def print_formula(f: Formula) -> str:
    """Deterministic, fully parenthesized text; parse_formula inverse.

    Iterative: a stack holds the pending text and subformulas, so any
    depth of nesting prints.  A subformula is printed at each of its
    uses, save one shape: the conjunction that `iff(x, y)` builds, whose
    two `x` and two `y` are the same objects, prints as `(x <-> y)`, so
    each operand is printed once and a chain of `<->` prints in linear
    size.  Only `<->` text and `Algebra.iff` build that shape; the text
    reads back to an equal formula."""
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
            pair = _iff_operands(g)
            parts.append("(")
            if pair is None:
                stack += (")", g.right, " & ", g.left)
            else:
                stack += (")", pair[1], " <-> ", pair[0])
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


def _iff_operands(g: And):
    """`(x, y)` when `g` is `And(Not(And(x, Not(y))), Not(And(y, Not(x))))`
    with its two `x` and its two `y` the same objects, as `iff(x, y)`
    builds it; otherwise None."""
    left, right = g.left, g.right
    if left.__class__ is not Not or right.__class__ is not Not:
        return None
    a, b = left.operand, right.operand
    if a.__class__ is not And or b.__class__ is not And:
        return None
    not_y, not_x = a.right, b.right
    if (not_y.__class__ is Not and not_x.__class__ is Not
            and not_x.operand is a.left and not_y.operand is b.left):
        return a.left, b.left
    return None


class StateSets(Algebra):
    """The set algebra of the model `m`: each core constructor as an
    operation on sets of `m`'s states, the sets where its formulas hold.

    This is the one definition of the bound logic's set semantics.
    `sat_set` folds a formula into it, and the soundness suite draws its
    formulas into it and applies its schemas to it directly.  The derived
    connectives are one set operation each: `lor` is `a | b`, `implies`
    is `(states - a) | b` and `iff` is `states - (a ^ b)`, the sets of
    their desugarings in `Algebra`.

    A modality scans every state's out-edges forward, as `model_check`
    does one state's: in ascending rank the first edge into the operand's
    states carries the least weight, and in descending rank the greatest.
    One `bisect` turns its bound `r` into a rank, over a table of keys for
    `m.weights`.  By default that table is `m.weights` itself, so `r` is a
    weight, as a formula's bound is.  `_keys` may give any other ascending
    table that orders as `m.weights` does, one key per weight; `r` is then
    a key in that table's scale.  The soundness suite passes the weights
    times the lcm of its index pool's denominators, so its bounds are
    ints.

    Each instance keeps the modalities it has computed, keyed by
    (modality, bound, operand set), so a modality asked again of an equal
    set and bound costs one dict probe.  That memo lives as long as the
    instance: `sat_set` makes one per call and the soundness suite one
    per trial.  Nothing is built or kept on the model: each operation
    costs one pass over the labels or the edges.
    """

    __slots__ = ("m", "_keys", "_modal")

    def __init__(self, m: Wts, _keys: Optional[tuple] = None):
        self.m = m
        self._keys = m.weights if _keys is None else _keys
        self._modal: dict[tuple, frozenset[str]] = {}

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

    def lor(self, a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return a | b

    def implies(self, a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return (self.m.states - a) | b

    def iff(self, a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return self.m.states - (a ^ b)

    def AtLeast(self, r, a: frozenset[str]) -> frozenset[str]:
        key = (AtLeast, r, a)
        result = self._modal.get(key)
        if result is None:
            lo = bisect_left(self._keys, r)
            found = []
            for s, es in self.m._out.items():
                for rank, t in es:
                    if t in a:
                        if rank >= lo:
                            found.append(s)
                        break
            result = self._modal[key] = frozenset(found)
        return result

    def AtMost(self, r, a: frozenset[str]) -> frozenset[str]:
        key = (AtMost, r, a)
        result = self._modal.get(key)
        if result is None:
            hi = bisect_right(self._keys, r)
            found = []
            for s, es in self.m._out.items():
                for rank, t in reversed(es):
                    if t in a:
                        if rank < hi:
                            found.append(s)
                        break
            result = self._modal[key] = frozenset(found)
        return result


def sat_set(m: Wts, f: Formula) -> frozenset[str]:
    """States of `m` satisfying `f`, computed bottom-up, a set at a time.

    The fold of `f` into a fresh `StateSets(m)`, so the whole model is
    evaluated, each modality by a forward scan of every state's
    out-edges, with no index built on the model and no memo kept past
    the call; to ask about one state, `model_check` is local.  That
    algebra's key table is the default one, `m.weights`, so each
    modality's bound is compared with the weights as it is.  Atoms absent
    from the model's labels are false everywhere.  The fold is one loop,
    with no recursion, so it answers at any nesting depth.
    """
    return _eval(StateSets(m), f)


def _eval(sets: StateSets, f: Formula) -> frozenset[str]:
    """The fold of `f` into `sets`: one loop over the distinct nodes of
    `f`, keyed by `id()`, each folded after its operands.  A node at the
    top of the stack whose operands are not all folded pushes them and
    stays; it is folded when it comes back to the top.  A node that two
    parents pushed is folded once, and skipped when it comes back."""
    done: dict[int, frozenset[str]] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in done:
            stack.pop()
            continue
        kind = g.__class__
        if kind is Atom:
            result = sets.Atom(g.name)
        elif kind is And:
            a = done.get(id(g.left))
            b = done.get(id(g.right))
            if a is None or b is None:
                if b is None:
                    stack.append(g.right)
                if a is None:
                    stack.append(g.left)
                continue
            result = sets.And(a, b)
        elif kind is Not or kind is AtLeast or kind is AtMost:
            a = done.get(id(g.operand))
            if a is None:
                stack.append(g.operand)
                continue
            if kind is Not:
                result = sets.Not(a)
            elif kind is AtLeast:
                result = sets.AtLeast(g.bound, a)
            else:
                result = sets.AtMost(g.bound, a)
        elif kind is Top:
            result = sets.Top()
        elif kind is Bottom:
            result = sets.Bottom()
        else:
            raise TypeError(f"not a formula: {g!r}")
        done[id(g)] = result
        stack.pop()
    return done[id(f)]


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

    The walk recurses once per level of nesting.  A formula nested past
    the interpreter's recursion limit is answered by `sat_set` instead,
    which loops: that pays for the failed walk, and then evaluates every
    node of `f` over the whole model, O(|nodes| * (|states| + |edges|)),
    not only the states near `s`.
    """
    m._require_state(s)
    try:
        return _holds(m, s, f, {})
    except RecursionError:
        return s in sat_set(m, f)


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


def _draw_formula(seed: int, names: list[str], max_md: int, pool: list,
                  algebra: Algebra = FORMULAS):
    """`random_formula`'s draw, from atom names and bounds already sorted
    (and the bounds coerced), so a caller that draws many formulas from
    one pool normalizes it once.

    The draw is built in `algebra`: in `FORMULAS` it is the formula, and
    in `StateSets(m)` it is that formula's sat set in `m`, with no node
    made.  A bound is picked from `pool` by its index, so a pool of keys
    in another scale, one per bound in the same order, takes the same
    draws; the soundness suite draws into its int-keyed sets that way."""
    rng = random.Random(seed)
    return _grow(rng, names, max_md, pool, rng.randint(3, 10), algebra)


_LEAVES = ("atom",) * 6 + ("top", "bottom")
_CONSTANTS = ("top", "bottom")
_INNER = ("atom", "atom", "not", "not", "and", "and")
_INNER_MODAL = _INNER + ("atleast", "atleast", "atmost", "atmost")


def _grow(rng, names, md_left, pool, budget, A):
    if budget <= 1 or (not names and rng.random() < 0.5):
        kind = rng.choice(_LEAVES if names else _CONSTANTS)
    else:
        kind = rng.choice(_INNER_MODAL if md_left > 0 and pool else _INNER)
    if kind == "atom":
        return A.Atom(rng.choice(names)) if names else A.Top()
    if kind == "top":
        return A.Top()
    if kind == "bottom":
        return A.Bottom()
    if kind == "not":
        return A.Not(_grow(rng, names, md_left, pool, budget - 1, A))
    if kind == "and":
        split = rng.randint(1, max(1, budget - 2))
        return A.And(
            _grow(rng, names, md_left, pool, split, A),
            _grow(rng, names, md_left, pool, budget - 1 - split, A),
        )
    operand = _grow(rng, names, md_left - 1, pool, budget - 1, A)
    if kind == "atleast":
        return A.AtLeast(rng.choice(pool), operand)
    return A.AtMost(rng.choice(pool), operand)
