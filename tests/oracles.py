"""Independent oracles for cross-checking the engines.

Everything here recomputes results from first principles: partitions are
found by enumerating all equivalence relations and checking the defining
clauses verbatim, and satisfiability of shallow formulas is decided by
exhausting all two-state models over a finite weight grid.  Only the AST
and model data types are shared with the package under test.

`reference_parse_formula` is the formula front end as it was before the
scanner became one compiled pattern: a character loop with `startswith`
probes and a parser that peeks and takes one token at a time.  It is kept
verbatim (bar its name) as the reference for the current parser.  Its
error messages show a rational token as a `Fraction` repr and a missing
bound as `expected 'rat'`; the current parser quotes the input instead.
"""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from typing import Union

from wtl import Partition, Wts
from wtl.formulas import (
    And, AtLeast, AtMost, Atom, Bottom, Formula, FormulaError, Not, Top, box,
    diamond, iff, implies, lor,
)
from wtl.wts import IDENT_RE, read_rational


def all_partitions(items):
    items = sorted(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1:]
        yield [[first]] + smaller


def is_bound_bisimulation(m: Wts, blocks) -> bool:
    """Defining clauses of bound bisimulation, checked verbatim: equal
    labels, equal minimum and equal maximum weight toward every class."""
    for block in blocks:
        rep = block[0]
        if any(m.labels[s] != m.labels[rep] for s in block):
            return False
        for target in blocks:
            lo, hi = m.theta_min(rep, target), m.theta_max(rep, target)
            for s in block:
                if m.theta_min(s, target) != lo or m.theta_max(s, target) != hi:
                    return False
    return True


def is_exact_bisimulation(m: Wts, blocks) -> bool:
    """Defining clauses of exact (zig-zag) bisimulation, checked verbatim."""
    index = {s: i for i, block in enumerate(blocks) for s in block}
    for block in blocks:
        rep = block[0]
        if any(m.labels[s] != m.labels[rep] for s in block):
            return False
        for s in block:
            for t in block:
                # Ranks of one model's weights: equal ranks, equal weights.
                for rank, dst in m._out[s]:
                    if not any(
                        r2 == rank and index[d2] == index[dst] for r2, d2 in m._out[t]
                    ):
                        return False
    return True


def naive_coarsest(m: Wts, predicate) -> Partition:
    """Greatest fixpoint by brute force: union of all equivalence
    relations satisfying the predicate, over every partition of S."""
    relation = set()
    for blocks in all_partitions(m.states):
        if predicate(m, blocks):
            for block in blocks:
                relation.update((s, t) for s in block for t in block)
    blocks, seen = [], set()
    for s in sorted(m.states):
        if s in seen:
            continue
        cls = {t for t in m.states if (s, t) in relation}
        seen |= cls
        blocks.append(cls)
    return Partition(blocks)


def modality_indices(f: Formula) -> set:
    if isinstance(f, (Atom, Top, Bottom)):
        return set()
    if isinstance(f, Not):
        return modality_indices(f.operand)
    if isinstance(f, And):
        return modality_indices(f.left) | modality_indices(f.right)
    return {f.bound} | modality_indices(f.operand)


def weight_candidates(f: Formula) -> list:
    """The formula's index grid, midpoints between its consecutive values,
    and one value above the top; complete for two-state witnesses."""
    indices = modality_indices(f)
    if not indices:
        return [Fraction(1)]
    gran = math.lcm(*(q.denominator for q in indices))
    lo, hi = min(indices), max(indices)
    grid = sorted(
        {Fraction(j, gran) for j in range(math.ceil(lo * gran), math.floor(hi * gran) + 1)}
        | {Fraction(0)}
    )
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    return sorted(set(grid) | set(mids) | {grid[-1] + 1})


def _prop_true(f: Formula, labels: frozenset) -> bool:
    if isinstance(f, Atom):
        return f.name in labels
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not _prop_true(f.operand, labels)
    if isinstance(f, And):
        return _prop_true(f.left, labels) and _prop_true(f.right, labels)
    raise AssertionError("modal operand must be propositional here")


def _holds_at_first(f, lab0, lab1, edge0, edge1) -> bool:
    """Truth of a modal-depth-<=1 formula at the first of two states,
    where edge_i is None or the (least, greatest) weight toward state i.
    Truth never depends on the second state's outgoing edges."""
    if isinstance(f, Atom):
        return f.name in lab0
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not _holds_at_first(f.operand, lab0, lab1, edge0, edge1)
    if isinstance(f, And):
        return _holds_at_first(f.left, lab0, lab1, edge0, edge1) and _holds_at_first(
            f.right, lab0, lab1, edge0, edge1
        )
    reached = []
    if edge0 is not None and _prop_true(f.operand, lab0):
        reached.append(edge0)
    if edge1 is not None and _prop_true(f.operand, lab1):
        reached.append(edge1)
    if not reached:
        return False
    if isinstance(f, AtLeast):
        return min(e[0] for e in reached) >= f.bound
    return max(e[1] for e in reached) <= f.bound


def bounded_model_search(f: Formula, atoms) -> Wts | None:
    """Exhaust all two-state models over the formula's weight grid; a
    witness model (satisfying `f` at state u0) or None.

    Only the least and greatest weight per target can matter at modal
    depth one, so each state pair carries at most two transitions.
    """
    candidates = weight_candidates(f)
    edge_options = [None] + list(combinations_with_replacement(candidates, 2))
    labelsets = [
        frozenset(chosen)
        for r in range(len(atoms) + 1)
        for chosen in combinations(sorted(atoms), r)
    ]
    for lab0, lab1 in product(labelsets, repeat=2):
        for edge0 in edge_options:
            for edge1 in edge_options:
                if _holds_at_first(f, lab0, lab1, edge0, edge1):
                    transitions = []
                    if edge0 is not None:
                        transitions += [("u0", edge0[0], "u0"), ("u0", edge0[1], "u0")]
                    if edge1 is not None:
                        transitions += [("u0", edge1[0], "u1"), ("u0", edge1[1], "u1")]
                    return Wts(["u0", "u1"], {"u0": lab0, "u1": lab1}, transitions)
    return None


# --- the reference formula parser ---------------------------------------

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
        if "0" <= c <= "9":
            try:
                value, end = read_rational(text, i)
            except ValueError as e:
                raise FormulaError(f"position {i}: {e}") from None
            tokens.append(("rat", value, i))
            i = end
            continue
        ident = IDENT_RE.match(text, i)
        if ident is not None:
            tokens.append(("ident", ident.group(), i))
            i = ident.end()
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


def reference_parse_formula(text: Union[bytes, str]) -> Formula:
    """Parse formula text into core AST (derived forms desugared)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    end = parser.peek()
    if end[0] != "end":
        raise FormulaError(f"position {end[2]}: trailing input {parser._show(end)}")
    return f
