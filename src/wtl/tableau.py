"""Tableau-based satisfiability decision procedure with model extraction.

A tableau node carries a formula set and two weight intervals: one
constraining the minimum and one the maximum weight of incoming
transitions.  Boolean rules split conjunctions and negated conjunctions
and drop double negations; once only literals and modal formulas remain,
the modal rule fires, producing one child per minimal operand of the
positive modal formulas, with intervals accumulated from all modal
formulas whose operand is entailed.

The two rules that do not branch (splitting a conjunction, dropping a
double negation) saturate a formula set in one pass, `_saturate`, which
also yields all that the other rules read: the leftmost negated
conjunction, the positive and the negated modal formulas, and whether
the literals clash.  At the root and a modal child, `_search` saturates
the start set, and when that changes it, returns a node for the rule
(`and` if the set holds a conjunction, else `neg-neg`) whose one child
is the saturated set; an entailment search needs no node.

Below a start, `_explore` works on saturated sets only, and builds nodes
only as it reaches them.  A node whose literals clash or whose intervals
are empty is closed at once, before any rule fires: it has no model, and
branching only adds formulas and keeps its ends.  Otherwise an interior
node branches on its leftmost negated conjunction, the negation of the
left operand first, each branch saturated when it is made, and stops at
the first open branch; a terminal node gets its modal children, each a
new query start, and they stop at the first closed one.  Branches are
walked in a loop, so the search recurses on modal nesting only.  Every
node reached records the children tried and a `closed` flag, memoized
for the query.  So the recorded tree is the one explored: an open node's
path runs through the last child of each interior node, and the finite
model extracted from it is re-checked against the root's saturated set.
`build_tableau` returns that tree for dumps, and `find_witness` is its
root when the root is open.

Semantic entailment between operands is decided by the same search on
one operand and the negation of the other, run and memoized in the query
it serves, so a decision shares nothing with another.  The modal rule
strictly lowers modal depth, so the recursion terminates and never meets
a node still being explored.
Verdicts do not depend on the order in which rules are applied, so the
order is fixed; swapping the operands of the input's conjunctions gives
the search another order.

The search compares no rationals.  Every interval end the rules make is
0, +inf or a bound written in the formula, so a query (`build_tableau`,
`is_satisfiable`, `is_valid`, a call of `entails` from outside the
search) starts by collecting its formula's bounds, plus 0, into one
sorted table, and a node's two intervals are four int ranks in it
(`RANK_INF` is +inf).  Whether both intervals hold a value and the least
minimum is not above the greatest maximum is then three int compares,
and the memo hashes ints.  The modal rule reads each modal formula's
rank from the query's dict keyed by the formula node.  Rationals come
back only at the edges, through one reader of the encoding, `_at`: the
decoder `_interval` turns two of a node's ranks into the dict a dump
writes, which `min_interval`, `max_interval`, the dump and `repr` all
read, and `extract_model` takes its weights from the table.
"""

from __future__ import annotations

import itertools
import sys
import warnings
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Union

from ._record import fill, record
from .formulas import (
    And, AtLeast, AtMost, Atom, Bottom, Formula, Not, Top,
    model_check, print_formula,
)
from .wts import Wts, _assemble, _check_idents, format_rational

__all__ = [
    "TableauNode", "Tableau", "Sat", "Unsat",
    "Verdict", "ExtractionGapWarning", "entails",
    "build_tableau", "find_witness",
    "extract_model", "is_satisfiable", "is_valid", "tableau_to_json",
]

RULE_AND = "and"
RULE_NEG_AND = "neg-and"
RULE_NEG_NEG = "neg-neg"
RULE_MOD = "mod"


# The search's interval ends are ranks in its query's bound table: the
# sorted distinct bounds written in the query's formula, plus 0, so 0 is
# the table's first entry.  Bound i closed is 2i; an open lower end at it
# is 2i+1 and an open upper end 2i-1, so a lower end is at most an upper
# end exactly when the interval between them holds a value; +inf is
# RANK_INF, above every other rank.  A node's four ends are one tuple
# (min lower, min upper, max lower, max upper); a query starts at
# [0,0], [0,0].
RANK_INF = sys.maxsize
START_ENDS = (0, 0, 0, 0)


def _at(table: tuple, rank: int, upper: bool = False) -> Fraction:
    """The bound in `table` that a finite end of rank `rank` sits at: a
    lower end at bound i is 2i or 2i+1, an upper end 2i or 2i-1."""
    return table[(rank + upper) >> 1]


def _interval(table: tuple, lower: int, upper: int) -> dict:
    """The interval whose ends have ranks `lower` and `upper` in `table`,
    as a dump writes it: each end's bound as text, and whether it is
    closed.  An end at +inf is open."""
    if upper == RANK_INF:
        high, high_closed = "inf", False
    else:
        high, high_closed = format_rational(_at(table, upper, True)), not upper & 1
    return {"lower": format_rational(_at(table, lower)), "lower_closed": not lower & 1,
            "upper": high, "upper_closed": high_closed}


def _bracketed(itv: dict) -> str:
    """An interval as `repr` writes it: `[4,5)`, `(6,inf)`."""
    return (("[" if itv["lower_closed"] else "(") + itv["lower"] + "," + itv["upper"]
            + ("]" if itv["upper_closed"] else ")"))


class TableauNode:
    """One tableau node: an insertion-ordered formula set (a tuple without
    repeats; the search's sets are deduplicated when made), the four ends
    of its two weight intervals as ranks in its query's bound table, the
    rule applied at it (if any), the children the search tried and
    whether the node is closed (has no model).  `min_interval` and
    `max_interval` read the intervals back as a dump writes them."""

    __slots__ = ("gamma", "ends", "table", "rule", "children", "closed")

    def __init__(
        self,
        gamma,
        ends: tuple[int, int, int, int],
        table: tuple[Fraction, ...],
        rule: Optional[str] = None,
        children: tuple = (),
        closed: bool = False,
    ):
        self.gamma: tuple[Formula, ...] = tuple(gamma)
        self.ends = ends
        self.table = table
        self.rule = rule
        self.children: tuple[TableauNode, ...] = tuple(children)
        self.closed = closed

    @property
    def min_interval(self) -> dict:
        """The interval of the least weight into the node's state, as a
        dump writes it."""
        return _interval(self.table, self.ends[0], self.ends[1])

    @property
    def max_interval(self) -> dict:
        """The interval of the greatest weight into the node's state, as a
        dump writes it."""
        return _interval(self.table, self.ends[2], self.ends[3])

    @property
    def kind(self) -> str:
        if self.rule == RULE_MOD:
            return "modal"
        if self.rule is None:
            return "leaf"
        return "interior"

    @property
    def is_terminal(self) -> bool:
        return self.kind in ("leaf", "modal")

    def __repr__(self):
        body = ", ".join(print_formula(f) for f in self.gamma)
        return f"<{{{body}}}, {_bracketed(self.min_interval)}, {_bracketed(self.max_interval)}>"


@record
class Tableau:
    __slots__ = ("root",)

    def __init__(self, root: TableauNode):
        fill(self, root)


class _Query:
    """What one query's search shares: the bound table, the rank in it of
    each modal subformula's bound, keyed by the formula node, the memo of
    the saturated nodes explored, keyed by (gamma, ends), and the
    entailment verdicts, keyed by (class of phi, class of psi, phi, psi).
    Entailment searches share it: a decision makes one, in `start`."""

    __slots__ = ("table", "ranks", "memo", "entailments")

    def __init__(self, table: tuple, ranks: dict):
        self.table = table
        self.ranks = ranks
        self.memo: dict = {}
        self.entailments: dict = {}

    @classmethod
    def start(cls, gamma) -> _Query:
        """The query whose search starts from the formula set `gamma`.

        The walk marks the nodes it has been through by identity, so a
        formula that shares a subformula is walked once per distinct
        node.  Each distinct bound object is scaled once by the lcm of the
        denominators, so the table is sorted and deduplicated on ints: a
        `Fraction` compares through Python code, and hashes through a
        modular inverse."""
        modal = []
        seen = set()
        stack = list(gamma)
        while stack:
            f = stack.pop()
            kind = type(f)
            while kind is Not:
                f = f.operand
                kind = type(f)
            if kind is And:
                if id(f) not in seen:
                    seen.add(id(f))
                    stack.append(f.right)
                    stack.append(f.left)
            elif kind is AtLeast or kind is AtMost:
                if id(f) not in seen:
                    seen.add(id(f))
                    modal.append(f)
                    stack.append(f.operand)
        bounds = {id(f.bound): f.bound for f in modal}
        scale = lcm(*(b.denominator for b in bounds.values()))
        scaled = {i: b.numerator * (scale // b.denominator) for i, b in bounds.items()}
        bound_at = {0: Fraction(0)}
        for i, n in scaled.items():
            bound_at.setdefault(n, bounds[i])
        order = sorted(bound_at)
        rank = {n: r for r, n in enumerate(order)}
        return cls(tuple(bound_at[n] for n in order),
                   {f: rank[scaled[id(f.bound)]] for f in modal})


def entails(phi: Formula, psi: Formula, _within: Optional[_Query] = None) -> bool:
    """Semantic entailment: `phi` and the negation of `psi` have no model
    together.  True at once when `phi == psi`, asked of one class only (the
    memo's key leads with the classes, as `L[r] g` and `M[r] g` hash
    alike); else decided by the witness search, memoized in the query.
    The modal rule passes its query as `_within`, and the search runs in
    it: a node is keyed by its set and ends in one table, so whichever
    search reaches it first explores it alike.  A call from outside makes
    a query of its own, so no call keeps anything for the next."""
    if phi.__class__ is psi.__class__ and phi == psi:
        return True
    # `start` looks through negations, so (phi, psi) has the set's table.
    query = _Query.start((phi, psi)) if _within is None else _within
    key = (phi.__class__, psi.__class__, phi, psi)
    hit = query.entailments.get(key)
    if hit is None:
        gamma, facts = _saturate((phi, Not(psi)))
        hit = query.entailments[key] = _explore(gamma, facts, START_ENDS, query).closed
    return hit


def _mod_child_specs(positives, negatives, query: _Query) -> Iterator[tuple]:
    """The modal rule at a node whose positive modal formulas are
    `positives` and whose negated ones negate `negatives`: one (operand,
    ends) pair per minimal positive operand, in order, yielded one at a
    time so that a search stopping at a bad child asks no entailment
    queries for the rest.  An operand is minimal unless another entails
    it and comes first or is not entailed by it.  The child's least
    weight is at least each entailed `L` bound and below each entailed
    negated one; its greatest weight is at most each entailed `M` bound
    and above each entailed negated one."""
    rank = query.ranks
    operands = [f.operand for f in positives]
    for i, psi in enumerate(operands):
        if any(j != i and entails(phi, psi, query)
               and (j < i or not entails(psi, phi, query))
               for j, phi in enumerate(operands)):
            continue
        a, d = 0, RANK_INF
        for f in positives:
            if entails(psi, f.operand, query):
                if f.__class__ is AtLeast:
                    a = max(a, 2 * rank[f])
                else:
                    d = min(d, 2 * rank[f])
        b, c = RANK_INF, 0
        for g in negatives:
            if entails(psi, g.operand, query):
                if g.__class__ is AtLeast:
                    b = min(b, 2 * rank[g] - 1)
                else:
                    c = max(c, 2 * rank[g] + 1)
        yield psi, (a, b, c, d)


def _saturate(gamma) -> tuple[tuple, tuple]:
    """`gamma` with the non-branching rules applied to the bottom, and the
    facts the other rules read from it, in one pass.  Every conjunction is
    split into its operands in place and every double negation dropped,
    then the set deduplicated keeping first occurrences: the set, in the
    same order, that applying the leftmost `and`, else the leftmost
    `neg-neg`, one step at a time reaches.  The facts are the index of its
    leftmost negated conjunction (None if it has none), its positive modal
    formulas, the modal formulas it negates, and whether its literals
    clash (`false`, `!true`, or an atom beside its negation); a leaf is
    told by its exact class once, when the set first takes it.  A
    conjunction node met again, by identity, is skipped: the walk has kept
    every leaf under it, so a formula that shares one conjunction at every
    level is walked once per distinct node."""
    out, pending, split = {}, [], set()
    negated_and, clash = None, False
    positives, negatives = [], []
    atoms, negated_atoms = set(), set()
    for f in gamma:
        while True:
            kind = f.__class__
            if kind is And:
                if id(f) not in split:
                    split.add(id(f))
                    pending.append(f.right)
                    f = f.left
                    continue
            elif kind is Not and f.operand.__class__ is Not:
                f = f.operand.operand
                continue
            else:
                n = len(out)
                if out.setdefault(f, n) != n:
                    pass  # taken before
                elif kind is Not:
                    g = f.operand
                    kind = g.__class__
                    if kind is And and negated_and is None:
                        negated_and = n
                    elif kind is AtLeast or kind is AtMost:
                        negatives.append(g)
                    elif kind is Atom:
                        negated_atoms.add(g.name)
                    elif kind is Top:
                        clash = True
                elif kind is AtLeast or kind is AtMost:
                    positives.append(f)
                elif kind is Atom:
                    atoms.add(f.name)
                elif kind is Bottom:
                    clash = True
            if not pending:
                break
            f = pending.pop()
    return tuple(out), (negated_and, positives, negatives,
                        clash or not atoms.isdisjoint(negated_atoms))


def _branches(gamma, index) -> Iterator[tuple]:
    """The `neg-and` rule's children at the negated conjunction
    `gamma[index]`: the negation of its left operand, then of its right,
    each branch saturated when it is made, as a (set, facts) pair."""
    f = gamma[index].operand
    before, after = gamma[:index], gamma[index + 1:]
    for part in (f.left, f.right):
        yield _saturate(before + (Not(part),) + after)


def _search(gamma, ends: tuple, query: _Query) -> TableauNode:
    """The root or a modal child <gamma, ends> (`gamma` deduplicated) as
    the search explored it.  When the non-branching rules change `gamma`,
    that is when it holds a conjunction or a double negation, the node
    applies them (`and` if it holds a conjunction, else `neg-neg`) and
    its one child is the saturated set's explored node.  The classes
    tell, so no formula node is compared."""
    node = _explore(*_saturate(gamma), ends, query)
    if any(f.__class__ is And for f in gamma):
        rule = RULE_AND
    elif any(f.__class__ is Not and f.operand.__class__ is Not for f in gamma):
        rule = RULE_NEG_NEG
    else:
        return node
    return TableauNode(gamma, ends, query.table, rule, (node,), node.closed)


def _explore(gamma, facts: tuple, ends: tuple, query: _Query) -> TableauNode:
    """The node of a saturated set, with its facts, as the search explored
    it.  An inconsistent node is closed with no children.  Otherwise an
    interior node branches on its leftmost negated conjunction and is open
    at the first open branch; a terminal node is open when every modal
    child is open, and the children stop at the first closed one.  The
    query's memo maps each saturated node reached, as (gamma, ends), to
    its explored node.  Branches keep their node's ends, and the nodes
    waiting on one are a list of (key, children, branches), so only a
    modal child, through `_search`, recurses."""
    memo = query.memo
    # Both intervals hold a value, and the least minimum weight is not
    # above the greatest maximum.  Branching only adds formulas and keeps
    # the ends, so a node that fails this is closed before any rule fires.
    a, b, c, d = ends
    empty = not (a <= b and c <= d and a <= d)
    waiting = []
    while True:
        key = (gamma, ends)
        node = memo.get(key)
        if node is None:
            negated_and, positives, negatives, clash = facts
            closed = clash or empty
            if negated_and is not None and not closed:
                branches = _branches(gamma, negated_and)
                waiting.append((key, [], branches))
                gamma, facts = next(branches)
                continue
            children = []
            if negated_and is None and not closed:
                for psi, child_ends in _mod_child_specs(positives, negatives, query):
                    children.append(_search((psi,), child_ends, query))
                    if children[-1].closed:
                        closed = True
                        break
            rule = (RULE_NEG_AND if negated_and is not None
                    else RULE_MOD if positives or negatives else None)
            node = memo[key] = TableauNode(gamma, ends, query.table, rule, children, closed)
        # The node waiting on this branch is done when it is open or last.
        while waiting:
            key, children, branches = waiting[-1]
            children.append(node)
            if node.closed:
                branch = next(branches, None)
                if branch is not None:
                    gamma, facts = branch
                    break
            waiting.pop()
            node = memo[key] = TableauNode(key[0], ends, query.table, RULE_NEG_AND,
                                           children, node.closed)
        else:
            return node


def _start(phi: Formula) -> TableauNode:
    """The explored tree of <{phi}, [0,0], [0,0]>."""
    gamma = (phi,)
    return _search(gamma, START_ENDS, _Query.start(gamma))


def build_tableau(phi: Formula) -> Tableau:
    """The tree the search explores from <{phi}, [0,0], [0,0]>."""
    return Tableau(_start(phi))


def find_witness(tableau: Tableau) -> Optional[TableauNode]:
    """The root of an open tableau, or None when it is closed."""
    return None if tableau.root.closed else tableau.root


class ExtractionGapWarning(UserWarning):
    """A model extracted from a successful tableau failed verification."""

    def __init__(self, formula: Formula, model: Wts, state: str):
        super().__init__(
            f"extracted model fails at {state}: {print_formula(formula)}"
        )
        self.formula = formula
        self.model = model
        self.state = state


def extract_model(witness: TableauNode) -> tuple[Wts, str, bool]:
    """Walk an open explored tree, turning modal nodes into transitions.
    An interior node's open child is its last one.

    Each modal child contributes a fresh state reached by the least weight
    its min-interval allows and by a weight inside its max-interval (the
    midpoint, or one above the left end when unbounded); positive atoms at
    terminal nodes become labels.  The result is re-checked against each
    formula of the root's saturated set: `verified` is False when the
    constructed model is not a witness (the verdict still stands).
    """
    counter = itertools.count()
    root_state = f"s{next(counter)}"
    labels: dict[str, set] = {root_state: set()}
    ids: dict[Fraction, int] = {}
    edges = []
    stack = [(root_state, witness)]
    while stack:
        state, node = stack.pop()
        if not node.is_terminal:
            stack.append((state, node.children[-1]))
            continue
        labels[state].update(
            f.name for f in node.gamma if f.__class__ is Atom
        )
        if node.kind == "modal":
            for child in node.children:
                table = child.table
                a, _, c, d = child.ends
                assert not a & 1  # the least weight's interval is closed below
                x, c = _at(table, a), _at(table, c)
                if d == RANK_INF:
                    y = max(x, c + 1)
                else:
                    d = _at(table, d, True)
                    y = max(x, (d - c) / 2 + c)
                fresh = f"s{next(counter)}"
                labels[fresh] = set()
                edges.append((state, ids.setdefault(x, len(ids)), fresh))
                edges.append((state, ids.setdefault(y, len(ids)), fresh))
                stack.append((fresh, child))
    # State ids made here, weights from the query's bounds.  The labels
    # are atom names, which `Atom` does not check: one pass over them all.
    label_sets = {s: frozenset(props) for s, props in labels.items()}
    _check_idents(list(frozenset().union(*label_sets.values())), "proposition")
    model = _assemble(frozenset(labels), label_sets, list(ids), edges)
    # The saturated set means what the root's does, and its conjuncts are
    # flat: a wide conjunction is not re-checked as a deep one.
    verified = all(model_check(model, root_state, f) for f in _saturate(witness.gamma)[0])
    return model, root_state, verified


@record
class Sat:
    __slots__ = ("model", "state", "verified")

    def __init__(self, model: Wts, state: str, verified: bool):
        fill(self, model, state, verified)


@record
class Unsat:
    __slots__ = ()


Verdict = Union[Sat, Unsat]


def is_satisfiable(phi: Formula) -> Verdict:
    """Search the tableau depth-first; when the root is open the verdict
    carries the extracted model and its verification outcome.  A model
    that fails verification raises an ExtractionGapWarning."""
    verdict = _verdict_of(_start(phi))
    if isinstance(verdict, Sat) and not verdict.verified:
        warnings.warn(ExtractionGapWarning(phi, verdict.model, verdict.state), stacklevel=2)
    return verdict


def _verdict_of(root: TableauNode) -> Verdict:
    """The verdict an explored tree's root gives, the model extracted
    from it when it is open."""
    if root.closed:
        return Unsat()
    model, state, verified = extract_model(root)
    return Sat(model, state, verified)


def is_valid(phi: Formula) -> bool:
    """True iff the negation has no model: the explored root of its
    tableau is closed.  No model is extracted, so no warning is raised."""
    return _start(Not(phi)).closed


def _node_json(node: TableauNode) -> dict:
    return {
        "gamma": [print_formula(f) for f in node.gamma],
        "min_interval": node.min_interval,
        "max_interval": node.max_interval,
        "kind": node.kind,
        "rule": node.rule,
        "closed": node.closed,
        "children": [_node_json(child) for child in node.children],
    }


def tableau_to_json(tableau: Tableau) -> dict:
    """JSON tree with printed formula sets, interval endpoints as strings
    ("-inf", "17/3", "inf") with open/closed flags, node kind, rule, the
    closed flag and the children the search tried."""
    return _node_json(tableau.root)
