"""Tableau-based satisfiability decision procedure with model extraction.

A tableau node carries a formula set and two weight intervals: one
constraining the minimum and one the maximum weight of incoming
transitions.  Boolean rules split conjunctions and negated conjunctions
and drop double negations; once only literals and modal formulas remain,
the modal rule fires, producing one child per minimal operand of the
positive modal formulas, with intervals accumulated from all modal
formulas whose operand is entailed.

The two rules that do not branch (splitting a conjunction, dropping a
double negation) saturate a formula set in one pass, `_saturate`.  They
are applied once, where a query starts (the root, a modal child, an
entailment query): `_search` saturates the start set, and when that
changes it, returns a node for the rule (`and` if the set holds a
conjunction, else `neg-neg`) whose one child is the saturated set.

Below a start, `_explore` works on saturated sets only, and builds nodes
only as it reaches them.  It reads a set in one pass, `_scan`, which
yields all that the rules ask: the leftmost negated conjunction, the
positive and the negated modal formulas, and whether the literals
clash.  An interior node branches on its leftmost negated conjunction,
the negation of the left operand first, each branch saturated when it
is made, and stops at the first open branch; a terminal node gets its
modal children, each a new query start, only once it is consistent,
and they stop at the first closed one.  Every node reached records the
children tried and a `closed` flag, and `_explore` memoizes these
nodes for the query.  So the recorded tree is the one explored: an open
node's path runs through the last child of each interior node, and the
finite model extracted from it is re-checked against the root's
saturated set.  `build_tableau` returns that tree for dumps, and
`find_witness` is its root when the root is open.

Semantic entailment between operands is decided by the same search on
the conjunction of one operand with the negation of the other; the modal
rule strictly lowers modal depth, so the recursion terminates.  Verdicts
do not depend on the order in which rules are applied, so the order is
fixed; swapping the operands of the input's conjunctions gives the
search another order.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .formulas import (
    And, AtLeast, AtMost, Atom, Bottom, Formula, Not, Top,
    model_check, print_formula,
)
from .wts import ExtendedBound, NEG_INF, POS_INF, Wts, format_bound

__all__ = [
    "Interval", "TableauNode", "Tableau", "Sat", "Unsat",
    "Verdict", "ExtractionGapWarning", "entails", "minimal_representatives",
    "build_tableau", "find_witness",
    "extract_model", "is_satisfiable", "is_valid", "tableau_to_json",
]

RULE_AND = "and"
RULE_NEG_AND = "neg-and"
RULE_NEG_NEG = "neg-neg"
RULE_MOD = "mod"


@dataclass(frozen=True)
class Interval:
    """One interval endpoint pair with open/closed flags.

    An endpoint at -inf is necessarily open on the left, +inf open on the
    right.  The interval is consistent when it is non-empty: lower below
    upper, or equal with both ends closed.
    """

    lower: ExtendedBound
    lower_closed: bool
    upper: ExtendedBound
    upper_closed: bool

    def __post_init__(self):
        # The flag and the type first: comparing a Fraction with a float
        # infinity takes Fraction.__eq__'s slow path.
        if self.lower_closed and type(self.lower) is float and self.lower == NEG_INF:
            raise ValueError("interval cannot be closed at -inf")
        if self.upper_closed and type(self.upper) is float and self.upper == POS_INF:
            raise ValueError("interval cannot be closed at +inf")
        # Stored once, as formula nodes do: every memo probe hashes two
        # intervals, and a Fraction's hash is a modular inverse.
        object.__setattr__(self, "_hash", hash(
            (self.lower, self.lower_closed, self.upper, self.upper_closed)))

    def __hash__(self):
        return self._hash

    @property
    def is_consistent(self) -> bool:
        return self.lower < self.upper or (
            self.lower == self.upper and self.lower_closed and self.upper_closed
        )

    def __str__(self):
        left = "[" if self.lower_closed else "("
        right = "]" if self.upper_closed else ")"
        return f"{left}{format_bound(self.lower)},{format_bound(self.upper)}{right}"


def point_zero() -> Interval:
    return Interval(Fraction(0), True, Fraction(0), True)


class TableauNode:
    """One tableau node: an insertion-ordered formula set (a tuple without
    repeats; the search's sets are deduplicated when made), the two weight
    intervals, the rule applied at it (if any), the children the search
    tried and whether the node is closed (has no model)."""

    __slots__ = ("gamma", "min_interval", "max_interval", "rule", "children", "closed")

    def __init__(
        self,
        gamma,
        min_interval: Optional[Interval] = None,
        max_interval: Optional[Interval] = None,
        rule: Optional[str] = None,
        children: tuple = (),
        closed: bool = False,
    ):
        self.gamma: tuple[Formula, ...] = tuple(gamma)
        self.min_interval = point_zero() if min_interval is None else min_interval
        self.max_interval = point_zero() if max_interval is None else max_interval
        self.rule = rule
        self.children: tuple[TableauNode, ...] = tuple(children)
        self.closed = closed

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
        return f"<{{{body}}}, {self.min_interval}, {self.max_interval}>"


@dataclass(frozen=True)
class Tableau:
    root: TableauNode


# Entailment is a property of the formula pair alone, so the memo is
# shared process-wide; concurrent duplicate computation is harmless.  It
# is emptied when it reaches ENTAILMENT_CACHE_LIMIT entries, which bounds
# its memory at the cost of recomputing later queries.
ENTAILMENT_CACHE_LIMIT = 65536
_entailment_cache: dict[tuple[Formula, Formula], bool] = {}


def entails(phi: Formula, psi: Formula) -> bool:
    """Semantic entailment: the conjunction of `phi` with the negation of
    `psi` has no model.  Decided by the witness search and memoized on
    the structural pair."""
    if phi == psi:
        return True
    key = (phi, psi)
    hit = _entailment_cache.get(key)
    if hit is None:
        hit = _search((And(phi, Not(psi)),), point_zero(), point_zero(), {}).closed
        if len(_entailment_cache) >= ENTAILMENT_CACHE_LIMIT:
            _entailment_cache.clear()
        _entailment_cache[key] = hit
    return hit


def minimal_representatives(operands) -> list[Formula]:
    """Drop operands that repeat an earlier one up to logical equivalence,
    then drop any operand strictly entailed by another survivor.  Input
    order is preserved."""
    survivors: list[Formula] = []
    for f in operands:
        if not any(entails(f, g) and entails(g, f) for g in survivors):
            survivors.append(f)
    return [
        f
        for i, f in enumerate(survivors)
        if not any(j != i and entails(g, f) for j, g in enumerate(survivors))
    ]


def _mod_child_specs(positives, negatives) -> Iterator[tuple]:
    """The modal rule at a node whose positive modal formulas are
    `positives` and whose negated ones negate `negatives`: one (operand,
    min-interval, max-interval) triple per minimal representative of the
    positive operands, yielded one at a time so that a search stopping at
    a bad child asks no entailment queries for the rest."""
    for psi in minimal_representatives([f.operand for f in positives]):
        lower_pos = [f.bound for f in positives
                     if isinstance(f, AtLeast) and entails(psi, f.operand)]
        upper_pos = [f.bound for f in positives
                     if isinstance(f, AtMost) and entails(psi, f.operand)]
        lower_neg = [g.bound for g in negatives
                     if isinstance(g, AtLeast) and entails(psi, g.operand)]
        upper_neg = [g.bound for g in negatives
                     if isinstance(g, AtMost) and entails(psi, g.operand)]
        min_itv = Interval(
            max(lower_pos) if lower_pos else Fraction(0), True,
            min(lower_neg) if lower_neg else POS_INF, False,
        )
        max_itv = Interval(
            max(upper_neg) if upper_neg else Fraction(0), not upper_neg,
            min(upper_pos) if upper_pos else POS_INF, bool(upper_pos),
        )
        yield psi, min_itv, max_itv


def _saturate(gamma) -> tuple:
    """`gamma` with the non-branching rules applied to the bottom: every
    conjunction split into its operands in place and every double
    negation dropped, then deduplicated keeping first occurrences.  This
    is the set, in the same order, that applying the leftmost `and`, else
    the leftmost `neg-neg`, one step at a time reaches."""
    out = {}
    pending = []
    for f in gamma:
        while True:
            if isinstance(f, And):
                pending.append(f.right)
                f = f.left
            elif isinstance(f, Not) and isinstance(f.operand, Not):
                f = f.operand.operand
            else:
                out[f] = None
                if not pending:
                    break
                f = pending.pop()
    return tuple(out)


def _scan(gamma) -> tuple[Optional[int], list, list, bool]:
    """Everything the rules read from a saturated formula set, in one
    pass: the index of its leftmost negated conjunction (None if it has
    none), its positive modal formulas, the modal formulas it negates,
    and whether its literals clash (`false`, `!true`, or an atom together
    with its negation)."""
    negated_and = None
    positives = []
    negatives = []
    atoms = set()
    negated_atoms = set()
    clash = False
    for i, f in enumerate(gamma):
        if isinstance(f, Not):
            g = f.operand
            if isinstance(g, And):
                if negated_and is None:
                    negated_and = i
            elif isinstance(g, (AtLeast, AtMost)):
                negatives.append(g)
            elif isinstance(g, Atom):
                negated_atoms.add(g.name)
            elif isinstance(g, Top):
                clash = True
        elif isinstance(f, (AtLeast, AtMost)):
            positives.append(f)
        elif isinstance(f, Atom):
            atoms.add(f.name)
        elif isinstance(f, Bottom):
            clash = True
    clash = clash or not atoms.isdisjoint(negated_atoms)
    return negated_and, positives, negatives, clash


def _branches(gamma, index) -> Iterator[tuple]:
    """The `neg-and` rule's children at the negated conjunction
    `gamma[index]`: the negation of its left operand, then of its right,
    each branch saturated when it is made."""
    f = gamma[index].operand
    before, after = gamma[:index], gamma[index + 1:]
    for part in (f.left, f.right):
        yield _saturate(before + (Not(part),) + after)


def _intervals_meet(min_itv: Interval, max_itv: Interval) -> bool:
    """Both intervals non-empty, and the least possible minimum weight not
    above the greatest possible maximum."""
    if not min_itv.is_consistent or not max_itv.is_consistent:
        return False
    a, d = min_itv.lower, max_itv.upper
    return a < d or (a == d and min_itv.lower_closed and max_itv.upper_closed)


def _search(gamma, min_itv: Interval, max_itv: Interval, memo: dict) -> TableauNode:
    """A query start: the node <gamma, min_itv, max_itv> (`gamma`
    deduplicated) as the search explored it.  When the non-branching
    rules change `gamma`, the node applies them (`and` if it holds a
    conjunction, else `neg-neg`) and its one child is the saturated set's
    explored node."""
    saturated = _saturate(gamma)
    node = _explore(saturated, min_itv, max_itv, memo)
    if saturated == gamma:
        return node
    rule = RULE_AND if any(isinstance(f, And) for f in gamma) else RULE_NEG_NEG
    return TableauNode(gamma, min_itv, max_itv, rule, (node,), node.closed)


def _explore(gamma, min_itv: Interval, max_itv: Interval, memo: dict) -> TableauNode:
    """The node of a saturated set as the search explored it.  An
    interior node branches on its leftmost negated conjunction and is
    open at the first open branch; a terminal node is open when it is
    consistent and every modal child is open, and the children stop at
    the first closed one.  `memo` maps each saturated node reached in
    this query, as (gamma, min_itv, max_itv), to its explored node."""
    key = (gamma, min_itv, max_itv)
    node = memo.get(key)
    if node is not None:
        return node
    negated_and, positives, negatives, clash = _scan(gamma)
    children = []
    if negated_and is not None:
        rule = RULE_NEG_AND
        for child_gamma in _branches(gamma, negated_and):
            children.append(_explore(child_gamma, min_itv, max_itv, memo))
            if not children[-1].closed:
                break
        closed = children[-1].closed
    else:
        rule = RULE_MOD if positives or negatives else None
        closed = clash or not _intervals_meet(min_itv, max_itv)
        if not closed:
            for psi, child_min, child_max in _mod_child_specs(positives, negatives):
                children.append(_search((psi,), child_min, child_max, memo))
                if children[-1].closed:
                    closed = True
                    break
    node = memo[key] = TableauNode(gamma, min_itv, max_itv, rule, children, closed)
    return node


def build_tableau(phi: Formula) -> Tableau:
    """The tree the search explores from <{phi}, [0,0], [0,0]>."""
    return Tableau(_search((phi,), point_zero(), point_zero(), {}))


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
    formula of the root's saturated set; on failure an ExtractionGapWarning
    is emitted (the verdict still stands, the constructed model just is
    not a witness).
    """
    counter = itertools.count()
    root_state = f"s{next(counter)}"
    labels: dict[str, set] = {root_state: set()}
    transitions = []
    stack = [(root_state, witness)]
    while stack:
        state, node = stack.pop()
        if not node.is_terminal:
            stack.append((state, node.children[-1]))
            continue
        labels[state].update(
            f.name for f in node.gamma if isinstance(f, Atom)
        )
        if node.kind == "modal":
            for child in node.children:
                a = child.min_interval.lower
                assert isinstance(a, Fraction) and child.min_interval.lower_closed
                c = child.max_interval.lower
                d = child.max_interval.upper
                x = a
                if d == POS_INF:
                    y = max(a, c + 1)
                else:
                    y = max(a, (d - c) / 2 + c)
                fresh = f"s{next(counter)}"
                labels[fresh] = set()
                transitions.append((state, x, fresh))
                transitions.append((state, y, fresh))
                stack.append((fresh, child))
    model = Wts(labels.keys(), labels, transitions)
    # The saturated set means what the root's does, and its conjuncts are
    # flat: a wide conjunction is not re-checked as a deep one.
    verified = all(model_check(model, root_state, f) for f in _saturate(witness.gamma))
    if not verified:
        warnings.warn(
            ExtractionGapWarning(witness.gamma[0], model, root_state),
            stacklevel=2,
        )
    return model, root_state, verified


@dataclass(frozen=True)
class Sat:
    model: Wts
    state: str
    verified: bool


@dataclass(frozen=True)
class Unsat:
    pass


Verdict = Union[Sat, Unsat]


def is_satisfiable(phi: Formula) -> Verdict:
    """Search the tableau depth-first; when the root is open the verdict
    carries the extracted model and its verification outcome."""
    return _verdict_of(_search((phi,), point_zero(), point_zero(), {}))


def _verdict_of(root: TableauNode) -> Verdict:
    """The verdict an explored tree's root gives, the model extracted
    from it when it is open."""
    if root.closed:
        return Unsat()
    model, state, verified = extract_model(root)
    return Sat(model, state, verified)


def is_valid(phi: Formula) -> bool:
    """True iff the negation has no model."""
    return isinstance(is_satisfiable(Not(phi)), Unsat)


def _interval_json(itv: Interval) -> dict:
    return {
        "lower": format_bound(itv.lower),
        "lower_closed": itv.lower_closed,
        "upper": format_bound(itv.upper),
        "upper_closed": itv.upper_closed,
    }


def _node_json(node: TableauNode) -> dict:
    return {
        "gamma": [print_formula(f) for f in node.gamma],
        "min_interval": _interval_json(node.min_interval),
        "max_interval": _interval_json(node.max_interval),
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
