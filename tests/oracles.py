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

`reference_print_formula` is the recursive printer, one call per level,
kept verbatim (bar its name) as the reference for the iterative one.

`reference_saturate` applies the tableau's non-branching Boolean rules
one formula at a time, as the search did before it saturated a set in
one pass: the leftmost conjunction is split, else the leftmost double
negation dropped, and the set is deduplicated after each step.
`reference_facts` reads off such a set, by the definitions, what the
tableau's other rules read: its leftmost negated conjunction, its
positive and negated modal formulas, and whether its literals clash.

`node_consistent` checks a tableau node's literals and weight intervals
from the definitions, and `commute` swaps conjunctions' operands at
random, which gives the tableau search another rule order.

`reference_minimal_operands` is the tableau's minimal-operand filter as
it was before the modal rule chose its operands in one pass: drop each
operand equivalent to an earlier survivor, then each survivor that
another survivor entails.  Entailment is the one relation it is given.

`encode_interval` writes an interval's ends as ranks in a bound table,
from the definition of the tableau search's ranks, and `decode_interval`
reads them back, as its inverse; the search's +inf sentinel,
`RANK_INF`, is the one name they take from the package.  An interval is
a tuple `(lower, lower_closed, upper, upper_closed)` here:
`interval_json` writes it as a tableau dump does, and `interval_text` as
a node's `repr` does.  `interval("[4,5)")` is the dump's form of an
interval written as text.

`reference_parse_wts` and `reference_model` are the model front end as it
was before it checked whole lists at once: one Python step per state
entry, per transition entry, per state id, per label and per triple.
They are kept as they were, bar their names and three points: they
return the model as plain data (its states, its label sets and its
`(source, weight, target)` triples) rather than a `Wts`; they parse each
weight text where it occurs, not once per distinct text; and they walk
the states in the order given, where the old constructor walked the
frozenset of states, whose order follows the string hash.  So a model
with two bad state ids names the first one given.  The text of every
`ModelError` is the one the package raises.

`_build_parser` is the command line's argparse front end, with its
parser class, as it was written out call by call before the CLI built
its parser from a table of flags; it is kept verbatim (bar the names of
its classes) as the reference for that parser and for the CLI's short
path, which reads fully spelt flags without argparse.
`reference_read_argv` gives what it makes of an argv: the parsed
attributes, the error message, or which parser's help text it returned.

`reference_quotient` builds the quotient by a bound bisimulation from
`theta_min` and `theta_max` over whole blocks, as the definition reads.
`naive_rounds` gives every round of bound refinement from the labels on,
splitting each block afresh by `theta_min` and `theta_max` toward every
block of the round before.

`DATACLASS_REFERENCES` holds, by class name, the dataclasses that the
formula nodes and the tableau's and the soundness suite's records were
before they became plain slotted records: the seven node classes as
frozen, slotted dataclasses of their fields, and the six records as
they were written, bar `slots=True`, with the `__qualname__` of the
package's class.  `reference_record` rebuilds a node or a record from
them.
"""

import argparse
import dataclasses
import json
import re
import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from typing import Callable, Optional, Union

from wtl import Partition, Wts
from wtl.formulas import (
    And, AtLeast, AtMost, Atom, Bottom, Formula, FormulaError, Not, Top, box,
    diamond, iff, implies, lor,
)
from wtl.tableau import RANK_INF, TableauNode
from wtl.wts import (
    IDENT_RE, POS_INF, format_bound, ModelError, _read_json_int, as_weight, decode_utf8,
    format_rational, parse_rational, read_rational,
)


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


def naive_rounds(m: Wts) -> list:
    """The rounds of bound refinement from the definitions, each a set of
    frozensets: the partition by labels, then each round's split of the
    one before by `theta_min` and `theta_max` toward each of its blocks,
    every state compared afresh, until a round splits nothing."""
    groups: dict = {}
    for s in m.states:
        groups.setdefault(m.labels[s], set()).add(s)
    rounds = [set(map(frozenset, groups.values()))]
    while True:
        targets = list(rounds[-1])
        groups = {}
        for block in targets:
            for s in block:
                key = (block, tuple((m.theta_min(s, t), m.theta_max(s, t)) for t in targets))
                groups.setdefault(key, set()).add(s)
        split = set(map(frozenset, groups.values()))
        if split == rounds[-1]:
            return rounds
        rounds.append(split)


def reference_quotient(m: Wts, blocks) -> Wts:
    """The quotient by a bound bisimulation, from the definitions: one
    state per block, named by its least member, with that member's labels
    and, toward every block it reaches, one edge weighing `theta_min` and
    one weighing `theta_max`."""
    reps = {min(block): block for block in blocks}
    edges = [
        (rep, bound(rep, target), target_rep)
        for rep in reps
        for target_rep, target in reps.items()
        if m.image_set(rep, target)
        for bound in (m.theta_min, m.theta_max)
    ]
    return Wts(list(reps), {rep: m.labels[rep] for rep in reps}, edges)


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


def reference_print_formula(f: Formula) -> str:
    """Deterministic, fully parenthesized text; parse_formula inverse."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        return "!" + reference_print_formula(f.operand)
    if isinstance(f, And):
        return f"({reference_print_formula(f.left)} & {reference_print_formula(f.right)})"
    if isinstance(f, AtLeast):
        return f"L[{format_rational(f.bound)}] {reference_print_formula(f.operand)}"
    if isinstance(f, AtMost):
        return f"M[{format_rational(f.bound)}] {reference_print_formula(f.operand)}"
    raise TypeError(f"not a formula: {f!r}")


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


def commute(f: Formula, rng) -> Formula:
    """`f` with the operands of each of its conjunctions, at any depth,
    swapped or kept at random: the same formula up to commutativity.
    This sets the two choices a rule order makes in the tableau: which
    negated conjunction of a set comes leftmost, and which of its
    branches is tried first."""
    if isinstance(f, Not):
        return Not(commute(f.operand, rng))
    if isinstance(f, And):
        left, right = commute(f.left, rng), commute(f.right, rng)
        return And(right, left) if rng.random() < 0.5 else And(left, right)
    if isinstance(f, (AtLeast, AtMost)):
        return type(f)(f.bound, commute(f.operand, rng))
    return f


def node_consistent(node) -> bool:
    """A tableau node's literals do not clash (no `false`, no `!true`, no
    atom beside its negation), both weight intervals, as `decode_interval`
    reads them from the node's ranks, hold a value, and some minimum
    weight from the one is at most some maximum weight from the other."""
    gamma = set(node.gamma)
    if Bottom() in gamma or Not(Top()) in gamma:
        return False
    if any(Not(f) in gamma for f in gamma if isinstance(f, Atom)):
        return False

    def holds_a_value(lower, lower_closed, upper, upper_closed):
        if lower == upper:
            return lower_closed and upper_closed
        return lower < upper

    a, b, c, d = node.ends
    low, high = decode_interval(node.table, a, b), decode_interval(node.table, c, d)
    if not (holds_a_value(*low) and holds_a_value(*high)):
        return False
    # the least minimum, low's lower end, against the greatest maximum,
    # high's upper end
    (least, least_closed, _, _), (_, _, greatest, greatest_closed) = low, high
    if least == greatest:
        return least_closed and greatest_closed
    return least < greatest


def reference_minimal_operands(operands, entails) -> list:
    """Drop operands that repeat an earlier one up to logical equivalence,
    then drop any operand strictly entailed by another survivor.  Input
    order is preserved."""
    survivors = []
    for f in operands:
        if not any(entails(f, g) and entails(g, f) for g in survivors):
            survivors.append(f)
    return [
        f
        for i, f in enumerate(survivors)
        if not any(j != i and entails(g, f) for j, g in enumerate(survivors))
    ]


def encode_interval(table, itv: tuple) -> tuple[int, int]:
    """The ends of the interval `itv`, `(lower, lower_closed, upper,
    upper_closed)`, as ranks in the sorted bound table `table`, which
    holds each finite end: bound i closed is 2i, an open lower end at it
    2i+1 and an open upper end 2i-1, and +inf is RANK_INF."""
    lower, lower_closed, upper, upper_closed = itv
    low = 2 * table.index(lower) + (0 if lower_closed else 1)
    if upper == POS_INF:
        return low, RANK_INF
    return low, 2 * table.index(upper) - (0 if upper_closed else 1)


def decode_interval(table, lower: int, upper: int) -> tuple:
    """The interval `(lower, lower_closed, upper, upper_closed)` whose ends
    have ranks `lower` and `upper` in `table`: the inverse of
    `encode_interval`.  An even rank 2i is bound i closed; an odd lower
    end 2i+1 is bound i open, and an odd upper end 2i-1 bound i open."""
    i, lower_open = divmod(lower, 2)
    if upper == RANK_INF:
        return table[i], not lower_open, POS_INF, False
    j, upper_open = divmod(upper, 2)
    return table[i], not lower_open, table[j + upper_open], not upper_open


def interval_ends(text: str) -> tuple:
    """The interval written `[4,5)` or `(6,inf)`, as `(lower,
    lower_closed, upper, upper_closed)`."""
    lower, upper = text[1:-1].split(",")
    return (Fraction(lower), text[0] == "[",
            POS_INF if upper == "inf" else Fraction(upper), text[-1] == "]")


def interval_json(itv: tuple) -> dict:
    """The interval `(lower, lower_closed, upper, upper_closed)` in the
    form a tableau dump writes it."""
    lower, lower_closed, upper, upper_closed = itv
    return {"lower": format_bound(lower), "lower_closed": lower_closed,
            "upper": format_bound(upper), "upper_closed": upper_closed}


def interval(text: str) -> dict:
    """The interval written `[4,5)` or `(6,inf)`, in the form a tableau
    dump writes it."""
    return interval_json(interval_ends(text))


def interval_text(itv: tuple) -> str:
    """The interval `(lower, lower_closed, upper, upper_closed)` written
    as a node's `repr` writes it: `[4,5)`, `(6,inf)`."""
    lower, lower_closed, upper, upper_closed = itv
    return (f"{'[' if lower_closed else '('}{format_bound(lower)},"
            f"{format_bound(upper)}{']' if upper_closed else ')'}")


def reference_saturate(gamma) -> tuple:
    """The formula set the `and` and `neg-neg` rules reach from `gamma`,
    applied one formula per step, leftmost `and` first."""
    gamma = tuple(dict.fromkeys(gamma))
    while True:
        step = None
        for i, f in enumerate(gamma):
            if isinstance(f, And):
                step = (i, (f.left, f.right))
                break
        if step is None:
            for i, f in enumerate(gamma):
                if isinstance(f, Not) and isinstance(f.operand, Not):
                    step = (i, (f.operand.operand,))
                    break
        if step is None:
            return gamma
        i, part = step
        gamma = tuple(dict.fromkeys(gamma[:i] + part + gamma[i + 1:]))


def reference_facts(gamma) -> tuple:
    """What the `neg-and` and modal rules and the closure test read from
    the saturated set `gamma`: the index of its leftmost negated
    conjunction (None if it has none), its positive modal formulas and
    the modal formulas it negates, each in order, and whether its
    literals clash (`false`, `!true`, or an atom beside its negation)."""
    negated = [f.operand for f in gamma if isinstance(f, Not)]
    negated_and = next((i for i, f in enumerate(gamma)
                        if isinstance(f, Not) and isinstance(f.operand, And)), None)
    positives = [f for f in gamma if isinstance(f, (AtLeast, AtMost))]
    negatives = [g for g in negated if isinstance(g, (AtLeast, AtMost))]
    clash = (any(isinstance(f, Bottom) for f in gamma)
             or any(isinstance(g, Top) for g in negated)
             or any(isinstance(f, Atom) and f in negated for f in gamma))
    return negated_and, positives, negatives, clash


def _reference_check_ident(name: str, what: str) -> str:
    if not isinstance(name, str) or IDENT_RE.fullmatch(name) is None:
        raise ModelError(f"bad {what} {name!r}: expected [A-Za-z_][A-Za-z0-9_]*")
    return name


def reference_model(states, labels, transitions) -> tuple:
    """The checks of the model constructor, one element at a time; returns
    the states, the label set of each state and the set of triples."""
    if isinstance(states, str):
        raise ModelError(f"states must be a collection of ids, got {states!r}")
    states = list(states)
    state_set = frozenset(states)
    if not state_set:
        raise ModelError("a model needs at least one state")
    for s in states:
        _reference_check_ident(s, "state id")
    for s in labels:
        if s not in state_set:
            raise ModelError(f"labels given for unknown state {s!r}")
    label_map = {}
    for s in states:
        props = labels.get(s, ())
        if isinstance(props, str):
            raise ModelError(f"labels of {s!r} must be a collection, got {props!r}")
        for p in props:
            _reference_check_ident(p, "proposition")
        label_map[s] = frozenset(props)
    triples = set()
    for src, w, dst in transitions:
        if not isinstance(src, str) or src not in state_set:
            raise ModelError(f"transition from unknown state {src!r}")
        if not isinstance(dst, str) or dst not in state_set:
            raise ModelError(f"transition to unknown state {dst!r}")
        triples.add((src, parse_rational(w) if isinstance(w, str) else as_weight(w), dst))
    return state_set, label_map, frozenset(triples)


_REFERENCE_MODEL_KEYS = frozenset({"states", "transitions"})
_REFERENCE_STATE_KEYS = frozenset({"id", "labels"})
_REFERENCE_TRANSITION_KEYS = frozenset({"from", "weight", "to"})


def _reference_reject_unknown_keys(obj: dict, allowed: frozenset, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ModelError(f"unknown key(s) {sorted(extra)!r} in {where}")


def reference_parse_wts(data) -> tuple:
    """The model file reader, one entry at a time, then `reference_model`."""
    if isinstance(data, bytes):
        data = decode_utf8(data, ModelError)
    try:
        doc = json.loads(data, parse_int=_read_json_int)
    except json.JSONDecodeError as e:
        raise ModelError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ModelError("top level must be a JSON object")
    _reference_reject_unknown_keys(doc, _REFERENCE_MODEL_KEYS, "model")
    if "states" not in doc or "transitions" not in doc:
        raise ModelError('model needs both "states" and "transitions"')
    for key in ("states", "transitions"):
        if not isinstance(doc[key], list):
            raise ModelError(f'"{key}" must be a list')

    seen = {}
    labels = {}
    for entry in doc["states"]:
        if not isinstance(entry, dict):
            raise ModelError(f"state entry must be an object, got {entry!r}")
        if not entry.keys() <= _REFERENCE_STATE_KEYS:
            _reference_reject_unknown_keys(entry, _REFERENCE_STATE_KEYS, "state entry")
        sid = entry.get("id")
        if not isinstance(sid, str):
            raise ModelError(f'state entry needs a string "id": {entry!r}')
        if sid in seen:
            raise ModelError(f"duplicate state id {sid!r}")
        seen[sid] = None
        props = entry.get("labels", [])
        if not isinstance(props, list):
            raise ModelError(f"labels of {sid!r} must be a list")
        labels[sid] = props

    triples = []
    for entry in doc["transitions"]:
        if not isinstance(entry, dict):
            raise ModelError(f"transition entry must be an object, got {entry!r}")
        if entry.keys() != _REFERENCE_TRANSITION_KEYS:
            _reference_reject_unknown_keys(entry, _REFERENCE_TRANSITION_KEYS, "transition entry")
            key = next(k for k in ("from", "weight", "to") if k not in entry)
            raise ModelError(f'transition without "{key}": {entry!r}')
        weight = entry["weight"]
        if not isinstance(weight, str):
            raise ModelError(f"weight must be a string, got {weight!r}")
        triples.append((entry["from"], weight, entry["to"]))

    return reference_model(seen, labels, triples)


class _ArgvUsageError(Exception):
    pass


class _ArgvHelpRequested(Exception):
    pass


class _ArgvParser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgvUsageError(message)

    def print_help(self, file=None):
        # -h/--help on any parser: hand the text back to `run` instead of
        # printing it and exiting the process.
        raise _ArgvHelpRequested(self.format_help())


def _build_parser() -> _ArgvParser:
    parser = _ArgvParser(prog="wtl", description=__doc__, add_help=True)
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


_REFERENCE_PARSER = _build_parser()


def help_prog(text: str) -> str:
    """Which parser a help text is of: "wtl" or "wtl <command>"."""
    return re.match(r"usage: (wtl(?: [a-z]+)?)", text).group(1)


def reference_read_argv(argv: list) -> tuple:
    """("ok", the parsed attributes), ("error", argparse's message) or
    ("help", the parser whose help text it returned)."""
    try:
        return "ok", vars(_REFERENCE_PARSER.parse_args(argv))
    except _ArgvUsageError as e:
        return "error", str(e)
    except _ArgvHelpRequested as e:
        return "help", help_prog(e.args[0])


def _dataclass_references() -> dict:
    dataclass, field = dataclasses.dataclass, dataclasses.field

    @dataclass(frozen=True, slots=True)
    class Tableau:
        root: TableauNode

    @dataclass(frozen=True, slots=True)
    class Sat:
        model: Wts
        state: str
        verified: bool

    @dataclass(frozen=True, slots=True)
    class Unsat:
        pass

    @dataclass(frozen=True, slots=True)
    class Schema:
        """One schema: how many formula/index slots it takes, its side
        condition, whether it is a rule (premise-guarded), and whether it is
        expected to be sound.

        `conclusion` and `premise` are terms over an `Algebra`: each takes the
        algebra, then the formula slots, then (the conclusion only) the index
        slots."""

        name: str
        formula_slots: int
        index_slots: int
        positive_q: bool = False
        conclusion: Optional[Callable] = None
        premise: Optional[Callable] = None
        sound: bool = True

    @dataclass(slots=True)
    class SchemaReport:
        name: str
        sound: bool
        checked: int = 0
        applicable: int = 0
        violations: int = 0
        first_violation: Optional[dict] = None

        def as_dict(self) -> dict:
            d = {
                "schema": self.name,
                "expected_sound": self.sound,
                "checked": self.checked,
                "applicable": self.applicable,
                "violations": self.violations,
            }
            if self.first_violation is not None:
                d["first_violation"] = self.first_violation
            return d

    @dataclass(slots=True)
    class SuiteReport:
        seed: int
        trials: int
        schemas: dict[str, SchemaReport] = field(default_factory=dict)

        @property
        def unexpected_violations(self) -> int:
            return sum(r.violations for r in self.schemas.values() if r.sound)

        @property
        def control_violations(self) -> int:
            return sum(r.violations for r in self.schemas.values() if not r.sound)

        def as_dict(self) -> dict:
            return {
                "seed": self.seed,
                "trials": self.trials,
                "unexpected_violations": self.unexpected_violations,
                "control_violations": self.control_violations,
                "schemas": [self.schemas[n].as_dict() for n in sorted(self.schemas)],
            }

    classes = [Tableau, Sat, Unsat, Schema, SchemaReport, SuiteReport]
    for cls in classes:
        cls.__qualname__ = cls.__name__
    nodes = [("Atom", ["name"]), ("Top", []), ("Bottom", []), ("Not", ["operand"]),
             ("And", ["left", "right"]), ("AtLeast", ["bound", "operand"]),
             ("AtMost", ["bound", "operand"])]
    classes += [dataclasses.make_dataclass(name, names, frozen=True, slots=True)
                for name, names in nodes]
    return {cls.__name__: cls for cls in classes}


DATACLASS_REFERENCES = _dataclass_references()


def reference_record(x):
    """The formula node or record `x` rebuilt from its dataclass
    reference, with the same field values, bar a formula's nodes and a
    suite report's schema reports, which are rebuilt too."""
    ref = DATACLASS_REFERENCES[type(x).__name__]
    values = [getattr(x, f.name) for f in dataclasses.fields(ref)]
    values = [reference_record(v) if isinstance(v, Formula) else v for v in values]
    if ref.__name__ == "SuiteReport":
        values[2] = {name: reference_record(r) for name, r in values[2].items()}
    return ref(*values)
