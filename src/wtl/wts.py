"""Weighted transition systems with exact non-negative rational weights.

A model is a finite set of labelled states plus transitions carrying
weights.  The central queries are the image set of a state toward a set
of target states (the weights of all transitions from the state into the
set) and its minimum/maximum, extended with -inf/+inf on empty images.

Each model keeps one ascending table of its distinct weights,
`Wts.weights`, built once when the model is made; every transition is
stored as a `(rank, neighbour)` pair, where the rank is the weight's index
in that table.  Within one model ranks order exactly as the weights do, so
the engines compare ints: the partition refinements ask for a state's
least and greatest rank toward every block of a partition at once
(`Wts.bounds_by_block`, one scan of the state's out-edges), and both
evaluators, `sat_set` and `model_check`, walk forward over a state's
out-edges in rank order: the first edge into a set carries the least
weight, the last the greatest.  Ranks from two models do not compare; a
caller that builds a new model or a formula bound maps them back through
`weights`.  The `(source, weight, target)` triples, `Wts.transitions`,
are derived from the ranks on request.
All arithmetic is exact (`fractions.Fraction`); weights are kept in
canonical reduced form so equality is structural.

A model from outside, a model file (`parse_wts`) or the arguments of
`Wts(...)`, is checked completely, in two parts.  The bulk reader,
`_in_bulk`, reads a model file in passes over whole lists rather than one
Python step per element: one pass over the state entries' keys and one
count of the transition entries' keys, one type pass over the label
lists, one identifier test over all state ids and one over the union of
all labels, one subset test for the sources and one id lookup per
target, one type test and one parse per distinct weight text.  A value
of the wrong type (an entry that is no object, an id, end or label that
is no text) needs no pass of its own: the lookups fail on it.  The bulk
reader can only accept: when a pass or a lookup fails it gives the file
up, without raising or naming an element.  The checker, `_checked`, goes
one element at a time and makes every refusal, for `Wts(...)` and for a
file the bulk reader gave up: it raises for the first bad element in the
order given, so the message names that element.  Checking is all or
nothing.
Both parts keep one object per state id and per label set
(hash-consing): every transition target, and every key of `labels` and
of the out-edge table, is the id object in `states`, and states with
equal labels share one frozenset, though `json.loads` makes a fresh
string per occurrence of an id.  A model file of 4,000 states (ids `s0`
to `s3999`) keeps 64 bytes per edge and 179 per state beyond its edges
(tracemalloc, 64-bit CPython 3.11); mc-large's four seed-1 models keep
456 bytes per state.
`parse_wts` reads with the cyclic garbage collector paused: a JSON
document and the model made from it hold no reference cycles, so the
collections the read's many new objects would start free nothing (they
took a fifth of reading mc-large's models).  The pause is process-wide:
another thread's cyclic garbage waits until the read ends, and the read
turns collection back on only if it was on when the read began.
Models the engines make from parts they have already checked
(`quotient_model`, `extract_model`, `random_wts`'s draw) skip the checks,
bar one pass over the atom names `extract_model` turns into labels: they
go straight to `_assemble`, the private builder behind both parts too,
which nothing outside this package calls.
"""

from __future__ import annotations

import gc
import json
import random
import re
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, count, repeat
from math import inf
from operator import itemgetter
from types import MappingProxyType
from typing import Hashable, Iterable, Optional, Union

Weight = Fraction

# Extended bounds: a Weight, or one of the two float infinities.  Fractions
# and float infinities share a total order, so comparisons just work.
ExtendedBound = Union[Fraction, float]
NEG_INF: float = -inf
POS_INF: float = inf

# Identifiers (state ids, propositions) are ASCII, in model files and formulas.
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# ASCII digits only: `\d` would also take "٣" for 3.
_RATIONAL_RE = re.compile(r"([0-9]+)(?:/([0-9]*)|\.([0-9]*))?")
# The most digits a rational may have: its text, all digit runs together,
# and its canonical text "N" or "N/D" alike (the interpreter's default
# limit on converting between int and text).  So every value read prints,
# and every value printed reads back.
MAX_RATIONAL_DIGITS = 4300


class ModelError(ValueError):
    """A model file or model construction violates the format."""


class UnknownStateError(ModelError):
    """A query referenced a state id that is not in the model."""


def read_rational(text: str, pos: int = 0) -> tuple[Fraction, int]:
    """Read the unsigned rational "N", "N/D" or "N.M" at `text[pos]`.

    Returns its exact value and the index just past it.  Raises ValueError
    when no digit starts at `pos`, when the digits after "/" or "." are
    missing, when the text or the value's canonical text has more than
    MAX_RATIONAL_DIGITS digits, or on a zero denominator; each caller
    reports it in its own terms.  The one reader behind model weights and
    formula bounds.
    """
    m = _RATIONAL_RE.match(text, pos)
    if m is None:
        raise ValueError("expected digits")
    whole, den, dec = m.groups()
    if len(whole) + len(den or dec or "") > MAX_RATIONAL_DIGITS:
        raise ValueError(f"more than {MAX_RATIONAL_DIGITS} digits in a rational")
    if den is not None:
        if not den:
            raise ValueError("missing denominator")
        if int(den) == 0:
            raise ValueError("zero denominator")
        value = Fraction(int(whole), int(den))
    elif dec is not None:
        if not dec:
            raise ValueError("missing decimal digits")
        value = Fraction(int(whole)) + Fraction(int(dec), 10 ** len(dec))
        # NM/10^len(M) reduced: its text may hold up to len(N) + 2*len(M) + 1
        # digits, more than the decimal's own
        if len(whole) + 2 * len(dec) + 1 > MAX_RATIONAL_DIGITS and _canonical(value) is None:
            raise ValueError(f"more than {MAX_RATIONAL_DIGITS} digits in a rational")
    else:
        value = Fraction(int(whole))
    return value, m.end()


def decode_utf8(data: bytes, error: type) -> str:
    """`data` read as UTF-8, or `error` at the offset of the first byte
    that is not (the one decoder behind model and formula bytes)."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"byte {e.start}: not UTF-8 ({e.reason})") from None


def _read_json_int(text: str) -> int:
    """A JSON integer of a model file, refused over the digit limit of
    weights, so the interpreter's own limit is never the one met."""
    if len(text) - text.startswith("-") > MAX_RATIONAL_DIGITS:
        raise ModelError(f"more than {MAX_RATIONAL_DIGITS} digits in a JSON number")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse "N", "N/D" or "N.M" into an exact non-negative rational.

    The weight text of model files and `Wts(...)`: surrounding whitespace
    (whatever `str.strip` removes) is ignored, and a leading "-" is read
    when the value is zero, so "-0", "-0/5" and "-0.0" are 0 and "-1" is a
    negative weight.  A formula bound is `read_rational`'s text alone.
    """
    body = text.strip()
    start = 1 if body.startswith("-") else 0
    try:
        value, end = read_rational(body, start)
    except ValueError as e:
        raise ModelError(f"malformed rational {text!r}: {e}") from None
    if end != len(body):
        raise ModelError(f"malformed rational {text!r}")
    if start and value != 0:
        raise ModelError(f"negative weight {text!r}")
    return value


def _canonical(q: Fraction) -> Optional[str]:
    """`q`'s canonical text "N" or "N/D", or None when N and D together
    have more than MAX_RATIONAL_DIGITS digits."""
    try:
        text = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:  # past the interpreter's own limit
        return None
    return text if len(text) - (q.denominator != 1) <= MAX_RATIONAL_DIGITS else None


def format_rational(q: Fraction) -> str:
    """Canonical text for a rational: "N" or "N/D".

    Raises ValueError, stating the limit, when N and D together have more
    than MAX_RATIONAL_DIGITS digits, as one plus a bound at the limit or
    the midpoint of two such weights can; the reader refuses the same.
    """
    text = _canonical(q)
    if text is None:
        raise ValueError(f"more than {MAX_RATIONAL_DIGITS} digits in a rational to print")
    return text


def format_bound(b: ExtendedBound) -> str:
    if b == POS_INF:
        return "inf"
    if b == NEG_INF:
        return "-inf"
    return format_rational(b)


def as_weight(value) -> Fraction:
    """Coerce to an exact non-negative weight; text goes through parse_rational.

    A `Fraction` is returned as it is (it is immutable), so the models and
    formulas built from one pool of weights share its objects.
    """
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise ModelError(f"weights must be exact rationals, got float {value!r}")
    w = value if type(value) is Fraction else Fraction(value)
    if w.numerator < 0:
        raise ModelError(f"negative weight {value!r}")
    return w


def _check_ident(name: str, what: str) -> str:
    if not isinstance(name, str) or IDENT_RE.fullmatch(name) is None:
        raise ModelError(f"bad {what} {name!r}: expected [A-Za-z_][A-Za-z0-9_]*")
    return name


def _check_idents(names: list, what: str) -> None:
    """Raise for the first of `names` that is not an identifier; when all
    are, `_all_idents` tells so without a step per name."""
    if not _all_idents(names):
        for name in names:
            _check_ident(name, what)


def _all_idents(names: list) -> bool:
    """Whether every name is a str that IDENT_RE matches, in two passes
    over the whole list: on ASCII text, `str.isidentifier` is exactly
    `[A-Za-z_][A-Za-z0-9_]*`."""
    try:
        return "".join(names).isascii() and all(map(str.isidentifier, names))
    except TypeError:  # a name that is not a str
        return False


def _is_collection(value) -> bool:
    """Iterable, and no str, which iterates over its characters."""
    return not isinstance(value, str) and hasattr(type(value), "__iter__")


class Wts:
    """A finite weighted transition system.

    Plain data: the four slots are set once, when the model is made, and
    nothing writes to them again.  No query builds or caches an index, the hash
    included, so instances can be shared freely between threads.
    `parse_wts` pauses the cyclic garbage collector, which is process-wide,
    for the length of a read, so other threads' cyclic garbage waits.
    `weights` holds the model's distinct weights in ascending order, and
    `_out[s]` the out-edges of `s` as `(rank, target)` pairs sorted by
    rank, then target.  Transitions are a set: duplicate (source, weight,
    target) triples collapse, however the weight is written ("1/2", "2/4",
    "0.5" and `Fraction(1, 2)` are one weight).

    The constructor checks its arguments completely, one element at a
    time, and raises for the first bad one in the order given: state ids,
    then labels, then transitions, each in the order of the arguments; an
    argument of the wrong shape, labels that are no mapping say, is named
    too.  Each distinct weight text is parsed once; a weight that is not
    text, a `Fraction` say, goes through `as_weight` every time, so a
    float is refused even after the text of the same value.  The engines
    build their models with `_assemble`, which checks nothing, so only
    models built through this constructor or read by `parse_wts` are
    checked.  A model pickles and deep-copies by rebuilding through
    `_assemble`.
    """

    __slots__ = ("states", "labels", "weights", "_out")

    def __init__(
        self,
        states: Iterable[str],
        labels: Mapping[str, Iterable[str]],
        transitions: Iterable[tuple],
    ):
        m = _checked(states, labels, transitions)
        self.states, self.labels, self.weights, self._out = m.states, m.labels, m.weights, m._out

    @property
    def transitions(self) -> frozenset[tuple[str, Fraction, str]]:
        """Every (source, weight, target) triple, built from the ranks."""
        w = self.weights
        return frozenset(
            (src, w[r], dst) for src, es in self._out.items() for r, dst in es
        )

    def _require_state(self, s: str) -> None:
        """Refuse `s` unless it is a state id of the model: a value of any
        other type, hashable or not, is an unknown state."""
        if not (isinstance(s, str) and s in self.states):
            raise UnknownStateError(f"unknown state {s!r}")

    def image_set(self, s: str, targets: Iterable[str]) -> frozenset[Fraction]:
        """Weights of all transitions from `s` into the target set.

        Each target is checked as `_require_state` checks a state.  The
        error names each unknown target once, by its `repr`, in the order
        of its `str` and then its `repr`: every value has both, and a
        string id sorts as itself."""
        self._require_state(s)
        if not _is_collection(targets):
            raise ModelError(f"targets must be a collection of state ids, got {targets!r}")
        targets = list(targets)
        unknown = {(str(t), repr(t)) for t in targets
                   if not (isinstance(t, str) and t in self.states)}
        if unknown:
            shown = ", ".join(text for _, text in sorted(unknown))
            raise UnknownStateError(f"unknown target state(s) [{shown}]")
        targets = frozenset(targets)
        ranks = {r for r, dst in self._out[s] if dst in targets}
        return frozenset(self.weights[r] for r in ranks)

    def theta_min(self, s: str, targets: Iterable[str]) -> ExtendedBound:
        """Least weight from `s` into the target set; -inf on an empty image."""
        image = self.image_set(s, targets)
        return min(image) if image else NEG_INF

    def theta_max(self, s: str, targets: Iterable[str]) -> ExtendedBound:
        """Greatest weight from `s` into the target set; +inf on an empty image."""
        image = self.image_set(s, targets)
        return max(image) if image else POS_INF

    def bounds_by_block(
        self, s: str, block_of: Mapping[str, Hashable]
    ) -> dict[Hashable, tuple[int, int]]:
        """Least and greatest weight rank from `s` into each block it reaches.

        `block_of` maps every state to its block.  One pass over the
        out-edges of `s` gives, for each block some transition enters,
        the ranks in `weights` of what theta_min and theta_max would give
        toward that block's states; `weights[lo]` and `weights[hi]` are
        the values.  Blocks `s` does not reach are absent: toward them the
        bounds are (-inf, +inf), as on an empty image.  `s` must be a
        state of the model; unlike the single queries above, nothing is
        validated.
        """
        bounds: dict = {}
        for r, dst in self._out[s]:
            block = block_of[dst]
            hit = bounds.get(block)
            if hit is None:
                bounds[block] = (r, r)
            elif r > hit[1]:
                # Out-edges come in ascending rank: the least never moves.
                bounds[block] = (hit[0], r)
        return bounds

    def __reduce__(self):
        # `labels` is a read-only view, which does not pickle
        edges = [(src, r, dst) for src, es in self._out.items() for r, dst in es]
        return _assemble, (self.states, dict(self.labels), list(self.weights), edges)

    def __eq__(self, other):
        if not isinstance(other, Wts):
            return NotImplemented
        return (
            self.states == other.states
            and self.labels == other.labels
            and self.weights == other.weights
            and self._out == other._out
        )

    def __hash__(self):
        return hash((
            self.states, tuple(sorted(self.labels.items())),
            self.weights, frozenset(self._out.items()),
        ))

    def __repr__(self):
        count = sum(len(es) for es in self._out.values())
        return f"Wts({len(self.states)} states, {count} transitions)"


def _checked(
    states: Iterable[str],
    labels: Mapping[str, Iterable[str]],
    transitions: Iterable[tuple],
) -> Wts:
    """Every check of a model from outside, one element at a time, then
    `_assemble`: raises for the first bad element, state ids, then labels,
    then transitions, each in the order given.  The model keeps one object
    per state id and per distinct label set: each transition target is
    looked up as the id object in the state set, and equal label sets
    collapse through one dict, so a caller's fresh copies are not kept."""
    if not _is_collection(states):
        raise ModelError(f"states must be a collection of ids, got {states!r}")
    order = list(states)
    for s in order:  # before the set, which an unhashable id would break
        _check_ident(s, "state id")
    state_set = frozenset(order)
    if not state_set:
        raise ModelError("a model needs at least one state")
    if not isinstance(labels, Mapping):
        raise ModelError(f"labels must be a mapping from state ids to labels, got {labels!r}")
    for s in labels:
        if s not in state_set:
            raise ModelError(f"labels given for unknown state {s!r}")
    given = {}
    for s in dict.fromkeys(order):
        props = labels.get(s, ())
        if not _is_collection(props):
            raise ModelError(f"labels of {s!r} must be a collection, got {props!r}")
        given[s] = props = tuple(props)  # an iterator is read once
        for p in props:
            _check_ident(p, "proposition")
    sets = [frozenset(given[s]) for s in state_set]
    shared = dict(zip(sets, sets))  # one object per distinct label set
    label_map = dict(zip(state_set, map(shared.__getitem__, sets)))
    if not hasattr(type(transitions), "__iter__"):
        raise ModelError(f"transitions must be a collection of triples, got {transitions!r}")
    target = dict(zip(state_set, state_set))  # each id to its object in `states`
    ids: dict[Fraction, int] = {}
    text_ids: dict[str, int] = {}
    edges = []
    for triple in transitions:
        try:
            # text is no triple, though three characters would unpack
            src, w, dst = () if isinstance(triple, str) else triple
        except (TypeError, ValueError):
            raise ModelError(
                f"transition {triple!r} is not a (source, weight, target) triple") from None
        if not isinstance(src, str) or src not in state_set:
            raise ModelError(f"transition from unknown state {src!r}")
        to = target.get(dst) if isinstance(dst, str) else None
        if to is None:
            raise ModelError(f"transition to unknown state {dst!r}")
        if isinstance(w, str):
            i = text_ids.get(w)
            if i is None:
                i = text_ids[w] = ids.setdefault(parse_rational(w), len(ids))
        else:
            i = ids.setdefault(as_weight(w), len(ids))
        edges.append((src, i, to))
    return _assemble(state_set, label_map, list(ids), edges)


def _assemble(
    states: frozenset,
    labels: dict,
    weights: list,
    edges: Iterable[tuple],
) -> Wts:
    """The one builder of models, behind the checking constructor and the
    engines that make models from parts they have already checked
    (`quotient_model`, `extract_model`, the random draw); it checks
    nothing.

    `labels` maps every state to its frozenset of propositions.
    `weights` lists distinct weights in any order, each the weight of
    some edge, and `edges` are `(source, i, target)` triples, where
    `weights[i]` is the edge's weight.  The builder sorts the weights,
    groups the edges by source in one loop and sorts each source's edges
    once.
    """
    m = Wts.__new__(Wts)
    order = sorted(range(len(weights)), key=weights.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    # A dict per source keeps each of its edges once, in one loop.
    out: dict[str, dict] = {s: {} for s in states}
    for src, i, dst in edges:
        out[src][rank[i], dst] = None
    m.states = states
    m.labels = MappingProxyType(labels)
    m.weights = tuple(map(weights.__getitem__, order))
    m._out = dict(zip(out, map(tuple, map(sorted, out.values()))))
    return m


_MODEL_KEYS = frozenset({"states", "transitions"})
_STATE_KEYS = frozenset({"id", "labels"})
_TRANSITION_KEYS = frozenset({"from", "weight", "to"})


def _reject_unknown_keys(obj: dict, allowed: frozenset, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ModelError(f"unknown key(s) {sorted(extra)!r} in {where}")


def parse_wts(data: Union[bytes, str]) -> Wts:
    """Parse the JSON model format.

    Raises ModelError with the offset of the first bad byte on bytes that
    are not UTF-8, with line/column on malformed JSON, on JSON nested
    deeper than the interpreter's recursion limit, and with the offending
    element on a problem of shape (a wrong type, a missing or unknown key,
    a duplicate state id), a bad identifier or weight, or a dangling state
    reference.  The bulk reader reads the entries in passes over whole
    lists and in lookups that fail on a wrong type; when it gives the file
    up, the state entries, then the transition entries, then `_checked` go
    one element at a time and name the first bad one in file order.

    The whole read runs with automatic garbage collection off: a JSON
    document is a tree and a model holds no reference cycles, so the
    cyclic collector, which the read's many new lists and dicts would
    otherwise start over and over, could free nothing.  The pause is
    process-wide: cyclic garbage other threads make meanwhile waits for
    the first collection after the read.  Collection is turned back on
    when the read ends, whether it gives a model or raises, if and only
    if it was on when the read began; so a program that turns it off
    while a read is in flight finds it on again afterwards.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        if isinstance(data, bytes):
            data = decode_utf8(data, ModelError)
        try:
            doc = json.loads(data, parse_int=_read_json_int)
        except json.JSONDecodeError as e:
            raise ModelError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
        except RecursionError:
            raise ModelError(
                "model nested too deeply for this interpreter's recursion limit") from None
        if not isinstance(doc, dict):
            raise ModelError("top level must be a JSON object")
        _reject_unknown_keys(doc, _MODEL_KEYS, "model")
        if "states" not in doc or "transitions" not in doc:
            raise ModelError('model needs both "states" and "transitions"')
        for key in ("states", "transitions"):
            if not isinstance(doc[key], list):
                raise ModelError(f'"{key}" must be a list')
        model = _in_bulk(doc["states"], doc["transitions"])
        if model is None:
            ids, labels = _state_entries(doc["states"])
            model = _checked(ids, labels, _transition_entries(doc["transitions"]))
        return model
    finally:
        if enabled:
            gc.enable()


_FROM, _WEIGHT, _TO = map(itemgetter, ("from", "weight", "to"))


def _in_bulk(states: list, transitions: list) -> Optional[Wts]:
    """The model of a model file's state and transition entries, read in
    passes over whole lists, or None when a pass or a lookup fails.  It
    never raises and names no element: `_checked` makes every refusal.

    Whole-list passes: the state entries' keys, the transition entries'
    key count (three in all per entry), the label lists' type, the ids'
    uniqueness and identifier test, the identifier test of the union of
    the distinct label sets, and the type of each distinct weight text.
    Everything else is left to lookups that fail on a wrong type: `dict.get`
    and the key columns on an entry that is no object, `frozenset` on an
    unhashable id or label, the subset test on a source and the id map on
    a target that is no state id.  A `TypeError` or `KeyError` from them
    gives the file up like a failed pass.

    `json.loads` makes one object per occurrence; the model keeps one per
    state id and per label set.  A dict from each id to itself maps every
    target to the id object in `states`, and gives the file up on an
    unknown one; equal label frozensets collapse through one dict, and
    the identifier pass reads the union of the distinct sets only.
    """
    try:
        if not (_STATE_KEYS.issuperset(chain.from_iterable(states))
                # three keys per entry in all: once the key columns below
                # find the three in every entry, no entry has another
                and sum(map(len, transitions)) == 3 * len(transitions)):
            return None
        ids = list(map(dict.get, states, repeat("id")))
        props = list(map(dict.get, states, repeat("labels"), repeat([])))
        if not set(map(type, props)) <= {list}:
            return None
        state_set = frozenset(ids)
        given = dict(zip(ids, props))
        sets = list(map(frozenset, map(given.__getitem__, state_set)))
        srcs, texts, dsts = ([*map(key, transitions)] for key in (_FROM, _WEIGHT, _TO))
        shared = dict(zip(sets, sets))  # one object per distinct label set
        if not (len(state_set) == len(ids) > 0
                and _all_idents(ids) and _all_idents(list(frozenset().union(*shared)))
                # every id is text by now: a source that is not fails
                and state_set.issuperset(srcs)):
            return None
        # each target becomes its id's object in `states`; KeyError: unknown
        dsts = list(map(dict(zip(state_set, state_set)).__getitem__, dsts))
        distinct = set(texts)
        if not set(map(type, distinct)) <= {str}:
            return None
        value = {t: parse_rational(t) for t in distinct}
    except (TypeError, KeyError, ModelError):
        return None
    weights: dict[Fraction, int] = {}
    index = {t: weights.setdefault(w, len(weights)) for t, w in value.items()}
    edges = zip(srcs, map(index.__getitem__, texts), dsts)
    labels = dict(zip(state_set, map(shared.__getitem__, sets)))
    return _assemble(state_set, labels, list(weights), edges)


def _state_entries(entries: list) -> tuple[list, dict]:
    """The ids, in file order, and the label lists of a model file's
    state entries, one entry at a time: raises for the first bad one."""
    labels: dict[str, list] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ModelError(f"state entry must be an object, got {entry!r}")
        if not entry.keys() <= _STATE_KEYS:
            _reject_unknown_keys(entry, _STATE_KEYS, "state entry")
        sid = entry.get("id")
        if not isinstance(sid, str):
            raise ModelError(f'state entry needs a string "id": {entry!r}')
        if sid in labels:
            raise ModelError(f"duplicate state id {sid!r}")
        props = entry.get("labels", [])
        if not isinstance(props, list):
            raise ModelError(f"labels of {sid!r} must be a list")
        labels[sid] = props
    return list(labels), labels


def _transition_entries(entries: list) -> list[tuple]:
    """The (source, weight, target) triples of a model file's transition
    entries, one entry at a time: raises for the first that is not an
    object with the three keys and no other, or whose weight is not text."""
    triples = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ModelError(f"transition entry must be an object, got {entry!r}")
        if entry.keys() != _TRANSITION_KEYS:
            _reject_unknown_keys(entry, _TRANSITION_KEYS, "transition entry")
            key = next(k for k in ("from", "weight", "to") if k not in entry)
            raise ModelError(f'transition without "{key}": {entry!r}')
        weight = entry["weight"]
        if not isinstance(weight, str):
            raise ModelError(f"weight must be a string, got {weight!r}")
        triples.append((entry["from"], weight, entry["to"]))
    return triples


def serialize_wts(m: Wts) -> bytes:
    """Deterministic JSON for a model; inverse of parse_wts.

    Transitions are sorted by source, weight and target; the out-edges are
    kept in rank order, which is weight order, and each distinct weight is
    formatted once.  The bytes are those of `json.dumps(doc, indent=2)`
    plus a newline, written directly: ids, propositions and weight texts
    are ASCII identifiers and rationals, so nothing needs escaping, and
    the standard encoder is pure Python once `indent` is set.
    """
    texts = [format_rational(w) for w in m.weights]
    states = sorted(m.states)
    entries = [
        f'    {{\n      "id": "{s}",\n      "labels": '
        + _json_list([f'        "{p}"' for p in sorted(m.labels[s])], "      ")
        + "\n    }"
        for s in states
    ]
    edges = [
        f'    {{\n      "from": "{src}",\n      "weight": "{texts[r]}",'
        f'\n      "to": "{dst}"\n    }}'
        for src in states for r, dst in m._out[src]
    ]
    text = (
        '{\n  "states": ' + _json_list(entries, "  ")
        + ',\n  "transitions": ' + _json_list(edges, "  ") + "\n}\n"
    )
    return text.encode("ascii")


def _json_list(items: list[str], pad: str) -> str:
    """A JSON list laid out as `json.dumps(..., indent=2)` does, from items
    already laid out one level deeper than `pad`."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


def random_wts(
    seed: int,
    max_states: int,
    max_out_degree: int,
    weight_pool: Iterable,
    prop_pool: Iterable[str],
) -> Wts:
    """Seed-deterministic random model for property tests."""
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    weights, slots = _weight_slots(sorted(as_weight(w) for w in weight_pool))
    props = sorted(prop_pool)
    _check_idents(props, "proposition")
    return _draw_wts(seed, max_states, max_out_degree, weights, slots, props)


def _weight_slots(pool: list) -> tuple[list, list[int]]:
    """A sorted weight pool as the draw takes it: its distinct weights,
    and for each entry of the pool the index of its weight."""
    index = dict(zip(dict.fromkeys(pool), count()))
    return list(index), list(map(index.__getitem__, pool))


def _draw_wts(
    seed: int, max_states: int, max_out_degree: int,
    weights: list, slots: list[int], props: list,
) -> Wts:
    """`random_wts`'s draw, from a pool already checked and indexed by
    `_weight_slots` and propositions already checked and sorted, so a
    caller that draws many models from one pool prepares it once.  Each
    transition draws one of the pool's entries, repeats included."""
    rng = random.Random(seed)
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(1, n + 1)]
    labels = {
        s: frozenset([p for p in props if rng.random() < 0.5]) for s in states
    }
    ids: dict[int, int] = {}
    edges = []
    if slots:
        for s in states:
            for _ in range(rng.randint(0, max_out_degree)):
                edges.append((s, ids.setdefault(rng.choice(slots), len(ids)), rng.choice(states)))
    return _assemble(frozenset(states), labels, list(map(weights.__getitem__, ids)), edges)
