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
(`Wts.bounds_by_block`, one scan of the state's out-edges), `sat_set`'s
modalities walk backward over the in-edges of the target set
(`Wts.ranked_in_edges`), and `model_check` walks forward over one state's
out-edges in rank order.  Ranks from two models do not compare; a caller
that builds a new model or a formula bound maps them back through
`weights`.  The `(source, weight, target)` triples, `Wts.transitions`,
are derived from the ranks on request.
All arithmetic is exact (`fractions.Fraction`); weights are kept in
canonical reduced form so equality is structural.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import inf
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Union

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


class ModelError(ValueError):
    """A model file or model construction violates the format."""


class UnknownStateError(ModelError):
    """A query referenced a state id that is not in the model."""


def read_rational(text: str, pos: int = 0) -> tuple[Fraction, int]:
    """Read the unsigned rational "N", "N/D" or "N.M" at `text[pos]`.

    Returns its exact value and the index just past it.  Raises ValueError
    when no digit starts at `pos`, when the digits after "/" or "." are
    missing, or on a zero denominator; each caller reports it in its own
    terms.  The one reader behind model weights and formula bounds.
    """
    m = _RATIONAL_RE.match(text, pos)
    if m is None:
        raise ValueError("expected digits")
    whole, den, dec = m.groups()
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


def parse_rational(text: str) -> Fraction:
    """Parse "N", "N/D" or "N.M" into an exact non-negative rational."""
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


def format_rational(q: Fraction) -> str:
    """Canonical text for a rational: "N" or "N/D"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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


class Wts:
    """A finite weighted transition system.

    Immutable after construction; every query is pure, so instances can be
    shared freely between threads.  `weights` holds the model's distinct
    weights in ascending order, and `_out[s]` the out-edges of `s` as
    `(rank, target)` pairs sorted by rank, then target.  Transitions are a
    set: duplicate (source, weight, target) triples collapse, however the
    weight is written ("1/2", "2/4", "0.5" and `Fraction(1, 2)` are one
    weight).  Each distinct weight text is parsed once per model.
    """

    __slots__ = ("states", "labels", "weights", "_out", "_hash", "_in", "_holding")

    def __init__(
        self,
        states: Iterable[str],
        labels: Mapping[str, Iterable[str]],
        transitions: Iterable[tuple],
    ):
        if isinstance(states, str):
            raise ModelError(f"states must be a collection of ids, got {states!r}")
        state_set = frozenset(states)
        if not state_set:
            raise ModelError("a model needs at least one state")
        for s in state_set:
            _check_ident(s, "state id")
        for s in labels:
            if s not in state_set:
                raise ModelError(f"labels given for unknown state {s!r}")
        label_map = {}
        for s in state_set:
            props = labels.get(s, ())
            if isinstance(props, str):
                raise ModelError(f"labels of {s!r} must be a collection, got {props!r}")
            for p in props:
                _check_ident(p, "proposition")
            label_map[s] = frozenset(props)
        # Each weight gets the id of its value: text is parsed once per
        # distinct string, anything else goes through as_weight every time,
        # so a float is refused even after the text of the same value.
        ids: dict[Fraction, int] = {}
        text_ids: dict[str, int] = {}
        pending: dict[str, list] = {s: [] for s in state_set}
        for src, w, dst in transitions:
            if not isinstance(src, str) or src not in state_set:
                raise ModelError(f"transition from unknown state {src!r}")
            if not isinstance(dst, str) or dst not in state_set:
                raise ModelError(f"transition to unknown state {dst!r}")
            if isinstance(w, str):
                i = text_ids.get(w)
                if i is None:
                    i = text_ids[w] = ids.setdefault(parse_rational(w), len(ids))
            else:
                i = ids.setdefault(as_weight(w), len(ids))
            pending[src].append((i, dst))
        weights = tuple(sorted(ids))
        rank = [0] * len(weights)
        for r, w in enumerate(weights):
            rank[ids[w]] = r
        self.states: frozenset[str] = state_set
        self.labels: Mapping[str, frozenset[str]] = MappingProxyType(label_map)
        self.weights: tuple[Fraction, ...] = weights
        self._out: dict[str, tuple[tuple[int, str], ...]] = {
            s: tuple(sorted({(rank[i], dst) for i, dst in es}))
            for s, es in pending.items()
        }
        self._hash = None
        self._in = None
        self._holding = None

    @property
    def transitions(self) -> frozenset[tuple[str, Fraction, str]]:
        """Every (source, weight, target) triple, built from the ranks."""
        w = self.weights
        return frozenset(
            (src, w[r], dst) for src, es in self._out.items() for r, dst in es
        )

    def _require_state(self, s: str) -> None:
        if s not in self.states:
            raise UnknownStateError(f"unknown state {s!r}")

    def image_set(self, s: str, targets: Iterable[str]) -> frozenset[Fraction]:
        """Weights of all transitions from `s` into the target set."""
        self._require_state(s)
        targets = frozenset(targets)
        unknown = targets - self.states
        if unknown:
            raise UnknownStateError(f"unknown target state(s) {sorted(unknown)!r}")
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

    def ranked_in_edges(
        self,
    ) -> tuple[tuple[Fraction, ...], Mapping[str, tuple[tuple[int, str], ...]]]:
        """The model's distinct weights, ascending, and every state's in-edges.

        The second part maps each state `t` to a `(rank, source)` pair per
        transition `source -w-> t`, where `rank` is the index of `w` in
        `weights`, so `rank < i` exactly when `w < weights[i]`.  Built on
        the first call and kept, as the hash is: a model whose sat sets are
        never asked for never pays for it.
        """
        if self._in is None:
            into: dict[str, list] = {s: [] for s in self.states}
            for src, es in self._out.items():
                for r, dst in es:
                    into[dst].append((r, src))
            frozen = {s: tuple(es) for s, es in into.items()}
            self._in = (self.weights, MappingProxyType(frozen))
        return self._in

    def states_labelled(self, p: str) -> frozenset[str]:
        """The states whose labels hold `p`; empty for a proposition no
        state carries.  The index is built on the first call and kept."""
        if self._holding is None:
            holding: dict[str, set] = {}
            for s, props in self.labels.items():
                for q in props:
                    holding.setdefault(q, set()).add(s)
            self._holding = {q: frozenset(ss) for q, ss in holding.items()}
        return self._holding.get(p, frozenset())

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
        if self._hash is None:
            self._hash = hash((
                self.states, tuple(sorted(self.labels.items())),
                self.weights, frozenset(self._out.items()),
            ))
        return self._hash

    def __repr__(self):
        count = sum(len(es) for es in self._out.values())
        return f"Wts({len(self.states)} states, {count} transitions)"


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
    are not UTF-8, with line/column on malformed JSON, and with the
    offending element on problems of shape (a wrong type, a missing or
    unknown key, a duplicate state id).  `Wts` checks the rest once:
    identifiers, weights and dangling state references.
    """
    if isinstance(data, bytes):
        data = decode_utf8(data, ModelError)
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise ModelError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ModelError("top level must be a JSON object")
    _reject_unknown_keys(doc, _MODEL_KEYS, "model")
    if "states" not in doc or "transitions" not in doc:
        raise ModelError('model needs both "states" and "transitions"')
    for key in ("states", "transitions"):
        if not isinstance(doc[key], list):
            raise ModelError(f'"{key}" must be a list')

    seen: set[str] = set()
    labels: dict[str, list] = {}
    for entry in doc["states"]:
        if not isinstance(entry, dict):
            raise ModelError(f"state entry must be an object, got {entry!r}")
        if not entry.keys() <= _STATE_KEYS:
            _reject_unknown_keys(entry, _STATE_KEYS, "state entry")
        sid = entry.get("id")
        if not isinstance(sid, str):
            raise ModelError(f'state entry needs a string "id": {entry!r}')
        if sid in seen:
            raise ModelError(f"duplicate state id {sid!r}")
        seen.add(sid)
        props = entry.get("labels", [])
        if not isinstance(props, list):
            raise ModelError(f"labels of {sid!r} must be a list")
        labels[sid] = props

    triples = []
    for entry in doc["transitions"]:
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

    return Wts(seen, labels, triples)


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
    return _draw_wts(
        seed, max_states, max_out_degree,
        sorted(as_weight(w) for w in weight_pool), sorted(prop_pool),
    )


def _draw_wts(
    seed: int, max_states: int, max_out_degree: int, weights: list, props: list,
) -> Wts:
    """`random_wts`'s draw, from weights and propositions already sorted
    (and the weights coerced), so a caller that draws many models from one
    pool normalizes it once."""
    rng = random.Random(seed)
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(1, n + 1)]
    labels = {
        s: [p for p in props if rng.random() < 0.5] for s in states
    }
    transitions = []
    if weights:
        for s in states:
            for _ in range(rng.randint(0, max_out_degree)):
                transitions.append((s, rng.choice(weights), rng.choice(states)))
    return Wts(states, labels, transitions)
