"""Weighted transition systems with exact non-negative rational weights.

A model is a finite set of labelled states plus transitions carrying
weights.  The central queries are the image set of a state toward a set
of target states (the weights of all transitions from the state into the
set) and its minimum/maximum, extended with -inf/+inf on empty images.
The engines ask for a state's minimum and maximum toward every block of a
partition at once (`Wts.bounds_by_block`), which costs one scan of the
state's out-edges.
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

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RATIONAL_RE = re.compile(r"(\d+)(?:/(\d*)|\.(\d*))?")


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
    """Coerce to an exact non-negative rational weight."""
    if isinstance(value, float):
        raise ModelError(f"weights must be exact rationals, got float {value!r}")
    w = Fraction(value)
    if w < 0:
        raise ModelError(f"negative weight {value!r}")
    return w


def _check_ident(name: str, what: str) -> str:
    if not isinstance(name, str) or IDENT_RE.match(name) is None:
        raise ModelError(f"bad {what} {name!r}: expected [A-Za-z_][A-Za-z0-9_]*")
    return name


class Wts:
    """A finite weighted transition system.

    Immutable after construction; every query is pure, so instances can be
    shared freely between threads.  Transitions are a set: duplicate
    (source, weight, target) triples collapse.
    """

    __slots__ = ("states", "labels", "transitions", "_out", "_hash")

    def __init__(
        self,
        states: Iterable[str],
        labels: Mapping[str, Iterable[str]],
        transitions: Iterable[tuple],
    ):
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
            props = frozenset(labels.get(s, ()))
            for p in props:
                _check_ident(p, "proposition")
            label_map[s] = props
        triples = set()
        for src, w, dst in transitions:
            if src not in state_set:
                raise ModelError(f"transition from unknown state {src!r}")
            if dst not in state_set:
                raise ModelError(f"transition to unknown state {dst!r}")
            triples.add((src, as_weight(w), dst))
        self.states: frozenset[str] = state_set
        self.labels: Mapping[str, frozenset[str]] = MappingProxyType(label_map)
        self.transitions: frozenset[tuple[str, Fraction, str]] = frozenset(triples)
        out: dict[str, list] = {s: [] for s in state_set}
        for src, w, dst in self.transitions:
            out[src].append((w, dst))
        self._out = {s: tuple(es) for s, es in out.items()}
        self._hash = None

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
        return frozenset(w for w, dst in self._out[s] if dst in targets)

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
    ) -> dict[Hashable, tuple[Fraction, Fraction]]:
        """Least and greatest weight from `s` into each block it reaches.

        `block_of` maps every state to its block.  One pass over the
        out-edges of `s` gives, for each block some transition enters,
        what theta_min and theta_max would give toward that block's states.
        Blocks `s` does not reach are absent: toward them the bounds are
        (-inf, +inf), as on an empty image.  `s` must be a state of the
        model; unlike the single queries above, nothing is validated.
        """
        bounds: dict = {}
        for w, dst in self._out[s]:
            block = block_of[dst]
            hit = bounds.get(block)
            if hit is None:
                bounds[block] = (w, w)
            elif w < hit[0]:
                bounds[block] = (w, hit[1])
            elif w > hit[1]:
                bounds[block] = (hit[0], w)
        return bounds

    def __eq__(self, other):
        if not isinstance(other, Wts):
            return NotImplemented
        return (
            self.states == other.states
            and self.labels == other.labels
            and self.transitions == other.transitions
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.states, tuple(sorted(self.labels.items())), self.transitions)
            )
        return self._hash

    def __repr__(self):
        return (
            f"Wts({len(self.states)} states, {len(self.transitions)} transitions)"
        )


def _reject_unknown_keys(obj: dict, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ModelError(f"unknown key(s) {sorted(extra)!r} in {where}")


def parse_wts(data: Union[bytes, str]) -> Wts:
    """Parse the JSON model format.

    Raises ModelError with line/column on malformed JSON and with the
    offending element on semantic problems (negative weight, dangling
    state reference, duplicate state id, unknown keys).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise ModelError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ModelError("top level must be a JSON object")
    _reject_unknown_keys(doc, {"states", "transitions"}, "model")
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
        _reject_unknown_keys(entry, {"id", "labels"}, "state entry")
        if "id" not in entry:
            raise ModelError(f'state entry without "id": {entry!r}')
        sid = entry["id"]
        _check_ident(sid, "state id")
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
        _reject_unknown_keys(entry, {"from", "weight", "to"}, "transition entry")
        for key in ("from", "weight", "to"):
            if key not in entry:
                raise ModelError(f'transition without "{key}": {entry!r}')
        if not isinstance(entry["weight"], str):
            raise ModelError(f"weight must be a string, got {entry['weight']!r}")
        triples.append((entry["from"], parse_rational(entry["weight"]), entry["to"]))

    return Wts(seen, labels, triples)


def serialize_wts(m: Wts) -> bytes:
    """Deterministic JSON for a model; inverse of parse_wts."""
    doc = {
        "states": [
            {"id": s, "labels": sorted(m.labels[s])} for s in sorted(m.states)
        ],
        "transitions": [
            {"from": src, "weight": format_rational(w), "to": dst}
            for src, w, dst in sorted(
                m.transitions, key=lambda t: (t[0], t[1], t[2])
            )
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


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
    rng = random.Random(seed)
    weights = sorted(as_weight(w) for w in weight_pool)
    props = sorted(prop_pool)
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
