"""The benchmark's own model and formula code, independent of `wtl`.

Formulas are nested tuples over the seven core constructors:
("atom", name), ("top",), ("bot",), ("not", f), ("and", f, g),
("L", bound, f) and ("M", bound, f), with bounds as `Fraction`.
Models are `Model` records built from generated data or parsed from the
JSON model format.  The evaluator, the reference partition refinement and
the bisimulation clause checks here are the known-answer side of the
benchmark: they must never call into `wtl`.
"""

from __future__ import annotations

import json
from fractions import Fraction

TOP = ("top",)
BOT = ("bot",)


def atom(name):
    return ("atom", name)


def neg(f):
    return ("not", f)


def conj(f, g):
    return ("and", f, g)


def disj(f, g):
    return neg(conj(neg(f), neg(g)))


def implies(f, g):
    return neg(conj(f, neg(g)))


def conj_all(formulas):
    """Left-fold conjunction of a non-empty list."""
    result = formulas[0]
    for f in formulas[1:]:
        result = conj(result, f)
    return result


def fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render(f) -> str:
    """Fully parenthesized text in the grammar `wtl` parses."""
    parts = []
    stack = [f]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        kind = item[0]
        if kind == "atom":
            parts.append(item[1])
        elif kind == "top":
            parts.append("true")
        elif kind == "bot":
            parts.append("false")
        elif kind == "not":
            parts.append("!")
            stack.append(item[1])
        elif kind == "and":
            parts.append("(")
            stack.extend((")", item[2], " & ", item[1]))
        else:
            parts.append(f"{kind}[{fmt_rational(item[1])}] ")
            stack.append(item[2])
    return "".join(parts)


class ParseError(ValueError):
    pass


def parse(text: str):
    """Parse the fully parenthesized core grammar that `wtl` prints.

    Iterative, so printed formulas nested thousands deep parse too.
    Equal subformulas are shared (hash-consed), which keeps the huge,
    highly repetitive distinguishing formulas small in memory.
    """
    table: dict = {}

    def intern(node):
        key = (node[0],) + tuple(
            id(x) if isinstance(x, tuple) else x for x in node[1:]
        )
        return table.setdefault(key, node)

    i, n = 0, len(text)
    # Stack entries: ("not",), ("mod", kind, bound), ("and-left",), ("and-right", left)
    stack = []
    while True:
        while i < n and text[i] == " ":
            i += 1
        if i >= n:
            raise ParseError("unexpected end of formula")
        c = text[i]
        if c == "!":
            stack.append(("not",))
            i += 1
            continue
        if c == "(":
            stack.append(("and-left",))
            i += 1
            continue
        if c in "LM" and text.startswith("[", i + 1):
            close = text.index("]", i)
            stack.append(("mod", c, Fraction(text[i + 2:close])))
            i = close + 1
            continue
        j = i
        while j < n and (text[j].isalnum() or text[j] == "_"):
            j += 1
        if j == i:
            raise ParseError(f"position {i}: unexpected {c!r}")
        word = text[i:j]
        i = j
        node = TOP if word == "true" else BOT if word == "false" else intern(("atom", word))
        # Reduce: close every frame the finished node completes.
        while True:
            if not stack:
                while i < n and text[i] == " ":
                    i += 1
                if i != n:
                    raise ParseError(f"position {i}: trailing input")
                return node
            top = stack[-1]
            if top[0] == "not":
                stack.pop()
                node = intern(("not", node))
            elif top[0] == "mod":
                stack.pop()
                node = intern((top[1], top[2], node))
            elif top[0] == "and-left":
                if not text.startswith(" & ", i):
                    raise ParseError(f"position {i}: expected ' & '")
                i += 3
                stack[-1] = ("and-right", node)
                break
            else:
                if not text.startswith(")", i):
                    raise ParseError(f"position {i}: expected ')'")
                i += 1
                stack.pop()
                node = intern(("and", top[1], node))


class Model:
    """States, labels and out-edges of a weighted transition system."""

    __slots__ = ("states", "labels", "out")

    def __init__(self, states, labels, transitions):
        self.states = list(states)
        self.labels = {s: frozenset(labels.get(s, ())) for s in self.states}
        self.out = {s: [] for s in self.states}
        for src, w, dst in transitions:
            self.out[src].append((Fraction(w), dst))

    @classmethod
    def from_json(cls, data):
        doc = json.loads(data) if isinstance(data, (str, bytes)) else data
        return cls(
            [e["id"] for e in doc["states"]],
            {e["id"]: e.get("labels", []) for e in doc["states"]},
            [(t["from"], Fraction(t["weight"]), t["to"]) for t in doc["transitions"]],
        )

    def to_json(self) -> bytes:
        doc = {
            "states": [{"id": s, "labels": sorted(self.labels[s])} for s in self.states],
            "transitions": [
                {"from": s, "weight": fmt_rational(w), "to": t}
                for s in self.states for w, t in self.out[s]
            ],
        }
        return json.dumps(doc).encode()


def _operands(f) -> tuple:
    if f[0] == "not":
        return (f[1],)
    if f[0] == "and":
        return (f[1], f[2])
    if f[0] in ("L", "M"):
        return (f[2],)
    return ()


def satisfying(model: Model, f) -> frozenset:
    """States of `model` satisfying `f`, by the statewise clauses.

    L[r] g holds at s when s has a transition into the g-states and every
    such transition weighs at least r; M[r] g when there is one and every
    one weighs at most r.  Memoized per node object, so shared subformulas
    are evaluated once.
    """
    memo: dict = {}
    everything = frozenset(model.states)
    # Post-order walk without recursion.
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in memo:
            continue
        kind = node[0]
        children = _operands(node)
        if not ready and any(id(c) not in memo for c in children):
            stack.append((node, True))
            stack.extend((c, False) for c in children)
            continue
        if kind == "atom":
            result = frozenset(s for s in model.states if node[1] in model.labels[s])
        elif kind == "top":
            result = everything
        elif kind == "bot":
            result = frozenset()
        elif kind == "not":
            result = everything - memo[id(node[1])]
        elif kind == "and":
            result = memo[id(node[1])] & memo[id(node[2])]
        else:
            targets = memo[id(node[2])]
            bound = node[1]
            result = set()
            for s in model.states:
                image = [w for w, t in model.out[s] if t in targets]
                if image and (min(image) >= bound if kind == "L" else max(image) <= bound):
                    result.add(s)
            result = frozenset(result)
        memo[id(node)] = result
    return memo[id(f)]


def holds(model: Model, state: str, f) -> bool:
    return state in satisfying(model, f)


def bound_profile(model: Model, s: str, block_of: dict) -> dict:
    """Block index -> (least, greatest) weight from s into that block."""
    profile: dict = {}
    for w, t in model.out[s]:
        b = block_of[t]
        lo, hi = profile.get(b, (w, w))
        profile[b] = (min(lo, w), max(hi, w))
    return profile


def exact_profile(model: Model, s: str, block_of: dict) -> frozenset:
    return frozenset((w, block_of[t]) for w, t in model.out[s])


def block_index(model: Model, blocks) -> dict:
    """State -> block number; raises ValueError unless `blocks` partition
    the model's states."""
    index: dict = {}
    for i, block in enumerate(blocks):
        if not block:
            raise ValueError("empty block")
        for s in block:
            if s in index:
                raise ValueError(f"state {s!r} in two blocks")
            index[s] = i
    if set(index) != set(model.states):
        raise ValueError("blocks do not cover the states")
    return index


def is_bisimulation(model: Model, blocks, weighted: bool) -> bool:
    """The defining clause, verbatim: states sharing a block carry the
    same labels and, toward every block, the same least and greatest
    weight (bound flavour) or the same set of (weight, block) moves
    (exact flavour)."""
    index = block_index(model, blocks)
    profile = exact_profile if weighted else bound_profile
    for block in blocks:
        first = block[0]
        want = (model.labels[first], profile(model, first, index))
        for s in block[1:]:
            if (model.labels[s], profile(model, s, index)) != want:
                return False
    return True


def coarsest_bisimulation(model: Model, weighted: bool) -> list[list[str]]:
    """Reference refinement: split by labels, then by profiles toward the
    current blocks until stable.  Blocks are sorted lists, ordered by
    their least member."""
    profile = exact_profile if weighted else bound_profile
    groups: dict = {}
    for s in sorted(model.states):
        groups.setdefault(model.labels[s], []).append(s)
    blocks = sorted(groups.values())
    while True:
        index = {s: i for i, b in enumerate(blocks) for s in b}
        refined = []
        for block in blocks:
            split: dict = {}
            for s in block:
                key = profile(model, s, index)
                key = frozenset(key.items()) if isinstance(key, dict) else key
                split.setdefault(key, []).append(s)
            refined.extend(split.values())
        refined.sort()
        if len(refined) == len(blocks):
            return blocks
        blocks = refined
