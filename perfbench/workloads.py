"""Seeded request streams for the four workloads, with known answers.

Every input is made from the workload seed alone.  Request `i` of a
stream draws from its own `random.Random("<workload>/<seed>/<stream>/<i>")`,
so the timed stream and the warm-up stream never share a draw, and any
prefix of a stream can be regenerated on its own.  Each request's class
comes from a fixed rotation (`SCHEDULES`), so the mix of request kinds and
sizes is the same whatever the seed.

A request is a dict: "cls" names its class; "argv"/"stdin" are what the
CLI receives (or "model"/"state"/"formula" for library calls on mc-large);
"expect" holds what `checks.py` needs to work out the answer known by
construction.  Known answers are computed only when checking, after the
timed phase, so generating a request stays cheap.
"""

from __future__ import annotations

import random
from fractions import Fraction

from logic import (
    BOT, Model, atom, coarsest_bisimulation, conj, conj_all, disj, holds,
    implies, neg, render,
)

WEIGHTS = tuple(Fraction(x) for x in ("0", "1/2", "1", "3/2", "2", "3"))
BOUNDS = tuple(Fraction(x) for x in ("0", "1/2", "1", "2", "5/2", "3"))

# The formula ROADMAP item 2 times, verbatim, with its core-AST meaning.
ROADMAP_TEXT = "L[1](p & M[2]q) | M[3]!p"
ROADMAP_FORMULA = disj(
    ("L", Fraction(1), conj(atom("p"), ("M", Fraction(2), atom("q")))),
    ("M", Fraction(3), neg(atom("p"))),
)

# mc-large: model sizes, and the model each request uses (small models
# more often, so a 20 s run holds well over 100 requests).
MC_SIZES = (1000, 1500, 2000, 4000)
MC_MODEL_ROTATION = (0, 1, 0, 2, 0, 1, 0, 3)
MC_ATOMS = ("p", "q", "r")

SCHEDULES = {
    "mc-large": ("check",),
    "minimize": (
        "quotient", "bisim", "bisim-weighted", "distinguish",
        "deep-distinguish", "quotient", "bisim", "bisim-weighted",
        "distinguish", "deep-quotient", "deep-bisim", "deep-distinguish",
    ),
    "decide": ("planted", "schema", "planted", "schema", "disjunctions",
               "planted", "schema", "planted", "schema", "disjunctions"),
    "axioms-small": ("suite",),
}

# A timed run ends on a multiple of its workload's cycle, so every run
# holds the request classes and sizes in the same proportions.
CYCLE = {"mc-large": 8, "minimize": 12, "decide": 80, "axioms-small": 11}

# Requests run before the timed phase, from the disjoint "warmup" stream.
WARMUP = {"mc-large": 4, "minimize": 12, "decide": 30, "axioms-small": 4}

PLANTED_WIDTHS = (4, 6, 8, 10, 12, 14, 16)
# k = 9 twice: latency_p90_ms falls in the middle of this shape's
# latencies, so it rests on the largest group rather than on a step.
DISJUNCTION_COUNTS = (6, 7, 8, 9, 9, 10, 11, 12)
PLANTED_BASES = ((30, 5), (40, 5), (30, 10), (50, 6), (60, 5), (30, 12), (40, 8))
RING_SIZES = (8, 10, 12, 14, 16)
CHAIN_SIZES = (8, 10, 12, 14, 16)
SUITE_TRIALS = tuple(range(50, 101, 5))

# Sound, premise-free schemas of the proof system (A4 and T5 included),
# as benchmark-side templates; every instance is valid.
SOUND_SCHEMAS = {
    "A1": (0, lambda r: neg(("L", Fraction(0), BOT))),
    "A2": (1, lambda p, s, r, q: implies(("L", r + q, p), ("L", r, p))),
    "A2'": (1, lambda p, s, r, q: implies(("M", r, p), ("M", r + q, p))),
    "A3": (2, lambda p, s, r, q: implies(
        conj(("L", r, p), ("L", q, s)), ("L", min(r, q), disj(p, s)))),
    "A3'": (2, lambda p, s, r, q: implies(
        conj(("M", r, p), ("M", q, s)), ("M", max(r, q), disj(p, s)))),
    "A4": (2, lambda p, s, r, q: implies(
        ("L", r, disj(p, s)), disj(("L", r, p), ("L", r, s)))),
    "A5": (2, lambda p, s, r, q: implies(
        neg(("L", Fraction(0), s)), implies(("L", r, p), ("L", r, disj(p, s))))),
    "A5'": (2, lambda p, s, r, q: implies(
        neg(("L", Fraction(0), s)), implies(("M", r, p), ("M", r, disj(p, s))))),
    "A6": (1, lambda p, s, r, q: implies(("L", r + q, p), neg(("M", r, p)))),
    "A7": (1, lambda p, s, r, q: implies(("M", r, p), ("L", Fraction(0), p))),
    "T1": (2, lambda p, s, r, q: implies(
        conj(conj(("L", r, p), ("L", q, s)), ("L", Fraction(0), conj(p, s))),
        ("L", max(r, q), conj(p, s)))),
    "T1'": (2, lambda p, s, r, q: implies(
        conj(conj(("M", r, p), ("M", q, s)), ("L", Fraction(0), conj(p, s))),
        ("M", min(r, q), conj(p, s)))),
    "T3": (0, lambda r: neg(("L", r, BOT))),
    "T5": (2, lambda p, s, r, q: implies(
        ("M", r, disj(p, s)), disj(("M", r, p), ("M", r, s)))),
}
SCHEMA_ROTATION = tuple(SOUND_SCHEMAS)


def _rng(workload: str, seed: int, stream: str, i) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}/{i}")


def random_model(rng, n, degree, props, prefix="s") -> Model:
    states = [f"{prefix}{i}" for i in range(n)]
    labels = {s: [p for p in props if rng.random() < 0.5] for s in states}
    transitions = [
        (s, rng.choice(WEIGHTS), rng.choice(states))
        for s in states for _ in range(degree(rng) if callable(degree) else degree)
    ]
    return Model(states, labels, transitions)


def _literal(rng, atoms):
    f = atom(rng.choice(atoms))
    roll = rng.random()
    if roll < 0.3:
        return neg(f)
    if roll < 0.45:
        return conj(f, neg(atom(rng.choice(atoms))))
    return f


def grow(rng, ops: int, depth: int, atoms):
    """A formula with exactly `ops` modal operators and modal depth
    `depth` (0 <= depth <= ops, and depth >= 1 when ops >= 1)."""
    if ops == 0:
        return _literal(rng, atoms)
    must_split = depth == 1 and ops > 1
    if must_split or (ops > depth and rng.random() < 0.5):
        left_ops = rng.randint(depth, ops - 1)
        right_ops = ops - left_ops
        left = grow(rng, left_ops, depth, atoms)
        right = grow(rng, right_ops, rng.randint(1, min(depth, right_ops)), atoms)
        f = conj(left, right) if rng.random() < 0.5 else disj(left, right)
    else:
        f = (rng.choice("LM"), rng.choice(BOUNDS), grow(rng, ops - 1, depth - 1, atoms))
    return neg(f) if rng.random() < 0.25 else f


def relabel(rng, f, names):
    """`f` with atoms renamed by `names`, each occurrence negated or not
    at random."""
    kind = f[0]
    if kind == "atom":
        g = atom(names[f[1]])
        return neg(g) if rng.random() < 0.5 else g
    if kind == "not" and f[1][0] == "atom":
        g = atom(names[f[1][1]])
        return g if rng.random() < 0.5 else neg(g)
    if kind == "not":
        return neg(relabel(rng, f[1], names))
    if kind == "and":
        return conj(relabel(rng, f[1], names), relabel(rng, f[2], names))
    if kind in ("L", "M"):
        return (kind, f[1], relabel(rng, f[2], names))
    return f


def small_formula(rng, max_ops: int, max_depth: int, atoms):
    ops = rng.randint(0, max_ops)
    depth = 0 if ops == 0 else rng.randint(1, min(ops, max_depth))
    return grow(rng, ops, depth, atoms)


# --- mc-large ---------------------------------------------------------------

def _mc_skeletons():
    """Three formulas for every (modal operators 2-6, modal depth 1-3)
    pair, from a fixed seed, then the ROADMAP formula (as None).

    The workload seed only renames and negates their atoms, so the
    modal structure, and with it the cost of a request, is the same for
    every seed while the formulas themselves differ.
    """
    rng = random.Random("mc-large/skeletons")
    shapes = [(ops, depth) for ops in range(2, 7) for depth in range(1, min(3, ops) + 1)]
    return tuple((shape, grow(rng, *shape, MC_ATOMS)) for shape in shapes for _ in range(3)) + (
        (None, ROADMAP_FORMULA),)


MC_SKELETONS = _mc_skeletons()


def mc_models(seed: int) -> list[Model]:
    rng = _rng("mc-large", seed, "models", 0)
    return [random_model(rng, n, 4, MC_ATOMS) for n in MC_SIZES]


def mc_request(seed, stream, i):
    rng = _rng("mc-large", seed, stream, i)
    index = MC_MODEL_ROTATION[i % len(MC_MODEL_ROTATION)]
    shape, f = MC_SKELETONS[i % len(MC_SKELETONS)]
    state = f"s{rng.randrange(MC_SIZES[index])}"
    if shape is None:
        text = ROADMAP_TEXT
    else:
        f = relabel(rng, f, dict(zip(MC_ATOMS, rng.sample(MC_ATOMS, len(MC_ATOMS)))))
        text = render(f)
    return {
        "cls": "roadmap" if shape is None else f"ops{shape[0]}-md{shape[1]}",
        "model": index, "state": state, "formula": text,
        "expect": {"formula": f},
    }


# --- minimize ---------------------------------------------------------------

def planted_model(rng, base_size, copies):
    """A random base model blown up into `copies` copies per state.

    Each copy of a base transition s -w-> t goes to one or two random
    copies of t, so every copy of s has exactly the base state's weights
    toward every union of copies.  Copies of a state are therefore bound-
    and exactly bisimilar, and bisimilarity on the blown-up model is the
    base model's bisimilarity lifted to the copies.
    """
    base = random_model(rng, base_size, lambda r: r.randint(1, 3), ("p", "q"), "b")
    ids = list(range(base_size * copies))
    rng.shuffle(ids)
    name = {(b, c): f"s{ids[k * copies + c]}" for k, b in enumerate(base.states)
            for c in range(copies)}
    states, labels, transitions = [], {}, []
    for b in base.states:
        for c in range(copies):
            states.append(name[b, c])
            labels[name[b, c]] = base.labels[b]
            for w, t in base.out[b]:
                for tc in rng.sample(range(copies), rng.randint(1, 2)):
                    transitions.append((name[b, c], w, name[t, tc]))

    def lift(blocks):
        return sorted(sorted(name[b, c] for b in block for c in range(copies))
                      for block in blocks)

    def known():
        return {
            "bound": lift(coarsest_bisimulation(base, weighted=False)),
            "exact": lift(coarsest_bisimulation(base, weighted=True)),
            "planted": planted,
        }

    planted = [[name[b, c] for c in range(copies)] for b in base.states]
    return Model(states, labels, transitions), planted, known


def ring_model(n):
    """A two-way ring with one p-state: r_i and r_(n-i) are bisimilar, and
    refinement needs about n/2 rounds to separate the rest."""
    states = [f"r{i}" for i in range(n)]
    transitions = [(states[i], 1, states[(i + d) % n]) for i in range(n) for d in (1, -1)]
    model = Model(states, {"r0": ["p"]}, transitions)
    blocks = sorted(sorted({states[i], states[-i % n]}) for i in range(n // 2 + 1))
    known = {"bound": blocks, "exact": blocks, "planted": blocks}
    return model, lambda: known, (states[n // 2 - 1], states[n // 2])


def chain_model(n):
    """A one-way chain ending in a p-state: all states differ, and the
    first two separate only in the last of n rounds."""
    states = [f"c{i}" for i in range(n)]
    transitions = [(states[i], 1, states[i + 1]) for i in range(n - 1)]
    model = Model(states, {states[-1]: ["p"]}, transitions)
    blocks = [[s] for s in sorted(states)]
    known = {"bound": blocks, "exact": blocks, "planted": blocks}
    return model, lambda: known, (states[0], states[1])


def minimize_request(seed, stream, i):
    rng = _rng("minimize", seed, stream, i)
    cls = SCHEDULES["minimize"][i % len(SCHEDULES["minimize"])]
    turn = i // len(SCHEDULES["minimize"])
    if cls.startswith("deep-"):
        command = cls[len("deep-"):]
        if turn % 2 == 0:
            model, known, pair = ring_model(RING_SIZES[turn // 2 % len(RING_SIZES)])
        else:
            model, known, pair = chain_model(CHAIN_SIZES[turn // 2 % len(CHAIN_SIZES)])
    else:
        command = cls
        base_size, copies = PLANTED_BASES[turn % len(PLANTED_BASES)]
        model, planted, known = planted_model(rng, base_size, copies)
        if rng.random() < 0.5:
            block = rng.choice(planted)
            pair = tuple(rng.sample(block, 2))
        else:
            pair = tuple(rng.sample(model.states, 2))
    argv = {
        "quotient": ["quotient", "--model", "-"],
        "bisim": ["bisim", "--model", "-"],
        "bisim-weighted": ["bisim", "--weighted", "--model", "-"],
        "distinguish": ["distinguish", "--model", "-",
                        "--state", pair[0], "--state", pair[1]],
    }[command]
    return {"cls": cls, "argv": argv, "stdin": model.to_json(),
            "expect": {"command": command, "known": known, "pair": pair}}


# --- decide -----------------------------------------------------------------

DECIDE_ATOMS = ("p1", "p2", "p3")


def planted_conjunction(rng, width):
    """`width` conjuncts of modal depth <= 3, each made true at state s0
    of a small random model by negating it when it is false there."""
    model = random_model(rng, rng.randint(2, 4), lambda r: r.randint(1, 3), DECIDE_ATOMS)
    conjuncts = []
    for _ in range(width):
        f = small_formula(rng, 3, 3, DECIDE_ATOMS)
        conjuncts.append(f if holds(model, "s0", f) else neg(f))
    return conj_all(conjuncts)


def schema_instance(rng, name):
    slots, template = SOUND_SCHEMAS[name]
    r = rng.choice(BOUNDS)
    if slots == 0:
        return template(r)
    p = small_formula(rng, 2, 2, DECIDE_ATOMS)
    s = small_formula(rng, 2, 2, DECIDE_ATOMS)
    return template(p, s, r, rng.choice(BOUNDS[1:]))


def disjunctions(rng, k):
    """k binary disjunctions over distinct atoms plus one modal conjunct:
    satisfiable, with 2^k branches in the eager tableau."""
    parts = []
    for j in range(k):
        a, b = atom(f"x{j}"), atom(f"y{j}")
        parts.append(disj(a if rng.random() < 0.5 else neg(a),
                          b if rng.random() < 0.5 else neg(b)))
    parts.append((rng.choice("LM"), rng.choice(BOUNDS), atom("z")))
    return conj_all(parts)


def decide_request(seed, stream, i, witness_path):
    rng = _rng("decide", seed, stream, i)
    cls = SCHEDULES["decide"][i % len(SCHEDULES["decide"])]
    turn = i // len(SCHEDULES["decide"])
    if cls == "schema":
        name = SCHEMA_ROTATION[(2 * turn + i % 2) % len(SCHEMA_ROTATION)]
        f = schema_instance(rng, name)
        return {"cls": f"schema-{name}", "argv": ["valid", "--formula", render(f)],
                "stdin": b"", "expect": {"valid": True}}
    if cls == "planted":
        width = PLANTED_WIDTHS[(2 * turn + i % 2) % len(PLANTED_WIDTHS)]
        f = planted_conjunction(rng, width)
    else:
        f = disjunctions(rng, DISJUNCTION_COUNTS[turn % len(DISJUNCTION_COUNTS)])
    return {"cls": cls, "argv": ["sat", "--formula", render(f), "--emit-model", witness_path],
            "stdin": b"", "expect": {"satisfiable": True, "formula": f}}


# --- axioms-small -----------------------------------------------------------

def axioms_request(seed, stream, i):
    rng = _rng("axioms-small", seed, stream, i)
    trials = SUITE_TRIALS[i % len(SUITE_TRIALS)]
    suite_seed = rng.getrandbits(31)
    return {"cls": f"trials{trials}",
            "argv": ["axioms", "--seed", str(suite_seed), "--trials", str(trials)],
            "stdin": b"", "expect": {"seed": suite_seed, "trials": trials}}


class Stream:
    """Lazily generated requests of one workload, stream and seed."""

    def __init__(self, workload: str, seed: int, stream: str, witness_path: str = ""):
        if workload not in SCHEDULES:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.stream = workload, seed, stream
        self.witness_path = witness_path

    def __getitem__(self, i: int) -> dict:
        w, seed, stream = self.workload, self.seed, self.stream
        if w == "mc-large":
            return mc_request(seed, stream, i)
        if w == "minimize":
            return minimize_request(seed, stream, i)
        if w == "decide":
            return decide_request(seed, stream, i, self.witness_path)
        return axioms_request(seed, stream, i)
