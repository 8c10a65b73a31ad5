"""Executable soundness suite for the bound-logic proof system.

Every schema of the system is checked against random formulas, indices
and models, to hold at all states.  Inference rules are checked as
validity preservation on a single model: whenever the premise holds
everywhere, the conclusion must too.  A deliberately unsound control
schema is included; the suite is expected to find countermodels for it
and none for the rest.

Each schema is written once, as a term over an `Algebra` of the core
constructors.  Applied to `FORMULAS` it builds the instance formula
(`instantiate`, `premise_of`); applied to `StateSets(m)`, with the sat
sets of its formula slots, it computes the instance's sat set directly.
The two agree because `sat_set` is the fold of a formula into that same
set algebra.  So each trial of `run_suite` runs in one `StateSets`: its
two random formulas are drawn straight into it, as sat sets, with no
node made; every schema is applied to it; and a modality that the
draws or the schemas ask again of an equal set and bound is answered
from that algebra's memo.  The formulas are drawn again as formulas,
from the same seeds, only to report a violation.

The suite compares ints, not `Fraction`s.  It scales its sorted index
pool once by the lcm of the pool's denominators.  The bounds a schema
computes from its indices (`r + q`, `min`, `max`, `0`) are then ints, and
each trial's model gets a `StateSets` whose key table is its weights in
the same scale.  The pool and the atoms are normalized once per suite,
and every draw goes to the private drawers behind `random_wts` and
`random_formula`, so the draws are those of the public functions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from ._record import fill, record
from .formulas import (
    FORMULAS, Formula, StateSets, _draw_formula, print_formula, sat_set,
)
from .wts import Wts, _draw_wts, _weight_slots, as_weight, serialize_wts

__all__ = [
    "Schema", "SCHEMAS", "SideConditionError", "instantiate", "premise_of",
    "holds_everywhere", "SchemaReport", "SuiteReport", "run_suite",
    "DEFAULT_INDEX_POOL",
]

DEFAULT_INDEX_POOL = (
    Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3),
)


class SideConditionError(ValueError):
    """Schema instantiated against its side condition."""


@record
class Schema:
    """One schema: how many formula/index slots it takes, its side
    condition, whether it is a rule (premise-guarded), and whether it is
    expected to be sound.

    `conclusion` and `premise` are terms over an `Algebra`: each takes the
    algebra, then the formula slots, then (the conclusion only) the index
    slots."""

    __slots__ = ("name", "formula_slots", "index_slots", "positive_q",
                 "conclusion", "premise", "sound")

    def __init__(self, name: str, formula_slots: int, index_slots: int,
                 positive_q: bool = False, conclusion: Optional[Callable] = None,
                 premise: Optional[Callable] = None, sound: bool = True):
        fill(self, name, formula_slots, index_slots, positive_q, conclusion, premise, sound)


_TABLE = [
    Schema("A1", 0, 0, conclusion=lambda A: A.Not(A.AtLeast(0, A.Bottom()))),
    Schema("A2", 1, 2, positive_q=True,
           conclusion=lambda A, p, r, q: A.implies(
               A.AtLeast(r + q, p), A.AtLeast(r, p))),
    Schema("A2'", 1, 2, positive_q=True,
           conclusion=lambda A, p, r, q: A.implies(
               A.AtMost(r, p), A.AtMost(r + q, p))),
    Schema("A3", 2, 2,
           conclusion=lambda A, p, s, r, q: A.implies(
               A.And(A.AtLeast(r, p), A.AtLeast(q, s)),
               A.AtLeast(min(r, q), A.lor(p, s)))),
    Schema("A3'", 2, 2,
           conclusion=lambda A, p, s, r, q: A.implies(
               A.And(A.AtMost(r, p), A.AtMost(q, s)),
               A.AtMost(max(r, q), A.lor(p, s)))),
    Schema("A4", 2, 1,
           conclusion=lambda A, p, s, r: A.implies(
               A.AtLeast(r, A.lor(p, s)), A.lor(A.AtLeast(r, p), A.AtLeast(r, s)))),
    Schema("A5", 2, 1,
           conclusion=lambda A, p, s, r: A.implies(
               A.Not(A.AtLeast(0, s)),
               A.implies(A.AtLeast(r, p), A.AtLeast(r, A.lor(p, s))))),
    Schema("A5'", 2, 1,
           conclusion=lambda A, p, s, r: A.implies(
               A.Not(A.AtLeast(0, s)),
               A.implies(A.AtMost(r, p), A.AtMost(r, A.lor(p, s))))),
    Schema("A6", 1, 2, positive_q=True,
           conclusion=lambda A, p, r, q: A.implies(
               A.AtLeast(r + q, p), A.Not(A.AtMost(r, p)))),
    Schema("A7", 1, 1,
           conclusion=lambda A, p, r: A.implies(A.AtMost(r, p), A.AtLeast(0, p))),
    Schema("T1", 2, 2,
           conclusion=lambda A, p, s, r, q: A.implies(
               A.And(A.And(A.AtLeast(r, p), A.AtLeast(q, s)), A.AtLeast(0, A.And(p, s))),
               A.AtLeast(max(r, q), A.And(p, s)))),
    Schema("T1'", 2, 2,
           conclusion=lambda A, p, s, r, q: A.implies(
               A.And(A.And(A.AtMost(r, p), A.AtMost(q, s)), A.AtLeast(0, A.And(p, s))),
               A.AtMost(min(r, q), A.And(p, s)))),
    Schema("T2", 2, 1,
           premise=lambda A, p, s: A.iff(p, s),
           conclusion=lambda A, p, s, r: A.iff(A.AtLeast(r, p), A.AtLeast(r, s))),
    Schema("T2'", 2, 1,
           premise=lambda A, p, s: A.iff(p, s),
           conclusion=lambda A, p, s, r: A.iff(A.AtMost(r, p), A.AtMost(r, s))),
    Schema("T3", 0, 1, conclusion=lambda A, r: A.Not(A.AtLeast(r, A.Bottom()))),
    Schema("T4", 1, 1,
           premise=lambda A, p: A.implies(p, A.Bottom()),
           conclusion=lambda A, p, r: A.Not(A.AtLeast(r, p))),
    Schema("T5", 2, 1,
           conclusion=lambda A, p, s, r: A.implies(
               A.AtMost(r, A.lor(p, s)), A.lor(A.AtMost(r, p), A.AtMost(r, s)))),
    Schema("R1", 2, 1,
           premise=lambda A, p, s: A.implies(p, s),
           conclusion=lambda A, p, s, r: A.implies(
               A.And(A.AtLeast(r, s), A.AtLeast(0, p)), A.AtLeast(r, p))),
    Schema("R1'", 2, 1,
           premise=lambda A, p, s: A.implies(p, s),
           conclusion=lambda A, p, s, r: A.implies(
               A.And(A.AtMost(r, s), A.AtLeast(0, p)), A.AtMost(r, p))),
    Schema("R2", 2, 0,
           premise=lambda A, p, s: A.implies(p, s),
           conclusion=lambda A, p, s: A.implies(A.AtLeast(0, p), A.AtLeast(0, s))),
    # Negative control: bound modalities do not distribute over
    # conjunction without a reachability guard.
    Schema("neg-control", 2, 1, sound=False,
           conclusion=lambda A, p, s, r: A.implies(
               A.And(A.AtLeast(r, p), A.AtLeast(r, s)), A.AtLeast(r, A.And(p, s)))),
]

SCHEMAS: dict[str, Schema] = {sch.name: sch for sch in _TABLE}


def _slot_args(schema: Schema, formulas: tuple, indices: tuple = ()) -> list:
    """The values `schema` takes, read in order: its formula slots from
    `formulas`, then its index slots from `indices` as weights, then the
    check that q > 0 where the schema requires it.  A slot left as None
    is a `SideConditionError` that names it."""
    args = []
    for name, value in zip(("phi", "psi"), formulas[:schema.formula_slots]):
        if value is None:
            raise SideConditionError(f"{schema.name} needs a formula for {name}")
        args.append(value)
    for name, value in zip("rq", indices[:schema.index_slots]):
        if value is None:
            raise SideConditionError(f"{schema.name} needs an index {name}")
        args.append(as_weight(value))
    if schema.positive_q and len(args) == schema.formula_slots + 2 and args[-1] <= 0:
        raise SideConditionError(f"{schema.name} requires q > 0")
    return args


def instantiate(
    schema: Schema | str,
    phi: Optional[Formula] = None,
    psi: Optional[Formula] = None,
    r=None,
    q=None,
) -> Formula:
    """The schema's closed formula with slots substituted (core AST): its
    conclusion applied to the formula algebra `FORMULAS`.

    For rule schemas this is the conclusion; the guarding premise is
    available via premise_of.
    """
    if isinstance(schema, str):
        schema = SCHEMAS[schema]
    return schema.conclusion(FORMULAS, *_slot_args(schema, (phi, psi), (r, q)))


def premise_of(
    schema: Schema | str,
    phi: Optional[Formula] = None,
    psi: Optional[Formula] = None,
) -> Optional[Formula]:
    """The premise of a rule schema, or None for plain axiom schemas."""
    if isinstance(schema, str):
        schema = SCHEMAS[schema]
    if schema.premise is None:
        return None
    return schema.premise(FORMULAS, *_slot_args(schema, (phi, psi)))


def holds_everywhere(m: Wts, f: Formula) -> bool:
    """True iff every state of the model satisfies the formula."""
    return sat_set(m, f) == m.states


@record(frozen=False)
class SchemaReport:
    __slots__ = ("name", "sound", "checked", "applicable", "violations", "first_violation")

    def __init__(self, name: str, sound: bool, checked: int = 0, applicable: int = 0,
                 violations: int = 0, first_violation: Optional[dict] = None):
        self.name = name
        self.sound = sound
        self.checked = checked
        self.applicable = applicable
        self.violations = violations
        self.first_violation = first_violation

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


@record(frozen=False)
class SuiteReport:
    __slots__ = ("seed", "trials", "schemas")

    def __init__(self, seed: int, trials: int,
                 schemas: Optional[dict[str, SchemaReport]] = None):
        self.seed = seed
        self.trials = trials
        self.schemas = {} if schemas is None else schemas

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


_SUITE_ATOMS = ("p1", "p2", "p3")


def run_suite(
    seed: int,
    trials: int,
    schemas: Optional[list[str]] = None,
    index_pool=DEFAULT_INDEX_POOL,
) -> SuiteReport:
    """Check every schema against `trials` random (model, instance) draws.

    Deterministic in `seed`.  Each trial draws one model and one pair of
    formulas of modal depth at most two.  The formulas are drawn into the
    model's set algebra, so each draw is its sat set, and every schema is
    applied to that algebra with them.  Where an instance fails, the
    first failure of each schema is recorded with the instance formula,
    which the trial's seeds draw again as a formula, and full
    reproduction data.  A schema named twice is checked once.  Unknown
    schema names, or an index pool with no positive weight (the q > 0
    schemas draw from it), are a `ValueError` before any draw.

    The schemas run on ints.  The sorted pool is scaled once by the lcm of
    its denominators, so each index is an int key and `r + q`, `min`,
    `max` and `0` are exact int arithmetic; each model's weights, all
    drawn from the pool, become keys in the same scale, which is the key
    table of its `StateSets`.  The formulas draw their bounds from the
    keys, by position, as `random_formula` draws from the pool.  Scaling
    by a positive number keeps every comparison of a bound with a weight,
    so the sets are those of the instance formulas.  The `Fraction`
    indices build the violation report.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if schemas:
        unknown = [n for n in schemas if n not in SCHEMAS]
        if unknown:
            raise ValueError(f"unknown schema(s) {unknown!r}")
    names = dict.fromkeys(schemas) if schemas else SCHEMAS
    selected = [SCHEMAS[n] for n in names]
    pool = sorted(as_weight(w) for w in index_pool)
    positive = [i for i, w in enumerate(pool) if w > 0]
    if not positive:
        raise ValueError("index pool needs a positive weight for the q > 0 schemas")
    scale = lcm(*(w.denominator for w in pool))

    def key(w: Fraction) -> int:
        return w.numerator * (scale // w.denominator)

    keys = [key(w) for w in pool]
    draw_weights, draw_slots = _weight_slots(pool)
    atoms = sorted(_SUITE_ATOMS)
    rng = random.Random(seed)
    report = SuiteReport(seed=seed, trials=trials)
    for sch in selected:
        report.schemas[sch.name] = SchemaReport(name=sch.name, sound=sch.sound)

    for trial in range(trials):
        trial_seed = rng.getrandbits(32)
        model = _draw_wts(trial_seed, 4, 3, draw_weights, draw_slots, atoms)
        sets = StateSets(model, _keys=tuple(key(w) for w in model.weights))
        # The sat sets of phi and psi, drawn into `sets` from `keys`, which
        # `rng.choice` reads by position as it reads `pool`.
        slots = (_draw_formula(trial_seed + 1, atoms, 2, keys, sets),
                 _draw_formula(trial_seed + 2, atoms, 2, keys, sets))
        # Positions in the pool: `keys[i]` for the sets, `pool[i]` to report.
        ri = rng.randrange(len(pool))
        qi = rng.randrange(len(pool))
        qi_pos = positive[rng.randrange(len(positive))]
        for sch in selected:
            rep = report.schemas[sch.name]
            qi_used = qi_pos if sch.positive_q else qi
            formula_args = slots[:sch.formula_slots]
            if sch.premise is not None:
                if sch.premise(sets, *formula_args) != model.states:
                    continue
                rep.applicable += 1
            rep.checked += 1
            holding = sch.conclusion(
                sets, *formula_args, *(keys[ri], keys[qi_used])[:sch.index_slots])
            if holding != model.states:
                rep.violations += 1
                if rep.first_violation is None:
                    phi = _draw_formula(trial_seed + 1, atoms, 2, pool)
                    psi = _draw_formula(trial_seed + 2, atoms, 2, pool)
                    instance = instantiate(sch, phi, psi, pool[ri], pool[qi_used])
                    rep.first_violation = {
                        "trial": trial,
                        "trial_seed": trial_seed,
                        "instance": print_formula(instance),
                        "failing_states": sorted(model.states - holding),
                        "model": serialize_wts(model).decode("utf-8"),
                    }
    return report
