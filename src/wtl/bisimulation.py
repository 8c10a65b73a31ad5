"""Bisimilarity by partition refinement, quotients, and distinguishing formulas.

Two flavours are computed as greatest fixpoints:

* bound bisimilarity ("generalized"): states in a block carry the same
  labels and the same minimum and maximum transition weight toward every
  block;
* exact bisimilarity ("weighted"): the classical zig-zag matching of
  individual transition weights into blocks.

Exact bisimilarity refines bound bisimilarity.  One refinement loop serves
both flavours; only the signature of a state differs.  Refinement is
global: starting from the partition by labels, each round scans every
out-edge of every state once, which gives each state its signature toward
all current blocks, and splits every block by signature, until a round
splits nothing.  A round is plain data: its blocks as sorted lists in a
canonical order (by least member, so runs are deterministic) and a dict
from each state to its block's number.  The loop keeps only the current
round, and the partition callers read their answer off the last: a
`Partition` that takes the round's lists and dict as they are, with no
re-sort and no re-index.  `distinguishing_formula` alone keeps every
round.  Signatures hold block numbers and weight ranks (`Wts.weights`),
not rationals, so they hash and compare as ints; the quotient and the
distinguishing formulas map ranks back to weights.

The last round's split pass finds one signature per block, and a block's
bound signature is its quotient state's out-edges: `minimize` builds the
quotient from those signatures, with no second pass over the states.
`quotient_model`, given a partition from a caller, checks it with that
same split pass, by labels and bounds, once over its blocks: a bound
bisimulation is exactly a partition that the pass splits nowhere.

A distinguishing formula is built from the rounds of bound refinement:
one memoized separator per state pair, which probes a block toward which
the two states' bounds differ and excludes only the blocks that would
spoil the probe (after Cleaveland, CAV 1990).  Its modal depth is the
round that splits the pair.
"""

from __future__ import annotations

from typing import Optional

from .formulas import AtLeast, AtMost, Atom, Formula, Not, conjoin
from .wts import NEG_INF, POS_INF, Wts, _assemble

__all__ = [
    "Partition", "generalized_bisimilarity", "weighted_bisimilarity",
    "are_bisimilar", "minimize", "quotient_model", "distinguishing_formula",
]

# Bounds toward a block a state does not reach: those of an empty image.
_UNREACHED = (NEG_INF, POS_INF)


class Partition:
    """Disjoint non-empty blocks covering a model's states."""

    __slots__ = ("blocks", "_lists", "_index")

    def __init__(self, blocks):
        lists = [sorted(set(b)) for b in blocks]
        if not all(lists):
            raise ValueError("empty block")
        lists.sort(key=lambda block: block[0])
        self._lists = lists
        self.blocks: tuple[frozenset[str], ...] = tuple(map(frozenset, lists))
        self._index: dict[str, int] = {}
        for i, block in enumerate(lists):
            for s in block:
                if s in self._index:
                    raise ValueError(f"state {s!r} in two blocks")
                self._index[s] = i

    @classmethod
    def _of_round(cls, blocks: list[list[str]], block_of: dict[str, int]) -> "Partition":
        """The partition of a refinement round, whose blocks are already
        sorted lists in canonical order and whose dict numbers them: both
        are kept as they are."""
        p = cls.__new__(cls)
        p._lists, p._index = blocks, block_of
        p.blocks = tuple(map(frozenset, blocks))
        return p

    def block_of(self, s: str) -> frozenset[str]:
        return self.blocks[self._index[s]]

    def same_block(self, s: str, t: str) -> bool:
        return self._index[s] == self._index[t]

    def refines(self, other: "Partition") -> bool:
        """Every block of self is contained in a block of other."""
        return all(b <= other.block_of(min(b)) for b in self.blocks)

    def as_lists(self) -> list[list[str]]:
        return list(map(list, self._lists))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return set(self.blocks) == set(other.blocks)

    def __hash__(self):
        return hash(frozenset(self.blocks))

    def __repr__(self):
        return f"Partition({self.as_lists()!r})"


def _bound_signature(m: Wts, block_of: dict, s: str):
    """Min and max weight rank toward every block `s` reaches."""
    return frozenset(m.bounds_by_block(s, block_of).items())


def _exact_signature(m: Wts, block_of: dict, s: str):
    """Every (weight rank, block) pair of a transition from `s`."""
    return frozenset((r, block_of[dst]) for r, dst in m._out[s])


def _labelled_signature(m: Wts, block_of: dict, s: str):
    """The labels of `s` and its bound signature: what a bound
    bisimulation's block shares."""
    return m.labels[s], _bound_signature(m, block_of, s)


def _split(m: Wts, signature, blocks: list, block_of: dict) -> tuple[list, list]:
    """One split pass: each block's states grouped by `signature`, the
    groups of a block in the order of their least members, and beside
    them each group's signature."""
    split, signatures = [], []
    for block in blocks:
        groups: dict = {}
        for s in block:
            groups.setdefault(signature(m, block_of, s), []).append(s)
        split.extend(groups.values())
        signatures.extend(groups)
    return split, signatures


def _rounds(m: Wts, signature):
    """The rounds of refinement by `signature`, coarsest first: the
    partition by labels, then each round's split of the one before, and
    last the fixpoint.

    A round is its blocks, each a sorted list, in canonical order, and a
    dict from each state to its block's number.  A round only splits
    blocks, so an unchanged block count means nothing split; then the
    generator returns the signatures of that last split, one per block of
    the fixpoint, in its order.  Only the current round is kept, so a
    caller that wants the fixpoint holds O(states) however many rounds
    there are; one that wants every round (the separators) keeps them
    itself.
    """
    groups: dict = {}
    for s in sorted(m.states):
        groups.setdefault(m.labels[s], []).append(s)
    blocks = list(groups.values())
    while True:
        block_of = {s: i for i, block in enumerate(blocks) for s in block}
        yield blocks, block_of
        split, signatures = _split(m, signature, blocks, block_of)
        if len(split) == len(blocks):
            return signatures
        blocks = sorted(split, key=lambda block: block[0])


def _fixpoint(m: Wts, signature) -> tuple[list, dict, list]:
    """The last of `_rounds`, the coarsest partition stable under
    `signature`: its blocks, its dict, and each block's signature."""
    rounds = _rounds(m, signature)
    while True:
        try:
            blocks, block_of = next(rounds)
        except StopIteration as end:
            return blocks, block_of, end.value


def _quotient(m: Wts, blocks: list, signatures) -> Wts:
    """The quotient of `m` by a bound bisimulation, given as its blocks
    (sorted lists in canonical order) and each block's bound signature:
    one state per block, named by its least member, with the block's least
    and greatest weight toward every block it reaches."""
    reps = [block[0] for block in blocks]
    ids: dict[int, int] = {}  # rank in m.weights -> index in the quotient's
    edges = []
    for rep, bounds in zip(reps, signatures):
        for target, (lo, hi) in bounds:
            edges.append((rep, ids.setdefault(lo, len(ids)), reps[target]))
            edges.append((rep, ids.setdefault(hi, len(ids)), reps[target]))
    labels = {rep: m.labels[rep] for rep in reps}
    return _assemble(frozenset(reps), labels, list(map(m.weights.__getitem__, ids)), edges)


def generalized_bisimilarity(m: Wts) -> Partition:
    """Coarsest partition with equal labels and equal min/max weight
    toward every block."""
    blocks, block_of, _ = _fixpoint(m, _bound_signature)
    return Partition._of_round(blocks, block_of)


def weighted_bisimilarity(m: Wts) -> Partition:
    """Coarsest partition under exact zig-zag matching of weights."""
    blocks, block_of, _ = _fixpoint(m, _exact_signature)
    return Partition._of_round(blocks, block_of)


def are_bisimilar(m: Wts, s: str, t: str, flavor: str = "generalized") -> bool:
    m._require_state(s)
    m._require_state(t)
    if flavor == "generalized":
        signature = _bound_signature
    elif flavor == "weighted":
        signature = _exact_signature
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    block_of = _fixpoint(m, signature)[1]
    return block_of[s] == block_of[t]


def minimize(m: Wts) -> tuple[Partition, Wts]:
    """The coarsest bound bisimulation of `m` and the quotient by it, both
    read off the refinement's last round, whose split found each block's
    signature: the quotient state's out-edges."""
    blocks, block_of, signatures = _fixpoint(m, _bound_signature)
    return Partition._of_round(blocks, block_of), _quotient(m, blocks, signatures)


def quotient_model(m: Wts, p: Partition) -> Wts:
    """One state per block, keeping each block's min and max weight toward
    every other block.

    The partition must be a bound bisimulation for `m` (e.g. the output of
    generalized_bisimilarity): every state must carry the labels and the
    bounds of its block's least member, which names the block state.  One
    split pass of the refinement, by labels and bounds, checks that: it
    must find a single signature per block of `p`, and those signatures
    are the quotient's edges.  `minimize` gives the partition and the
    quotient with no check, from the refinement's own last pass.
    """
    if p._index.keys() != m.states:
        raise ValueError("partition does not cover the model's states")
    split, signatures = _split(m, _labelled_signature, p._lists, p._index)
    if len(split) != len(p._lists):
        raise ValueError("partition is not a bound bisimulation for this model")
    return _quotient(m, p._lists, [bounds for _, bounds in signatures])


class _Separator:
    """Formulas separating non-bisimilar states, one per state pair.

    `separate(u, v)` has modal depth k, the first refinement round that
    splits u and v; it is true on u's round-k block and false on v's.  At
    k = 0 it is a label literal.  At k >= 1 it probes the first block B of
    round k-1 toward which the bounds of u and v differ, with an operand
    that conjoins `separate(min B, min C)` over the blocks C that would
    spoil the probe:

    * one state reaches B, the other not: `L[0]`, and C ranges over every
      block the other state reaches;
    * least weights differ: `L[q]` with q between them, and C ranges over
      the blocks the state with the higher least weight reaches with a
      least weight below q;
    * greatest weights differ: `M[q]` likewise, over the blocks the state
      with the lower greatest weight reaches with a greatest weight
      above q.

    Bounds are compared as ranks; q and the spoiler tests use the weights
    themselves, since a midpoint of ranks need not lie between the values.
    The operand is true on B and has modal depth below k, so it is
    constant on every round k-1 block.  Its truth on the blocks left out
    therefore does not matter: the probe reads only bounds toward round
    k-1 blocks, which are equal across a round-k block, so the separator
    holds on whole round-k blocks.  The memo lives for one call.
    """

    def __init__(self, m: Wts, history: list[tuple[list, dict]]):
        self.m = m
        self.history = history
        self._memo: dict = {}

    def separate(self, u: str, v: str) -> Formula:
        """The separator of (u, v), built bottom-up from an explicit work
        stack: a pair is built once the separators its probe conjoins are,
        so a chain of n refinement rounds costs no Python recursion."""
        memo, plans = self._memo, {}
        stack = [(u, v)]
        while stack:
            pair = stack[-1]
            if pair in memo:
                stack.pop()
                continue
            plan = plans.get(pair)
            if plan is None:
                plan = plans[pair] = self._plan(*pair)
            if isinstance(plan, Formula):
                memo[pair] = plan
                continue
            modality, q, negate, operands = plan
            missing = [c for c in operands if c not in memo]
            if missing:
                stack.extend(missing)
                continue
            f = modality(q, conjoin(memo[c] for c in operands))
            memo[pair] = Not(f) if negate else f
        return memo[u, v]

    def _plan(self, u: str, v: str):
        """The label literal separating u and v, or their probe: the
        modality, its bound, whether the probe holds at v rather than u, and
        the state pairs whose separators its operand conjoins."""
        m = self.m
        weights = m.weights
        k = next(k for k, (_, p) in enumerate(self.history) if p[u] != p[v])
        if k == 0:
            only_u = m.labels[u] - m.labels[v]
            if only_u:
                return Atom(min(only_u))
            return Not(Atom(min(m.labels[v] - m.labels[u])))
        blocks, previous = self.history[k - 1]
        bounds = {u: m.bounds_by_block(u, previous),
                  v: m.bounds_by_block(v, previous)}
        # Canonical block order; blocks neither state reaches never differ.
        for i in sorted(bounds[u].keys() | bounds[v].keys()):
            lo_u, hi_u = bounds[u].get(i, _UNREACHED)
            lo_v, hi_v = bounds[v].get(i, _UNREACHED)
            if (lo_u, hi_u) == (lo_v, hi_v):
                continue
            if (lo_u == NEG_INF) != (lo_v == NEG_INF):
                # The operand must be false everywhere the other state goes.
                holder = u if lo_u != NEG_INF else v
                spoilers = bounds[v if holder == u else u].keys()
                modality, q = AtLeast, 0
            elif lo_u != lo_v:
                modality, q = AtLeast, (weights[lo_u] + weights[lo_v]) / 2
                holder = u if lo_u > lo_v else v
                spoilers = [j for j, (lo, _) in bounds[holder].items()
                            if weights[lo] < q]
            else:
                modality, q = AtMost, (weights[hi_u] + weights[hi_v]) / 2
                holder = u if hi_u < hi_v else v
                spoilers = [j for j, (_, hi) in bounds[holder].items()
                            if weights[hi] > q]
            b = blocks[i][0]
            operands = [(b, blocks[j][0]) for j in sorted(spoilers)]
            return modality, q, holder != u, operands
        raise AssertionError("separated states must differ toward some block")


def distinguishing_formula(m: Wts, s: str, t: str) -> Optional[Formula]:
    """None when s and t are bound-bisimilar; otherwise a formula holding
    at exactly one of them."""
    m._require_state(s)
    m._require_state(t)
    if s == t:
        return None
    history = list(_rounds(m, _bound_signature))
    p = history[-1][1]
    if p[s] == p[t]:
        return None
    return _Separator(m, history).separate(s, t)
