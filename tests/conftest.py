import json
import signal
import time

import pytest

from wtl import Wts


def in_time(call, seconds=1):
    """`call()`, stopped after 10 s and held to `seconds`: a walk down
    every path of a shared structure doubles with its depth, and would
    otherwise run for ever."""
    def hang(signum, frame):
        raise TimeoutError("walked the tree, not the DAG")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        start = time.perf_counter()
        value = call()
        assert time.perf_counter() - start < seconds
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return value


def make_vacuum_model() -> Wts:
    """Three-state regression model: a robot that waits, cleans, charges."""
    return Wts(
        ["s1", "s2", "s3"],
        {"s1": ["waiting"], "s2": ["cleaning"], "s3": ["charging"]},
        [
            ("s1", 1, "s1"),
            ("s1", 1, "s3"),
            ("s1", 2, "s3"),
            ("s3", 60, "s1"),
            ("s3", 100, "s1"),
            ("s1", 0, "s2"),
            ("s2", 5, "s1"),
            ("s2", 10, "s1"),
            ("s2", 15, "s1"),
        ],
    )


def make_coarse_pair_model() -> Wts:
    """Four-state regression model: s and t share weight bounds {1..3}
    toward the b-states but only s has the weight-2 transition, so they
    are bound-bisimilar yet not exactly bisimilar."""
    return Wts(
        ["s", "sp", "t", "tp"],
        {"s": ["a"], "sp": ["b"], "t": ["a"], "tp": ["b"]},
        [
            ("s", 1, "sp"),
            ("s", 2, "sp"),
            ("s", 3, "sp"),
            ("t", 1, "tp"),
            ("t", 3, "tp"),
        ],
    )


BAD_VALUES = (
    None, 0, 7, [], ["p"], [1], {}, {"id": "s1"}, "", "bad id", "9x", "-3/2",
    "1e3", "1/0", "1" + "0" * 400 + "/7", "9" * 5000,
)


def mutated_model(rng, doc) -> bytes:
    """`doc` with one value, chosen over the whole tree, replaced by a bad one."""
    doc = json.loads(json.dumps(doc))
    slots = []

    def collect(node):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                collect(value)

    collect(doc)
    node, key = rng.choice(slots)
    node[key] = rng.choice(BAD_VALUES)
    text = json.dumps(doc).encode("utf-8")
    return text[: rng.randrange(len(text))] if rng.random() < 0.1 else text


@pytest.fixture
def vacuum() -> Wts:
    return make_vacuum_model()


@pytest.fixture
def coarse_pair() -> Wts:
    return make_coarse_pair_model()
