"""Known-answer checks and output digests, run after the timed phase.

`check` returns None for a right answer, or a (reason, detail) pair with
reason "error" (the call raised, or the CLI exited with code 2),
"unverified" (a Sat verdict whose model `wtl` could not verify: exit 3)
or "wrong_answer" (the known-answer check rejects the output).
"""

from __future__ import annotations

import hashlib
import json

from logic import (
    Model, ParseError, bound_profile, block_index, holds, is_bisimulation,
    parse, satisfying,
)

EXIT_ERROR = 2
EXIT_GAP = 3


def _same_partition(blocks, known) -> bool:
    return {frozenset(b) for b in blocks} == {frozenset(b) for b in known}


def check(workload: str, request: dict, output, models=None):
    if output[0] == "raised":
        return "error", output[1]
    if workload == "mc-large":
        want = holds(models[request["model"]], request["state"], request["expect"]["formula"])
        return None if output[1] == want else ("wrong_answer", f"holds={output[1]}")
    code, out, err, witness = output[1:]
    if code == EXIT_ERROR:
        return "error", err.strip()
    try:
        body = json.loads(out)
    except ValueError:
        return "wrong_answer", "stdout is not JSON"
    try:
        if workload == "minimize":
            return _check_minimize(request, code, body)
        if workload == "decide":
            return _check_decide(request, code, body, witness)
        return _check_suite(request, code, body)
    except (KeyError, TypeError, ValueError) as e:
        return "wrong_answer", f"malformed answer: {e!r}"


def _check_minimize(request, code, body):
    expect = request["expect"]
    model = Model.from_json(request["stdin"])
    known = expect["known"]()
    command = expect["command"]
    if command == "distinguish":
        a, b = expect["pair"]
        index = block_index(model, known["bound"])
        if index[a] == index[b]:
            ok = code == 1 and body == {"distinguishable": False, "bisimilar": True}
            return None if ok else ("wrong_answer", "bisimilar pair reported distinguishable")
        if code != 0 or not body.get("distinguishable"):
            return "wrong_answer", "distinguishable pair reported bisimilar"
        try:
            f = parse(body["formula"])
        except ParseError as e:
            return "wrong_answer", f"unparsable formula: {e}"
        sat = satisfying(model, f)
        if (a in sat) == (b in sat):
            return "wrong_answer", "formula holds at both states or at neither"
        return None
    if code != 0:
        return "wrong_answer", f"exit code {code}"
    weighted = command == "bisim-weighted"
    blocks = body["blocks"]
    if not is_bisimulation(model, blocks, weighted):
        return "wrong_answer", "blocks violate the bisimulation clause"
    index = block_index(model, blocks)
    if any(len({index[s] for s in copies}) != 1 for copies in known["planted"]):
        return "wrong_answer", "planted copies split across blocks"
    if not _same_partition(blocks, known["exact" if weighted else "bound"]):
        return "wrong_answer", "partition is not the coarsest bisimulation"
    if command == "quotient":
        return _check_quotient(model, blocks, index, Model.from_json(body["model"]))
    return None


def _check_quotient(model, blocks, index, quotient):
    """One state per block, named by its least member, with that member's
    labels and its least and greatest weight toward every block."""
    reps = [min(block) for block in blocks]
    if sorted(quotient.states) != sorted(reps):
        return "wrong_answer", "quotient states are not the block representatives"
    for rep in reps:
        if quotient.labels[rep] != model.labels[rep]:
            return "wrong_answer", f"quotient labels differ at {rep}"
        want = {reps[b]: bounds for b, bounds in bound_profile(model, rep, index).items()}
        got = bound_profile(quotient, rep, {r: r for r in reps})
        if got != want:
            return "wrong_answer", f"quotient bounds differ at {rep}"
    return None


def _check_decide(request, code, body, witness):
    expect = request["expect"]
    if "valid" in expect:
        ok = code == 0 and body == {"valid": True}
        return None if ok else ("wrong_answer", "valid instance reported invalid")
    if code == EXIT_GAP:
        return "unverified", "Sat with a model that failed verification"
    if code != 0 or not body.get("satisfiable"):
        return "wrong_answer", "satisfiable formula reported Unsat"
    if witness is None:
        return "wrong_answer", "no model emitted"
    if not holds(Model.from_json(witness), body["state"], expect["formula"]):
        return "wrong_answer", "verified model fails the benchmark's evaluator"
    return None


def _check_suite(request, code, body):
    expect = request["expect"]
    if body["seed"] != expect["seed"] or body["trials"] != expect["trials"]:
        return "wrong_answer", "report is for another seed or trial count"
    sound_violations = sum(s["violations"] for s in body["schemas"] if s["expected_sound"])
    if code != 0 or body["unexpected_violations"] != 0 or sound_violations != 0:
        return "wrong_answer", "sound schema violated"
    return None


def digest_line(i: int, request: dict, output) -> str:
    """One line per request: index, class and a hash of everything the
    program returned (verdicts, partitions, printed formulas, serialized
    models).  Two commits agree output for output when their lines do."""
    if output[0] == "raised":
        payload = repr(output)
    elif output[0] == "value":
        payload = repr(output[1])
    else:
        code, out, err, witness = output[1:]
        payload = json.dumps([code, out, err]) + (witness or b"").decode()
    return f"{i}\t{request['cls']}\t{hashlib.sha256(payload.encode()).hexdigest()[:16]}"


def combined_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
