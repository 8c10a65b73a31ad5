"""Tests of the benchmark itself: determinism, checkers, tracing.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import logic  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

wtl = run.load_program()

# Small request counts keep every workload's test under a few seconds.
COUNTS = {"mc-large": 3, "minimize": 12, "decide": 12, "axioms-small": 2}


def outputs_of(workload, seed, count, tracer=None):
    session = run.Session(wtl, workload, seed, tracer)
    if tracer is not None:
        tracer.install()
    try:
        _, outputs = session.loop(session.stream(seed, "timed"), count=count)
    finally:
        if tracer is not None:
            tracer.uninstall()
    stream = session.stream(seed, "timed")
    return session, stream, outputs, [
        checks.digest_line(i, stream[i], out) for i, out in enumerate(outputs)]


def comparable(request):
    return {k: v for k, v in request.items() if k != "expect"}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_same_seed_same_stream_and_digests(workload):
    count = COUNTS[workload]
    _, first_stream, _, first = outputs_of(workload, 7, count)
    _, second_stream, _, second = outputs_of(workload, 7, count)
    assert first == second
    assert [comparable(first_stream[i]) for i in range(count)] == \
        [comparable(second_stream[i]) for i in range(count)]
    other = run.Session(wtl, workload, 8).stream(8, "timed")
    assert [comparable(other[i]) for i in range(count)] != \
        [comparable(first_stream[i]) for i in range(count)]
    # Warm-up draws from another seed; only requests with no random
    # content (the ring and chain models, schema A1) can coincide.
    warmup = run.Session(wtl, workload, 7).stream(7, "warmup")
    differ = [comparable(warmup[i]) != comparable(first_stream[i]) for i in range(count)]
    assert sum(differ) > count / 2


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_traced_and_untraced_digests_agree(workload):
    count = COUNTS[workload]
    _, _, _, plain = outputs_of(workload, 3, count)
    tracer = tracing.Tracer()
    _, _, _, traced = outputs_of(workload, 3, count, tracer)
    assert traced == plain
    entry = "formulas.model_check" if workload == "mc-large" else "cli.run"
    assert tracer.layer_metrics()[f"{entry}.calls"] == count
    assert {span[5] for span in tracer.spans} == set(range(count))
    again = tracing.Tracer()
    outputs_of(workload, 3, count, again)
    assert again.calls == tracer.calls and again.quantity == tracer.quantity


def test_block_is_whole_cycles_fixed_by_seconds():
    for workload, cycle in workloads.CYCLE.items():
        for seconds in (1, 20, 60):
            n = run.block_size(workload, seconds)
            assert n >= cycle and n % cycle == 0
            assert n == run.block_size(workload, seconds)
        assert run.block_size(workload, 60) > run.block_size(workload, 1)


def test_times_are_scaled_by_the_nearest_reference_timings():
    usual = run.REFERENCE_NS
    assert run.at_usual_speed([10] * 12, [usual] * 12) == [10] * 12
    # A machine at half speed doubles the references and the times alike.
    assert run.at_usual_speed([20] * 12, [2 * usual] * 12) == [10] * 12
    # One stray reference timing does not move the scale.
    references = [usual] * 12
    references[5] = 10 * usual
    assert run.at_usual_speed([10] * 12, references) == [10] * 12
    # Only the references within the window of a time count for it.
    slow_start = [2 * usual] * 6 + [usual] * 12
    scaled = run.at_usual_speed([20] * 6 + [10] * 12, slow_start)
    assert scaled[0] == 10 and scaled[-1] == 10


def test_quantiles_are_harrell_davis_estimates():
    assert run.quantile([7.0] * 30, 0.9) == pytest.approx(7.0)
    assert run.quantile(list(range(101)), 0.5) == pytest.approx(50)
    rng = random.Random(4)
    values = [rng.expovariate(1) for _ in range(300)]
    p50, p90 = run.quantile(values, 0.5), run.quantile(values, 0.9)
    assert p50 < p90
    ordered = sorted(values)
    assert ordered[140] < p50 < ordered[160] and ordered[260] < p90 < ordered[280]


def test_tracer_restores_the_program():
    before = (wtl.cli.run, wtl.tableau.build_tableau, wtl.wts.Wts.image_set)
    tracer = tracing.Tracer()
    tracer.install()
    assert wtl.tableau.build_tableau is not before[1]
    tracer.uninstall()
    assert (wtl.cli.run, wtl.tableau.build_tableau, wtl.wts.Wts.image_set) == before


def test_every_answer_passes_on_a_clean_prefix():
    for workload in ("mc-large", "minimize", "axioms-small"):
        session, stream, outputs, _ = outputs_of(workload, 5, COUNTS[workload])
        for i, output in enumerate(outputs):
            assert checks.check(workload, stream[i], output, workloads.mc_models(5)) is None


def _first(stream, cls, outputs):
    i = next(i for i in range(len(outputs)) if stream[i]["cls"] == cls)
    return stream[i], outputs[i]


def _with_body(output, body):
    return output[:2] + (json.dumps(body),) + output[3:]


def test_checkers_reject_merged_planted_blocks_and_bad_quotients():
    session, stream, outputs, _ = outputs_of("minimize", 5, COUNTS["minimize"])
    request, output = _first(stream, "bisim", outputs)
    assert checks.check("minimize", request, output) is None
    blocks = json.loads(output[2])["blocks"]
    merged = [blocks[0] + blocks[1]] + blocks[2:]
    verdict = checks.check("minimize", request, _with_body(output, {"blocks": merged}))
    assert verdict[0] == "wrong_answer"

    request, output = _first(stream, "quotient", outputs)
    body = json.loads(output[2])
    body["model"]["transitions"][0]["weight"] = "1000"
    assert checks.check("minimize", request, _with_body(output, body))[0] == "wrong_answer"

    request, output = _first(stream, "deep-distinguish", outputs)
    assert checks.check("minimize", request, output) is None
    fake = {"distinguishable": True, "formula": "true"}
    assert checks.check("minimize", request, _with_body(output, fake))[0] == "wrong_answer"


def test_checkers_reject_flipped_verdicts():
    session, stream, outputs, _ = outputs_of("mc-large", 5, 1)
    flipped = ("value", not outputs[0][1])
    assert checks.check("mc-large", stream[0], flipped, workloads.mc_models(5))[0] == "wrong_answer"

    session, stream, outputs, _ = outputs_of("decide", 5, COUNTS["decide"])
    request = next(stream[i] for i in range(len(outputs)) if stream[i]["cls"].startswith("schema"))
    invalid = ("cli", 1, '{"valid":false}\n', "", None)
    assert checks.check("decide", request, invalid)[0] == "wrong_answer"

    request, output = _first(stream, "disjunctions", outputs)
    assert checks.check("decide", request, output) is None
    unsat = ("cli", 1, '{"satisfiable":false}\n', "", None)
    assert checks.check("decide", request, unsat)[0] == "wrong_answer"
    empty = logic.Model(["s0"], {}, []).to_json()
    assert checks.check("decide", request, output[:4] + (empty,))[0] == "wrong_answer"
    assert checks.check("decide", request, ("cli", 3, output[2], "", None))[0] == "unverified"
    assert checks.check("decide", request, ("cli", 2, "", '{"error":"x"}', None))[0] == "error"

    session, stream, outputs, _ = outputs_of("axioms-small", 5, 1)
    body = json.loads(outputs[0][2])
    body["unexpected_violations"] = 1
    assert checks.check("axioms-small", stream[0], _with_body(outputs[0], body))[0] == "wrong_answer"


def test_evaluator_and_parser_agree_with_the_printed_grammar():
    rng = random.Random(1)
    for n in range(40):
        f = workloads.small_formula(rng, 4, 3, ("p", "q"))
        text = logic.render(f)
        assert logic.parse(text) == f
        assert wtl.formulas.print_formula(wtl.formulas.parse_formula(text)) == text
        model = workloads.random_model(rng, 4, 2, ("p", "q"))
        program_model = wtl.wts.parse_wts(model.to_json())
        for s in model.states:
            assert logic.holds(model, s, f) == wtl.formulas.model_check(
                program_model, s, wtl.formulas.parse_formula(text))
    assert logic.holds(logic.Model(["a", "b"], {"b": ["p"]}, [("a", Fraction(2), "b")]),
                       "a", ("L", Fraction(2), ("atom", "p")))


def test_known_partitions_are_bisimulations():
    rng = random.Random(2)
    model, planted, known = workloads.planted_model(rng, 20, 4)
    answer = known()
    assert logic.is_bisimulation(model, answer["bound"], weighted=False)
    assert logic.is_bisimulation(model, answer["exact"], weighted=True)
    for n in (6, 9):
        ring, ring_known, _ = workloads.ring_model(n)
        assert logic.coarsest_bisimulation(ring, False) == ring_known()["bound"]


def test_refuses_to_run_without_program_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
