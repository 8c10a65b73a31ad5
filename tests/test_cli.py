import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from wtl.axioms import DEFAULT_INDEX_POOL, SCHEMAS, instantiate
from wtl.cli import _parse, _quick, _UsageError, run
from wtl import (
    Atom, Not, Wts, iff, model_check, parse_formula, parse_wts, print_formula,
    random_formula, serialize_wts,
)

from conftest import in_time, make_coarse_pair_model, make_vacuum_model, mutated_model
from oracles import help_prog, modal_depth, reference_read_argv


def write_model(tmp_path, model, name="model.wts.json"):
    path = tmp_path / name
    path.write_bytes(serialize_wts(model))
    return str(path)


def invoke(argv, stdin=b""):
    code, out, err = run(argv, stdin)
    body = json.loads(out) if out.startswith("{") else out
    return code, body, err


def make_chain_pair_model():
    """a -1-> b -2-> c and d -1-> b, no labels."""
    return Wts(["a", "b", "c", "d"], {}, [("a", 1, "b"), ("b", 2, "c"), ("d", 1, "b")])


def test_mc_negative_answer(tmp_path):
    path = write_model(tmp_path, make_vacuum_model())
    code, body, _ = invoke(["mc", "--model", path, "--state", "s1",
                            "--formula", "M[1] charging"])
    assert code == 1
    assert body == {"holds": False}


def test_mc_positive_answer(tmp_path):
    path = write_model(tmp_path, make_vacuum_model())
    code, body, _ = invoke(["mc", "--model", path, "--state", "s1",
                            "--formula", "M[2] charging"])
    assert code == 0
    assert body == {"holds": True}


def test_mc_answers_a_formula_nested_400_deep(tmp_path):
    path = write_model(tmp_path, Wts(["a"], {"a": ["p"]}, [("a", 0, "a")]))
    code, body, err = invoke(["mc", "--model", path, "--state", "a",
                              "--formula", "L[0] " * 400 + "p"])
    assert (code, body, err) == (0, {"holds": True}, "")


def test_distinguish_answers_a_400_state_chain(tmp_path):
    # One refinement round per state: the separator is 398 modalities deep.
    states = [f"c{i}" for i in range(400)]
    chain = Wts(states, {states[-1]: ["p"]},
                [(states[i], 1, states[i + 1]) for i in range(399)])
    path = write_model(tmp_path, chain)
    code, body, err = invoke(["distinguish", "--model", path,
                              "--state", "c0", "--state", "c1"])
    assert (code, err) == (0, "")
    assert body["distinguishable"] is True
    formula = parse_formula(body["formula"])
    assert modal_depth(formula) == 398
    assert model_check(chain, "c0", formula) != model_check(chain, "c1", formula)


def test_sat_unsat_exit_codes(tmp_path):
    code, body, _ = invoke(["sat", "--formula", "p & !p"])
    assert code == 1 and body == {"satisfiable": False}
    code, body, _ = invoke(["sat", "--formula", "p"])
    assert code == 0 and body["satisfiable"] and body["verified"]


def test_sat_extraction_gap_exit_code():
    code, body, _ = invoke(["sat", "--formula", "L[2] !p1 & M[1] !p2"])
    assert code == 3
    assert body["satisfiable"] is True and body["verified"] is False


def test_sat_builds_no_warning_for_an_unverified_model(monkeypatch, tmp_path):
    # the CLI reports a failed verification by exit code 3: the warning
    # `is_satisfiable` raises for library callers is never built
    from wtl.tableau import ExtractionGapWarning

    built = []
    init = ExtractionGapWarning.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ExtractionGapWarning, "__init__", spy)
    argv = ["sat", "--formula", "L[2] !p1 & M[1] !p2"]
    for more in ([], ["--dump-tableau", str(tmp_path / "t.json")]):
        code, _, err = run(argv + more)
        assert (code, err) == (3, "")
    assert built == []


def test_sat_emit_model_and_dump_tableau(tmp_path):
    model_out = tmp_path / "witness.wts.json"
    dump_out = tmp_path / "tableau.json"
    code, body, _ = invoke([
        "sat", "--formula", "L[2] p1 & M[5] L[1] p1",
        "--emit-model", str(model_out), "--dump-tableau", str(dump_out),
    ])
    assert code == 0
    witness = parse_wts(model_out.read_bytes())
    from wtl import model_check, parse_formula
    assert model_check(witness, body["state"], parse_formula("L[2] p1 & M[5] L[1] p1"))
    dump = json.loads(dump_out.read_text())
    assert dump["gamma"] == ["(L[2] p1 & M[5] L[1] p1)"]
    assert dump["min_interval"]["lower"] == "0"
    # a unique prefix of a long flag is that flag
    assert run(["sat", "--emit", str(model_out), "--formula", "p"])[0] == 0
    assert run(["fmt", "--model", str(model_out)])[0] == 0


def test_sat_builds_one_tableau_and_dumps_it_only_when_asked(tmp_path, monkeypatch):
    # every `sat` search starts in `build_tableau`, dump or no dump
    import wtl.cli
    import wtl.tableau

    built = []
    build = wtl.tableau.build_tableau

    def counting_build(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(wtl.cli, "build_tableau", counting_build)
    monkeypatch.setattr(wtl.tableau, "build_tableau", counting_build)
    formula = "L[2] p1 & M[5] L[1] p1"
    assert invoke(["sat", "--formula", formula])[0] == 0
    assert built == [(parse_formula(formula),)] and list(tmp_path.iterdir()) == []
    dump_out = tmp_path / "tableau.json"
    assert invoke(["sat", "--formula", formula, "--dump-tableau", str(dump_out)])[0] == 0
    assert len(built) == 2 and dump_out.exists()


def test_sat_with_a_dump_searches_once(tmp_path, monkeypatch):
    import wtl.tableau

    search = wtl.tableau._search
    for i, (formula, expected_code) in enumerate([
        ("L[2] p1 & M[5] L[1] p1", 0),
        ("L[2] !p1 & M[1] !p2", 3),
        ("p1 & L[4] p1 & !L[3] p1 & L[2] p2", 1),
        ("L[1] (p & q) & M[2] !!r", 0),
        ("p1 & p2 & L[2] p1 & L[4] (p1 & p2) & L[0] p3 & !L[5] p2 & !M[6] p3", 0),
        ("L[1] p1 & L[2] (p1 & p2) & L[3] (p2 & p1) & L[0] p3", 0),
    ]):
        phi = parse_formula(formula)
        roots = []

        def counting(gamma, *rest):
            if gamma == (phi,):
                roots.append(gamma)
            return search(gamma, *rest)

        monkeypatch.setattr(wtl.tableau, "_search", counting)
        dump_out, dumped_model = tmp_path / f"t{i}.json", tmp_path / f"dumped{i}.wts.json"
        dumped = run(["sat", "--formula-file=-", "--emit-model", str(dumped_model),
                      "--dump-tableau", str(dump_out)], formula.encode())
        assert len(roots) == 1, formula
        monkeypatch.setattr(wtl.tableau, "_search", search)
        plain_model = tmp_path / f"plain{i}.wts.json"
        plain = run(["sat", "--formula", formula, "--emit-model", str(plain_model)])
        assert dumped == plain and dumped[0] == expected_code
        assert dumped_model.exists() == plain_model.exists() == (expected_code != 1)
        if expected_code != 1:
            assert dumped_model.read_bytes() == plain_model.read_bytes()
        tree = wtl.tableau.tableau_to_json(wtl.tableau.build_tableau(phi))
        assert dump_out.read_text() == json.dumps(tree, indent=2) + "\n"


def test_sat_on_a_wide_flat_conjunction(tmp_path):
    formula = " & ".join(f"a{j}" for j in range(800))
    dump_out = tmp_path / "t.json"
    code, body, _ = invoke(["sat", "--formula", formula, "--dump-tableau", str(dump_out)])
    assert code == 0 and body["verified"] is True
    dump = json.loads(dump_out.read_text())
    # the conjunctions split in one step: the root and one leaf of 800 atoms
    (leaf,) = dump["children"]
    assert dump["rule"] == "and" and leaf["children"] == []
    assert len(leaf["gamma"]) == 800


def test_valid_command():
    assert invoke(["valid", "--formula", "!L[0] false"])[0] == 0
    assert invoke(["valid", "--formula", "p"])[0] == 1


def test_valid_writes_no_python_warning(monkeypatch, capsys):
    import sys
    import warnings

    from wtl.cli import main

    # The negated A4 instance is satisfiable, but the model extracted from
    # it fails verification.  `valid` reports that gap in its answer and
    # exit code, and no warning reaches the hook below, which would print
    # it on stderr.
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    formula = "!(L[2] !(!p1 & !p2) & !!(!L[2] p1 & !L[2] p2))"
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        monkeypatch.setattr(warnings, "showwarning", show)
        assert main(["valid", "--formula", formula]) == 3
    assert capsys.readouterr() == ('{"valid":false,"verified":false}\n', "")


def test_valid_says_no_only_with_a_checked_countermodel(tmp_path):
    """Over instances drawn as `run_suite` draws them, of every schema
    with no premise: `valid` exits 1 only when `sat` on the negation
    emits a model on which `model_check` refutes the formula, and exits 3
    when that model does not refute it.  Exit 0 is a closed negation."""
    pool = sorted(DEFAULT_INDEX_POOL)
    atoms = ("p1", "p2", "p3")
    rng = random.Random(3601)
    codes = Counter()
    for trial in range(30):
        trial_seed = rng.getrandbits(32)
        phi = random_formula(trial_seed + 1, atoms, 2, pool)
        psi = random_formula(trial_seed + 2, atoms, 2, pool)
        r, q = rng.choice(pool), rng.choice([w for w in pool if w > 0])
        for schema in SCHEMAS.values():
            if schema.premise is not None:
                continue
            text = print_formula(instantiate(schema, phi, psi, r, q))
            code, out, err = run(["valid", "--formula", text])
            codes[code] += 1
            emitted = tmp_path / "countermodel.json"
            negated = run(["sat", "--formula", f"!({text})", "--emit-model", str(emitted)])
            if code == 0:
                assert (out, negated) == ('{"valid":true}\n', (1, '{"satisfiable":false}\n', ""))
                continue
            assert negated[0] == {1: 0, 3: 3}[code], text
            state = json.loads(negated[1])["state"]
            refuted = not model_check(parse_wts(emitted.read_bytes()), state, parse_formula(text))
            assert refuted is (code == 1), text
            assert out == ('{"valid":false}\n' if code == 1
                           else '{"valid":false,"verified":false}\n')
            assert err == ""
    assert set(codes) == {0, 1, 3}, codes


def test_bisim_pair_and_partition(tmp_path):
    path = write_model(tmp_path, make_coarse_pair_model())
    code, body, _ = invoke(["bisim", "--model", path, "--state", "s", "--state", "t"])
    assert code == 0 and body == {"bisimilar": True}
    code, body, _ = invoke(["bisim", "--model", path, "--weighted",
                            "--state", "s", "--state", "t"])
    assert code == 1 and body == {"bisimilar": False}
    code, body, _ = invoke(["bisim", "--model", path])
    assert code == 0 and body == {"blocks": [["s", "t"], ["sp", "tp"]]}
    # a -1-> b -2-> c and d -1-> b: a and d are bound-bisimilar, and a
    # and b are not exactly bisimilar
    path = write_model(tmp_path, make_chain_pair_model(), "abcd.wts.json")
    assert invoke(["bisim", "--model", path, "--state", "a", "--state", "d"]) \
        == (0, {"bisimilar": True}, "")
    assert invoke(["bisim", "--model", path, "--weighted", "--state", "a", "--state", "b"]) \
        == (1, {"bisimilar": False}, "")


def test_distinguish_command(tmp_path):
    path = write_model(tmp_path, make_vacuum_model())
    code, body, _ = invoke(["distinguish", "--model", path,
                            "--state", "s1", "--state", "s2"])
    assert code == 0 and body["distinguishable"] is True
    pair = write_model(tmp_path, make_coarse_pair_model(), "pair.wts.json")
    code, body, _ = invoke(["distinguish", "--model", pair,
                            "--state", "s", "--state", "t"])
    assert code == 1 and body["distinguishable"] is False
    # a and b are told apart by a formula that mc finds true at a and
    # false at b; a and d are not told apart
    path = write_model(tmp_path, make_chain_pair_model(), "abcd.wts.json")
    code, body, _ = invoke(["distinguish", "--model", path, "--state", "a", "--state", "b"])
    assert code == 0 and body["distinguishable"] is True
    for state, want in (("a", (0, {"holds": True}, "")), ("b", (1, {"holds": False}, ""))):
        assert invoke(["mc", "--model", path, "--state", state,
                       "--formula-file", "-"], body["formula"].encode()) == want
    assert invoke(["distinguish", "--model", path, "--state", "a", "--state", "d"]) \
        == (1, {"distinguishable": False, "bisimilar": True}, "")


def test_quotient_writes_only_with_output_flag(tmp_path):
    path = write_model(tmp_path, make_coarse_pair_model())
    out_path = tmp_path / "quotient.wts.json"
    code, body, _ = invoke(["quotient", "--model", path, "-o", str(out_path)])
    assert code == 0
    assert body["written"] == str(out_path)
    quotient = parse_wts(out_path.read_bytes())
    assert len(quotient.states) == 2
    code, body, _ = invoke(["quotient", "--model", path])
    assert code == 0 and "model" in body
    # the quotient on stdout is the one written with -o, and its blocks
    # are the partition that `bisim` reports
    assert body["model"] == json.loads(out_path.read_bytes())
    assert body["blocks"] == invoke(["bisim", "--model", path])[1]["blocks"]
    attached = tmp_path / "attached.wts.json"
    assert run(["quotient", "--model", path, f"-o{attached}"])[0] == 0
    assert attached.read_bytes() == out_path.read_bytes()


def test_axioms_command():
    code, body, _ = invoke(["axioms", "--seed", "5", "--trials", "40",
                            "--schema", "A6", "--schema", "A7"])
    assert code == 0
    assert {entry["schema"] for entry in body["schemas"]} == {"A6", "A7"}
    assert body["unexpected_violations"] == 0
    # every sound schema holds on every trial, and the negative control
    # is caught
    code, body, _ = invoke(["axioms", "--seed", "1", "--trials", "200"])
    assert code == 0 and body["unexpected_violations"] == 0
    assert body["control_violations"] > 0
    code, out, err = run(["axioms", "--seed", "5", "--trials", "40",
                          "--schema", "nope", "--schema", "A6"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "unknown schema(s) ['nope']"}


def test_axioms_counts_a_schema_named_twice_once():
    once = invoke(["axioms", "--seed", "1", "--trials", "3", "--schema", "A1"])
    twice = invoke(["axioms", "--seed", "1", "--trials", "3",
                    "--schema", "A1", "--schema", "A1"])
    assert once[0] == twice[0] == 0
    assert twice == once
    assert [entry["checked"] for entry in twice[1]["schemas"]] == [3]


def test_fmt_formula_idempotent():
    code, out, _ = run(["fmt", "--formula", "p->q | r"])
    assert code == 0
    code2, out2, _ = run(["fmt", "--formula", out.strip()])
    assert out2 == out


def test_fmt_model_idempotent(tmp_path):
    messy = b'{"transitions": [{"to":"b","from":"a","weight":"2.5"}], "states": [{"id":"b"},{"id":"a","labels":["z","a"]}]}'
    src = tmp_path / "messy.json"
    src.write_bytes(messy)
    code, out, _ = run(["fmt", "--model", str(src)])
    assert code == 0
    again = tmp_path / "clean.json"
    again.write_text(out)
    code2, out2, _ = run(["fmt", "--model", str(again)])
    assert out2 == out
    assert '"weight": "5/2"' in out
    # a seeded model of 4,000 states and 16,000 transitions, read in
    # whole-list passes: with its entries shuffled, its triples repeated
    # and its weights respelled, fmt gives the bytes of fmt of the
    # canonical file, and fmt of those bytes gives them again
    rng = random.Random(27)
    ids = [f"s{i}" for i in range(4000)]
    states = [{"id": s, "labels": rng.sample(["p", "q", "r"], rng.randint(0, 2))} for s in ids]
    edges = [{"from": s, "weight": rng.choice(["1/2", "1", "2", "3"]), "to": rng.choice(ids)}
             for s in ids for _ in range(4)]
    code, canonical, _ = run(["fmt", "--model", "-"],
                             json.dumps({"states": states, "transitions": edges}).encode())
    assert code == 0
    spelled = {"1/2": ["0.5", "2/4"], "1": ["1.0", "2/2"], "2": ["2.0", "4/2"], "3": ["3", "6/2"]}
    messy = [dict(e, weight=rng.choice(spelled[e["weight"]]))
             for e in edges + rng.sample(edges, 4000)]
    rng.shuffle(states)
    rng.shuffle(messy)
    for blob in (json.dumps({"transitions": messy, "states": states}).encode(),
                 canonical.encode()):
        assert run(["fmt", "--model", "-"], blob) == (0, canonical, "")


def test_usage_errors_are_json(tmp_path):
    code, out, err = run(["mc", "--model", "missing.json", "--state", "x",
                          "--formula", "p"])
    assert code == 2 and out == ""
    assert "error" in json.loads(err)
    code, _, err = run(["sat", "--formula", "p &"])
    assert code == 2 and "error" in json.loads(err)
    code, _, err = run(["frobnicate"])
    assert code == 2
    code, _, err = run([])
    assert code == 2
    path = write_model(tmp_path, make_vacuum_model())
    code, _, err = run(["bisim", "--model", path, "--state", "s1"])
    assert code == 2 and "error" in json.loads(err)
    code, _, err = run(["mc", "--model", path, "--state", "ghost", "--formula", "p"])
    assert code == 2
    # `--formula=--` gives the option the value `--`, which does not parse;
    # `--f` is an ambiguous prefix, and `x` is no int
    for argv in (["fmt", "--formula=--"],
                 ["sat", "--f", "p"], ["axioms", "--seed", "x", "--trials", "1"]):
        code, out, err = run(argv)
        assert code == 2 and out == "" and "error" in json.loads(err)
    # the parser reads parentheses in one loop: 1,200 of them answer
    nested = "(" * 1200 + "p" + ")" * 1200
    assert run(["fmt", "--formula", nested]) == (0, "p\n", "")
    # a chain of prefixes is read in one loop: 1,200 negations print, and
    # the text reads back to the same chain
    code, out, err = run(["fmt", "--formula", "!" * 1200 + "p"])
    assert (code, err) == (0, "")
    f = parse_formula(out)
    for _ in range(1200):
        assert type(f) is Not
        f = f.operand
    assert f == Atom("p")
    assert run(["fmt", "--formula-file", "-"], out.encode()) == (0, out, "")
    # so is a chain of arrows: `fmt` prints 1,200 of them
    code, out, err = run(["fmt", "--formula", " -> ".join(["p"] * 1201)])
    assert (code, err) == (0, "") and out.startswith("!(p & !!(p & ")
    # an attached `--` is the value `--` on every Python version, in the
    # error text too
    for argv in (["axioms", "--seed=--", "--trials", "1"], ["axioms", "--se=--", "--trials", "1"]):
        assert run(argv) == (
            2, "", json.dumps({"error": "argument --seed: invalid int value: '--'"}) + "\n")
    # model checking answers at any depth: a 1,000-atom conjunction, which
    # nests to the left, and 100,000 negations
    wide = " & ".join(["waiting"] * 999 + ["cleaning"])
    assert run(["mc", "--model", path, "--state", "s1", "--formula", wide]) == (
        1, '{"holds":false}\n', "")
    for atom, answer in (("waiting", (0, '{"holds":true}\n', "")),
                         ("p", (1, '{"holds":false}\n', ""))):
        deep_formula = "!" * 100_000 + atom
        assert run(["mc", "--model", path, "--state", "s1", "--formula-file", "-"],
                   deep_formula.encode()) == answer
    # a formula or a model nested past the recursion limit: each says
    # which; the formula's is met by the tableau, as the parser and the
    # evaluators read any nesting
    code, out, err = run(["sat", "--formula", "L[1] " * 600 + "p"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "formula nested too deeply for this interpreter's recursion limit"}
    for deep_model in (b"[" * 100_000,
                       b'{"states": ' + b"[" * 100_000 + b"]" * 100_000 + b', "transitions": []}'):
        code, out, err = run(["bisim", "--model", "-"], deep_model)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "model nested too deeply for this interpreter's recursion limit"}
    # a model the bulk reader gives up: of its 600 transitions, the 300th
    # goes to an unknown state and the 500th weighs 1/0; the
    # element-by-element checker names the first of the two
    edges = [{"from": f"s{i % 200}", "weight": ["1/2", "2", "3"][i % 3], "to": f"s{i * 7 % 200}"}
             for i in range(600)]
    edges[299]["to"] = "ghost"
    edges[499]["weight"] = "1/0"
    faulty = {"states": [{"id": f"s{i}", "labels": ["p"] if i % 3 else []} for i in range(200)],
              "transitions": edges}
    assert run(["fmt", "--model", "-"], json.dumps(faulty).encode()) == (
        2, "", json.dumps({"error": "transition to unknown state 'ghost'"}) + "\n")
    missing = tmp_path / "missing"
    unlabelled = tmp_path / "bad_label.json"
    unlabelled.write_bytes(b'{"states":[{"id":"a","labels":[1]}],"transitions":[]}')
    unreachable = tmp_path / "bad_endpoint.json"
    unreachable.write_bytes(
        b'{"states":[{"id":"a"}],"transitions":[{"from":"a","weight":"1","to":{}}]}')
    for argv in (["sat", "--formula", "p", "--emit-model", str(missing / "x.json")],
                 ["sat", "--formula", "p", "--dump-tableau", str(missing / "t.json")],
                 ["quotient", "--model", path, "-o", str(missing / "q.json")],
                 ["fmt", "--model", str(unlabelled)],
                 ["fmt", "--model", str(unreachable)]):
        code, out, err = run(argv)
        assert code == 2 and out == "" and "error" in json.loads(err), argv


def test_fmt_reads_back_what_it_prints():
    # the parser reads nesting in one loop, so the printed form of a long
    # chain, which nests a parenthesis per operator, reads back
    for op in ("&", "|", "->"):
        code, out, err = run(["fmt", "--formula", f" {op} ".join(f"p{i}" for i in range(3000))])
        assert (code, err) == (0, "") and out.count("(") >= 2999
        assert run(["fmt", "--formula-file", "-"], out.encode()) == (0, out, "")
    deep = "(" * 100_000 + "p" + ")" * 100_000
    assert run(["fmt", "--formula-file", "-"], deep.encode()) == (0, "p\n", "")
    # a parenthesis left open deep down is named where the input ends
    assert run(["fmt", "--formula", "(" * 1000 + "p" + ")" * 999]) == (
        2, "", json.dumps({"error": "position 2000: expected ')', got end of input"}) + "\n")


def test_fmt_prints_a_chain_of_iff_once_per_operand():
    # `<->` shares both its operands, and the printer writes the shape it
    # builds as `<->`, so the chain prints in linear size, not doubling
    # with each operand
    chain = " <-> ".join(f"p{i}" for i in range(200))
    code, out, err = run(["fmt", "--formula", chain])
    assert (code, err) == (0, "")
    assert out == "".join(f"(p{i} <-> " for i in range(199)) + "p199" + ")" * 199 + "\n"
    assert run(["fmt", "--formula-file", "-"], out.encode()) == (0, out, "")
    # the read-back is `iff(p0, iff(p1, ...))`, as the chain parses
    f = parse_formula(out)
    built = Atom("p199")
    for i in reversed(range(199)):
        built = iff(Atom(f"p{i}"), built)
    assert in_time(lambda: f == built == parse_formula(chain))
    assert hash(f) == hash(parse_formula(chain))
    for i in range(199):
        x, y = f.left.operand.left, f.right.operand.left
        assert x == Atom(f"p{i}")
        assert f.left.operand.right.operand is y and f.right.operand.right.operand is x
        f = y
    assert f == Atom("p199")
    # the desugared text shares nothing, and prints as it reads
    desugared = "(!(p & !q) & !(q & !p))"
    assert run(["fmt", "--formula", desugared]) == (0, desugared + "\n", "")
    assert run(["fmt", "--formula", "p <-> q"]) == (0, "(p <-> q)\n", "")


def test_sat_answers_on_a_doubled_chain_of_iff():
    # `(A) & (A)` parses `A` twice, and the two copies are equal but not
    # the same object: the tableau compares them, down their shared
    # operands, in its memo and its entailments
    chain = " <-> ".join(f"p{i}" for i in range(24))
    for formula in (f"({chain}) & ({chain})", f"L[1]({chain}) & M[2]({chain})"):
        code, body, err = in_time(lambda: invoke(["sat", "--formula", formula]))
        assert (code, body["verified"], err) == (0, True, "")


def test_the_tableau_answers_on_wide_flat_connectives():
    # the tableau walks the branches of a negated conjunction in a loop:
    # a flat disjunction, which nests a negated conjunction per operand,
    # answers at 3,000 operands, as do the negation of a 3,000-atom
    # conjunction and the validity of one
    disjunction = " | ".join(f"p{i}" for i in range(3000))
    conjunction = " & ".join(f"p{i}" for i in range(3000))
    satisfied = {"satisfiable": True, "verified": True, "state": "s0"}
    for argv, answer in ((["sat", "--formula", disjunction], (0, satisfied)),
                         (["sat", "--formula", f"!({conjunction})"], (0, satisfied)),
                         (["valid", "--formula", conjunction], (1, {"valid": False}))):
        code, out, err = in_time(lambda: run(argv))
        assert (code, json.loads(out), err) == (*answer, ""), argv[0]


def test_sat_answers_on_a_wide_flat_conjunction():
    # the extracted model is re-checked conjunct by conjunct, not down the
    # left-nested conjunction the parser builds
    wide = " & ".join(f"p{i}" for i in range(1600))
    code, out, err = run(["sat", "--formula", wide])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"satisfiable": True, "verified": True, "state": "s0"}


def test_valid_answers_on_a_wide_disjunction():
    # `valid` re-checks no model, so nothing walks the negation's nested
    # disjunction one level per disjunct
    wide = "!(" + " | ".join(f"p{i}" for i in range(600)) + ")"
    assert run(["valid", "--formula", wide]) == (1, '{"valid":false}\n', "")


def test_bytes_that_are_not_utf8_name_their_offset():
    for argv, stdin in ((["sat", "--formula-file", "-"], b"p & \xff"),
                        (["fmt", "--model", "-"], b"\xff{}")):
        code, out, err = run(argv, stdin)
        assert code == 2 and out == ""
        offset = stdin.index(0xff)
        assert json.loads(err) == {"error": f"byte {offset}: not UTF-8 (invalid start byte)"}


def test_rationals_over_the_digit_limit_give_one_json_error(tmp_path):
    ones = "1" * 5000
    weight = '{"states":[{"id":"a"}],"transitions":[{"from":"a","weight":%s,"to":"a"}]}'
    # Weights at the limit read, but the extracted model's weight c + 1 and
    # the separator's midpoint of two of them have 4,301 digits.
    nines = "9" * 4300
    pair = {"states": [{"id": "a"}, {"id": "b"}, {"id": "t", "labels": ["p"]}],
            "transitions": [{"from": "a", "weight": nines, "to": "t"},
                            {"from": "b", "weight": nines[:-1] + "8", "to": "t"}]}
    emitted = tmp_path / "m.json"
    for argv, stdin in ((["fmt", "--formula", f"L[{ones}] p"], b""),
                        (["fmt", "--formula", f"L[{'1' * 4301}] p"], b""),
                        (["fmt", "--formula", f"L[1.{'3' * 2150}] p"], b""),
                        (["sat", "--formula", f"M[1/{ones}] p"], b""),
                        (["fmt", "--model", "-"], (weight % f'"{ones}"').encode()),
                        (["fmt", "--model", "-"], (weight % ones).encode()),
                        (["sat", "--formula", f"L[{nines}] p & !M[{nines}] p",
                          "--emit-model", str(emitted)], b""),
                        (["distinguish", "--model", "-", "--state", "a", "--state", "b"],
                         json.dumps(pair).encode())):
        code, out, err = run(argv, stdin)
        assert code == 2 and out == "", argv
        assert err.endswith("\n") and err.count("\n") == 1, argv
        assert "more than 4300 digits" in json.loads(err)["error"], argv
        assert "set_int_max_str_digits" not in err, argv
    assert not emitted.exists()


def test_parser_defaults_do_not_leak_between_calls(tmp_path):
    path = write_model(tmp_path, make_coarse_pair_model())
    assert invoke(["bisim", "--model", path, "--state", "s", "--state", "t"])[0] == 0
    code, body, _ = invoke(["bisim", "--model", path])
    assert code == 0 and body == {"blocks": [["s", "t"], ["sp", "tp"]]}
    code, body, _ = invoke(["axioms", "--seed", "5", "--trials", "5", "--schema", "A1"])
    assert code == 0 and [e["schema"] for e in body["schemas"]] == ["A1"]
    code, body, _ = invoke(["axioms", "--seed", "5", "--trials", "5"])
    assert code == 0
    assert {e["schema"] for e in body["schemas"]} == set(SCHEMAS)


def test_exit_code_matches_body(tmp_path):
    path = write_model(tmp_path, make_vacuum_model())
    checks = [
        (["mc", "--model", path, "--state", "s1", "--formula", "waiting"], "holds"),
        (["mc", "--model", path, "--state", "s2", "--formula", "waiting"], "holds"),
        (["sat", "--formula", "p | !p"], "satisfiable"),
        (["sat", "--formula", "p & !p"], "satisfiable"),
        (["valid", "--formula", "p | !p"], "valid"),
        (["valid", "--formula", "p & q"], "valid"),
    ]
    for argv, key in checks:
        code, body, _ = invoke(argv)
        assert (code == 0) == bool(body[key]), argv


def test_formula_file_and_stdin(tmp_path):
    file_path = tmp_path / "formula.txt"
    file_path.write_text("M[2] charging")
    model = write_model(tmp_path, make_vacuum_model())
    code, body, _ = invoke(["mc", "--model", model, "--state", "s1",
                            "--formula-file", str(file_path)])
    assert code == 0 and body["holds"]
    code, body, _ = invoke(["sat", "--formula-file", "-"], stdin=b"p & q")
    assert code == 0 and body["satisfiable"]


def test_main_reads_stdin_where_a_path_is_dash(monkeypatch, capsys, tmp_path):
    import io
    import sys

    from wtl.cli import main

    def feed(data):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))

    for argv in (["fmt", "--formula-file=-"], ["fmt", "--formula-f=-"],
                 ["fmt", "--formula-file", "-"]):
        feed(b"L[2] p")
        assert main(argv) == 0, argv
        assert capsys.readouterr() == ("L[2] p\n", "")
    model = write_model(tmp_path, make_vacuum_model())
    feed(b"M[2] charging")
    assert main(["mc", "--model", model, "--state", "s1", "--formula-file=-"]) == 0
    assert json.loads(capsys.readouterr().out) == {"holds": True}
    feed(serialize_wts(make_vacuum_model()))
    assert main(["mc", "--model=-", "--state", "s1", "--formula", "M[2] charging"]) == 0
    assert json.loads(capsys.readouterr().out) == {"holds": True}


def test_sat_dumps_the_explored_tableau(tmp_path):
    import time

    parts = [f"(x{j} | y{j})" for j in range(12)]
    formula = " & ".join(parts + ["L[1] q"])
    dump_out = tmp_path / "tableau.json"
    start = time.perf_counter()
    code, body, _ = invoke(["sat", "--formula", formula, "--dump-tableau", str(dump_out)])
    elapsed = time.perf_counter() - start
    assert code == 0 and body["verified"] is True
    dump = json.loads(dump_out.read_text())
    nodes, stack = 0, [dump]
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node["children"])
        assert node["closed"] is False
    # the exhaustive tableau has 20,489 nodes; the search explores one path
    assert nodes < 100
    assert elapsed < 2.0


def test_help_is_returned_not_printed(capsys):
    code, out, err = run(["--help"])
    assert code == 0 and out.startswith("usage: wtl") and err == ""
    assert "{mc,sat,valid" in out
    code, out, err = run(["sat", "-h"])
    assert code == 0 and out.startswith("usage: wtl sat") and err == ""
    assert "--emit-model" in out
    assert capsys.readouterr() == ("", "")


def test_version_and_pretty():
    code, out, _ = run(["--version"])
    assert code == 0 and out.startswith("wtl ")
    code, out, _ = run(["--pretty", "valid", "--formula", "true"])
    assert code == 0 and out.startswith("{\n")


_FORMULA_TOKENS = (
    "p", "q", "waiting", "x_1", "é", "true", "false", "!", "&", "|", "->",
    "<->", "<>", "[]", "(", ")", "[", "]", "L[", "M[", "1", "1/2", "0.5",
    "1/", "1.", "1/0", "-1", "%", " ",
)


def _fuzz_formula(rng) -> str:
    if rng.random() < 0.5:
        return print_formula(random_formula(rng.randrange(10**6), ["p", "waiting"], 2,
                                            [0, "1/2", 1, 2, 10]))
    return "".join(rng.choice(_FORMULA_TOKENS) for _ in range(rng.randint(0, 12)))


def test_cli_contract_holds_on_fuzzed_input(tmp_path):
    """Seeded fuzz of `run`: mutated models, formula text drawn from the
    token alphabet and argv for every input-taking command, output flags
    included.  `run` never raises, exits 0 to 3, writes one JSON `error`
    object to stderr exactly on exit 2, and writes nothing to stdout then.

    `axioms --trials` sizes are left out: the suite's time is linear in the
    trial count, which is work the user asks for, not input to guard.  A
    `-h` that takes effect exits 0 with the help text, not JSON, on stdout.
    """
    rng = random.Random(4)
    docs = [json.loads(serialize_wts(make_vacuum_model())),
            json.loads(serialize_wts(make_coarse_pair_model()))]
    bad_states = ["ghost", "", "bad id", "-"]
    outputs = [str(tmp_path / "out.json"), str(tmp_path / "missing" / "out.json"),
               str(tmp_path)]
    for case in range(500):
        doc = rng.choice(docs)
        model = mutated_model(rng, doc) if rng.random() < 0.4 else json.dumps(doc).encode()
        states = [entry["id"] for entry in doc["states"]] * 4 + bad_states
        formula = _fuzz_formula(rng)
        stdin = model
        command = rng.choice(["mc", "sat", "valid", "bisim", "distinguish", "quotient", "fmt"])
        argv = [command]
        if command in ("mc", "bisim", "distinguish", "quotient"):
            argv += ["--model", "-"]
        if command in ("mc", "sat", "valid"):
            if rng.random() < 0.8:
                argv.append("--formula=" + formula)
            else:
                argv += ["--formula-file", "-"]
                stdin = formula.encode("utf-8") if rng.random() < 0.9 else b"\xff(p"
        if command == "mc":
            argv += ["--state", rng.choice(states)]
        if command == "sat":
            for flag in ("--emit-model", "--dump-tableau"):
                if rng.random() < 0.4:
                    argv += [flag, rng.choice(outputs)]
        if command in ("bisim", "distinguish"):
            for _ in range(rng.choice([0, 1, 2, 2, 2, 3])):
                argv += ["--state", rng.choice(states)]
            if command == "bisim" and rng.random() < 0.5:
                argv.append("--weighted")
        if command == "quotient" and rng.random() < 0.6:
            argv += ["-o", rng.choice(outputs)]
        if command == "fmt":
            argv += rng.choice([["--model", "-"], ["--formula=" + formula],
                                ["--formula-file", "-"]])
            if argv[-2:] == ["--formula-file", "-"]:
                stdin = formula.encode("utf-8")
        if rng.random() < 0.05:
            del argv[rng.randrange(len(argv))]
        if rng.random() < 0.05:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--model", "--bogus", "-o", "-h"]))

        code, out, err = run(argv, stdin)
        assert code in (0, 1, 2, 3), (case, argv)
        if code == 2:
            assert out == "", (case, argv)
            assert err.endswith("\n") and err.count("\n") == 1, (case, argv)
            assert list(json.loads(err)) == ["error"], (case, argv)
        else:
            assert err == "", (case, argv)
            if "-h" in argv and code == 0:
                assert out.startswith("usage: wtl"), (case, argv)
            elif argv[0] != "fmt":
                json.loads(out)


# Each subcommand's flags and its one-of group, as the reference parser
# declares them.
_ARGV_FLAGS = {
    "mc": ["--model", "--state", "--formula", "--formula-file"],
    "sat": ["--formula", "--formula-file", "--emit-model", "--dump-tableau"],
    "valid": ["--formula", "--formula-file"],
    "bisim": ["--model", "--weighted", "--state"],
    "distinguish": ["--model", "--state"],
    "quotient": ["--model", "-o", "--output"],
    "axioms": ["--seed", "--trials", "--schema"],
    "fmt": ["--model", "--formula", "--formula-file"],
}
_ARGV_ONE_OF = {
    "mc": ["--formula", "--formula-file"], "sat": ["--formula", "--formula-file"],
    "valid": ["--formula", "--formula-file"], "fmt": ["--model", "--formula", "--formula-file"],
}
_ARGV_VALUES = ["p", "L[2] p & q", "m.json", "s1", "a=b", "-", "-5", "- x", "",
                "-1.5", "-.5"]
_ARGV_BAD_VALUES = ["-x", "--", "-h", "-o", "--model", "-1e5"]
_ARGV_INTS = ["7", "0", "-5", " 7", "+7", "1_000", "٣", "7.0", "x", "", "-x"]
_ARGV_NOISE = ["--bogus", "-x", "extra", "--", "-h", "--help", "--h", "-hh", "-ho",
               "-hx", "-h=x", "--help=x", "--pretty", "--version", "--=x", "-", "-5",
               "--pre", "--pretty=1"]


def _spellings(flag, names):
    """The ways argv can name `flag` among the option strings `names`:
    whole or by a prefix only it has, and by a prefix it shares."""
    if not flag.startswith("--"):
        return [flag], []
    unique, shared = [flag], []
    for end in range(3, len(flag)):
        prefix = flag[:end]
        mine = [n for n in names if n.startswith(prefix)] == [flag]
        (unique if mine else shared).append(prefix)
    return unique, shared


def _random_argv(rng) -> list:
    """One argv: global flags, a subcommand, its flags in random order,
    each spelt whole, abbreviated or with `=`, given zero, one or two
    times, with values a parser may or may not take, then noise words put
    anywhere."""
    argv = [rng.choice(["--pretty", "--version", "--pre", "--v", "--bogus", "-h", "-hx"])
            for _ in range(rng.random() < 0.15)]
    command = rng.choice(list(_ARGV_FLAGS) * 8 + ["frob", "-", ""])
    argv.append(command)
    flags = _ARGV_FLAGS.get(command, ["--model", "--formula"])
    group = _ARGV_ONE_OF.get(command, [])
    uses = [f for f in flags if f not in group for _ in range(rng.choice([0, 1, 1, 1, 1, 1, 2]))]
    if group:
        uses += rng.sample(group, rng.choice([0, 1, 1, 1, 1, 1, 1, 1, 2]))
    rng.shuffle(uses)
    names = flags + ["--help"]
    for flag in uses:
        if flag == "--weighted":
            argv.append(rng.choice(["--weighted", "--w", "--weighted=x"]))
            continue
        if flag in ("--seed", "--trials"):
            value = rng.choice(_ARGV_INTS)
        else:
            value = rng.choice(_ARGV_VALUES if rng.random() < 0.85 else _ARGV_BAD_VALUES)
        unique, shared = _spellings(flag, names)
        name = rng.choice(shared) if shared and rng.random() < 0.05 else rng.choice(unique)
        form = rng.random()
        if form < 0.6:
            argv += [name, value]
        elif form < 0.9:
            argv.append(f"{name}={value}")
        elif flag == "-o":
            argv.append(f"-o{value}")
        elif form < 0.95:
            argv.append(name)  # its value left out
        else:
            argv += [value, name]
    for _ in range(rng.choice([0, 0, 0, 0, 0, 0, 1, 1, 2])):
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(_ARGV_NOISE))
    if rng.random() < 0.03:
        del argv[rng.randrange(len(argv))]
    return argv


def _read_argv(argv: list) -> tuple:
    try:
        args = _parse(argv)
    except _UsageError as e:
        return "error", str(e)
    return ("help", help_prog(args)) if isinstance(args, str) else ("ok", vars(args))


_DASHES = "<dash-dash>"


def _reference_outcome(argv: list) -> tuple:
    """The reference's outcome, with an option's attached value `--`
    (`--formula=--`, `-o--`) read as a value, as argparse reads it from
    Python 3.13 on.  Before 3.13 argparse drops it and gives the option
    an empty list, which `run` then failed on; it reads here through a
    stand-in put back afterwards."""
    def back(value):
        if isinstance(value, str):
            return value.replace(_DASHES, "--")
        return [back(v) for v in value] if isinstance(value, list) else value

    outcome, detail = reference_read_argv(
        [w[:-2] + _DASHES if w.startswith("-") and w.endswith(("=--", "-o--")) else w
         for w in argv])
    if outcome == "ok":
        return outcome, {k: back(v) for k, v in detail.items()}
    return outcome, back(detail)


def test_argv_is_read_as_the_argparse_front_end_read_it():
    """A seeded corpus of argv gets from the table the outcome it gets from
    the argparse front end kept in `oracles`: the same attributes, the same
    error message, or the help text of the same parser.

    From Python 3.13 on, argparse reads `-h` run on into a letter that is
    no short option (`-hx`) as -h, and returns the help text; before, it
    refuses the word, and so does the table."""
    rng = random.Random(23)
    corpus = [[]] + [_random_argv(rng) for _ in range(2400)]
    outcomes, errors = Counter(), Counter()
    for argv in corpus:
        want, got = _reference_outcome(argv), _read_argv(argv)
        if sys.version_info >= (3, 13) and want[0] == "help" and got != want:
            assert got[1].startswith("argument -h/--help: ignored explicit argument"), argv
            assert any(w.startswith("-h") and w[2:3].isalpha() for w in argv), argv
        else:
            assert got == want, argv
        outcomes[want[0]] += 1
        if want[0] == "error":
            errors[re.match(r"[a-z ]+", re.sub(r"^argument \S+: ", "", want[1])).group()] += 1
    assert min(outcomes["ok"], outcomes["error"]) > 500 and outcomes["help"] > 100
    assert {kind.strip() for kind in errors} == {
        "ambiguous option", "unrecognized arguments", "the following arguments are required",
        "one of the arguments", "expected one argument", "ignored explicit argument",
        "not allowed with argument", "invalid int value", "invalid choice"}


_SPELT_VALUES = ["p", "L[2] p & q", "m.json", "s1", "a=b", "-", ""]
_SPELT_INTS = ["7", "0", " 7", "+7", "1_000", "٣"]


def _spelt_argv(rng) -> list:
    """One argv of the shape scripted callers send: a subcommand, then its
    long flags spelt in full, each `--flag value` or `--flag=value`, some
    given twice; now and then a flag is left out, both members of a
    one-of group are given, or `--weighted` is given a value."""
    command = rng.choice(list(_ARGV_FLAGS))
    group = _ARGV_ONE_OF.get(command, [])
    uses = [f for f in _ARGV_FLAGS[command] if f not in group and f != "-o"
            for _ in range(rng.choice([0] + [1] * 12 + [2] * 3))]
    if group:
        uses += rng.sample(group, rng.choice([1] * 15 + [2]))
    rng.shuffle(uses)
    argv = [command]
    for flag in uses:
        if flag == "--weighted":
            argv.append(rng.choice(["--weighted"] * 7 + ["--weighted=x"]))
            continue
        value = rng.choice(_SPELT_INTS if flag in ("--seed", "--trials") else _SPELT_VALUES)
        argv += [flag, value] if rng.random() < 0.5 else [f"{flag}={value}"]
    return argv


def test_fully_spelt_argv_skip_argparse_with_its_attributes():
    """`_quick` reads most fully spelt argv, and each one it reads gets
    the attributes the argparse front end kept in `oracles` gives it; the
    rest go to argparse and get its outcome."""
    rng = random.Random(24)
    quick = 0
    for argv in (_spelt_argv(rng) for _ in range(800)):
        want = reference_read_argv(argv)
        assert _read_argv(argv) == want, argv
        args = _quick(argv)
        if args is not None:
            assert want == ("ok", vars(args)), argv
            quick += 1
    assert quick >= 500


def test_benchmark_shaped_requests_import_no_argparse(tmp_path):
    """One request of each argv shape the benchmark sends runs in a fresh
    interpreter without importing argparse."""
    model = serialize_wts(make_vacuum_model())
    witness = str(tmp_path / "w.json")
    script = f"""
import sys
from wtl.cli import run

for argv, stdin in [
    (["sat", "--formula", "L[2] p", "--emit-model", {witness!r}], b""),
    (["valid", "--formula", "p | !p"], b""),
    (["quotient", "--model", "-"], {model!r}),
    (["bisim", "--model", "-"], {model!r}),
    (["bisim", "--weighted", "--model", "-"], {model!r}),
    (["distinguish", "--model", "-", "--state", "s1", "--state", "s2"], {model!r}),
    (["axioms", "--seed", "1", "--trials", "2"], b""),
]:
    code, out, err = run(argv, stdin)
    assert code == 0 and err == "", (argv, code, err)
sys.exit("argparse" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()


def test_requests_import_neither_dataclasses_nor_inspect(tmp_path):
    """`import wtl.cli` and one request of each subcommand run in a fresh
    interpreter without importing `dataclasses` or `inspect`."""
    model = serialize_wts(make_vacuum_model())
    script = f"""
import sys
import wtl.cli

for argv, stdin in [
    (["mc", "--model", "-", "--state", "s1", "--formula", "L[1] charging"], {model!r}),
    (["sat", "--formula", "L[2] p & M[3] !q", "--emit-model", {str(tmp_path / "w.json")!r},
      "--dump-tableau", {str(tmp_path / "t.json")!r}], b""),
    (["valid", "--formula", "p | !p"], b""),
    (["bisim", "--model", "-"], {model!r}),
    (["bisim", "--weighted", "--model", "-"], {model!r}),
    (["distinguish", "--model", "-", "--state", "s1", "--state", "s2"], {model!r}),
    (["quotient", "--model", "-"], {model!r}),
    (["axioms", "--seed", "1", "--trials", "2"], b""),
    (["fmt", "--formula", "p -> L[1/2] q"], b""),
]:
    code, out, err = wtl.cli.run(argv, stdin)
    assert code == 0 and err == "", (argv, code, err)
sys.exit(sorted({{"dataclasses", "inspect"}} & set(sys.modules)) or None)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert (tmp_path / "w.json").exists() and (tmp_path / "t.json").exists()
