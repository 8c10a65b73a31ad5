import json
import random

from wtl.axioms import SCHEMAS
from wtl.cli import run
from wtl import (
    Wts, modal_depth, model_check, parse_formula, parse_wts, print_formula,
    random_formula, serialize_wts,
)

from conftest import make_coarse_pair_model, make_vacuum_model


def write_model(tmp_path, model, name="model.wts.json"):
    path = tmp_path / name
    path.write_bytes(serialize_wts(model))
    return str(path)


def invoke(argv, stdin=b""):
    code, out, err = run(argv, stdin)
    body = json.loads(out) if out.startswith("{") else out
    return code, body, err


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


def test_sat_builds_the_full_tableau_only_for_the_dump(tmp_path, monkeypatch):
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
    assert built == []
    dump_out = tmp_path / "tableau.json"
    assert invoke(["sat", "--formula", formula, "--dump-tableau", str(dump_out)])[0] == 0
    assert len(built) == 1 and dump_out.exists()


def test_valid_command():
    assert invoke(["valid", "--formula", "!L[0] false"])[0] == 0
    assert invoke(["valid", "--formula", "p"])[0] == 1


def test_bisim_pair_and_partition(tmp_path):
    path = write_model(tmp_path, make_coarse_pair_model())
    code, body, _ = invoke(["bisim", "--model", path, "--state", "s", "--state", "t"])
    assert code == 0 and body == {"bisimilar": True}
    code, body, _ = invoke(["bisim", "--model", path, "--weighted",
                            "--state", "s", "--state", "t"])
    assert code == 1 and body == {"bisimilar": False}
    code, body, _ = invoke(["bisim", "--model", path])
    assert code == 0 and body == {"blocks": [["s", "t"], ["sp", "tp"]]}


def test_distinguish_command(tmp_path):
    path = write_model(tmp_path, make_vacuum_model())
    code, body, _ = invoke(["distinguish", "--model", path,
                            "--state", "s1", "--state", "s2"])
    assert code == 0 and body["distinguishable"] is True
    pair = write_model(tmp_path, make_coarse_pair_model(), "pair.wts.json")
    code, body, _ = invoke(["distinguish", "--model", pair,
                            "--state", "s", "--state", "t"])
    assert code == 1 and body["distinguishable"] is False


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


def test_axioms_command():
    code, body, _ = invoke(["axioms", "--seed", "5", "--trials", "40",
                            "--schema", "A6", "--schema", "A7"])
    assert code == 0
    assert {entry["schema"] for entry in body["schemas"]} == {"A6", "A7"}
    assert body["unexpected_violations"] == 0
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
    for argv in (["fmt", "--formula", "!" * 1200 + "p"],
                 ["sat", "--formula", " & ".join(f"p{i}" for i in range(1000))]):
        code, out, err = run(argv)
        assert code == 2 and out == "" and "error" in json.loads(err)
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


def test_bytes_that_are_not_utf8_name_their_offset():
    for argv, stdin in ((["sat", "--formula-file", "-"], b"p & \xff"),
                        (["fmt", "--model", "-"], b"\xff{}")):
        code, out, err = run(argv, stdin)
        assert code == 2 and out == ""
        offset = stdin.index(0xff)
        assert json.loads(err) == {"error": f"byte {offset}: not UTF-8 (invalid start byte)"}


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


_BAD_VALUES = (
    None, 0, 7, [], ["p"], [1], {}, {"id": "s1"}, "", "bad id", "9x", "-3/2",
    "1e3", "1/0", "1" + "0" * 400 + "/7", "9" * 5000,
)
_FORMULA_TOKENS = (
    "p", "q", "waiting", "x_1", "é", "true", "false", "!", "&", "|", "->",
    "<->", "<>", "[]", "(", ")", "[", "]", "L[", "M[", "1", "1/2", "0.5",
    "1/", "1.", "1/0", "-1", "%", " ",
)


def _mutated_model(rng, doc) -> bytes:
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
    node[key] = rng.choice(_BAD_VALUES)
    text = json.dumps(doc).encode("utf-8")
    return text[: rng.randrange(len(text))] if rng.random() < 0.1 else text


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
        model = _mutated_model(rng, doc) if rng.random() < 0.4 else json.dumps(doc).encode()
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
