import json

from wtl.cli import run
from wtl import parse_wts, serialize_wts

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


def test_version_and_pretty():
    code, out, _ = run(["--version"])
    assert code == 0 and out.startswith("wtl ")
    code, out, _ = run(["--pretty", "valid", "--formula", "true"])
    assert code == 0 and out.startswith("{\n")
