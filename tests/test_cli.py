import json

import pytest

from sigmapi.cli import run

GOOD = """
graph { node x; node a; edge k : x -> a; }
term f : 0*0 -> 0+1 = p0 ? ; s0 id:0 ;
term g : 0*0 -> 0+1 = p1 ? ; s0 id:0 ;
term pi0 : 0*0 -> 0 = p0 ? ;
term pi1 : 0*0 -> 0 = p1 ? ;
term gen : x -> a = @k ;
term gencut : x -> a = @k ; id:a ;
term gensum : x -> a + 1 = s0 @k ;
term genbang : x -> a + 1 = s1 ! ;
term liftl : 0*0*0 -> 0+0*0 = s1 <p0 ?, p1 p0 ?> ;
term liftr : 0*0*0 -> 0+0*0 = p1 s1 <p0 ?, p1 ?> ;
"""


@pytest.fixture
def spt(tmp_path):
    p = tmp_path / "terms.spt"
    p.write_text(GOOD, encoding="utf-8")
    return str(p)


def test_check_ok(spt, capsys):
    assert run(["check", spt]) == 0
    assert "well-typed" in capsys.readouterr().out


def test_check_type_error(tmp_path):
    bad = tmp_path / "bad.spt"
    bad.write_text("term broken : 1 -> 0 = ! ;", encoding="utf-8")
    assert run(["check", str(bad)]) == 66


def test_check_parse_error(tmp_path):
    bad = tmp_path / "bad.spt"
    bad.write_text("term broken : 1 -> = ! ;", encoding="utf-8")
    assert run(["check", str(bad)]) == 65


def test_decide_equal_disconnect(spt, capsys):
    assert run(["decide", spt, "--left", "f", "--right", "g"]) == 0
    assert "Equal (disconnect)" in capsys.readouterr().out


def test_decide_not_equal(spt, capsys):
    assert run(["decide", spt, "--left", "pi0", "--right", "pi1"]) == 1
    assert "NotEqual" in capsys.readouterr().out


def test_decide_requires_oracle(spt, capsys):
    assert run(["decide", spt, "--left", "gen", "--right", "gen"]) == 2
    assert "RequiresOracle" in capsys.readouterr().out


def test_decide_json_schema(spt, capsys):
    assert run(["decide", spt, "--left", "f", "--right", "g", "--json", "--stats"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["verdict"] == "Equal"
    assert payload["steps"] >= payload["dag_calls"] >= 1


def test_decide_batch_order(spt, capsys):
    code = run(["decide", spt, "--pair", "f", "g", "--pair", "pi0", "pi1"])
    assert code == 1  # worst verdict
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("Equal") and lines[1].startswith("NotEqual")


def test_oracle_decide_agrees(spt, capsys):
    for left, right in (("f", "g"), ("pi0", "pi1"), ("gensum", "genbang"),
                        ("liftl", "liftr"), ("liftl", "liftl")):
        fast = run(["decide", spt, "--left", left, "--right", right])
        slow = run(["oracle", "decide", spt, "--left", left, "--right", right])
        if fast == 2:
            assert slow in (0, 1)  # the oracle settles generator terms
        else:
            assert fast == slow


def test_oracle_class(spt, capsys):
    assert run(["oracle", "class", spt, "--term", "f"]) == 0
    out = capsys.readouterr().out
    assert "canonical" in out


def test_compose(spt, capsys):
    assert run(["compose", spt, "--term", "f"]) == 0
    assert "s0 p0 ?" in capsys.readouterr().out
    # the cut's middle type comes from walking the generator path
    assert run(["compose", spt, "--term", "gencut"]) == 0
    assert capsys.readouterr().out == "@k : x -> a\n"


def test_annotate(spt, capsys):
    assert run(["annotate", spt, "--term", "f"]) == 0
    out = capsys.readouterr().out
    assert "pointed+" in out and "copoint" in out


def test_factor(spt, capsys):
    assert run(["factor", spt, "--term", "f", "--inj", "0"]) == 0
    assert run(["factor", spt, "--term", "pi0", "--proj", "1"]) == 1


def test_enumerate(capsys):
    assert run(["enumerate", "-X", "1*1", "-A", "1+1", "--classes"]) == 0
    assert "6 terms, 2 classes" in capsys.readouterr().out


def test_enumerate_guard(capsys):
    assert run(["enumerate", "-X", "1*1", "-A", "1+1", "--guard", "3"]) == 70


def test_closure_guard_reports_progress(capsys):
    # one enumerated term, whose class of 11 members trips the guard
    assert run(["enumerate", "-X", "0", "-A", "(1+1)*1", "--classes", "--guard", "10"]) == 70
    assert capsys.readouterr().err == (
        "guard exceeded: class closure at 0 -> (1 + 1) * 1 exceeded 10 members: "
        "11 found, 3 on the frontier\n")


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["decide"])  # missing file
    assert exc.value.code == 64


def test_oracle_path(spt, capsys):
    code = run(["oracle", "path", spt, "--x0", "0*0", "--x1", "0", "--a0", "0", "--a1", "1",
                "--left", "f", "--right", "f"])
    assert code == 0
    assert "path of length" in capsys.readouterr().out


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--max-height", "3", "--csv", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "height,pair,size_X,size_A,steps,verdict,micros"


def test_internal_error_exit_code(tmp_path, capsys):
    # legal input nested deeper than the layers after the parser, which
    # still recurse, reach: the failure must not surface under the
    # NotEqual code 1
    deep = "1"
    for _ in range(2000):
        deep = f"({deep}*1)"
    src = tmp_path / "deep.spt"
    src.write_text(f"term f : {deep} -> {deep} = id:{deep} ;\n"
                   f"term g : {deep} -> {deep} = id:{deep} ;\n", encoding="utf-8")
    assert run(["decide", str(src), "--left", "f", "--right", "g"]) == 71
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and err.count("\n") == 1


def test_internal_value_error_is_not_a_type_error(spt, monkeypatch, capsys):
    def broken(term):
        raise ValueError("compose: no rule for this pair")

    monkeypatch.setattr("sigmapi.cli.eliminate", broken)
    assert run(["decide", spt, "--left", "f", "--right", "g"]) == 71
    assert capsys.readouterr().err.startswith("internal error: ValueError")


def test_malformed_input_exits_66(spt, capsys):
    # a type naming a node the (empty) graph lacks
    assert run(["enumerate", "-X", "x", "-A", "x"]) == 66
    assert run(["enumerate", "-X", "x", "-A", "1+x"]) == 66
    assert "error: unknown node 'x'\n" in capsys.readouterr().err
    # a term that fits no corner of the square
    assert run(["oracle", "path", spt, "--x0", "1", "--x1", "1", "--a0", "1", "--a1", "1",
                "--left", "f", "--right", "f"]) == 66
    assert "does not fit the square" in capsys.readouterr().err


_NO_PATH = ["oracle", "path", "{spt}", "--x0", "0", "--x1", "0*0", "--a0", "0", "--a1", "0*0",
            "--left", "liftl", "--right", "liftr"]


@pytest.mark.parametrize("argv, code, line", [
    (["decide", "{spt}", "--left", "f"], 64, "error: --left and --right go together"),
    (["decide", "{spt}"], 64, "error: nothing to decide: give --left/--right or --pair"),
    (["factor", "{spt}", "--term", "f"], 64, "error: give exactly one of --inj or --proj"),
    (["decide", "{spt}", "--left", "zz", "--right", "f"], 65,
     "error: no term named 'zz' in file"),
    (["check", "{missing}"], 65, "error: cannot read {missing}: "),
    (["decide", "{spt}", "--left", "f", "--right", "pi0"], 66,
     "error: f and pi0 are not parallel"),
    (["compose", "{spt}", "--term", "f", "--with", "pi0"], 66,
     "error: f ; pi0: middle types differ"),
    (["factor", "{spt}", "--term", "pi0", "--inj", "0"], 66,
     "error: pi0 has no sum codomain to factor through"),
    (["factor", "{spt}", "--term", "gen", "--proj", "0"], 66,
     "error: gen has no product domain to factor through"),
    (_NO_PATH, 1, "no path"),
], ids=["left-alone", "no-pair", "inj-and-proj", "unknown-name", "unreadable", "not-parallel",
        "middle-types", "no-sum-codomain", "no-product-domain", "no-path"])
def test_cli_error_exits(argv, code, line, spt, tmp_path, capsys):
    # every error the CLI raises itself: its exit code and its one stderr
    # line; a missing oracle path is an answer, so it goes to stdout
    missing = str(tmp_path / "missing.spt")
    assert run([a.format(spt=spt, missing=missing) for a in argv]) == code
    out, err = capsys.readouterr()
    stream, want = out if code == 1 else err, line.format(missing=missing)
    # the OS's reason for an unreadable file follows the pinned prefix
    assert stream == want + "\n" or (want.endswith(": ") and stream.startswith(want)
                                     and stream.count("\n") == 1)
