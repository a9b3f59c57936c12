"""Every subcommand, in text and with ``--json``: stdout and exit code are
pinned in ``cli_golden.json``, and so is every rule name that ``decide``
prints.  ``bench`` times itself, so its ``micros`` column is masked."""

import json
from pathlib import Path

import pytest

from sigmapi.cli import run

MODULE = """
graph { node x; node a; edge k : x -> a; }
term f : 0*0 -> 0+1 = p0 ? ; s0 id:0 ;
term g : 0*0 -> 0+1 = p1 ? ; s0 id:0 ;
term pi0 : 0*0 -> 0 = p0 ? ;
term pi1 : 0*0 -> 0 = p1 ? ;
term z : 0 -> 1 = ? ;
term gen : x -> a = @k ;
term gensum : x -> a + 1 = s0 @k ;
term genbang : x -> a + 1 = s1 ! ;
term liftl : 0*0*0 -> 0+0*0 = s1 <p0 ?, p1 p0 ?> ;
term liftr : 0*0*0 -> 0+0*0 = p1 s1 <p0 ?, p1 ?> ;
term side : 1+1 -> 1+1 = {s1 !, s0 !} ;
term corner : (1+1)*1 -> 1+1 = p0 {s1 !, s0 !} ;
term fac : 1+1 -> (1+1)+1 = {s0 s1 !, s0 s0 !} ;
"""

# one pair per rule that the main module's pairs do not reach
RULES = """
term sp0 : 1*1 -> 1+1 = s0 p0 ! ;
term sp1 : 1*1 -> 1+1 = s0 p1 ! ;
term cp0 : 0*0 -> 0+0 = p0 s0 ? ;
term cp1 : 0*0 -> 0+0 = p0 s1 ? ;
term bl : (1+1)*1 -> (1+1)+0 = s0 p0 {s0 !, s1 !} ;
term br : (1+1)*1 -> (1+1)+0 = p0 s0 {s0 !, s1 !} ;
term unit : 1 -> 1 = ! ;
"""

_SQUARE = ["--x0", "1+1", "--x1", "1", "--a0", "1+1", "--a1", "1"]

CASES = {
    "check": ["check", "{spt}"],
    "decide": ["decide", "{spt}", "--left", "f", "--right", "g", "--witness", "--stats"],
    "decide-batch": ["decide", "{spt}", "--pair", "f", "g", "--pair", "pi0", "pi1",
                     "--pair", "liftl", "liftr"],
    "decide-oracle": ["decide", "{spt}", "--left", "gen", "--right", "gen"],
    "decide-shared-point": ["decide", "{rules}", "--left", "sp0", "--right", "sp1", "--witness"],
    "decide-shared-copoint": ["decide", "{rules}", "--left", "cp0", "--right", "cp1",
                              "--witness"],
    "decide-bouncer": ["decide", "{rules}", "--left", "bl", "--right", "br", "--witness"],
    "decide-singleton": ["decide", "{rules}", "--left", "unit", "--right", "unit", "--witness"],
    "compose": ["compose", "{spt}", "--term", "f"],
    "compose-with": ["compose", "{spt}", "--term", "pi0", "--with", "z"],
    "annotate": ["annotate", "{spt}", "--term", "liftl"],
    "factor-inj": ["factor", "{spt}", "--term", "f", "--inj", "0"],
    "factor-proj": ["factor", "{spt}", "--term", "pi0", "--proj", "1"],
    "enumerate": ["enumerate", "-X", "1*1", "-A", "1+1", "--classes", "--list"],
    "oracle-decide": ["oracle", "decide", "{spt}", "--left", "gensum", "--right", "genbang"],
    "oracle-class": ["oracle", "class", "{spt}", "--term", "liftr"],
    "oracle-enumerate": ["oracle", "enumerate", "-X", "0*0", "-A", "0+1", "--classes"],
    "oracle-path": ["oracle", "path", "{spt}", *_SQUARE, "--left", "corner", "--right", "fac"],
    "oracle-bouncers": ["oracle", "bouncers", "{spt}", *_SQUARE, "--left", "side",
                        "--right", "side", "-i", "0", "-j", "0"],
}

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


def _run(argv, tmp_path, capsys):
    files = {}
    for slot, text in (("{spt}", MODULE), ("{rules}", RULES)):
        files[slot] = tmp_path / f"{slot[1:-1]}.spt"
        files[slot].write_text(text, encoding="utf-8")
    code = run([str(files[a]) if a in files else a for a in argv])
    return {"code": code, "stdout": capsys.readouterr().out}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_cli_output_pinned(name, as_json, tmp_path, capsys):
    argv = CASES[name] + (["--json"] if as_json else [])
    key = name + (" --json" if as_json else "")
    assert _run(argv, tmp_path, capsys) == GOLDEN[key]


def test_bench_output_pinned(tmp_path, capsys):
    got = _run(["bench", "--max-height", "4"], tmp_path, capsys)
    lines = got["stdout"].splitlines()
    got["stdout"] = "\n".join([lines[0]] + [l.rsplit(",", 1)[0] + ",*" for l in lines[1:]])
    assert got == GOLDEN["bench"]
