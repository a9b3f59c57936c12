"""Demos 01–04 run in-process; their stdout is pinned in ``demos_golden.json``.
Demo 05 prints wall-clock times, so it is not pinned."""

import json
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = json.loads((Path(__file__).parent / "demos_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0[1-4]_*.py")))
def test_demo_output_pinned(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out == GOLDEN[name]
