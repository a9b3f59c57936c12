"""Demos 01–05 run in-process; their stdout is pinned in ``demos_golden.json``.
Demo 05 times itself, so the last field of each CSV row, ``micros``, is
masked."""

import json
import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = json.loads((Path(__file__).parent / "demos_golden.json").read_text(encoding="utf-8"))


def _mask_micros(out):
    """Mask the number that ends each CSV row: a line of fields with no spaces."""
    return re.sub(r"^(\S*),\d+$", r"\1,*", out, flags=re.M)


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0[1-5]_*.py")))
def test_demo_output_pinned(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert _mask_micros(capsys.readouterr().out) == GOLDEN[name]
