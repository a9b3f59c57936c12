"""The package keeps to its ``requires-python`` floor, Python 3.10.

Tier-1 runs on a newer Python, so syntax or regular-expression features
added later would go unnoticed there and break ``import sigmapi`` on
3.10 (possessive quantifiers and atomic groups arrived in 3.11)."""

import ast
import re
from pathlib import Path

import sigmapi
from sigmapi import syntax

try:
    from re import _parser
except ImportError:  # Python 3.10
    import sre_parse as _parser

FLOOR = (3, 10)
NEWER_REGEX = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def test_sources_parse_at_the_floor():
    sources = sorted(Path(sigmapi.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)


def _newer_regex(pattern: str, flags: int = 0) -> set:
    """The opcodes past the floor in a pattern; one this Python cannot
    parse at all counts as ``unparsable``."""
    try:
        tree = _parser.parse(pattern, flags)
    except re.error:
        return {"unparsable"}
    found = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, _parser.SubPattern):
            for op, av in node.data:
                if str(op) in NEWER_REGEX:
                    found.add(str(op))
                todo.append(av)
        elif isinstance(node, (tuple, list)):
            todo.extend(node)
    return found


def test_syntax_patterns_stay_within_the_floor():
    patterns = [v for v in vars(syntax).values() if isinstance(v, re.Pattern)]
    assert patterns
    for p in patterns:
        assert not _newer_regex(p.pattern, p.flags), p.pattern
    # the check sees both features, nested too
    assert _newer_regex(r"[^\n]*+")
    assert _newer_regex(r"(?>ab)")
    assert _newer_regex(r"a(?:b|(c)++)")
