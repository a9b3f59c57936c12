"""Command-line front end.

Exit codes: 0 equal / success, 1 not equal, 2 requires-oracle,
64 usage, 65 parse or lookup error, 66 type error or malformed input,
70 guard exceeded, 71 internal error.
All state flows through files and flags; output is plain text, or JSON
(schema version 1) with ``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .annotate import AnnotatedTerm, annotate
from .compose import eliminate
from .decide import Equal, NotEqual, RequiresOracle, Stats, SyntacticRecursion, equal
from .factor import factor
from .graph import InputError
from .oracle import (
    CardinalSquare,
    DEFAULT_GUARD,
    cardinal_path,
    class_of,
    enumerate_terms,
    find_bouncers,
    homset_classes,
    same_class,
)
from .syntax import Module, ParseError, parse_module, parse_type
from .terms import (COPOINT, POINT, UNARY_TYPE, Cut, TypedTerm, TypingError, format_term,
                    infer, term_sort_key)
from .types import GuardExceeded, format_type

SCHEMA = 1

EX_USAGE = 64
EX_PARSE = 65
EX_TYPE = 66
EX_GUARD = 70
EX_INTERNAL = 71


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EX_USAGE)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load(path: str) -> Module:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EX_PARSE)
    return parse_module(text)


def _named(module: Module, name: str) -> TypedTerm:
    if name not in module.decls:
        raise CliError(f"no term named {name!r} in file", EX_PARSE)
    return module.typed(name)


def _cut_free(module: Module, name: str) -> AnnotatedTerm:
    tt = _named(module, name)
    return annotate(eliminate(tt.term), tt.dom, tt.cod)


def _parallel(module: Module, lname: str, rname: str) -> tuple[AnnotatedTerm, AnnotatedTerm]:
    """The cut-free forms of two named terms, which must share a typing."""
    left, right = _cut_free(module, lname), _cut_free(module, rname)
    if (left.dom, left.cod) != (right.dom, right.cod):
        raise CliError(f"{lname} and {rname} are not parallel", EX_TYPE)
    return left, right


def _emit(payload: dict, text: str, as_json: bool):
    if as_json:
        payload["schema"] = SCHEMA
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


# -- subcommands -------------------------------------------------------------

def cmd_check(args) -> int:
    module = _load(args.file)
    for name in module.decls:
        _named(module, name)
    n = len(module.decls)
    _emit({"terms": n, "ok": True}, f"ok: {n} term(s) well-typed", args.json)
    return 0


def cmd_decide(args) -> int:
    module = _load(args.file)
    pairs = []
    if args.left or args.right:
        if not (args.left and args.right):
            raise CliError("--left and --right go together", EX_USAGE)
        pairs.append((args.left, args.right))
    pairs.extend(args.pair or [])
    if not pairs:
        raise CliError("nothing to decide: give --left/--right or --pair", EX_USAGE)
    worst = 0
    for lname, rname in pairs:
        stats = Stats()
        verdict = equal(*_parallel(module, lname, rname), stats)
        payload = {"left": lname, "right": rname}
        match verdict:
            case Equal(witness):
                text = f"Equal ({verdict.kind})"
                payload |= {"verdict": "Equal", "witness_kind": verdict.kind}
                if args.witness and witness is not None and not isinstance(witness, SyntacticRecursion):
                    payload["witness"] = format_term(witness.term)
                    text += f"  witness: {format_term(witness.term)}"
                code = 0
            case NotEqual(reason):
                text = f"NotEqual ({reason})"
                payload |= {"verdict": "NotEqual", "reason": reason}
                code = 1
            case RequiresOracle(reason):
                text = f"RequiresOracle ({reason})"
                payload |= {"verdict": "RequiresOracle", "reason": reason}
                code = 2
        if args.stats:
            payload |= {"steps": stats.steps, "dag_calls": stats.dag_calls}
            text += f"  [steps={stats.steps} dag_calls={stats.dag_calls}]"
        _emit(payload, text, args.json)
        worst = max(worst, code)
    return worst


def cmd_compose(args) -> int:
    module = _load(args.file)
    tt = _named(module, args.term)
    term, dom, cod = tt.term, tt.dom, tt.cod
    if args.with_:
        other = _named(module, args.with_)
        if other.dom != cod:
            raise CliError(f"{args.term} ; {args.with_}: middle types differ", EX_TYPE)
        term, cod = Cut(term, other.term), other.cod
        infer(term, dom, cod, module.graph)
    result = eliminate(term)
    infer(result, dom, cod, module.graph)
    text = f"{format_term(result)} : {format_type(dom)} -> {format_type(cod)}"
    _emit({"term": format_term(result), "dom": format_type(dom), "cod": format_type(cod)},
          text, args.json)
    return 0


def _annotation_tree(node: AnnotatedTerm) -> dict:
    pt, cp = node.ann
    return {
        "term": format_term(node.term),
        "dom": format_type(node.dom),
        "cod": format_type(node.cod),
        "pointed": pt is not None,
        "copointed": cp is not None,
        "point_witness": format_term(pt) if pt is not None else None,
        "copoint_witness": format_term(cp) if cp is not None else None,
        "children": [_annotation_tree(c) for c in node.children],
    }


def _annotation_lines(node: dict, depth: int, out: list[str]):
    """The text report of an ``_annotation_tree``, one line per node."""
    bits = f"pointed{'+' if node['pointed'] else '-'} copointed{'+' if node['copointed'] else '-'}"
    wits = [f"{side}={node[side + '_witness']}" for side in ("point", "copoint")
            if node[side + "_witness"] is not None]
    head = "  " * depth + f"{node['term']} : {node['dom']} -> {node['cod']}"
    out.append(f"{head}  {bits}" + (("  " + ", ".join(wits)) if wits else ""))
    for c in node["children"]:
        _annotation_lines(c, depth + 1, out)


def cmd_annotate(args) -> int:
    tree = _annotation_tree(_cut_free(_load(args.file), args.term))
    lines: list[str] = []
    _annotation_lines(tree, 0, lines)
    _emit(tree, "\n".join(lines), args.json)
    return 0


def cmd_factor(args) -> int:
    ann = _cut_free(_load(args.file), args.term)
    if (args.inj is None) == (args.proj is None):
        raise CliError("give exactly one of --inj or --proj", EX_USAGE)
    s = POINT if args.inj is not None else COPOINT
    kind, index = (("inj", args.inj), ("proj", args.proj))[s]
    if not isinstance(ann.end(1 - s), UNARY_TYPE[s]):
        shape = ("sum codomain", "product domain")[s]
        raise CliError(f"{args.term} has no {shape} to factor through", EX_TYPE)
    got = factor(s, ann, index)
    if got is None:
        _emit({"factors": False, "kind": kind, "index": index}, "no factorization", args.json)
        return 1
    text = f"{format_term(got.term)} : {format_type(got.dom)} -> {format_type(got.cod)}"
    _emit({"factors": True, "kind": kind, "index": index, "term": format_term(got.term),
           "dom": format_type(got.dom), "cod": format_type(got.cod)}, text, args.json)
    return 0


def cmd_enumerate(args) -> int:
    dom = parse_type(args.dom)
    cod = parse_type(args.cod)
    terms = enumerate_terms(dom, cod, guard=args.guard)
    payload: dict = {"dom": format_type(dom), "cod": format_type(cod), "terms": len(terms)}
    if args.classes:
        classes, _ = homset_classes(dom, cod, guard=args.guard)
        payload["classes"] = len(classes)
        text = f"{len(terms)} terms, {len(classes)} classes"
    else:
        text = f"{len(terms)} terms"
    if args.list:
        payload["members"] = [format_term(t) for t in terms]
        text += "\n" + "\n".join(format_term(t) for t in terms)
    _emit(payload, text, args.json)
    return 0


def cmd_oracle_decide(args) -> int:
    left, right = _parallel(_load(args.file), args.left, args.right)
    eq = same_class(left.term, right.term, left.dom, left.cod, guard=args.guard)
    _emit({"verdict": "Equal" if eq else "NotEqual"}, "Equal" if eq else "NotEqual", args.json)
    return 0 if eq else 1


def cmd_oracle_class(args) -> int:
    ann = _cut_free(_load(args.file), args.term)
    cls = class_of(ann.term, ann.dom, ann.cod, guard=args.guard)
    members = sorted(cls.members, key=term_sort_key)
    _emit({"size": len(members), "canonical": format_term(cls.canonical),
           "members": [format_term(m) for m in members]},
          f"{len(members)} member(s), canonical: {format_term(cls.canonical)}\n"
          + "\n".join(format_term(m) for m in members), args.json)
    return 0


def _square_pair(args) -> tuple[Module, CardinalSquare, AnnotatedTerm, AnnotatedTerm]:
    """The file's module, the square of ``--x0 .. --a1`` and the
    cut-free ``--left`` and ``--right`` terms."""
    module = _load(args.file)
    square = CardinalSquare(parse_type(args.x0), parse_type(args.x1),
                            parse_type(args.a0), parse_type(args.a1))
    return module, square, _cut_free(module, args.left), _cut_free(module, args.right)


def cmd_oracle_path(args) -> int:
    module, square, left, right = _square_pair(args)
    path = cardinal_path(square, left.term, right.term, (left.dom, left.cod),
                         (right.dom, right.cod), module.graph, guard=args.guard)
    if path is None:
        _emit({"connected": False}, "no path", args.json)
        return 1
    desc = [f"corner {c}: {format_term(t)}" for c, t in zip(path.corners, path.terms)]
    _emit({"connected": True, "length": path.length,
           "terms": [format_term(t) for t in path.terms],
           "witnesses": [format_term(w) for w in path.witnesses]},
          f"path of length {path.length}\n" + "\n".join(desc), args.json)
    return 0


def cmd_oracle_bouncers(args) -> int:
    module, square, left, right = _square_pair(args)
    hs = find_bouncers(square, args.i, args.j, left.term, right.term,
                       module.graph, guard=args.guard)
    _emit({"bouncers": [format_term(h) for h in hs]},
          f"{len(hs)} bouncer(s)\n" + "\n".join(format_term(h) for h in hs), args.json)
    return 0


def cmd_bench(args) -> int:
    rows = bench_mod.run_bench(args.max_height)
    csv = bench_mod.bench_csv(rows)
    if args.csv:
        Path(args.csv).write_text(csv, encoding="utf-8")
        print(f"wrote {args.csv}")
    else:
        print(csv, end="")
    return 0


# -- wiring -------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="sigmapi", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, fn, file=True, pair=False, square=False, guard=False):
        """Declare the shared flags that apply to ``sp``; it runs ``fn``."""
        if file:
            sp.add_argument("file", help=".spt declaration file")
        sp.add_argument("--json", action="store_true")
        if square:
            for flag in ("--x0", "--x1", "--a0", "--a1"):
                sp.add_argument(flag, required=True)
        if pair:
            sp.add_argument("--left", required=True)
            sp.add_argument("--right", required=True)
        if guard:
            sp.add_argument("--guard", type=int, default=DEFAULT_GUARD)
        sp.set_defaults(fn=fn)
        return sp

    common(sub.add_parser("check", help="parse and typecheck a file"), cmd_check)

    d = common(sub.add_parser("decide", help="decide equality of named terms"), cmd_decide)
    d.add_argument("--left")
    d.add_argument("--right")
    d.add_argument("--pair", nargs=2, action="append", metavar=("L", "R"))
    d.add_argument("--witness", action="store_true")
    d.add_argument("--stats", action="store_true")

    c = common(sub.add_parser("compose", help="cut-eliminate a term"), cmd_compose)
    c.add_argument("--term", required=True)
    c.add_argument("--with", dest="with_", help="postcompose with another named term")

    a = common(sub.add_parser("annotate", help="per-node pointedness report"), cmd_annotate)
    a.add_argument("--term", required=True)

    f = common(sub.add_parser("factor", help="factor through an injection/projection"),
               cmd_factor)
    f.add_argument("--term", required=True)
    f.add_argument("--inj", type=int, choices=(0, 1))
    f.add_argument("--proj", type=int, choices=(0, 1))

    def enumerate_(sp):
        common(sp, cmd_enumerate, file=False, guard=True)
        sp.add_argument("-X", "--dom", required=True, help="domain type")
        sp.add_argument("-A", "--cod", required=True, help="codomain type")
        sp.add_argument("--classes", action="store_true")
        sp.add_argument("--list", action="store_true")

    enumerate_(sub.add_parser("enumerate", help="enumerate a homset"))

    osub = sub.add_parser("oracle", help="exact exponential oracle").add_subparsers(
        dest="oracle_cmd", required=True)
    common(osub.add_parser("decide"), cmd_oracle_decide, pair=True, guard=True)
    common(osub.add_parser("class"), cmd_oracle_class, guard=True).add_argument(
        "--term", required=True)
    enumerate_(osub.add_parser("enumerate"))
    common(osub.add_parser("path"), cmd_oracle_path, pair=True, square=True, guard=True)
    ob = common(osub.add_parser("bouncers"), cmd_oracle_bouncers, pair=True, square=True,
                guard=True)
    ob.add_argument("-i", type=int, choices=(0, 1), required=True)
    ob.add_argument("-j", type=int, choices=(0, 1), required=True)

    b = sub.add_parser("bench", help="balanced-type benchmark, CSV output")
    b.add_argument("--max-height", type=int, default=10)
    b.add_argument("--csv", help="write CSV here instead of stdout")
    b.set_defaults(fn=cmd_bench)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_PARSE
    except TypingError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return EX_TYPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_TYPE
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EX_GUARD
    except Exception as exc:  # a fault in the program, never a verdict
        first_line = (str(exc).splitlines() or [""])[0]
        print(f"internal error: {type(exc).__name__}: {first_line}", file=sys.stderr)
        return EX_INTERNAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
