"""Command-line front end.

Expression arguments are literal text, or ``@FILE`` to read the text from a
file.  Results go to stdout, diagnostics to stderr.  Exit status: 0 on
success (for ``aeq``: the terms are equivalent; for ``check``: no law
failed), 1 for a false ``aeq`` or a failed law, 2 for bad input (including a
term nested too deeply for the recursive core).  Output is plain text;
NES_COLOR=0 is accepted for compatibility but no styling is emitted either
way.
"""

from __future__ import annotations

import argparse
import sys

from .alpha import aeq, canonicalize, render_canonical
from .atoms import Atom, parse_atom
from .msubst import msubst
from .parser import ParseError, eval_meta, parse
from .properties import (
    PROPERTY_NAMES,
    GenConfig,
    PropertyReport,
    run_property,
)
from .term import Term, fv_nom, render, swap


def _read_arg(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as handle:
            return handle.read()
    return text


def _term_arg(text: str) -> Term:
    return eval_meta(parse(_read_arg(text)))


def _cmd_parse(args: argparse.Namespace) -> int:
    print(render(_term_arg(args.expr)))
    return 0


def _cmd_fv(args: argparse.Namespace) -> int:
    for atom in sorted(fv_nom(_term_arg(args.expr)), key=Atom.sort_key):
        print(atom)
    return 0


def _cmd_swap(args: argparse.Namespace) -> int:
    t = _term_arg(args.expr)
    print(render(swap(parse_atom(args.x), parse_atom(args.y), t)))
    return 0


def _cmd_subst(args: argparse.Namespace) -> int:
    u = _term_arg(args.replacement)
    t = _term_arg(args.target)
    print(render(msubst(t, u, parse_atom(args.x))))
    return 0


def _cmd_aeq(args: argparse.Namespace) -> int:
    equivalent = aeq(_term_arg(args.expr1), _term_arg(args.expr2))
    print("true" if equivalent else "false")
    return 0 if equivalent else 1


def _cmd_canon(args: argparse.Namespace) -> int:
    print(render_canonical(canonicalize(_term_arg(args.expr))))
    return 0


def _text_lines(report: PropertyReport) -> list[str]:
    status = "ok  " if report.failures == 0 else "FAIL"
    lines = [
        f"{status} {report.name:<26} cases={report.cases_run} "
        f"failures={report.failures} seed={report.seed}"
    ]
    if report.counterexample is not None:
        lines.append("     counterexample:")
        lines.extend(f"       {k} = {v}" for k, v in report.counterexample)
    return lines


def _cmd_check(args: argparse.Namespace) -> int:
    names = args.lemma or list(PROPERTY_NAMES)
    unknown = [n for n in names if n not in PROPERTY_NAMES]
    if unknown:
        print(
            f"unknown lemma {unknown[0]!r}; valid names: {', '.join(PROPERTY_NAMES)}",
            file=sys.stderr,
        )
        return 2
    pool = tuple(parse_atom(part.strip()) for part in args.pool.split(","))
    config = GenConfig(
        max_size=args.max_size, atom_pool=pool, seed=args.seed, cases=args.cases
    )
    # term operations recurse to roughly the term depth
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * config.max_size + 1000))
    failed = False
    for name in names:
        report = run_property(name, config)
        lines = report.tsv_lines() if args.format == "tsv" else _text_lines(report)
        print("\n".join(lines))
        if report.failures:
            failed = True
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nes",
        description="Nominal terms with an explicit substitution operator: "
        "parse, swap, substitute, decide alpha-equivalence, and check the "
        "law catalogue.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and echo the canonical rendering")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("fv", help="free atoms, one per line, in canonical order")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_fv)

    p = sub.add_parser("swap", help="exchange two atoms everywhere in a term")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_swap)

    p = sub.add_parser(
        "subst", help="capture-avoiding substitution {x := u} t"
    )
    p.add_argument("x", help="variable to replace")
    p.add_argument("replacement", help="replacement term u")
    p.add_argument("target", help="target term t")
    p.set_defaults(func=_cmd_subst)

    p = sub.add_parser("aeq", help="decide alpha-equivalence of two terms")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(func=_cmd_aeq)

    p = sub.add_parser("canon", help="nameless canonical form (#k binds)")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("check", help="run the named laws (default: all)")
    p.add_argument(
        "--lemma",
        action="append",
        metavar="NAME",
        help="law to check; repeatable",
    )
    p.add_argument("--cases", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-size", type=int, default=20)
    p.add_argument("--pool", default="x,y,z,w,v", metavar="a,b,c")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=_cmd_check)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(str(err), file=sys.stderr)
        return 2
    except RecursionError:
        print("term nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
