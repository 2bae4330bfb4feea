"""Command-line front end.

Expression arguments are literal text, or ``@FILE`` to read the text from a
file.  Results go to stdout, diagnostics to stderr.  Exit status: 0 on
success (for ``aeq``: the terms are equivalent; for ``check``: no law
failed; for ``-h``/``--help``: the usage, on stdout), 1 for a false ``aeq``
or a failed law, 2 for bad input (including a term nested too deeply for the
recursive core, and a command line that fits no command, after the usage on
stderr).  ``main`` returns the status and never raises ``SystemExit``.
Output is plain text.
"""

from __future__ import annotations

import sys

from .alpha import aeq, canonicalize, render_canonical
from .atoms import Atom, parse_atom
from .msubst import msubst
from .parser import ParseError, eval_meta, parse
from .properties import PROPERTY_NAMES, GenConfig, UnknownPropertyError, run_property
from .term import Term, fv_nom, render, swap


def _term_arg(text: str) -> Term:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as handle:
            text = handle.read()
    return eval_meta(parse(text))


def _cmd_parse(expr: str) -> int:
    print(render(_term_arg(expr)))
    return 0


def _cmd_fv(expr: str) -> int:
    for atom in sorted(fv_nom(_term_arg(expr)), key=Atom.sort_key):
        print(atom)
    return 0


def _cmd_swap(x: str, y: str, expr: str) -> int:
    t = _term_arg(expr)
    print(render(swap(parse_atom(x), parse_atom(y), t)))
    return 0


def _cmd_subst(x: str, replacement: str, target: str) -> int:
    u = _term_arg(replacement)
    t = _term_arg(target)
    print(render(msubst(t, u, parse_atom(x))))
    return 0


def _cmd_aeq(expr1: str, expr2: str) -> int:
    equivalent = aeq(_term_arg(expr1), _term_arg(expr2))
    print("true" if equivalent else "false")
    return 0 if equivalent else 1


def _cmd_canon(expr: str) -> int:
    print(render_canonical(canonicalize(_term_arg(expr))))
    return 0


def _cmd_check(lemma: tuple[str, ...] = (), pool: str | None = None,
               format: str = "text", **fields: int) -> int:
    if format not in ("text", "tsv"):
        raise _UsageError(f"--format takes text or tsv, not {format!r}")
    names = lemma or PROPERTY_NAMES
    for name in names:
        if name not in PROPERTY_NAMES:
            raise _UsageError(UnknownPropertyError(name))
    if pool is not None:
        fields["atom_pool"] = tuple(parse_atom(part.strip()) for part in pool.split(","))
    config = GenConfig(**fields)
    failures = 0
    for name in names:
        report = run_property(name, config)
        print("\n".join(report.lines(format)))
        failures += report.failures
    return 1 if failures else 0


_USAGE = """\
usage: nes parse EXPR            echo the canonical rendering
       nes fv EXPR               free atoms, one per line, in canonical order
       nes swap X Y EXPR         exchange two atoms everywhere in a term
       nes subst X U T           capture-avoiding substitution {X := U} T
       nes aeq EXPR1 EXPR2       alpha-equivalence (exit 1 if not)
       nes canon EXPR            nameless canonical form (#k binds)
       nes check [--lemma NAME]... [--cases 10000] [--seed 0] [--max-size 20]
                 [--pool x,y,z,w,v] [--format text|tsv]
An EXPR may be @FILE.  Options are spelled in full, as --name VALUE or
--name=VALUE; --lemma repeats, and otherwise the last value given wins.
"""


class _UsageError(Exception):
    """A command line that names no command, or does not fit its command."""


# command -> (positional parameters, handler)
_COMMANDS = {
    "parse": (("EXPR",), _cmd_parse),
    "fv": (("EXPR",), _cmd_fv),
    "swap": (("X", "Y", "EXPR"), _cmd_swap),
    "subst": (("X", "U", "T"), _cmd_subst),
    "aeq": (("EXPR1", "EXPR2"), _cmd_aeq),
    "canon": (("EXPR",), _cmd_canon),
    "check": ((), _cmd_check),
}
# check's options, each a keyword of _cmd_check -> how its value is read
_CHECK_OPTIONS = {"--lemma": str, "--cases": int, "--seed": int,
                  "--max-size": int, "--pool": str, "--format": str}
_HELP = ("-h", "--help")


def _parse_args(args: list[str]) -> tuple | None:
    """(handler, positionals, options) for a command line, or None when it
    asks for help."""
    if not args:
        raise _UsageError("no command given")
    command, *rest = args
    if command in _HELP:
        return None
    if command not in _COMMANDS:
        raise _UsageError(f"unknown command {command!r}")
    names, handler = _COMMANDS[command]
    known = _CHECK_OPTIONS if handler is _cmd_check else {}
    positionals, options = [], {}
    rest = iter(rest)
    for arg in rest:
        if arg == "--":
            positionals += rest
        elif arg in _HELP:
            return None
        elif arg.startswith("-") and arg != "-":
            option, eq, value = arg.partition("=")
            if option not in known:
                raise _UsageError(f"{command} has no option {option}")
            value = value if eq else next(rest, None)
            if value is None:
                raise _UsageError(f"{option} needs a value")
            try:
                value = known[option](value)
            except ValueError:
                raise _UsageError(f"{option} takes an integer, not {value!r}") from None
            key = option[2:].replace("-", "_")
            options[key] = (*options.get(key, ()), value) if key == "lemma" else value
        else:
            positionals.append(arg)
    if len(positionals) != len(names):
        raise _UsageError(f"{command} takes {' '.join(names) or 'no arguments'}")
    return handler, positionals, options


def main(argv: list[str] | None = None) -> int:
    try:
        call = _parse_args(sys.argv[1:] if argv is None else argv)
        if call is None:
            print(_USAGE, end="")
            return 0
        handler, positionals, options = call
        return handler(*positionals, **options)
    except _UsageError as err:
        print(f"{_USAGE}nes: error: {err}", file=sys.stderr)
        return 2
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
