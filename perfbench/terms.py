"""Seeded term inputs and reference operations, independent of the library.

Terms are drawn with ``random.Random`` and renamed, edited, printed and
substituted by the plain traversals below, so neither the inputs nor the
reference results depend on the library's generator, swapping or
substitution code.  Only ``Atom`` and the four term constructors come from
the library, through the ``lib`` namespace the caller passes in.

Every traversal here recurses once per term level.  The generators keep
depth far below the default recursion limit (see ``MAX_DEPTH`` and
``CHAIN_BINDERS``); the benchmark never raises that limit.
"""

from __future__ import annotations

import random

# Binder names: the release pool, so binders collide and shadow often.
BINDERS = ("x", "y", "z", "w", "v")
# Atoms that only ever occur free.  ``k`` is the variable the substitution
# workload replaces; no binder is named ``k``, so ``msubst`` crosses every
# binder of the target.
FREE = ("a", "b", "k")
SUBST_VAR = "k"
# Bases of names the benchmark invents; no generated term contains them.
VARIANT_BASE = "n"
REFERENCE_BASE = "r"
CHANGED_LEAF = "q"

# Random terms stay this shallow (levels), so the library's recursive
# operations and the parser (up to three frames per level) stay far from
# the default recursion limit of 1000.
MAX_DEPTH = 100
# Largest randomly shaped subterm of a generated term.
PIECE = 100
# Binder chains: deep enough to show the quadratic swap rule, shallow
# enough that aeq plus its nested swap complete under the default limit.
CHAIN_BINDERS = 150
CHAIN_BODY = 150


class TermKit:
    """Generators, renamings, a printer and a reference substitution over
    the library's term constructors."""

    def __init__(self, lib):
        self.Atom = lib.Atom
        self.Var, self.Abs, self.App, self.ESub = lib.Var, lib.Abs, lib.App, lib.ESub
        self.binders = [lib.Atom(b) for b in BINDERS]
        self.free = [lib.Atom(f) for f in FREE]

    # ------------------------------------------------------------------
    # Generation

    def random_term(self, rng: random.Random, n: int) -> object:
        """A term of exactly ``n`` nodes.

        Subterms of at most PIECE nodes are drawn at random.  Above that
        size the shape is fixed: levels cycle through an abstraction, an
        even application split and an even explicit-substitution split.
        Every large term then has the same top, and the cost of an
        operation varies with the random pieces, averaged over many of
        them, instead of with one lucky binder over a huge body.

        Leaves mostly name one of the four innermost binders in scope, so
        renaming a binder changes many leaves; the rest are free atoms.
        """
        Var, Abs, App, ESub = self.Var, self.Abs, self.App, self.ESub
        binders, free = self.binders, self.free
        scope: list = []

        def leaf():
            if scope and rng.random() < 0.8:
                return Var(scope[-1 - rng.randrange(min(4, len(scope)))])
            return Var(rng.choice(free))

        def go(n: int, depth: int):
            if n == 1:
                return leaf()
            if n > PIECE:
                r = (0.0, 0.5, 0.9)[depth % 3]  # Abs, App, ESub
            else:
                r = rng.random()
            if n == 2 or (r < 0.3 and depth < MAX_DEPTH):
                b = rng.choice(binders)
                scope.append(b)
                body = go(n - 1, depth + 1)
                scope.pop()
                return Abs(b, body)
            if n > PIECE or depth >= MAX_DEPTH:
                left = (n - 1) // 2
            else:
                left = 1 + rng.randrange(n - 2)
            right = n - 1 - left
            if r < 0.8:
                return App(go(left, depth + 1), go(right, depth + 1))
            arg = go(right, depth + 1)
            b = rng.choice(binders)
            scope.append(b)
            body = go(left, depth + 1)
            scope.pop()
            return ESub(body, b, arg)

        return go(n, 0)

    def chain(self, rng: random.Random) -> object:
        """CHAIN_BINDERS nested abstractions over a random body."""
        t = self.random_term(rng, CHAIN_BODY)
        binders = [rng.choice(self.binders) for _ in range(CHAIN_BINDERS)]
        for b in reversed(binders):
            t = self.Abs(b, t)
        return t

    def spine(self, atoms: list) -> object:
        """The left-nested application ``a1 a2 ... an``."""
        t = self.Var(atoms[0])
        for a in atoms[1:]:
            t = self.App(t, self.Var(a))
        return t

    # ------------------------------------------------------------------
    # Renaming and editing

    def rename_apart(self, t, base: str) -> object:
        """``t`` with every binder renamed to a distinct ``base<i>``; the
        result is alpha-equivalent to ``t`` as long as ``base`` occurs
        nowhere in it."""
        Atom, Var, Abs, App, ESub = self.Atom, self.Var, self.Abs, self.App, self.ESub
        env: dict = {}
        count = [0]

        def bind(x):
            new = Atom(base, count[0])
            count[0] += 1
            saved = env.get(x)
            env[x] = new
            return new, saved

        def unbind(x, saved):
            if saved is None:
                del env[x]
            else:
                env[x] = saved

        def go(t):
            tp = type(t)
            if tp is Var:
                return Var(env.get(t.atom, t.atom))
            if tp is App:
                return App(go(t.fun), go(t.arg))
            if tp is Abs:
                new, saved = bind(t.binder)
                body = go(t.body)
                unbind(t.binder, saved)
                return Abs(new, body)
            if tp is ESub:
                arg = go(t.arg)
                new, saved = bind(t.binder)
                body = go(t.body)
                unbind(t.binder, saved)
                return ESub(body, new, arg)
            raise TypeError(f"not a term: {t!r}")

        return go(t)

    def change_last_leaf(self, t) -> object:
        """``t`` with the leaf that ``aeq`` compares last (down applications'
        arguments and binders' bodies) replaced by the atom CHANGED_LEAF,
        which occurs nowhere else.  The result is never alpha-equivalent to
        ``t``, and deciding so walks the whole pair, as an equal pair would.
        """
        Var, Abs, App, ESub = self.Var, self.Abs, self.App, self.ESub

        def go(t):
            tp = type(t)
            if tp is Var:
                return Var(self.Atom(CHANGED_LEAF))
            if tp is Abs:
                return Abs(t.binder, go(t.body))
            if tp is App:
                return App(t.fun, go(t.arg))
            return ESub(go(t.body), t.binder, t.arg)

        return go(t)

    # ------------------------------------------------------------------
    # Printing and reference substitution

    def text(self, t) -> str:
        """Concrete syntax with the layout the library documents: single
        spaces, parentheses only around binder forms used as applicands and
        applications used as arguments."""
        Var, Abs, App = self.Var, self.Abs, self.App
        out: list[str] = []

        # ctx: 0 = unconstrained, 1 = function position, 2 = argument
        def go(t, ctx: int):
            tp = type(t)
            if tp is Var:
                out.append(str(t.atom))
                return
            paren = ctx == 2 if tp is App else ctx >= 1
            if paren:
                out.append("(")
            if tp is App:
                go(t.fun, 1)
                out.append(" ")
                go(t.arg, 2)
            elif tp is Abs:
                out.append(f"\\{t.binder}. ")
                go(t.body, 0)
            else:
                out.append(f"[{t.binder} := ")
                go(t.arg, 0)
                out.append("] ")
                go(t.body, 0)
            if paren:
                out.append(")")

        go(t, 0)
        return "".join(out)

    def subst_reference(self, t, u, x) -> object:
        """``{x := u} t`` by renaming every binder of ``t`` apart first, after
        which plain replacement of the free ``x`` cannot capture."""
        Var, Abs, App, ESub = self.Var, self.Abs, self.App, self.ESub

        def go(t):
            tp = type(t)
            if tp is Var:
                return u if t.atom == x else t
            if tp is App:
                return App(go(t.fun), go(t.arg))
            if tp is Abs:
                return Abs(t.binder, go(t.body))
            return ESub(go(t.body), t.binder, go(t.arg))

        return go(self.rename_apart(t, REFERENCE_BASE))
