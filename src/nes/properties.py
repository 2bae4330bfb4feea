"""Random term generation and the executable catalogue of term-calculus laws.

Everything here is deterministic: a generated term is a pure function of
(seed, stream position), and a report is a pure function of (law name,
configuration).  Laws with hypotheses use generate-and-repair (offending
atoms are swapped out or replaced by fresh ones), and the repaired inputs
are re-checked against the hypothesis before the conclusion is evaluated,
so a broken repair fails loudly instead of weakening the law.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterable, Iterator, Sequence

from .alpha import aeq, canonicalize
from .atoms import Atom, _typed, atoms_of, fresh
from .parser import Lit, parse
from .term import (
    _LEAVES,
    Abs,
    ESub,
    Term,
    _Record,
    _abs,
    _app,
    _esub,
    _fill,
    free_in,
    fv_nom,
    permute,
    render,
    size,
    swap,
    vswap,
)
from .msubst import msubst

DEFAULT_POOL: tuple[Atom, ...] = (
    Atom("x"), Atom("y"), Atom("z"), Atom("w"), Atom("v"),
)

_M64 = (1 << 64) - 1

# Node budget of a config's term memo.  A stored term holds at most
# max_size nodes: about 59 B for each inner node, masks included, and
# nothing for a leaf, which is its atom's one shared ``Var`` (about 39 B a
# node on average at max size 20).  Its dict slot, key and share of the
# dict's spare room cost about one inner node more, and the budget counts
# each entry as max_size + _ENTRY_NODES nodes.  Filled to its limit, the
# memo measured 10.6, 16.7, 22.6, 23.5, 18.2 and 10.6 MB at max size 1, 2,
# 5, 20, 100 and 1000 (tracemalloc): 5 is the smallest count at which no
# max size fills more than max size 20 (at 4, max size 5 filled 24.6 MB
# and max size 20 24.4 MB).  The default ``nes check`` reads 4 term slots
# per case over 10 000 cases at max size 20:
# 4 * 10_000 * (20 + _ENTRY_NODES) = 1 000 000 nodes.  Positions below
# _MEMO_NODES // (max_size + _ENTRY_NODES) are memoised, which covers that
# run completely and keeps the memo under one ceiling (about 24 MB) for
# any --cases or --max-size.
_ENTRY_NODES = 5
_MEMO_NODES = 4 * 10_000 * (20 + _ENTRY_NODES)


# splitmix64 (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
# Generators", OOPSLA 2014): the state steps by the golden gamma, and each
# output is the state through this finalizer.
_GAMMA = 0x9E3779B97F4A7C15


def _finalize(c: int) -> int:
    c ^= c >> 30
    c = (c * 0xBF58476D1CE4E5B9) & _M64
    c ^= c >> 27
    c = (c * 0x94D049BB133111EB) & _M64
    return c ^ (c >> 31)


class _Stream:
    """Deterministic 64-bit random stream: splitmix64 from a given state.

    Much cheaper to fork per case than reseeding a Mersenne generator, and
    its output is a pure function of the initial state.  Every random
    decision of a draw is one ``choose(n)``, so a ``_Tape`` can record and
    replay a whole case.
    """

    __slots__ = ("_counter",)

    def __init__(self, state: int):
        self._counter = state

    def choose(self, n: int) -> int:
        """A choice in ``range(n)``: the next 64-bit output modulo ``n``."""
        self._counter = c = (self._counter + _GAMMA) & _M64
        return _finalize(c) % n


class _Tape(_Stream):
    """A list of choices.  Over a ``source`` stream it records the source's
    choices; without one it replays its own, and a choice past the end of
    the list, or one not below ``n``, reads 0.  ``read`` counts choices."""

    __slots__ = ("choices", "read", "_source")

    def __init__(self, choices: list[int], source: _Stream | None = None):
        self.choices, self.read, self._source = choices, 0, source

    def choose(self, n: int) -> int:
        i, self.read = self.read, self.read + 1
        if self._source is not None:
            self.choices.append(self._source.choose(n))
        c = self.choices[i] if i < len(self.choices) else 0
        return c if c < n else 0


def _mix(a: int, b: int) -> int:
    # the first output of a stream started at a * gamma + b - gamma; keeps
    # streams independent without salted hashing
    return _finalize((a * _GAMMA + b) & _M64)


def _pool(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    """``atoms`` as an atom pool: a nonempty tuple of atoms."""
    pool = tuple(atoms)
    for a in pool:
        if type(a) is not Atom:
            raise ValueError(f"atom_pool must hold atoms, not {type(a).__name__}")
    if not pool:
        raise ValueError("atom_pool must be nonempty")
    return pool


# the integer check of GenConfig and enumerate_terms, worded once
def _int(name: str, value: object) -> None:
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {type(value).__name__}")


class GenConfig(_Record):
    """Parameters for term generation and law checking.

    A config memoises the terms ``gen_term`` draws from it, below a node
    budget, so every law checked on one config object shares one
    generation; the memo takes no part in ``==``, ``hash`` or ``repr``, and
    ``replace`` starts a new, empty one.  The memo fills to its budget even
    when no second law reads it: ``nes check --lemma swap_id --cases
    100000`` peaks at 23.5 MB, against 17.4 MB without a memo."""

    __slots__ = ("max_size", "atom_pool", "seed", "cases", "_terms")
    __match_args__ = ("max_size", "atom_pool", "seed", "cases")
    max_size: int
    atom_pool: tuple[Atom, ...]
    seed: int
    cases: int
    _terms: dict

    def __init__(
        self,
        max_size: int = 20,
        atom_pool: Iterable[Atom] = DEFAULT_POOL,
        seed: int = 0,
        cases: int = 10_000,
    ) -> None:
        for name, value in (("max_size", max_size), ("seed", seed), ("cases", cases)):
            _int(name, value)
        atom_pool = _pool(atom_pool)
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        if not 0 <= seed <= _M64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if cases < 1:
            raise ValueError("cases must be at least 1")
        _fill(self, max_size, atom_pool, seed, cases)
        object.__setattr__(self, "_terms", {})

    def replace(self, **changes: object) -> GenConfig:
        """A config with ``changes`` to its fields, validated as a new one
        is, and with an empty memo."""
        fields = {f: getattr(self, f) for f in self.__match_args__}
        return GenConfig(**{**fields, **changes})


_config = _typed((GenConfig,), "a GenConfig")
_position = _typed((int,), "a position")


class PropertyReport(_Record):
    """Outcome of checking one named law."""

    __slots__ = __match_args__ = (
        "name", "cases_run", "failures", "seed", "counterexample"
    )
    name: str
    cases_run: int
    failures: int
    seed: int
    counterexample: tuple[tuple[str, str], ...] | None

    def __init__(self, name: str, cases_run: int, failures: int, seed: int,
                 counterexample: tuple[tuple[str, str], ...] | None = None) -> None:
        _fill(self, name, cases_run, failures, seed, counterexample)

    def lines(self, format: str = "tsv") -> list[str]:
        """The report as ``tsv`` or ``text`` lines: the law's name, cases
        run, failures and seed, then any counterexample, one input a line."""
        if format == "tsv":
            lines = [f"{self.name}\t{self.cases_run}\t{self.failures}\t{self.seed}"]
            margin = "#"
        elif format == "text":
            status = "ok  " if self.failures == 0 else "FAIL"
            lines = [f"{status} {self.name:<26} cases={self.cases_run} "
                     f"failures={self.failures} seed={self.seed}"]
            margin = "    "
        else:
            raise ValueError(f"format must be text or tsv, not {format!r}")
        if self.counterexample is not None:
            lines.append(f"{margin} counterexample:")
            lines.extend(f"{margin}   {k} = {v}" for k, v in self.counterexample)
        return lines

    # called by perfbench/workloads.py, which changes only with the benchmark
    tsv_lines = lines


class UnknownPropertyError(ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"unknown lemma {name!r}; valid names: {', '.join(PROPERTY_NAMES)}"
        )


def gen_term(config: GenConfig, position: int) -> Term:
    """Deterministic random term: size at most ``config.max_size``, atoms
    drawn uniformly from the pool (small pools force binder collisions).

    Each term is computed once per config object and then returned from
    its memo, for positions below a fixed node budget (``_MEMO_NODES``,
    counting each term as ``max_size`` nodes plus its entry's overhead);
    later positions are generated afresh."""
    terms = _config(config)._terms
    t = terms.get(_position(position))
    if t is None:
        t = _gen(_Stream(_mix(config.seed, position)), config.max_size, config.atom_pool)
        if 0 <= position < _MEMO_NODES // (config.max_size + _ENTRY_NODES):
            terms[position] = t
    return t


# ``pool`` is a config's atom pool, whose atoms ``GenConfig`` has checked
def _gen(rng: _Stream, budget: int, pool: Sequence[Atom]) -> Term:
    n = len(pool)
    if budget <= 1:
        return _LEAVES[pool[rng.choose(n)]]
    if budget == 2:
        if rng.choose(4) == 0:
            return _LEAVES[pool[rng.choose(n)]]
        return _abs(pool[rng.choose(n)], _LEAVES[pool[rng.choose(n)]])
    # weights 1 : 3 : 3 : 3 keep leaves rare, so the expected size tracks
    # the budget
    r = rng.choose(10)
    if r == 0:
        return _LEAVES[pool[rng.choose(n)]]
    if r <= 3:
        return _abs(pool[rng.choose(n)], _gen(rng, budget - 1, pool))
    left = 1 + rng.choose(budget - 2)
    right = budget - 1 - left
    if r <= 6:
        return _app(_gen(rng, left, pool), _gen(rng, right, pool))
    return _esub(_gen(rng, left, pool), pool[rng.choose(n)], _gen(rng, right, pool))


def enumerate_terms(max_size: int, pool: Iterable[Atom]) -> list[Term]:
    """Every term of size at most ``max_size`` over ``pool``, smallest
    first.  Intended for exhaustive cross-checks at small sizes.  ``pool``
    is checked as ``GenConfig`` checks its atom pool."""
    _int("max_size", max_size)
    pool = _pool(pool)
    if max_size < 1:
        return []
    by_size: list[list[Term]] = [[], [_LEAVES[a] for a in pool]]
    for n in range(2, max_size + 1):
        bucket: list[Term] = []
        bucket.extend(_abs(a, t) for a in pool for t in by_size[n - 1])
        for i in range(1, n - 1):
            bucket.extend(
                _app(f, g) for f in by_size[i] for g in by_size[n - 1 - i]
            )
            bucket.extend(
                _esub(b, a, u)
                for b in by_size[i]
                for a in pool
                for u in by_size[n - 1 - i]
            )
        by_size.append(bucket)
    return [t for bucket in by_size[1:] for t in bucket]


# --------------------------------------------------------------------------
# Input drawing


class _Draw:
    """Hands one case its random inputs.  Terms come from the shared
    generation stream (4 slots per case); atoms, coins and candidate picks
    come from a per-(law, case) stream, seeded from the law's state, which
    is computed once per law.  ``replay`` takes every choice from tapes
    instead, which is how ``_shrink`` records and edits a case."""

    _STRIDE = 4

    def __init__(self, config: GenConfig, name_digest: int, case: int):
        self.config = config
        self._law = _mix(config.seed, name_digest)
        self.start(case)

    def start(self, case: int) -> _Draw:
        """Move on to ``case``: its own atom stream and term slots."""
        self.rng = _Stream(_mix(self._law, case))
        self._base = case * self._STRIDE
        self._slot = 0
        self._tapes: Iterator[_Tape] | None = None
        return self

    def record(self, case: int) -> list[_Tape]:
        """Tapes that record ``case`` while ``replay`` draws it."""
        self.start(case)
        return [_Tape([], self.rng)] + [
            _Tape([], _Stream(_mix(self.config.seed, self._base + slot)))
            for slot in range(self._STRIDE)
        ]

    def replay(self, tapes: list[_Tape]) -> _Draw:
        """Draw from ``tapes``, the atom tape and then one per term slot,
        building terms afresh; ``start`` leaves this mode."""
        self.rng, self._tapes = tapes[0], iter(tapes[1:])
        return self

    def term(self) -> Term:
        if self._tapes is not None:
            return _gen(next(self._tapes), self.config.max_size, self.config.atom_pool)
        t = gen_term(self.config, self._base + self._slot)
        self._slot += 1
        return t

    def atom(self) -> Atom:
        pool = self.config.atom_pool
        return pool[self.rng.choose(len(pool))]


def _distinct_from(a: Atom, b: Atom) -> Atom:
    """``b`` itself, or a deterministic replacement differing from ``a``."""
    if b is not a:
        return b
    return fresh(a._bit, b)


def _swap_out(t: Term, a: Atom) -> Term:
    """A term alpha-equal in shape to ``t`` in which ``a`` is not free
    (``a`` is swapped with an entirely fresh atom when necessary)."""
    if not free_in(a, t):
        return t
    c = fresh(t._atoms, a)  # a is free in t, so it occurs in t
    return swap(a, c, t)


def _not_free(d: _Draw, free: int, atoms: int) -> Atom:
    """An atom that is not free in a term with free-atom mask ``free`` and
    occurring-atom mask ``atoms``: a random pick among the pool's atoms and
    then the bound ones, none of them free, when there are any, otherwise
    one fresh for ``atoms`` (an alpha-variant drawer passes the masks of
    the variant it has built so far)."""
    candidates = [a for a in d.config.atom_pool if not free & a._bit]
    rest = atoms & ~free
    for a in candidates:
        rest &= ~a._bit
    if rest:
        # a mask has no order; sorting keeps what a seed draws
        candidates.extend(sorted(atoms_of(rest), key=Atom.sort_key))
    if candidates:
        return candidates[d.rng.choose(len(candidates))]
    return fresh(atoms, d.config.atom_pool[0])


def _alpha_variant(d: _Draw, t: Term) -> Term:
    """Rename bound atoms of ``t`` by swapping atoms that are not free in
    it; the result is always alpha-equivalent to ``t``."""
    # Neither swapped atom is free in t, so its free atoms stay the same.
    # The swaps compose into back, which maps the variant's atoms to t's;
    # each swap rewrites only its own two entries, and flips the variant's
    # occurring-atom mask when exactly one of them occurs.  back's inverse
    # is applied once at the end.
    free, atoms = t._free, t._atoms
    back: dict[Atom, Atom] = {}
    for _ in range(1 + d.rng.choose(3)):
        x = _not_free(d, free, atoms)
        if d.rng.choose(2):
            y = fresh(atoms | x._bit, x)
        else:
            y = _not_free(d, free, atoms)
        back[x], back[y] = back.get(y, y), back.get(x, x)
        xy = x._bit | y._bit
        if atoms & xy not in (0, xy):  # exactly one of x, y occurs
            atoms ^= xy
    return permute({a: b for b, a in back.items()}, t)


def _variant_or_fresh(d: _Draw, t: Term) -> Term:
    return _alpha_variant(d, t) if d.rng.choose(2) else d.term()


def _pick_avoiding(d: _Draw, avoid: int) -> Atom:
    """An atom outside the mask ``avoid``: a pool atom when one qualifies,
    else a fresh one seeded by a random pool hint."""
    candidates = [a for a in d.config.atom_pool if not avoid & a._bit]
    if candidates:
        return candidates[d.rng.choose(len(candidates))]
    return fresh(avoid, d.atom())


def _not_free_in(d: _Draw, t: Term) -> Atom:
    """An atom that is not free in ``t``."""
    return _not_free(d, t._free, t._atoms)


# --------------------------------------------------------------------------
# The catalogue


class _Prop(_Record):
    __slots__ = __match_args__ = ("draw", "body", "pre")
    draw: Callable[[_Draw], dict]
    body: Callable[..., bool]
    pre: Callable[..., bool] | None

    def __init__(self, draw: Callable[[_Draw], dict], body: Callable[..., bool],
                 pre: Callable[..., bool] | None = None) -> None:
        _fill(self, draw, body, pre)


# Each law's ``draw`` takes one case's inputs from a ``_Draw``.  Terms and
# atoms come from independent streams, so only the order within each stream
# fixes what a seed draws; the dict's order is the counterexample's order.
# Drawers and helpers look up the library's names at call time, so tracing
# wrappers still see them: bind none of them early.


def _d_notin_remove_swap(d: _Draw) -> dict:
    # the repair is made inside the swapped term
    xp, x, y = d.atom(), d.atom(), d.atom()
    swapped = _swap_out(swap(x, y, d.term()), vswap(x, y, xp))
    return {"t": swap(x, y, swapped), "xp": xp, "x": x, "y": y}


def _d_abs_neq(d: _Draw) -> dict:
    t, u, x = d.term(), d.term(), d.atom()
    y = _distinct_from(x, d.atom())
    z = _pick_avoiding(d, u._free | Abs(y, t)._free | x._bit)
    return {"t": t, "u": u, "x": x, "y": y, "z": z}


def _d_sub_neq(d: _Draw) -> dict:
    t1, t2, u, x = d.term(), d.term(), d.term(), d.atom()
    y = _distinct_from(x, d.atom())
    z = _pick_avoiding(d, u._free | ESub(t1, y, t2)._free | x._bit)
    return {"t1": t1, "t2": t2, "u": u, "x": x, "y": y, "z": z}


def _d_m_subst_in(d: _Draw) -> dict:
    # u is the first term drawn, t the second, as a seed has always drawn them
    u, t = d.term(), d.term()
    return {"t": t, "u": u, "up": _alpha_variant(d, u), "x": d.atom()}


_CATALOGUE: dict[str, _Prop] = {
    "vswap_id": _Prop(
        lambda d: {"x": d.atom(), "y": d.atom()},
        lambda x, y: vswap(x, x, y) == y,
    ),
    "swap_id": _Prop(
        lambda d: {"x": d.atom(), "t": d.term()},
        lambda x, t: swap(x, x, t) == t,
    ),
    "swap_neq": _Prop(
        lambda d: {"x": d.atom(), "y": d.atom(),
                   "z": (z := d.atom()), "w": _distinct_from(z, d.atom())},
        lambda x, y, z, w: vswap(x, y, z) != vswap(x, y, w),
        pre=lambda x, y, z, w: z != w,
    ),
    "swap_size_eq": _Prop(
        lambda d: {"x": d.atom(), "y": d.atom(), "t": d.term()},
        lambda x, y, t: size(swap(x, y, t)) == size(t),
    ),
    "swap_symmetric": _Prop(
        lambda d: {"x": d.atom(), "y": d.atom(), "t": d.term()},
        lambda x, y, t: swap(x, y, t) == swap(y, x, t),
    ),
    "swap_involutive": _Prop(
        lambda d: {"x": d.atom(), "y": d.atom(), "t": d.term()},
        lambda x, y, t: swap(x, y, swap(x, y, t)) == t,
    ),
    "shuffle_swap": _Prop(
        # z is the first atom drawn
        lambda d: {"w": _distinct_from(z := d.atom(), d.atom()),
                   "y": _distinct_from(z, d.atom()), "z": z, "t": d.term()},
        lambda w, y, z, t: swap(w, y, swap(y, z, t)) == swap(w, z, swap(w, y, t)),
        pre=lambda w, y, z, t: w != z and y != z,
    ),
    "swap_equivariance": _Prop(
        lambda d: {"x": d.atom(), "y": d.atom(), "z": d.atom(), "w": d.atom(),
                   "t": d.term()},
        lambda x, y, z, w, t: swap(x, y, swap(z, w, t))
        == swap(vswap(x, y, z), vswap(x, y, w), swap(x, y, t)),
    ),
    "fv_nom_swap": _Prop(
        lambda d: {"z": (z := d.atom()), "y": d.atom(), "t": _swap_out(d.term(), z)},
        lambda z, y, t: y not in fv_nom(swap(y, z, t)),
        pre=lambda z, y, t: not free_in(z, t),
    ),
    "notin_fv_nom_equivariance": _Prop(
        lambda d: {"t": _swap_out(d.term(), xp := d.atom()), "xp": xp,
                   "x": d.atom(), "y": d.atom()},
        lambda t, xp, x, y: vswap(x, y, xp) not in fv_nom(swap(x, y, t)),
        pre=lambda t, xp, x, y: not free_in(xp, t),
    ),
    "notin_fv_nom_remove_swap": _Prop(
        _d_notin_remove_swap,
        lambda t, xp, x, y: xp not in fv_nom(t),
        pre=lambda t, xp, x, y: not free_in(vswap(x, y, xp), swap(x, y, t)),
    ),
    "aeq_refl": _Prop(
        lambda d: {"t": d.term()},
        lambda t: aeq(t, t),
    ),
    "aeq_sym": _Prop(
        lambda d: {"t1": (t1 := d.term()), "t2": _variant_or_fresh(d, t1)},
        lambda t1, t2: aeq(t1, t2) == aeq(t2, t1),
    ),
    "aeq_trans": _Prop(
        lambda d: {"t1": (t1 := d.term()), "t2": (t2 := _alpha_variant(d, t1)),
                   "t3": _alpha_variant(d, t2)},
        lambda t1, t2, t3: aeq(t1, t3),
        pre=lambda t1, t2, t3: aeq(t1, t2) and aeq(t2, t3),
    ),
    "aeq_size": _Prop(
        lambda d: {"t1": (t1 := d.term()), "t2": _alpha_variant(d, t1)},
        lambda t1, t2: size(t1) == size(t2),
        pre=lambda t1, t2: aeq(t1, t2),
    ),
    "aeq_fv_nom": _Prop(
        lambda d: {"t1": (t1 := d.term()), "t2": _alpha_variant(d, t1)},
        lambda t1, t2: fv_nom(t1) == fv_nom(t2),
        pre=lambda t1, t2: aeq(t1, t2),
    ),
    "aeq_swap": _Prop(
        lambda d: {"t1": (t1 := d.term()), "t2": _variant_or_fresh(d, t1),
                   "x": d.atom(), "y": d.atom()},
        lambda t1, t2, x, y: aeq(t1, t2) == aeq(swap(x, y, t1), swap(x, y, t2)),
    ),
    "swap_reduction": _Prop(
        lambda d: {"t": (t := d.term()),
                   "x": _not_free_in(d, t), "y": _not_free_in(d, t)},
        lambda t, x, y: aeq(swap(x, y, t), t),
        pre=lambda t, x, y: not free_in(x, t) and not free_in(y, t),
    ),
    "aeq_swap_swap": _Prop(
        lambda d: {"t": (t := d.term()), "x": _not_free_in(d, t),
                   "y": d.atom(), "z": _not_free_in(d, t)},
        lambda t, x, y, z: aeq(swap(z, x, swap(x, y, t)), swap(z, y, t)),
        pre=lambda t, x, y, z: not free_in(z, t) and not free_in(x, t),
    ),
    "aeq_oracle": _Prop(
        lambda d: {"t1": (t1 := d.term()), "t2": _variant_or_fresh(d, t1)},
        lambda t1, t2: aeq(t1, t2) == (canonicalize(t1) == canonicalize(t2)),
    ),
    "m_subst_notin": _Prop(
        lambda d: {"t": _swap_out(d.term(), x := d.atom()), "u": d.term(), "x": x},
        lambda t, u, x: aeq(msubst(t, u, x), t),
        pre=lambda t, u, x: not free_in(x, t),
    ),
    "m_subst_abs_eq": _Prop(
        lambda d: {"t": d.term(), "u": d.term(), "x": d.atom()},
        lambda t, u, x: msubst(Abs(x, t), u, x) == Abs(x, t),
    ),
    "m_subst_sub_eq": _Prop(
        lambda d: {"t1": d.term(), "t2": d.term(), "u": d.term(), "x": d.atom()},
        lambda t1, t2, u, x: msubst(ESub(t1, x, t2), u, x)
        == ESub(t1, x, msubst(t2, u, x)),
    ),
    "m_subst_abs_neq": _Prop(
        _d_abs_neq,
        lambda t, u, x, y, z: aeq(
            msubst(Abs(y, t), u, x), Abs(z, msubst(swap(y, z, t), u, x))
        ),
        pre=lambda t, u, x, y, z: x != y
        and z != x
        and not free_in(z, u)
        and not free_in(z, Abs(y, t)),
    ),
    "m_subst_sub_neq": _Prop(
        _d_sub_neq,
        lambda t1, t2, u, x, y, z: aeq(
            msubst(ESub(t1, y, t2), u, x),
            ESub(msubst(swap(y, z, t1), u, x), z, msubst(t2, u, x)),
        ),
        pre=lambda t1, t2, u, x, y, z: x != y
        and z != x
        and not free_in(z, u)
        and not free_in(z, ESub(t1, y, t2)),
    ),
    "aeq_m_subst_in": _Prop(
        _d_m_subst_in,
        lambda t, u, up, x: aeq(msubst(t, u, x), msubst(t, up, x)),
        pre=lambda t, u, up, x: aeq(u, up),
    ),
    "aeq_m_subst_out": _Prop(
        lambda d: {"t": (t := d.term()), "tp": _alpha_variant(d, t),
                   "u": d.term(), "x": d.atom()},
        lambda t, tp, u, x: aeq(msubst(t, u, x), msubst(tp, u, x)),
        pre=lambda t, tp, u, x: aeq(t, tp),
    ),
    "aeq_m_subst_eq": _Prop(
        lambda d: {"t": (t := d.term()), "tp": _alpha_variant(d, t),
                   "u": (u := d.term()), "up": _alpha_variant(d, u), "x": d.atom()},
        lambda t, tp, u, up, x: aeq(msubst(t, u, x), msubst(tp, up, x)),
        pre=lambda t, tp, u, up, x: aeq(t, tp) and aeq(u, up),
    ),
    "swap_subst_rec_fun": _Prop(
        lambda d: {"x": d.atom(), "y": d.atom(), "z": d.atom(),
                   "t": d.term(), "u": d.term()},
        lambda x, y, z, t, u: aeq(
            swap(x, y, msubst(t, u, z)),
            msubst(swap(x, y, t), swap(x, y, u), vswap(x, y, z)),
        ),
    ),
    "m_subst_lemma": _Prop(
        lambda d: {"t1": d.term(), "t2": d.term(),
                   "t3": _swap_out(d.term(), x := d.atom()), "x": x,
                   "y": _distinct_from(x, d.atom())},
        lambda t1, t2, t3, x, y: aeq(
            msubst(msubst(t1, t2, x), t3, y),
            msubst(msubst(t1, t3, y), msubst(t2, t3, y), x),
        ),
        pre=lambda t1, t2, t3, x, y: x != y and not free_in(x, t3),
    ),
    "parse_roundtrip": _Prop(
        lambda d: {"t": d.term()},
        lambda t: parse(render(t)) == Lit(t),
    ),
}

PROPERTY_NAMES: tuple[str, ...] = tuple(_CATALOGUE)


# --------------------------------------------------------------------------
# Running and shrinking


def _holds(prop: _Prop, inputs: dict) -> bool:
    # an exception from the law's body is a failing case, not a crash of
    # the whole run
    try:
        return bool(prop.body(**inputs))
    except Exception:
        return False


def _draw_case(name: str, prop: _Prop, d: _Draw, case: int) -> dict:
    # the inputs d draws, re-checked against the law's hypothesis
    inputs = prop.draw(d)
    if prop.pre is not None and not prop.pre(**inputs):
        raise RuntimeError(
            f"input repair for {name} (case {case}) left its hypothesis unsatisfied"
        )
    return inputs


def run_property(name: str, config: GenConfig) -> PropertyReport:
    """Check the named law on ``config.cases`` drawn inputs.

    All cases are evaluated; the report counts every failure (a False
    conclusion or an exception from it) and carries the first (lowest
    stream position) counterexample, shrunk by ``_shrink``.
    """
    prop = _CATALOGUE.get(name)
    if prop is None:
        raise UnknownPropertyError(name)
    d = _Draw(_config(config), zlib.crc32(name.encode()), 0)
    failed = [
        case for case in range(config.cases)
        if not _holds(prop, _draw_case(name, prop, d.start(case), case))
    ]
    counterexample = None
    if failed:
        counterexample = tuple(
            (k, str(v) if isinstance(v, Atom) else render(v))
            for k, v in _shrink(name, prop, d, failed[0]).items()
        )
    return PropertyReport(name, config.cases, len(failed), config.seed, counterexample)


def _shrink(name: str, prop: _Prop, d: _Draw, case: int) -> dict:
    """The failing ``case``, shrunk by replaying smaller choices (MacIver and
    Donaldson, ECOOP 2020): each pass over its tapes deletes runs of 2^j,
    ..., 2, 1 choices from the end, sets one choice to 0 and halves one.  An
    edit is kept when its replay still fails, every tape cut to what that
    replay read, so the tapes only shrink in shortlex order, until a pass
    keeps nothing.  Repairs re-run, so the inputs meet the hypothesis."""
    tapes = d.record(case)
    inputs = _draw_case(name, prop, d.replay(tapes), case)
    best = [tape.choices for tape in tapes]
    kept = True

    def edit(k: int, i: int, j: int, values: list[int]) -> None:
        # best[k][i:j] = values, if they are smaller and the replay still fails
        nonlocal inputs, kept
        tape = best[k]
        if j > len(tape) or values >= tape[i:j]:
            return
        trial = [_Tape(other) for other in best]
        trial[k] = _Tape(tape[:i] + values + tape[j:])
        got = _draw_case(name, prop, d.replay(trial), case)
        if not _holds(prop, got):
            best[:] = [t.choices[: t.read] for t in trial]
            inputs, kept = got, True

    while kept:
        kept = False
        for k in range(len(best)):
            run = 1 << len(best[k]).bit_length()
            while run := run // 2:
                for i in range(len(best[k]) - run, -1, -1):
                    edit(k, i, i + run, [])
            for i in range(len(best[k])):
                edit(k, i, i + 1, [0])
                # halving rounds up, so it never repeats the edit to 0
                edit(k, i, i + 1, [(c + 1) // 2 for c in best[k][i : i + 1]])
    return inputs
