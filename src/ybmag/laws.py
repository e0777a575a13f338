"""Decidable checkers for every equational law on magmas, bi-magmas and R-maps.

No generic term rewriting: magma and bi-magma laws are loops over pairs or
triples.  A failing check returns the lexicographically first violating
input together with both evaluated sides, so a failure message is
self-contained and reproducible.

An R-map is checked on its dot and star tables, R(x, y) = (x.y, x*y).  Each
R-map equation (the six triple laws, involutive and unitary) is an entry of
one table of chain pieces over pairs or triples, run by one loop and by one
array evaluator on a stack of dot and star tables; a chain step reads both
tables at one cell.  Nondegeneracy is row injectivity of the two tables and
their transposes.  ``check_bimagma_laws_batch`` checks every R-map law on
census stacks.  On carriers of ``_NUMPY_CUTOFF`` = 24 points or more,
``check_rmap_law`` runs the array evaluator on a one-table stack for the
triple laws, and the right and left Plonka laws run their own masks, to find
the first failing triple; the loop is re-run there, so both paths give the
same witness.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Optional

import numpy as np

from .core import (BiMagma, CayleyTable, CrossCheckFailed, RMap, Verdict, Witness,
                   VERDICT_OK, canonical_correspondence)

# From this carrier size the Plonka and R-map triple laws run vectorised; below
# it the loop is faster, since a failing input usually exits at its first
# triple.
_NUMPY_CUTOFF = 24
_SLAB_TRIPLES = 1 << 13  # triples per vectorised slab, which bounds its memory


class RMapLaw(enum.Enum):
    YANG_BAXTER = "yang_baxter"
    BRAID = "braid"
    LONG = "long"
    COMMUTATIVE = "commutative"
    COCOMMUTATIVE = "cocommutative"
    BLS = "bls"
    UNITARY = "unitary"
    INVOLUTIVE = "involutive"
    DIAGONAL = "diagonal"
    LEFT_RIGHT_NONDEGENERATE = "left_right_nondegenerate"
    RIGHT_LEFT_NONDEGENERATE = "right_left_nondegenerate"


class MagmaLaw(enum.Enum):
    RIGHT_PLONKA = "right_plonka"
    LEFT_PLONKA = "left_plonka"
    TWO_CYCLIC = "two_cyclic"
    K_CYCLIC = "k_cyclic"
    BAND = "band"
    RIGHT_INVOLUTORY = "right_involutory"
    LEFT_INVOLUTORY = "left_involutory"
    ASSOCIATIVE = "associative"
    COMMUTATIVE = "commutative"
    LEFT_CANCELLATIVE = "left_cancellative"
    RIGHT_CANCELLATIVE = "right_cancellative"
    LEFT_QUASIGROUP = "left_quasigroup"
    RIGHT_QUASIGROUP = "right_quasigroup"
    TOTAL = "total"


class BiMagmaLaw(enum.Enum):
    PLONKA_BIMAGMA = "plonka_bimagma"
    UNITARY_PLONKA_BIMAGMA = "unitary_plonka_bimagma"
    YANG_BAXTER_BIMAGMA = "yang_baxter_bimagma"
    SKEW_LEFT_BRACE = "skew_left_brace"
    LYUBASHENKO_FORM = "lyubashenko_form"


def _verdict(witness: Optional[Witness]) -> Verdict:
    return VERDICT_OK if witness is None else Verdict(False, witness)


def _vectorised_witness(n: int, slab_mask, loop_at) -> Optional[Witness]:
    """The loop path's witness, found vectorised.  ``slab_mask(lo, hi)`` is
    the failure mask, indexed [x - lo, y, z], of the triples with lo <= x <
    hi.  Slabs of about ``_SLAB_TRIPLES`` triples are walked in
    lexicographic order up to the first with a failure; ``loop_at(triple)``
    then re-runs the loop at the first failing triple, so the witness, its
    kind and its plain-int values are the loop's."""
    step = max(1, _SLAB_TRIPLES // (n * n))
    for lo in range(0, n, step):
        bad = slab_mask(lo, min(n, lo + step)).reshape(-1)
        if bad.any():
            i = int(bad.argmax())
            triple = (lo + i // (n * n), i // n % n, i % n)
            w = loop_at(triple)
            if w is None or w.inputs != triple:
                raise CrossCheckFailed(f"vectorised and loop checks disagree at {triple}")
            return w
    return None


# ---------------------------------------------------------------------------
# magma laws


def _right_plonka(t) -> Optional[Witness]:
    n = len(t)
    if n < _NUMPY_CUTOFF:
        return _right_plonka_rows(t, range(n))
    a = np.asarray(t, dtype=np.int32)

    def mask(lo, hi):                             # (x.y).z = (x.z).y, x.(y.z) = x.y
        xs = a[lo:hi]
        assoc = a[xs]
        return (assoc != assoc.transpose(0, 2, 1)) | (xs[:, a] != xs[:, :, None])
    # the loop over the first failing row stops at the first failing triple
    return _vectorised_witness(n, mask, lambda triple: _right_plonka_rows(t, triple[:1]))


def _right_plonka_rows(t, rows) -> Optional[Witness]:
    n = len(t)
    for x in rows:
        tx = t[x]
        for y in range(n):
            xy = tx[y]
            for z in range(n):
                if t[xy][z] != t[tx[z]][y]:
                    return Witness("right_commutation", (x, y, z), t[xy][z], t[tx[z]][y])
                if tx[t[y][z]] != xy:
                    return Witness("right_reduction", (x, y, z), tx[t[y][z]], xy)
    return None


def _left_plonka(t) -> Optional[Witness]:
    n = len(t)
    if n < _NUMPY_CUTOFF:
        return _left_plonka_rows(t, range(n))
    a = np.asarray(t, dtype=np.int32)

    def mask(lo, hi):                             # x.(y.z) = y.(x.z), (x.y).z = y.z
        xs = a[lo:hi]
        return (xs[:, a] != a[:, xs].transpose(1, 0, 2)) | (a[xs] != a)
    return _vectorised_witness(n, mask, lambda triple: _left_plonka_rows(t, triple[:1]))


def _left_plonka_rows(t, rows) -> Optional[Witness]:
    n = len(t)
    for x in rows:
        tx = t[x]
        for y in range(n):
            ty = t[y]
            for z in range(n):
                if tx[ty[z]] != ty[tx[z]]:
                    return Witness("left_commutation", (x, y, z), tx[ty[z]], ty[tx[z]])
                if t[tx[y]][z] != ty[z]:
                    return Witness("left_reduction", (x, y, z), t[tx[y]][z], ty[z])
    return None


def _band(t) -> Optional[Witness]:
    for x in range(len(t)):
        if t[x][x] != x:
            return Witness("band", (x,), t[x][x], x)
    return None


def _k_cyclic(t, k: int) -> Optional[Witness]:
    n = len(t)
    for x in range(n):
        for y in range(n):
            v = x
            for _ in range(k):
                v = t[v][y]
            if v != x:
                return Witness(f"k_cyclic[{k}]", (x, y), v, x)
    return None


def _left_involutory(t) -> Optional[Witness]:
    n = len(t)
    for x in range(n):
        tx = t[x]
        for y in range(n):
            if tx[tx[y]] != y:
                return Witness("left_involutory", (x, y), tx[tx[y]], y)
    return None


def _associative(t) -> Optional[Witness]:
    n = len(t)
    for x in range(n):
        tx = t[x]
        for y in range(n):
            xy = tx[y]
            ty = t[y]
            for z in range(n):
                if t[xy][z] != tx[ty[z]]:
                    return Witness("associative", (x, y, z), t[xy][z], tx[ty[z]])
    return None


def _commutative(t) -> Optional[Witness]:
    n = len(t)
    for x in range(n):
        for y in range(x + 1, n):
            if t[x][y] != t[y][x]:
                return Witness("commutative", (x, y), t[x][y], t[y][x])
    return None


def _row_injective(t, kind: str) -> Optional[Witness]:
    n = len(t)
    for a in range(n):
        seen: dict[int, int] = {}
        for x in range(n):
            v = t[a][x]
            if v in seen:
                return Witness(kind, (a, seen[v], x), v, v)
            seen[v] = x
    return None


def _total(t) -> Optional[Witness]:
    n = len(t)
    products = {v for row in t for v in row}
    for x in range(n):
        if x not in products:
            return Witness("not_total", (x,), None, None)
    return None


def _power_is_identity(maps: np.ndarray, k: int) -> np.ndarray:
    """Whether each self-map of 0..n-1 along the last axis of ``maps``,
    composed with itself k >= 1 times, is the identity.  Powers are taken by
    repeated squaring, so the work grows with log k."""
    power, square = None, maps
    while True:
        if k & 1:
            power = square if power is None else np.take_along_axis(square, power, -1)
        k >>= 1
        if not k:
            return (power == np.arange(maps.shape[-1])).all(-1)
        square = np.take_along_axis(square, square, -1)


def _right_plonka_bulk(columns: np.ndarray) -> np.ndarray:
    """Right Plonka on a stack of tables given by columns: ``columns[b, y, x]``
    is x.y in table b.  Given rows instead, it checks left Plonka."""
    tables, n = columns.shape[:2]
    # column y after column z at [b, y, z, x], that is (x.z).y; the
    # commutation law swaps y and z
    starts = np.arange(tables)[:, None, None, None] * (n * n) + np.arange(n)[:, None, None] * n
    composed = columns.reshape(-1).take(starts + columns[:, None])
    commutes = (composed == composed.transpose(0, 2, 1, 3)).all((1, 2, 3))
    # column y.z at [b, y, z, :]; the reduction law says it is column y
    products = columns.transpose(0, 2, 1)
    named = columns.reshape(tables * n, n)[np.arange(tables)[:, None, None] * n + products]
    reduces = (named == columns[:, :, None, :]).all((1, 2, 3))
    return commutes & reduces


def _products(grid: np.ndarray):
    """A stack of tables, ``grid[b, x, y]`` = x.y in table b, as a function
    ``at(x, y)`` of uint8 coordinate arrays that broadcast against one
    another: ``at(x, y)[b, ...]`` is x.y in table b, read by one ``take``
    on int32 cell indices."""
    tables, n = grid.shape[:2]
    flat = np.ascontiguousarray(grid).reshape(-1)
    start = (np.arange(tables, dtype=np.int32) * (n * n)).reshape(-1, 1, 1, 1)
    return lambda x, y: flat.take(np.multiply(x, n, dtype=np.int32) + y + start)


def _holds(equal: np.ndarray) -> np.ndarray:
    """Per table (the first axis), whether every entry of ``equal`` is true."""
    return equal.all(tuple(range(1, equal.ndim)))


def _coordinates(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y and z over 0..n-1 as uint8 arrays that broadcast to (n, n, n)."""
    points = np.arange(n, dtype=np.uint8)
    return points[:, None, None], points[:, None], points


# the laws the batch checkers cover
MAGMA_BATCH_LAWS = frozenset({MagmaLaw.RIGHT_PLONKA, MagmaLaw.BAND, MagmaLaw.K_CYCLIC,
                              MagmaLaw.ASSOCIATIVE})


def check_magma_laws_batch(stack: np.ndarray, laws: Iterable[MagmaLaw],
                           k: Optional[int] = None) -> np.ndarray:
    """Evaluate magma laws on a stack of tables at once: ``stack[b, x, y]``
    is x.y in table b.  Returns a boolean per table, true where every law in
    ``laws`` holds; each law's verdict agrees with ``check_magma_law``.
    Covers ``MAGMA_BATCH_LAWS``: right Plonka, band, k-cyclic (which needs
    ``k``) and associative."""
    ok = np.ones(len(stack), dtype=bool)
    diagonal = np.arange(stack.shape[1])
    columns = np.ascontiguousarray(stack.transpose(0, 2, 1))
    for law in laws:
        if law is MagmaLaw.K_CYCLIC:
            if k is None or k < 1:
                raise ValueError("k_cyclic needs k >= 1")
            ok &= _power_is_identity(columns, k).all(1)
        elif law is MagmaLaw.RIGHT_PLONKA:
            ok &= _right_plonka_bulk(columns)
        elif law is MagmaLaw.BAND:
            ok &= (stack[:, diagonal, diagonal] == diagonal).all(1)
        elif law is MagmaLaw.ASSOCIATIVE:
            t = _products(stack)
            x, y, z = _coordinates(stack.shape[1])
            ok &= _holds(t(t(x, y), z) == t(x, t(y, z)))
        else:
            raise ValueError(f"no batch check for {law!r}")
    return ok


def check_magma_law(m: CayleyTable, law: MagmaLaw, k: Optional[int] = None) -> Verdict:
    """Evaluate one magma law exhaustively over the table."""
    t = m.table
    if law is MagmaLaw.K_CYCLIC:
        if k is None or k < 1:
            raise ValueError("k_cyclic needs k >= 1")
        return _verdict(_k_cyclic(t, k))
    if k is not None:
        raise ValueError("only k_cyclic takes a k parameter")
    if law is MagmaLaw.RIGHT_PLONKA:
        return _verdict(_right_plonka(t))
    if law is MagmaLaw.LEFT_PLONKA:
        return _verdict(_left_plonka(t))
    if law is MagmaLaw.TWO_CYCLIC:
        w = _right_plonka(t) or _band(t) or _k_cyclic(t, 2)
        return _verdict(w)
    if law is MagmaLaw.BAND:
        return _verdict(_band(t))
    if law is MagmaLaw.RIGHT_INVOLUTORY:
        return _verdict(_k_cyclic(t, 2))
    if law is MagmaLaw.LEFT_INVOLUTORY:
        return _verdict(_left_involutory(t))
    if law is MagmaLaw.ASSOCIATIVE:
        return _verdict(_associative(t))
    if law is MagmaLaw.COMMUTATIVE:
        return _verdict(_commutative(t))
    if law in (MagmaLaw.LEFT_CANCELLATIVE, MagmaLaw.LEFT_QUASIGROUP):
        return _verdict(_row_injective(t, law.value))
    if law in (MagmaLaw.RIGHT_CANCELLATIVE, MagmaLaw.RIGHT_QUASIGROUP):
        return _verdict(_row_injective(tuple(zip(*t)), law.value))
    if law is MagmaLaw.TOTAL:
        return _verdict(_total(t))
    raise ValueError(f"unknown magma law {law!r}")


# ---------------------------------------------------------------------------
# R-map laws
#
# A lift applies R to two slots of an input pair or triple (a, b, c) and is
# named by that slot pair; a chain applies its lifts in the order listed.
# The lift (1, 0) applies R to (b, a) and writes its output back to b and a.

_R12, _R23, _R13 = (0, 1), (1, 2), (0, 2)

_TRIPLE_LAWS = {
    RMapLaw.YANG_BAXTER: ((_R23, _R13, _R12), (_R12, _R13, _R23)),
    RMapLaw.BRAID: ((_R12, _R23, _R12), (_R23, _R12, _R23)),
    RMapLaw.LONG: ((_R23, _R12), (_R12, _R23)),
    RMapLaw.COMMUTATIVE: ((_R13, _R12), (_R12, _R13)),
    RMapLaw.COCOMMUTATIVE: ((_R23, _R13), (_R13, _R23)),
}


def _run_chain(chain, out, n, inputs):
    t = list(inputs)
    for p, q in chain:
        t[p], t[q] = out[t[p] * n + t[q]]
    return tuple(t)


def _piece_witness(pieces, out, n, inputs) -> Optional[Witness]:
    """The first of the ``(kind, lhs_chain, rhs_chain)`` pieces that fails
    at ``inputs``, a pair or a triple, as a witness."""
    for kind, lhs_chain, rhs_chain in pieces:
        lhs = _run_chain(lhs_chain, out, n, inputs)
        rhs = _run_chain(rhs_chain, out, n, inputs)
        if lhs != rhs:
            return Witness(kind, inputs, lhs, rhs)
    return None


def _chain_law(r: RMap, arity: int, pieces) -> Optional[Witness]:
    """Check the pieces in order at each pair or triple (``arity`` 2 or 3);
    the first failing piece at the first failing input gives the witness."""
    n, out = r.n, r.out
    if arity == 3 and n >= _NUMPY_CUTOFF:
        stack = np.array(out, dtype=np.int32).T.reshape(1, 2, n, n)
        return _vectorised_witness(n, lambda lo, hi: _pieces_failures(stack, 3, pieces, lo, hi)[0],
                                   lambda triple: _piece_witness(pieces, out, n, triple))
    for inputs in itertools.product(range(n), repeat=arity):
        w = _piece_witness(pieces, out, n, inputs)
        if w is not None:
            return w
    return None


def _pieces_failures(stack: np.ndarray, arity: int, pieces, lo: int, hi: int) -> np.ndarray:
    """Where some of the ``(kind, lhs_chain, rhs_chain)`` pieces fail, at
    [b, x - lo, y] or [b, x - lo, y, z] for the pairs or triples (``arity``
    2 or 3) with lo <= x < hi, on a (T, 2, n, n) stack of dot and star
    tables.  A chain step applies R(a, b) = (a.b, a*b) on coordinate arrays
    that broadcast over (b, x, y, ...), reading both tables at one cell
    index."""
    tables, _, n = stack.shape[:3]
    dot, star = np.ascontiguousarray(stack.transpose(1, 0, 2, 3)).reshape(2, tables * n * n)
    start = (np.arange(tables, dtype=np.int32) * (n * n)).reshape((-1,) + (1,) * arity)
    points = np.arange(n, dtype=np.int32)
    inputs = np.ix_(np.arange(lo, hi, dtype=np.int32), *[points] * (arity - 1))
    bad = np.zeros((tables, hi - lo) + (n,) * (arity - 1), dtype=bool)
    for _, *chains in pieces:
        sides = [list(inputs), list(inputs)]
        for chain, t in zip(chains, sides):
            for p, q in chain:
                cell = np.multiply(t[p], n, dtype=np.int32) + t[q] + start
                t[p], t[q] = dot.take(cell), star.take(cell)
        for left, right in zip(*sides):
            bad |= left != right
    return bad


# each equational R-map law as its arity and its (kind, lhs_chain, rhs_chain)
# pieces, checked in order.  The BLS law is the commutative, cocommutative
# and long laws together; a pair law compares a chain with the empty one:
# involutive is R R = id, unitary R R^21 = id, after a bijectivity check.
_PIECES = {law: (3, [(law.value, *chains)]) for law, chains in _TRIPLE_LAWS.items()} | {
    RMapLaw.BLS: (3, [(f"bls:{law.value}", *_TRIPLE_LAWS[law])
                      for law in (RMapLaw.COMMUTATIVE, RMapLaw.COCOMMUTATIVE, RMapLaw.LONG)]),
    RMapLaw.INVOLUTIVE: (2, [("involutive", (_R12, _R12), ())]),
    RMapLaw.UNITARY: (2, [("unitary", ((1, 0), _R12), ())])}


def _bijectivity_witness(r: RMap) -> Optional[Witness]:
    seen: dict[tuple[int, int], tuple[int, int]] = {}
    n = r.n
    for x in range(n):
        for y in range(n):
            img = r.apply(x, y)
            if img in seen:
                return Witness("not_bijective", (seen[img], (x, y)), img, img)
            seen[img] = (x, y)
    return None


def _diagonal(r: RMap) -> Optional[Witness]:
    for x in range(r.n):
        if r.apply(x, x) != (x, x):
            return Witness("diagonal", (x,), r.apply(x, x), (x, x))
    return None


def _nondegenerate(r: RMap, left_right: bool) -> Optional[Witness]:
    """Row injectivity of the dot and star tables of R(x, y) = (x.y, x*y):
    left translations are rows, right translations rows of the transpose."""
    b = canonical_correspondence(r)
    dot, star = b.dot.table, b.star.table
    if left_right:
        return _row_injective(dot, "dot_left_translation") or \
            _row_injective(tuple(zip(*star)), "star_right_translation")
    return _row_injective(tuple(zip(*dot)), "dot_right_translation") or \
        _row_injective(star, "star_left_translation")


def check_rmap_law(r: RMap, law: RMapLaw) -> Verdict:
    """Evaluate one R-map law exhaustively (triple laws run over all n**3 inputs)."""
    if law is RMapLaw.UNITARY and (w := _bijectivity_witness(r)) is not None:
        return _verdict(w)
    if law in _PIECES:
        return _verdict(_chain_law(r, *_PIECES[law]))
    if law is RMapLaw.DIAGONAL:
        return _verdict(_diagonal(r))
    if law is RMapLaw.LEFT_RIGHT_NONDEGENERATE:
        return _verdict(_nondegenerate(r, True))
    if law is RMapLaw.RIGHT_LEFT_NONDEGENERATE:
        return _verdict(_nondegenerate(r, False))
    raise ValueError(f"unknown R-map law {law!r}")


# ---------------------------------------------------------------------------
# bi-magma laws


def _plonka_bimagma(d, s) -> Optional[Witness]:
    n = len(d)
    for x in range(n):
        dx, sx = d[x], s[x]
        for y in range(n):
            dy, sy = d[y], s[y]
            for z in range(n):
                if d[dx[y]][z] != d[dx[z]][y]:
                    return Witness("dot_right_commutation", (x, y, z), d[dx[y]][z], d[dx[z]][y])
                if dx[dy[z]] != dx[y]:
                    return Witness("dot_right_reduction", (x, y, z), dx[dy[z]], dx[y])
                if sx[sy[z]] != sy[sx[z]]:
                    return Witness("star_left_commutation", (x, y, z), sx[sy[z]], sy[sx[z]])
                if s[sx[y]][z] != sy[z]:
                    return Witness("star_left_reduction", (x, y, z), s[sx[y]][z], sy[z])
                if sx[dy[z]] != d[sx[y]][z]:
                    return Witness("mixed_star_dot", (x, y, z), sx[dy[z]], d[sx[y]][z])
                if s[dx[z]][y] != sx[y]:
                    return Witness("mixed_dot_in_star", (x, y, z), s[dx[z]][y], sx[y])
                if dx[sy[z]] != dx[z]:
                    return Witness("mixed_star_in_dot", (x, y, z), dx[sy[z]], dx[z])
    return None


def _unitary_pairing(d, s) -> Optional[Witness]:
    n = len(d)
    for x in range(n):
        for y in range(n):
            if d[s[x][y]][x] != y:
                return Witness("unitary_pairing", (x, y), d[s[x][y]][x], y)
    return None


def _yang_baxter_bimagma(d, s) -> Optional[Witness]:
    n = len(d)
    for x in range(n):
        dx, sx = d[x], s[x]
        for y in range(n):
            dy, sy = d[y], s[y]
            xy_d, xy_s = dx[y], sx[y]
            for z in range(n):
                m = dx[sy[z]]          # x.(y*z)
                q = dy[z]              # y.z
                if d[xy_d][z] != d[m][q]:
                    return Witness("yb1", (x, y, z), d[xy_d][z], d[m][q])
                if s[m][q] != d[xy_s][s[xy_d][z]]:
                    return Witness("yb2", (x, y, z), s[m][q], d[xy_s][s[xy_d][z]])
                if sx[sy[z]] != s[xy_s][s[xy_d][z]]:
                    return Witness("yb3", (x, y, z), sx[sy[z]], s[xy_s][s[xy_d][z]])
    return None


def group_structure(t) -> Optional[tuple[int, tuple[int, ...]]]:
    """Identity element and inverse table of a group table, or None."""
    n = len(t)
    identity = None
    for e in range(n):
        if all(t[e][x] == x and t[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        return None
    if _associative(t) is not None:
        return None
    inv = [None] * n
    for x in range(n):
        for y in range(n):
            if t[x][y] == identity and t[y][x] == identity:
                inv[x] = y
                break
        if inv[x] is None:
            return None
    return identity, tuple(inv)


def _skew_left_brace(d, s) -> Optional[Witness]:
    n = len(d)
    dot_group = group_structure(d)
    if dot_group is None:
        return Witness("dot_not_group", (), None, None)
    star_group = group_structure(s)
    if star_group is None:
        return Witness("star_not_group", (), None, None)
    _, dot_inv = dot_group
    for x in range(n):
        sx, xin = s[x], dot_inv[x]
        for y in range(n):
            for z in range(n):
                lhs = sx[d[y][z]]
                rhs = d[d[sx[y]][xin]][sx[z]]
                if lhs != rhs:
                    return Witness("brace_compatibility", (x, y, z), lhs, rhs)
    return None


def lyubashenko_pair(b: BiMagma) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pair (f, g) with x.y = f(x) and x*y = g(y), if the tables have
    that shape and f, g commute; None otherwise."""
    d, s = b.dot.table, b.star.table
    if _lyubashenko_form(d, s) is not None:
        return None
    return tuple(row[0] for row in d), tuple(s[0][y] for y in range(b.n))


def _lyubashenko_form(d, s) -> Optional[Witness]:
    n = len(d)
    for x in range(n):
        for y in range(n):
            if d[x][y] != d[x][0]:
                return Witness("dot_row_not_constant", (x, y), d[x][y], d[x][0])
            if s[x][y] != s[0][y]:
                return Witness("star_column_not_constant", (x, y), s[x][y], s[0][y])
    f = [d[x][0] for x in range(n)]
    g = [s[0][y] for y in range(n)]
    for x in range(n):
        if f[g[x]] != g[f[x]]:
            return Witness("pair_not_commuting", (x,), f[g[x]], g[f[x]])
    return None


BIMAGMA_BATCH_LAWS = frozenset({BiMagmaLaw.PLONKA_BIMAGMA, BiMagmaLaw.UNITARY_PLONKA_BIMAGMA,
                                *RMapLaw})


def check_bimagma_laws_batch(stack: np.ndarray, laws: Iterable) -> np.ndarray:
    """Evaluate bi-magma laws, and the R-map laws of R(x, y) = (x.y, x*y), on
    a stack of bi-magmas at once: ``stack[b, 0, x, y]`` is x.y and
    ``stack[b, 1, x, y]`` is x*y in bi-magma b.  Returns a boolean per
    bi-magma, true where every law in ``laws`` holds; each verdict agrees
    with ``check_bimagma_law`` or ``check_rmap_law``.  Covers
    ``BIMAGMA_BATCH_LAWS``: the Plonka and unitary Plonka bi-magma laws and
    every R-map law, its equations run by the piece evaluator of
    ``check_rmap_law`` (R R^21 = id makes R onto, so a unitary R needs no
    bijectivity check here); R is diagonal when both diagonals are the
    identity and nondegenerate when rows or columns are permutations."""
    ok = np.ones(len(stack), dtype=bool)
    n = stack.shape[-1]
    dot, star = stack[:, 0], stack[:, 1]
    d, s = _products(dot), _products(star)
    x, y, z = _coordinates(n)
    points = np.arange(n)
    for law in laws:
        if law in (BiMagmaLaw.PLONKA_BIMAGMA, BiMagmaLaw.UNITARY_PLONKA_BIMAGMA):
            # right Plonka for the dot, left Plonka for the star (right
            # Plonka of its opposite, whose columns are the star's rows)
            ok &= _right_plonka_bulk(np.ascontiguousarray(dot.transpose(0, 2, 1)))
            ok &= _right_plonka_bulk(np.ascontiguousarray(star))
            ok &= _holds(s(x, d(y, z)) == d(s(x, y), z))   # mixed_star_dot
            ok &= _holds(s(d(x, z), y) == s(x, y))         # mixed_dot_in_star
            ok &= _holds(d(x, s(y, z)) == d(x, z))         # mixed_star_in_dot
            if law is BiMagmaLaw.UNITARY_PLONKA_BIMAGMA:   # unitary_pairing, at (y, z)
                ok &= _holds(d(s(y, z), y) == z)
        elif law in _PIECES:
            ok &= _holds(~_pieces_failures(stack, *_PIECES[law], 0, n))
        elif law is RMapLaw.DIAGONAL:
            ok &= _holds(stack[:, :, points, points] == points)   # both diagonals
        elif law in (RMapLaw.LEFT_RIGHT_NONDEGENERATE, RMapLaw.RIGHT_LEFT_NONDEGENERATE):
            # the dot's rows and the star's columns, or the reverse, are injective
            rows, columns = (dot, star) if law is RMapLaw.LEFT_RIGHT_NONDEGENERATE else (star, dot)
            ok &= _holds(np.sort(rows, 2) == points)
            ok &= _holds(np.sort(columns, 1) == points[:, None])
        else:
            raise ValueError(f"no batch check for {law!r}")
    return ok


def check_bimagma_law(b: BiMagma, law: BiMagmaLaw) -> Verdict:
    """Evaluate one bi-magma law exhaustively over both tables."""
    d, s = b.dot.table, b.star.table
    if law is BiMagmaLaw.PLONKA_BIMAGMA:
        return _verdict(_plonka_bimagma(d, s))
    if law is BiMagmaLaw.UNITARY_PLONKA_BIMAGMA:
        return _verdict(_plonka_bimagma(d, s) or _unitary_pairing(d, s))
    if law is BiMagmaLaw.YANG_BAXTER_BIMAGMA:
        return _verdict(_yang_baxter_bimagma(d, s))
    if law is BiMagmaLaw.SKEW_LEFT_BRACE:
        return _verdict(_skew_left_brace(d, s))
    if law is BiMagmaLaw.LYUBASHENKO_FORM:
        return _verdict(_lyubashenko_form(d, s))
    raise ValueError(f"unknown bi-magma law {law!r}")
