"""Reference loops for the equational laws, kept apart from the library's
term table and array evaluator so that tests can compare against them.

Each oracle scans its inputs in lexicographic order and, at each input, its
equations in order, and returns the first failure as a ``Witness`` with
plain-int sides, or None.  Magma oracles take a table of rows, bi-magma
oracles the dot and star tables, R-map oracles the map itself; R-map chains
are written out here as slot-pair lifts, independently of the library.
"""

from __future__ import annotations

import itertools

from ybmag import BiMagmaLaw, MagmaLaw, RMapLaw
from ybmag.core import Witness


# ---------------------------------------------------------------------------
# magma laws


def right_plonka(t):
    n = len(t)
    for x in range(n):
        tx = t[x]
        for y in range(n):
            xy = tx[y]
            for z in range(n):
                if t[xy][z] != t[tx[z]][y]:
                    return Witness("right_commutation", (x, y, z), t[xy][z], t[tx[z]][y])
                if tx[t[y][z]] != xy:
                    return Witness("right_reduction", (x, y, z), tx[t[y][z]], xy)
    return None


def left_plonka(t):
    n = len(t)
    for x in range(n):
        tx = t[x]
        for y in range(n):
            ty = t[y]
            for z in range(n):
                if tx[ty[z]] != ty[tx[z]]:
                    return Witness("left_commutation", (x, y, z), tx[ty[z]], ty[tx[z]])
                if t[tx[y]][z] != ty[z]:
                    return Witness("left_reduction", (x, y, z), t[tx[y]][z], ty[z])
    return None


def band(t):
    for x in range(len(t)):
        if t[x][x] != x:
            return Witness("band", (x,), t[x][x], x)
    return None


def k_cyclic(t, k):
    n = len(t)
    for x in range(n):
        for y in range(n):
            v = x
            for _ in range(k):
                v = t[v][y]
            if v != x:
                return Witness(f"k_cyclic[{k}]", (x, y), v, x)
    return None


def left_involutory(t):
    n = len(t)
    for x in range(n):
        tx = t[x]
        for y in range(n):
            if tx[tx[y]] != y:
                return Witness("left_involutory", (x, y), tx[tx[y]], y)
    return None


def associative(t):
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


def commutative(t):
    n = len(t)
    for x in range(n):
        for y in range(x + 1, n):
            if t[x][y] != t[y][x]:
                return Witness("commutative", (x, y), t[x][y], t[y][x])
    return None


# each equational magma law as a function of the table and k
MAGMA_ORACLES = {
    MagmaLaw.RIGHT_PLONKA: lambda t, k: right_plonka(t),
    MagmaLaw.LEFT_PLONKA: lambda t, k: left_plonka(t),
    MagmaLaw.TWO_CYCLIC: lambda t, k: right_plonka(t) or band(t) or k_cyclic(t, 2),
    MagmaLaw.K_CYCLIC: k_cyclic,
    MagmaLaw.BAND: lambda t, k: band(t),
    MagmaLaw.RIGHT_INVOLUTORY: lambda t, k: k_cyclic(t, 2),
    MagmaLaw.LEFT_INVOLUTORY: lambda t, k: left_involutory(t),
    MagmaLaw.ASSOCIATIVE: lambda t, k: associative(t),
    MagmaLaw.COMMUTATIVE: lambda t, k: commutative(t),
}


# ---------------------------------------------------------------------------
# bi-magma laws


def plonka_bimagma(d, s):
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


def unitary_pairing(d, s):
    n = len(d)
    for x in range(n):
        for y in range(n):
            if d[s[x][y]][x] != y:
                return Witness("unitary_pairing", (x, y), d[s[x][y]][x], y)
    return None


def yang_baxter_bimagma(d, s):
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


BIMAGMA_ORACLES = {
    BiMagmaLaw.PLONKA_BIMAGMA: plonka_bimagma,
    BiMagmaLaw.UNITARY_PLONKA_BIMAGMA: lambda d, s: plonka_bimagma(d, s) or unitary_pairing(d, s),
    BiMagmaLaw.YANG_BAXTER_BIMAGMA: yang_baxter_bimagma,
}


# ---------------------------------------------------------------------------
# R-map laws, as chains of lifts: the lift (p, q) applies R to slots p and q
# of the input and writes its output back to them

R12, R23, R13 = (0, 1), (1, 2), (0, 2)
TRIPLE_CHAINS = {
    RMapLaw.YANG_BAXTER: ((R23, R13, R12), (R12, R13, R23)),
    RMapLaw.BRAID: ((R12, R23, R12), (R23, R12, R23)),
    RMapLaw.LONG: ((R23, R12), (R12, R23)),
    RMapLaw.COMMUTATIVE: ((R13, R12), (R12, R13)),
    RMapLaw.COCOMMUTATIVE: ((R23, R13), (R13, R23)),
}


def run_chain(chain, r, inputs):
    t = list(inputs)
    for p, q in chain:
        t[p], t[q] = r.out[t[p] * r.n + t[q]]
    return tuple(t)


def chain_law(r, arity, pieces):
    """The first of the ``(kind, lhs_chain, rhs_chain)`` pieces that fails
    at the first failing pair or triple."""
    for inputs in itertools.product(range(r.n), repeat=arity):
        for kind, lhs_chain, rhs_chain in pieces:
            lhs, rhs = run_chain(lhs_chain, r, inputs), run_chain(rhs_chain, r, inputs)
            if lhs != rhs:
                return Witness(kind, inputs, lhs, rhs)
    return None


def bijectivity(r):
    seen = {}
    for x in range(r.n):
        for y in range(r.n):
            img = r.apply(x, y)
            if img in seen:
                return Witness("not_bijective", (seen[img], (x, y)), img, img)
            seen[img] = (x, y)
    return None


def unitary(r):
    """Bijectivity, then R applied to R^21(x, y) at each pair."""
    w = bijectivity(r)
    if w is not None:
        return w
    for x in range(r.n):
        for y in range(r.n):
            u, v = r.apply(y, x)
            back = r.apply(v, u)
            if back != (x, y):
                return Witness("unitary", (x, y), back, (x, y))
    return None


def involutive(r):
    """R applied twice at each pair."""
    for x in range(r.n):
        for y in range(r.n):
            u, v = r.apply(x, y)
            again = r.apply(u, v)
            if again != (x, y):
                return Witness("involutive", (x, y), again, (x, y))
    return None


def diagonal(r):
    """R at each pair (x, x)."""
    for x in range(r.n):
        if r.apply(x, x) != (x, x):
            return Witness("diagonal", (x,), r.apply(x, x), (x, x))
    return None


RMAP_ORACLES = {
    **{law: (lambda r, law=law: chain_law(r, 3, [(law.value, *TRIPLE_CHAINS[law])]))
       for law in TRIPLE_CHAINS},
    RMapLaw.BLS: lambda r: chain_law(r, 3, [
        (f"bls:{law.value}", *TRIPLE_CHAINS[law])
        for law in (RMapLaw.COMMUTATIVE, RMapLaw.COCOMMUTATIVE, RMapLaw.LONG)]),
    RMapLaw.INVOLUTIVE: involutive,
    RMapLaw.UNITARY: unitary,
    RMapLaw.DIAGONAL: diagonal,
}
