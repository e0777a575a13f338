"""Decidable checkers for every equational law on magmas, bi-magmas and R-maps.

Every equation is written once, in one term table, as a ``(kind, lhs, rhs)``
piece whose sides are terms over the dot and star products; an R-map is
checked on the dot and star tables of R(x, y) = (x.y, x*y), each chain of R
applied to slots of a pair or triple read as the tuple of terms it leaves in
the slots.  A law is a list of groups of pieces over pairs, triples or single
points, each group compiled once into a register program whose dot and star
reads share one cell index.  One array evaluator runs these programs on
stacks of tables: for ``check_laws_batch`` on census stacks of shape
(T, grids, n, n), a magma being the one-grid case of a bi-magma, and for
every single check, on carriers of any size.  A failing check returns the
lexicographically first violating input together with both evaluated sides,
so a failure message is self-contained and reproducible: a single check
evaluates the input (0, ..., 0) on its own, where most failing structures
fail, then the arrays in slabs of about ``_SLAB_TRIPLES`` inputs, and
re-evaluates the first failing input on plain ints for the witness.

Two kernels stay outside the term table, and on stacks both run once per
distinct column, the columns told apart by one lexsort: right Plonka by
whole columns, which must commute (composed once per pair of distinct
columns that share a table) and name column y at y.z, and k-cyclic by
repeated squaring of the columns, since a k-fold term nests k deep.  The
batch checker refuses a stack with an entry outside the carrier before any
gather.  Cancellation, totality, bijectivity, nondegeneracy, the Lyubashenko
form and skew braces are not equations in the two products and keep checks
of their own.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional

import numpy as np

from .core import (BiMagma, CayleyTable, CrossCheckFailed, RMap, Verdict, Witness,
                   VERDICT_OK, canonical_correspondence)

_SLAB_TRIPLES = 1 << 13  # inputs per array slab of a single check, which bounds its memory
_MARKS = 1 << 22  # flags, one byte each, of a table marking the column pairs that occur


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


# ---------------------------------------------------------------------------
# terms, their register programs and the one evaluator
#
# A term is an input slot (0, 1, 2 for x, y, z) or a product (op, left,
# right) of two terms, op 0 for the dot and 1 for the star.  Each side of a
# piece is a tuple of terms: one term for a magma or bi-magma equation, one
# per slot for an R-map chain.


def _dot(a, b):
    return (0, a, b)


def _star(a, b):
    return (1, a, b)


def _equation(kind: str, lhs, rhs):
    return kind, (lhs,), (rhs,)


def _chain(lifts, arity: int) -> tuple:
    """The terms a chain of lifts leaves in the slots 0..arity-1.  The lift
    (p, q) applies R to (slot p, slot q) and writes its output back to slots
    p and q, so the lift (1, 0) applies R to (b, a) and writes b and a."""
    slots = list(range(arity))
    for p, q in lifts:
        slots[p], slots[q] = _dot(slots[p], slots[q]), _star(slots[p], slots[q])
    return tuple(slots)


def _compile(arity: int, pieces) -> tuple:
    """A group of pieces over inputs of ``arity`` points as a register
    program (arity, width, pieces).  Registers 0..arity-1 hold the inputs.
    A compiled piece (kind, lhs, rhs, steps) names its sides by registers
    and lists the steps that first write them: a step (a, b, reads) computes
    the cell of registers a and b once and reads it from the dot or star
    table into each (op, register) of ``reads``, so a product shared between
    terms is read once."""
    registers: dict = {}
    cells: dict = {}

    def register(term) -> int:
        if isinstance(term, int):
            return term
        if term not in registers:
            op, left, right = term
            cell = register(left), register(right)
            if cell not in cells:
                cells[cell] = []
                steps.append((*cell, cells[cell]))
            registers[term] = arity + len(registers)
            cells[cell].append((op, registers[term]))
        return registers[term]

    compiled = []
    for kind, lhs, rhs in pieces:
        steps: list = []
        compiled.append((kind, tuple(map(register, lhs)), tuple(map(register, rhs)), steps))
    return arity, arity + len(registers), tuple(compiled)


def _failures(tables, count: int, n: int, program, lo: int, hi: int) -> np.ndarray:
    """Where some piece of a compiled group fails, at [b, x - lo, y, ...]
    for the inputs with lo <= x < hi, on a stack of ``count`` structures:
    ``tables[op]`` is the flattened stack of dot (op 0) or star (op 1)
    tables, x.y of structure b at cell b n^2 + x n + y.  Cell indices are
    intp whatever the tables' dtype, so uint8 stacks of 17 points or more
    index correctly; ``take`` copies narrower indices to intp, so int32 ones
    would cost more memory, not less."""
    arity, width, pieces = program
    start = (np.arange(count, dtype=np.intp) * (n * n)).reshape((-1,) + (1,) * arity)
    points = np.arange(n, dtype=np.int32)
    values = [np.arange(lo, hi, dtype=np.int32).reshape((-1,) + (1,) * (arity - 1))]
    values += [points.reshape((n,) + (1,) * (arity - 1 - i)) for i in range(1, arity)]
    values += [None] * (width - arity)
    bad = None
    for _, lhs, rhs, steps in pieces:
        for a, b, reads in steps:
            cell = np.multiply(values[a], n, dtype=np.intp) + values[b]
            # in place once a read has given the cell its structure axis
            cell = np.add(cell, start, out=cell if cell.ndim > arity else None)
            for op, r in reads:
                values[r] = tables[op].take(cell)
            del cell   # before the next cell is built, which bounds the peak memory
        for left, right in zip(lhs, rhs):
            differ = values[left] != values[right]
            bad = differ if bad is None else bad | differ
    return np.broadcast_to(bad, (count, hi - lo) + (n,) * (arity - 1))


def _witness_at(tables, n: int, program, inputs: tuple) -> Optional[Witness]:
    """The first piece of a compiled group that fails at ``inputs``,
    evaluated on flattened tables of plain ints up to that piece, as a
    witness: a one-term side gives its value, a chain side the tuple of its
    slots."""
    arity, width, pieces = program
    values = [*inputs] + [None] * (width - arity)
    for kind, lhs, rhs, steps in pieces:
        for a, b, reads in steps:
            cell = values[a] * n + values[b]
            for op, r in reads:
                values[r] = tables[op][cell]
        left, right = [values[r] for r in lhs], [values[r] for r in rhs]
        if left != right:
            return Witness(kind, inputs, *(side[0] if len(side) == 1 else tuple(side)
                                           for side in (left, right)))
    return None


def _first_failure(tables, n: int, groups) -> Optional[Witness]:
    """The witness of a law's compiled ``groups`` on one structure, given by
    its flattened tables as int tuples: the first failing piece at the
    lexicographically first failing input of the first failing group.  The
    input (0, ..., 0) is evaluated on its own, then the arrays in slabs of
    about ``_SLAB_TRIPLES`` inputs up to the first with a failure, which is
    re-evaluated on plain ints."""
    if not n:
        return None
    arrays = None
    for program in groups:
        arity = program[0]
        w = _witness_at(tables, n, program, (0,) * arity)
        if w is not None:
            return w
        if arrays is None:
            arrays = [np.array(table, dtype=np.int32) for table in tables]
        step = max(1, _SLAB_TRIPLES // n ** (arity - 1))
        for lo in range(0, n, step):
            bad = _failures(arrays, 1, n, program, lo, min(n, lo + step))
            if bad.any():
                first = np.unravel_index(int(bad.argmax()), bad.shape)
                inputs = (lo + int(first[1]), *map(int, first[2:]))
                w = _witness_at(tables, n, program, inputs)
                if w is None:
                    raise CrossCheckFailed(f"array and scalar law evaluations disagree at {inputs}")
                return w
    return None


def _holds(equal: np.ndarray) -> np.ndarray:
    """Per structure (the first axis), whether every entry of ``equal`` is true."""
    return equal.all(tuple(range(1, equal.ndim)))


def _groups_hold(tables, count: int, n: int, groups) -> np.ndarray:
    """Per structure of a stack (see ``_failures``), whether every piece of
    a law's compiled ``groups`` holds at every input."""
    ok = np.ones(count, dtype=bool)
    for program in groups:
        bad = _failures(tables, count, n, program, 0, n)
        ok &= ~bad.any(tuple(range(1, bad.ndim)))
    return ok


# ---------------------------------------------------------------------------
# the term table

_X, _Y, _Z = 0, 1, 2

# R-map lifts are named by the slot pair they apply R to
_R12, _R23, _R13 = (0, 1), (1, 2), (0, 2)

_TRIPLE_LAWS = {
    RMapLaw.YANG_BAXTER: ((_R23, _R13, _R12), (_R12, _R13, _R23)),
    RMapLaw.BRAID: ((_R12, _R23, _R12), (_R23, _R12, _R23)),
    RMapLaw.LONG: ((_R23, _R12), (_R12, _R23)),
    RMapLaw.COMMUTATIVE: ((_R13, _R12), (_R12, _R13)),
    RMapLaw.COCOMMUTATIVE: ((_R23, _R13), (_R13, _R23)),
}


def _compiled(table: dict) -> dict:
    return {law: tuple(_compile(*group) for group in groups) for law, groups in table.items()}


# each equational law as its groups, each group an arity and its (kind, lhs,
# rhs) pieces; a law holds when every group does, and its witness is that of
# the first failing group
_TERMS = _compiled({
    MagmaLaw.RIGHT_PLONKA: [(3, [
        _equation("right_commutation", _dot(_dot(_X, _Y), _Z), _dot(_dot(_X, _Z), _Y)),
        _equation("right_reduction", _dot(_X, _dot(_Y, _Z)), _dot(_X, _Y))])],
    MagmaLaw.LEFT_PLONKA: [(3, [
        _equation("left_commutation", _dot(_X, _dot(_Y, _Z)), _dot(_Y, _dot(_X, _Z))),
        _equation("left_reduction", _dot(_dot(_X, _Y), _Z), _dot(_Y, _Z))])],
    MagmaLaw.BAND: [(1, [_equation("band", _dot(_X, _X), _X)])],
    MagmaLaw.RIGHT_INVOLUTORY: [(2, [_equation("k_cyclic[2]", _dot(_dot(_X, _Y), _Y), _X)])],
    MagmaLaw.LEFT_INVOLUTORY: [(2, [_equation("left_involutory", _dot(_X, _dot(_X, _Y)), _Y)])],
    MagmaLaw.ASSOCIATIVE: [(3, [
        _equation("associative", _dot(_dot(_X, _Y), _Z), _dot(_X, _dot(_Y, _Z)))])],
    # a failing pair (y, x) with x < y comes after the failing pair (x, y)
    MagmaLaw.COMMUTATIVE: [(2, [_equation("commutative", _dot(_X, _Y), _dot(_Y, _X))])],
    BiMagmaLaw.PLONKA_BIMAGMA: [(3, [
        _equation("dot_right_commutation", _dot(_dot(_X, _Y), _Z), _dot(_dot(_X, _Z), _Y)),
        _equation("dot_right_reduction", _dot(_X, _dot(_Y, _Z)), _dot(_X, _Y)),
        _equation("star_left_commutation", _star(_X, _star(_Y, _Z)), _star(_Y, _star(_X, _Z))),
        _equation("star_left_reduction", _star(_star(_X, _Y), _Z), _star(_Y, _Z)),
        _equation("mixed_star_dot", _star(_X, _dot(_Y, _Z)), _dot(_star(_X, _Y), _Z)),
        _equation("mixed_dot_in_star", _star(_dot(_X, _Z), _Y), _star(_X, _Y)),
        _equation("mixed_star_in_dot", _dot(_X, _star(_Y, _Z)), _dot(_X, _Z))])],
    # yb1 and yb2 read x.(y*z) and y.z on their left or right sides
    BiMagmaLaw.YANG_BAXTER_BIMAGMA: [(3, [
        _equation("yb1", _dot(_dot(_X, _Y), _Z),
                  _dot(_dot(_X, _star(_Y, _Z)), _dot(_Y, _Z))),
        _equation("yb2", _star(_dot(_X, _star(_Y, _Z)), _dot(_Y, _Z)),
                  _dot(_star(_X, _Y), _star(_dot(_X, _Y), _Z))),
        _equation("yb3", _star(_X, _star(_Y, _Z)),
                  _star(_star(_X, _Y), _star(_dot(_X, _Y), _Z)))])],
    # the BLS law is the commutative, cocommutative and long laws together; a
    # pair law compares a chain with the empty one: involutive is R R = id,
    # unitary R R^21 = id, after a bijectivity check
    **{law: [(3, [(law.value, _chain(lhs, 3), _chain(rhs, 3))])]
       for law, (lhs, rhs) in _TRIPLE_LAWS.items()},
    RMapLaw.BLS: [(3, [(f"bls:{law.value}", *(_chain(side, 3) for side in _TRIPLE_LAWS[law]))
                       for law in (RMapLaw.COMMUTATIVE, RMapLaw.COCOMMUTATIVE, RMapLaw.LONG)])],
    RMapLaw.INVOLUTIVE: [(2, [("involutive", _chain((_R12, _R12), 2), _chain((), 2))])],
    RMapLaw.UNITARY: [(2, [("unitary", _chain(((1, 0), _R12), 2), _chain((), 2))])],
    RMapLaw.DIAGONAL: [(1, [("diagonal", (_dot(_X, _X), _star(_X, _X)), (_X, _X))])],
})
_TERMS[MagmaLaw.TWO_CYCLIC] = sum((_TERMS[law] for law in (
    MagmaLaw.RIGHT_PLONKA, MagmaLaw.BAND, MagmaLaw.RIGHT_INVOLUTORY)), ())
_TERMS[BiMagmaLaw.UNITARY_PLONKA_BIMAGMA] = _TERMS[BiMagmaLaw.PLONKA_BIMAGMA] + (
    _compile(2, [_equation("unitary_pairing", _dot(_star(_X, _Y), _X), _Y)]),)


# ---------------------------------------------------------------------------
# magma laws


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


def _power(maps: np.ndarray, k: int) -> np.ndarray:
    """Each self-map of 0..n-1 along the last axis of ``maps`` composed with
    itself k >= 1 times, by repeated squaring, so the work grows with log k."""
    power, square = None, maps
    while True:
        if k & 1:
            power = square if power is None else np.take_along_axis(square, power, -1)
        k >>= 1
        if not k:
            return power
        square = np.take_along_axis(square, square, -1)


def _codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Each row read as a base-n number, first entry most significant: the
    index of the row in the lexicographic list of all rows of its length,
    and an order-preserving key for lexicographically sorted rows.  Exact
    while n ** row length fits in an int64."""
    codes = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        codes *= n
        codes += column
    return codes


def _distinct_rows(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``rows``, whose entries lie in 0..n-1, in
    lexicographic order, and the index of each row among them.  The rows are
    cut into pieces short enough for ``_codes``, sorted by one lexsort of the
    pieces' codes, the first piece the primary key, and told apart from
    their neighbours, so any n works."""
    width = 1
    while width < rows.shape[1] and n ** (width + 1) < 1 << 63:
        width += 1
    keys = [_codes(rows[:, s:s + width], n) for s in range(0, rows.shape[1] or 1, width)]
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(rows), dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    which = np.empty(len(rows), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return rows[order[new]], which


def _column_laws_hold(stack: np.ndarray, laws, k: Optional[int]) -> np.ndarray:
    """Right Plonka and k-cyclic, where ``laws`` names them, per table of a
    stack (``stack[b, x, y]`` is x.y), on its distinct columns: each column
    y of table b is the map ``maps[which[b, y]]``, x -> x.y.  The columns
    must commute, which is composed once per pair of distinct columns that
    share a table; column y.z must be column y; k-cyclic is the k-th power
    of each distinct column against the identity."""
    count, n = stack.shape[:2]
    ok = np.ones(count, dtype=bool)
    if not n:
        return ok
    maps, which = _distinct_rows(stack.transpose(0, 2, 1).reshape(count * n, n), n)
    which = which.reshape(count, n)
    if MagmaLaw.RIGHT_PLONKA in laws:
        # column y.z of table b, by the index of table b's column y.z
        named = which.reshape(-1).take(stack + np.arange(0, count * n, n)[:, None, None])
        ok &= _holds(named == which[:, :, None])
        # the pairs of columns y, z of each table, by their distinct maps
        u = len(maps)
        codes = which[:, :, None] * u + which[:, None, :]
        if u * u <= _MARKS:   # mark the pairs that occur in a table of flags
            commutes = np.zeros(u * u, dtype=bool)
            commutes[codes] = True
            pairs = slots = np.flatnonzero(commutes)
        else:                 # too many for a table: sort them
            pairs, codes = np.unique(codes, return_inverse=True)
            commutes, slots = np.empty(len(pairs), dtype=bool), slice(None)
        first, second = maps[pairs // u], maps[pairs % u]
        commutes[slots] = (np.take_along_axis(first, second, 1) ==
                           np.take_along_axis(second, first, 1)).all(1)
        ok &= _holds(commutes.take(codes).reshape(count, n * n))
    if MagmaLaw.K_CYCLIC in laws:
        ok &= _holds((_power(maps, k) == np.arange(n)).all(1).take(which))
    return ok


def _check_k(k) -> None:
    # exactly int: True would name a census row k_cyclic[True]
    if type(k) is not int or k < 1:
        raise ValueError(f"k_cyclic needs an integer k >= 1, got {k!r}")


def _k_cyclic_witness(m: CayleyTable, k: int) -> Optional[Witness]:
    """The first pair (x, y) where x.y...y, y applied k times, is not x."""
    n = m.n
    columns = np.array(m.flat(), dtype=np.int32).reshape(n, n).T   # [y, x] is x.y
    power = _power(columns, k).T
    bad = power != np.arange(n)[:, None]
    if not bad.any():
        return None
    x, y = divmod(int(bad.argmax()), n)
    return Witness(f"k_cyclic[{k}]", (x, y), int(power[x, y]), x)


def check_magma_law(m: CayleyTable, law: MagmaLaw, k: Optional[int] = None) -> Verdict:
    """Evaluate one magma law exhaustively over the table."""
    if law is MagmaLaw.K_CYCLIC:
        _check_k(k)
        return _verdict(_k_cyclic_witness(m, k))
    if k is not None:
        raise ValueError("only k_cyclic takes a k parameter")
    if isinstance(law, MagmaLaw) and law in _TERMS:
        return _verdict(_first_failure((m.flat(),), m.n, _TERMS[law]))
    t = m.table
    if law in (MagmaLaw.LEFT_CANCELLATIVE, MagmaLaw.LEFT_QUASIGROUP):
        return _verdict(_row_injective(t, law.value))
    if law in (MagmaLaw.RIGHT_CANCELLATIVE, MagmaLaw.RIGHT_QUASIGROUP):
        return _verdict(_row_injective(tuple(zip(*t)), law.value))
    if law is MagmaLaw.TOTAL:
        return _verdict(_total(t))
    raise ValueError(f"unknown magma law {law!r}")


# ---------------------------------------------------------------------------
# R-map laws


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
    if isinstance(law, RMapLaw) and law in _TERMS:
        return _verdict(_first_failure(tuple(zip(*r.out)), r.n, _TERMS[law]))
    if law is RMapLaw.LEFT_RIGHT_NONDEGENERATE:
        return _verdict(_nondegenerate(r, True))
    if law is RMapLaw.RIGHT_LEFT_NONDEGENERATE:
        return _verdict(_nondegenerate(r, False))
    raise ValueError(f"unknown R-map law {law!r}")


# ---------------------------------------------------------------------------
# bi-magma laws


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
    if _first_failure((tuple(v for row in t for v in row),), n,
                      _TERMS[MagmaLaw.ASSOCIATIVE]) is not None:
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


def check_bimagma_law(b: BiMagma, law: BiMagmaLaw) -> Verdict:
    """Evaluate one bi-magma law exhaustively over both tables."""
    if isinstance(law, BiMagmaLaw) and law in _TERMS:
        return _verdict(_first_failure((b.dot.flat(), b.star.flat()), b.n, _TERMS[law]))
    d, s = b.dot.table, b.star.table
    if law is BiMagmaLaw.SKEW_LEFT_BRACE:
        return _verdict(_skew_left_brace(d, s))
    if law is BiMagmaLaw.LYUBASHENKO_FORM:
        return _verdict(_lyubashenko_form(d, s))
    raise ValueError(f"unknown bi-magma law {law!r}")


# ---------------------------------------------------------------------------
# batch checks on stacks of one or two grids


def _check_entries(stack: np.ndarray, n: int, noun: str) -> None:
    """Refuse a stack with an entry outside 0..n-1, before any gather, which
    would read it as a cell of another structure or past the stack's end."""
    if stack.size and (stack.min() < 0 or stack.max() >= n):
        bad = ((stack < 0) | (stack >= n)).reshape(len(stack), -1).any(1)
        raise ValueError(f"{noun} {int(bad.argmax())} of the stack has an entry outside "
                         f"0..{n - 1}")


# the laws the batch checker covers
BATCH_LAWS = frozenset({MagmaLaw.K_CYCLIC, *_TERMS, *BiMagmaLaw, *RMapLaw}
                       - {BiMagmaLaw.SKEW_LEFT_BRACE})


def check_laws_batch(stack: np.ndarray, laws: Iterable, k: Optional[int] = None) -> np.ndarray:
    """Evaluate laws on a stack of structures at once: ``stack[b, g, x, y]``
    is x.y in grid g of structure b, a magma's one table or a bi-magma's dot
    (g = 0) and star (g = 1) tables.  A magma law needs one grid, a
    bi-magma law or an R-map law of R(x, y) = (x.y, x*y) two.  Returns a
    boolean per structure, true where every law in ``laws`` holds; each
    verdict agrees with ``check_magma_law``, ``check_bimagma_law`` or
    ``check_rmap_law``.  Covers ``BATCH_LAWS``: every magma law that is an
    equation and every bi-magma and R-map law but the skew brace one.
    Right Plonka is checked by whole columns and k-cyclic (which needs
    ``k``) by repeated squaring of the columns, both once per distinct
    column of the stack; the other equations through the term table's array
    evaluator (R R^21 = id makes R onto, so a unitary R needs no bijectivity
    check here); the Lyubashenko form as dot rows and star columns
    constant, x.y = f(x) and x*y = g(y), with f and g commuting; R is
    nondegenerate when rows or columns are permutations.  Any other pairing
    of laws and grids, or a stack with an entry outside 0..n-1, raises
    ``ValueError``."""
    if stack.ndim != 4:
        raise ValueError(f"a stack has shape (T, grids, n, n), got {stack.shape}")
    count, grids, n = stack.shape[:3]
    laws = list(laws)
    for law in laws:
        if law not in BATCH_LAWS:
            raise ValueError(f"no batch check for {law!r}")
        if grids != (1 if isinstance(law, MagmaLaw) else 2):
            raise ValueError(f"{law!r} has no batch check on {grids} grids")
        if law is MagmaLaw.K_CYCLIC:
            _check_k(k)
    _check_entries(stack, n, "table" if grids == 1 else "bi-magma")
    by_columns = {MagmaLaw.RIGHT_PLONKA, MagmaLaw.K_CYCLIC} & set(laws)
    ok = _column_laws_hold(stack[:, 0], by_columns, k) if by_columns else \
        np.ones(count, dtype=bool)
    tables = tuple(stack[:, g].reshape(-1) for g in range(grids))
    points = np.arange(n)
    for law in laws:
        if law in by_columns:
            continue
        if law in _TERMS:
            ok &= _groups_hold(tables, count, n, _TERMS[law])
            continue
        dot, star = stack[:, 0], stack[:, 1]
        if law is BiMagmaLaw.LYUBASHENKO_FORM:
            f, g = dot[:, :, :1], star[:, :1]                # x.0 and 0*y
            ok &= _holds(dot == f) & _holds(star == g)
            f, g = f.reshape(count, n), g.reshape(count, n)
            ok &= _holds(np.take_along_axis(f, g, 1) == np.take_along_axis(g, f, 1))
        else:
            # the dot's rows and the star's columns, or the reverse, are injective
            rows, columns = (dot, star) if law is RMapLaw.LEFT_RIGHT_NONDEGENERATE else (star, dot)
            ok &= _holds(np.sort(rows, 2) == points)
            ok &= _holds(np.sort(columns, 1) == points[:, None])
    return ok
