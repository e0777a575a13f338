import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybmag import (BiMagma, CayleyTable, FiniteFunction, FunctionFamily, GuardExceeded, Limits,
                   Permutation, RMap, SetPartition, are_isomorphic, automorphisms,
                   canonical_correspondence, find_homomorphisms, flip_map,
                   identity_rmap, left_zero_table, lyubashenko_rmap,
                   right_zero_table)
from ybmag.build import EssSolution, build_solution
from ybmag import core
from ybmag.core import CrossCheckFailed

from conftest import bimagmas, rmaps


def test_correspondence_flip():
    b = canonical_correspondence(flip_map(2))
    assert b.dot.table == ((0, 1), (0, 1))   # x.y = y
    assert b.star.table == ((0, 0), (1, 1))  # x*y = x


def test_correspondence_identity_is_trivial_bimagma():
    b = canonical_correspondence(identity_rmap(2))
    assert b.dot == left_zero_table(2)
    assert b.star == right_zero_table(2)


def test_correspondence_lyubashenko():
    f = FiniteFunction(3, (1, 2, 0))
    g = FiniteFunction(3, (0, 0, 0))
    b = BiMagma(CayleyTable(3, tuple((f(x),) * 3 for x in range(3))),
                CayleyTable(3, tuple(tuple(g(y) for y in range(3)) for _ in range(3))))
    assert canonical_correspondence(b) == lyubashenko_rmap(f, g)


@given(rmaps())
def test_correspondence_involution_rmap(r):
    assert canonical_correspondence(canonical_correspondence(r)) == r


@given(bimagmas())
def test_correspondence_involution_bimagma(b):
    assert canonical_correspondence(canonical_correspondence(b)) == b


def test_homomorphisms_identity_pair():
    homs = find_homomorphisms(identity_rmap(2), identity_rmap(2))
    assert [h.images for h in homs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_homomorphisms_guard():
    big = identity_rmap(8)
    with pytest.raises(GuardExceeded):
        find_homomorphisms(big, big, Limits(hom_space=10))


def test_ess_to_singleton_is_constant():
    ess = build_solution(EssSolution(2, 1, 0))
    point = lyubashenko_rmap(FiniteFunction(1, (0,)), FiniteFunction(1, (0,)))
    homs = find_homomorphisms(ess, point)
    assert [h.images for h in homs] == [(0, 0)]


def test_iso_conjugate_constants():
    a = CayleyTable(2, ((0, 0), (0, 0)))   # x.y = const 0
    b = CayleyTable(2, ((1, 1), (1, 1)))   # x.y = const 1
    sigma = are_isomorphic(a, b)
    assert sigma is not None and sigma.images == (1, 0)


def test_iso_left_vs_right_zero():
    star = right_zero_table(2)
    a = BiMagma(left_zero_table(2), star)
    b = BiMagma(right_zero_table(2), star)
    assert are_isomorphic(a, b) is None


@given(bimagmas(max_n=4))
def test_self_iso_is_identity_witness(b):
    sigma = are_isomorphic(b, b)
    assert sigma is not None
    assert sigma.images == tuple(range(b.n))  # lexicographically least witness


@given(bimagmas(max_n=4), st.data())
def test_relabelled_structure_is_isomorphic(b, data):
    sigma = tuple(data.draw(st.permutations(list(range(b.n)))))
    assert are_isomorphic(b.relabel(sigma), b) is not None


@given(bimagmas(max_n=3), bimagmas(max_n=3))
@settings(max_examples=60)
def test_iso_iff_bijective_homs_both_ways(a, b):
    if a.n != b.n:
        return
    ra, rb = canonical_correspondence(a), canonical_correspondence(b)
    forward = any(h.is_bijective() for h in find_homomorphisms(ra, rb))
    backward = any(h.is_bijective() for h in find_homomorphisms(rb, ra))
    assert (are_isomorphic(a, b) is not None) == (forward and backward)


def test_automorphisms_identity_rmap():
    autos = automorphisms(canonical_correspondence(identity_rmap(3)))
    assert len(autos) == 6


def test_automorphisms_closure_failure_is_typed(monkeypatch):
    # every permutation fixes a left-zero table; two transpositions alone
    # are not closed under composition
    monkeypatch.setattr(core, "all_permutations",
                        lambda n, limits: [(0, 1, 2), (1, 0, 2), (0, 2, 1)])
    with pytest.raises(CrossCheckFailed, match="not closed under composition"):
        automorphisms(left_zero_table(3))


def test_automorphisms_flip():
    autos = automorphisms(canonical_correspondence(flip_map(3)))
    assert len(autos) == 6


def test_automorphisms_ess_translations():
    ess = canonical_correspondence(build_solution(EssSolution(3, 1, 0)))
    autos = automorphisms(ess)
    assert sorted(a.images for a in autos) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


@given(bimagmas(max_n=3))
@settings(max_examples=30)
def test_automorphism_group_structure(b):
    autos = automorphisms(b)
    images = {a.images for a in autos}
    assert tuple(range(b.n)) in images
    for a in autos:
        assert a.inverse().images in images


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation(2, (0, 0))


def test_function_validation():
    with pytest.raises(ValueError):
        FiniteFunction(2, (0, 2))
    with pytest.raises(ValueError):
        CayleyTable(2, ((0, 1),))
    with pytest.raises(ValueError):
        RMap(2, ((0, 0),) * 3)


@pytest.mark.parametrize("entry", [True, False, np.int64(0), np.uint8(1), 1.0])
@pytest.mark.parametrize("build", [
    lambda v: FiniteFunction(2, (v, 0)),
    lambda v: CayleyTable(2, ((v, 0), (1, 0))),
    lambda v: RMap(2, ((v, 0), (0, 1), (1, 0), (1, 1))),
    lambda v: SetPartition(2, ((v,), (1,))),
], ids=["FiniteFunction", "CayleyTable", "RMap", "SetPartition"])
def test_entries_must_be_python_ints(build, entry):
    # a bool would serialise as True/False; a numpy integer is not an int either
    with pytest.raises(ValueError, match=r"entry .* is not an int"):
        build(entry)


@pytest.mark.parametrize("size", [True, 1.0, np.int64(1)])
@pytest.mark.parametrize("build", [
    lambda n: FiniteFunction(n, (0,)),
    lambda n: FiniteFunction(1, (0,), n),
    lambda n: CayleyTable(n, ((0,),)),
    lambda n: RMap(n, ((0, 0),)),
    lambda n: SetPartition(n, ((0,),)),
    lambda n: FunctionFamily(n, (FiniteFunction(1, (0,)),)),
], ids=["FiniteFunction", "codomain", "CayleyTable", "RMap", "SetPartition", "FunctionFamily"])
def test_carrier_sizes_must_be_python_ints(build, size):
    # True and 1.0 compare equal to 1, but serialise as sizes no parser reads back
    build(1)
    with pytest.raises(ValueError, match=r"carrier size \w+ must be an integer >= 0"):
        build(size)


def test_power_needs_an_int_exponent_at_least_zero():
    swap = FiniteFunction(2, (1, 0))
    assert swap.power(0) == FiniteFunction(2, (0, 1)) and swap.power(3) == swap
    for k in (-1, -4, 1.5, True):
        with pytest.raises(ValueError, match="not an int >= 0"):
            swap.power(k)


def test_sn_guard():
    big = canonical_correspondence(identity_rmap(9))
    with pytest.raises(GuardExceeded):
        are_isomorphic(big, big)
