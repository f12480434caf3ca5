"""The test-side isometry search, and identification by genus checked against it."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mat_mul, unimodular_change
from isometry_witness import _greedy_reduce, isometry_small, witness_type

import k3scan.discriminant
from k3scan import linalg
from k3scan.classify import builtin_searches, search_template
from k3scan.discriminant import (
    _forms_isomorphic,
    _one_class_in_genus,
    discriminant_group,
    identify_type,
    isotropic_elements,
    overlattice_from_isotropic,
)
from k3scan.errors import K3ScanError
from k3scan.lattice import GramLattice


def test_identity_on_equal_grams(presets):
    s3 = presets["S3"].lattice
    u = isometry_small(s3, s3)
    assert u == tuple(tuple(int(i == j) for j in range(3)) for i in range(3))


def test_s2_overlattice_is_s5(presets):
    dg = discriminant_group(presets["S2"].lattice)
    over = overlattice_from_isotropic(dg, isotropic_elements(dg)[0])
    u = isometry_small(over, presets["S5"].lattice)
    assert u is not None
    check = mat_mul(
        linalg.transpose(u), mat_mul(presets["S5"].lattice.gram, u)
    )
    assert check == over.gram


def test_distinct_presets_not_isometric(presets):
    assert isometry_small(presets["S2"].lattice, presets["S3"].lattice) is None
    assert isometry_small(presets["S1"].lattice, presets["S2"].lattice) is None
    assert isometry_small(presets["L24"].lattice, presets["L27"].lattice) is None


def _rebased(gram, u):
    """The Gram U^T G U of the same lattice in the basis given by the columns of U."""
    return mat_mul(linalg.transpose(u), mat_mul(gram, u))


def _assert_witnessed(gram, name, presets):
    """identify_type names the lattice `name`, and the witness search finds the map."""
    lat = GramLattice(rank=len(gram), gram=gram)
    assert identify_type(lat) == name
    u = isometry_small(lat, presets[name].lattice)
    assert u is not None, name
    assert _rebased(presets[name].lattice.gram, u) == lat.gram


@settings(max_examples=3, deadline=None)
@given(st.data())
def test_finds_map_for_rebased_lattices(presets, data):
    # Every catalog lattice in a moved basis: identify_type names it, and the search finds the map.
    for name, p in presets.items():
        lat = p.lattice
        moved = unimodular_change(lat.rank).filter(lambda c: _rebased(lat.gram, c[0]) != lat.gram)
        t, _ = data.draw(moved)
        _assert_witnessed(_rebased(lat.gram, t), name, presets)


def _diagonal(*entries):
    n = len(entries)
    return GramLattice(n, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


BIG = _diagonal(2, -2, -2, -2, -2, -2)


@settings(max_examples=3, deadline=None)
@given(unimodular_change(6).filter(lambda c: _rebased(BIG.gram, c[0]) != BIG.gram))
def test_rank_cap(change):
    assert isometry_small(BIG, BIG) == linalg.freeze_matrix(linalg.identity(6))
    # differing invariants decide "not isometric" at any rank
    assert isometry_small(BIG, _diagonal(2, -2, -2, -2, -2, -4)) is None
    assert isometry_small(BIG, _diagonal(2, -2, -2, -2, -2)) is None
    # equal invariants and differing Grams: the search is refused above rank 5
    conj = GramLattice(6, _rebased(BIG.gram, change[0]))
    assert conj.gram != BIG.gram
    with pytest.raises(K3ScanError, match="rank at most 5"):
        isometry_small(conj, BIG)


@settings(max_examples=2, deadline=None)
@given(st.data())
def test_greedy_reduce_tracks_inverse(presets, data):
    grams = [p.lattice.gram for p in presets.values()]
    for gram in list(grams):  # two conjugates of each catalog lattice
        moved = unimodular_change(len(gram)).filter(lambda c: _rebased(gram, c[0]) != gram)
        for _ in range(2):
            t, _ = data.draw(moved)
            grams.append(_rebased(gram, t))
    for gram in grams:
        reduced, t, tinv = _greedy_reduce(gram)
        assert mat_mul(t, tinv) == linalg.freeze_matrix(linalg.identity(len(gram)))
        assert mat_mul(t, mat_mul(gram, linalg.transpose(t))) == reduced


def test_catalog_genera_are_distinct_and_have_one_class(presets):
    groups = {name: discriminant_group(p.lattice) for name, p in presets.items()}
    for a, b in itertools.combinations(presets, 2):
        la, lb = presets[a].lattice, presets[b].lattice
        same_invariants = (la.rank, la.det(), groups[a].invariant_factors) == (
            lb.rank, lb.det(), groups[b].invariant_factors
        )
        assert not (same_invariants and _forms_isomorphic(groups[a], groups[b])), (a, b)
    for name, p in presets.items():
        assert _one_class_in_genus(p.lattice), name
        assert identify_type(p.lattice) == name


def test_class_number_one_hypothesis():
    assert _one_class_in_genus(_diagonal(2, -2, -6))
    # 4 |det| = 4000 is divisible by 5^3, and k = 5 is a non-square, 1 mod 4.
    assert not _one_class_in_genus(_diagonal(2, -2, -250))
    # 4^2 |det| = 2^12: of the k with k^6 | 2^12, 2 is 2 mod 4 and 4 is a square.
    assert _one_class_in_genus(_diagonal(2, -2, -2, -32))
    assert not _one_class_in_genus(_diagonal(2, -2))  # Eichler needs rank >= 3


def test_identify_type_refuses_a_catalog_genus_without_the_hypothesis(presets, monkeypatch):
    monkeypatch.setattr(k3scan.discriminant, "_one_class_in_genus", lambda lat: False)
    with pytest.raises(K3ScanError, match="genus of S5 is not known to have one class"):
        identify_type(presets["S5"].lattice)
    assert identify_type(((10, 0, 0), (0, -100, 0), (0, 0, -2))) is None


def _catalog_derived_grams(presets):
    """Every built-in classify solution and every isotropic overlattice of the catalog."""
    grams = []
    for bs in builtin_searches().values():
        grams += [s.basis_gram for s in search_template(bs.template, bs.target_rank)]
    for p in presets.values():
        dg = discriminant_group(p.lattice)
        grams += [overlattice_from_isotropic(dg, c).gram for c in isotropic_elements(dg)]
    return grams


def test_identification_agrees_with_the_witness(presets):
    grams = _catalog_derived_grams(presets)
    assert len(grams) == 26
    named = 0
    for gram in grams:
        name = identify_type(gram)
        assert witness_type(gram) == name, gram
        if name is not None:
            named += 1
            _assert_witnessed(gram, name, presets)
    assert named == 12


def _q_of_order(dg, order):
    return {dg.q_value(x) for x in dg.elements() if dg.element_order(x) == order}


def test_the_form_decides_where_the_invariants_agree(presets):
    # diag(2, -2, -6) has S1's rank, det 24 and invariant factors (2, 2, 6), but
    # q on its 3-part is 4/3 against S1's 2/3.
    lat = _diagonal(2, -2, -6)
    s1 = presets["S1"].lattice
    dg, s1_dg = discriminant_group(lat), discriminant_group(s1)
    assert (lat.rank, lat.det(), dg.invariant_factors) == (3, 24, (2, 2, 6))
    assert (s1.rank, s1.det(), s1_dg.invariant_factors) == (3, 24, (2, 2, 6))
    assert _q_of_order(dg, 3) == {Fraction(4, 3)}
    assert _q_of_order(s1_dg, 3) == {Fraction(2, 3)}
    assert not _forms_isomorphic(dg, s1_dg)
    assert identify_type(lat) is None
    assert witness_type(lat) is None
