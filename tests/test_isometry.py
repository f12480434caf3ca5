import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import unimodular_change

from k3scan import linalg
from k3scan.errors import K3ScanError
from k3scan.isometry import _greedy_reduce, isometry_small
from k3scan.lattice import (
    GramLattice,
    discriminant_group,
    isotropic_elements,
    overlattice_from_isotropic,
)


def test_identity_on_equal_grams(presets):
    s3 = presets["S3"].lattice
    u = isometry_small(s3, s3)
    assert u == tuple(tuple(int(i == j) for j in range(3)) for i in range(3))


def test_s2_overlattice_is_s5(presets):
    dg = discriminant_group(presets["S2"].lattice)
    over = overlattice_from_isotropic(dg, isotropic_elements(dg)[0])
    u = isometry_small(over, presets["S5"].lattice)
    assert u is not None
    check = linalg.mat_mul(
        linalg.transpose(u), linalg.mat_mul(presets["S5"].lattice.gram, u)
    )
    assert check == over.gram


def test_distinct_presets_not_isometric(presets):
    assert isometry_small(presets["S2"].lattice, presets["S3"].lattice) is None
    assert isometry_small(presets["S1"].lattice, presets["S2"].lattice) is None
    assert isometry_small(presets["L24"].lattice, presets["L27"].lattice) is None


def _rebased(gram, u):
    """The Gram U^T G U of the same lattice in the basis given by the columns of U."""
    return linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(gram, u))


@settings(max_examples=3, deadline=None)
@given(st.data())
def test_finds_map_for_rebased_lattices(presets, data):
    for name in ("S1", "S3", "S5", "L24", "L27"):
        lat = presets[name].lattice
        moved = unimodular_change(lat.rank).filter(lambda c: _rebased(lat.gram, c[0]) != lat.gram)
        t, _ = data.draw(moved)
        other = GramLattice(rank=lat.rank, gram=_rebased(lat.gram, t))
        u = isometry_small(other, lat)
        assert u is not None
        check = linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(lat.gram, u))
        assert check == other.gram


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
        assert linalg.mat_mul(t, tinv) == linalg.freeze_matrix(linalg.identity(len(gram)))
        assert linalg.mat_mul(t, linalg.mat_mul(gram, linalg.transpose(t))) == reduced
