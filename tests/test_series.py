import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    convolution,
    is_ample,
    mat_mul,
    primitive_counts,
    sieve_presets,
    unimodular_change,
)
from oracle import box_scan_big_nef_count

import k3scan.series
from k3scan import linalg
from k3scan.cli import run
from k3scan.cone import vinberg_sieve
from k3scan.enumeration import DegreeCoset, Walls
from k3scan.errors import CostLimitError
from k3scan.lattice import GramLattice, bilinear, square
from k3scan.series import (
    _facet_rows,
    _generic_point,
    _orbit_counts,
    big_nef_classes_by_square,
    symmetry_group,
    theta_series,
    xi_series,
)


def big_nef_of_square(cs, d):
    return big_nef_classes_by_square(cs, d).get(d, [])


def test_series_degree_range(curve_systems, monkeypatch):
    # The series asks the kernel for exactly the degrees 1..K, where K is the
    # largest k with k^2 <= ell * H^2 * max_square.
    classes = DegreeCoset.classes
    asked = []

    def recording(coset, k, *args, **kwargs):
        asked.append(k)
        return classes(coset, k, *args, **kwargs)

    monkeypatch.setattr(DegreeCoset, "classes", recording)
    for name, max_square, ell, h2, top in (
        ("S2", 4, 9, 4, 12),  # k^2 <= 144 = 12^2: the bound itself is reached
        ("L27", 2, Fraction(15, 2), 2, 5),  # k^2 <= 30
        ("S5", 2, 2, 2, 2),  # k^2 <= 8
    ):
        cs = curve_systems[name]
        assert (cs.chamber.ell, square(cs.lattice, cs.ample_seed)) == (ell, h2)
        asked.clear()
        xi_series(cs, max_square)
        assert asked == list(range(1, top + 1)), name


def test_series_stops_past_its_class_limit(curve_systems, monkeypatch):
    # L27 builds 1,951 classes of square <= 100, the last of them at degree 30.
    l27 = curve_systems["L27"]
    monkeypatch.setattr(k3scan.series, "MAX_SERIES_CLASSES", 1951)
    assert sum(xi_series(l27, 100).values()) == 1951
    monkeypatch.setattr(k3scan.series, "MAX_SERIES_CLASSES", 1950)
    with pytest.raises(CostLimitError, match="^more than 1950 classes built by degree 30$"):
        xi_series(l27, 100)


def test_big_nef_examples(curve_systems):
    s1 = curve_systems["S1"]
    assert big_nef_of_square(s1, 2) == [(1, -1, -1)]

    s2 = curve_systems["S2"]
    assert big_nef_of_square(s2, 2) == []
    assert big_nef_of_square(s2, 4) == [s2.ample_seed]

    s3 = curve_systems["S3"]
    sixes = big_nef_of_square(s3, 6)
    assert len(sixes) == 4
    for cls in sixes:
        contracted = [c for c in s3.curves if bilinear(s3.lattice, cls, c) == 0]
        assert len(contracted) == 1
    assert len({tuple(c) for cls in sixes for c in
                [next(c for c in s3.curves if bilinear(s3.lattice, cls, c) == 0)]}) == 4


def test_minimal_polarizations(curve_systems):
    for name in ("S1", "S4", "S5", "S6", "L27"):
        classes = big_nef_of_square(curve_systems[name], 2)
        assert len(classes) == 1, name
        assert is_ample(curve_systems[name], classes[0])
    for name in ("S2", "S3"):
        assert big_nef_of_square(curve_systems[name], 2) == []
        assert len(big_nef_of_square(curve_systems[name], 4)) == 1


def test_every_counted_class_is_big_nef_and_bounded(curve_systems):
    for name in ("S4", "L24"):
        cs = curve_systems[name]
        h2 = square(cs.lattice, cs.ample_seed)
        for d in range(2, 31, 2):
            for cls in big_nef_of_square(cs, d):
                assert square(cs.lattice, cls) == d
                assert all(bilinear(cs.lattice, cls, c) >= 0 for c in cs.curves)
                k = bilinear(cs.lattice, cs.ample_seed, cls)
                assert 1 <= k and k * k <= cs.chamber.ell * h2 * d


def test_theta_matches_golden_modulo_errata(curve_systems, golden_series, errata):
    known = {
        (e["preset"], e["kind"], e["exponent"]): e
        for e in errata
        if e["kind"] == "theta"
    }
    for name, cs in curve_systems.items():
        doc = golden_series[(name, "theta")]
        through = doc["printed_through"]
        printed = {int(k): v for k, v in doc["coefficients"].items()}
        table = theta_series(cs, through)
        mismatches = {}
        for d in range(2, through + 1, 2):
            if table[d] != printed.get(d, 0):
                mismatches[d] = (printed.get(d, 0), table[d])
        expected_mismatches = {
            exp: (entry["published"], entry["computed"])
            for (preset, _, exp), entry in known.items()
            if preset == name
        }
        assert mismatches == expected_mismatches, f"{name}: {mismatches}"
        # every recorded mismatch must be reproduced by the independent oracle
        for d, (_, computed) in mismatches.items():
            count = box_scan_big_nef_count(
                cs.lattice, cs.ample_seed, cs.curves, curve_systems[name].chamber.ell, d,
                primitive_only=True,
            )
            assert count == computed


def test_xi_s2_matches_golden(curve_systems, golden_series):
    doc = golden_series[("S2", "xi")]
    printed = {int(k): v for k, v in doc["coefficients"].items()}
    table = xi_series(curve_systems["S2"], doc["printed_through"])
    for d in range(2, doc["printed_through"] + 1, 2):
        assert table[d] == printed.get(d, 0), f"xi({d})"


def test_convolution_identity(curve_systems):
    # theta_series is derived from xi, so the identity holds by construction;
    # the primitive classes are counted here to make it a check on the kernel.
    for name, cs in curve_systems.items():
        counted = primitive_counts(cs, 100)
        assert theta_series(cs, 100) == counted, name
        xi = xi_series(cs, 100)
        for d in range(2, 101, 2):
            assert xi[d] == convolution(counted, d), f"{name}: square {d}"


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(sorted(sieve_presets())), st.data())
def test_convolution_identity_in_random_bases(presets, curve_systems, name, data):
    # An isometric copy of a preset: the sieve and the chamber are re-run in
    # the new basis, and the chamber only moves by the isometry.
    p = presets[name]
    u, uinv = data.draw(unimodular_change(p.lattice.rank))
    gram = mat_mul(linalg.transpose(u), mat_mul(p.lattice.gram, u))
    lat = GramLattice(rank=p.lattice.rank, gram=gram)
    cs = vinberg_sieve(lat, linalg.mat_vec(uinv, p.ample), 10)
    counted = primitive_counts(cs, 40)
    theta = theta_series(cs, 40)
    assert theta == counted, name
    xi = xi_series(cs, 40)
    for d in range(2, 41, 2):
        assert xi[d] == convolution(counted, d), f"{name}: square {d}"
    assert theta == theta_series(curve_systems[name], 40)


def test_series_counts_match_oracle_small(curve_systems):
    for name in ("S1", "S5"):
        cs = curve_systems[name]
        ell = cs.chamber.ell
        theta = theta_series(cs, 12)
        xi = xi_series(cs, 12)
        for d in range(2, 13, 2):
            assert theta[d] == box_scan_big_nef_count(
                cs.lattice, cs.ample_seed, cs.curves, ell, d, primitive_only=True
            )
            assert xi[d] == box_scan_big_nef_count(
                cs.lattice, cs.ample_seed, cs.curves, ell, d, primitive_only=False
            )


def _another_ample_class(cs):
    lat = cs.lattice
    for coords in itertools.product(range(-4, 5), repeat=lat.rank):
        if coords == cs.ample_seed or not any(coords):
            continue
        if square(lat, coords) > 0 and is_ample(cs, coords):
            return coords
    raise AssertionError("no alternative ample class in the box")


def test_series_independent_of_ample_seed(curve_systems):
    for name in ("S1", "S5"):
        cs = curve_systems[name]
        h2 = _another_ample_class(cs)
        kmax2 = 2 * max(bilinear(cs.lattice, h2, c) for c in cs.curves)
        cs2 = vinberg_sieve(cs.lattice, h2, kmax2)
        assert set(cs2.curves) == set(cs.curves)
        base = theta_series(cs, 40)
        moved = theta_series(cs2, 40)
        assert base == moved


def test_series_validation(curve_systems):
    cs = curve_systems["S1"]
    with pytest.raises(ValueError):
        theta_series(cs, 0)
    with pytest.raises(ValueError):
        xi_series(cs, 7)


def test_factored_display():
    # The series are plain counts; the command line formats them.
    code, text = run(["series", "--preset", "S1", "--max-square", "8"])
    assert code == 0, text
    shown = json.loads(text)
    assert shown["factored"] == "T^2 + 6(T^4 + T^6)"
    assert shown["polynomial"] == "T^2 + 6T^4 + 6T^6"


# |G| for the isometries that permute the sieve's curves and fix the preset seed.
GROUP_ORDERS = {"S1": 12, "S2": 12, "S3": 8, "S4": 4, "S5": 4, "S6": 4, "L24": 12, "L27": 24}


def test_symmetry_group_orders(curve_systems):
    assert {name: len(symmetry_group(cs)) for name, cs in curve_systems.items()} == GROUP_ORDERS


def test_symmetry_group_is_a_group_of_curve_isometries(curve_systems):
    for name, cs in curve_systems.items():
        lat, h = cs.lattice, cs.ample_seed
        group = symmetry_group(cs)
        elements = set(group)
        assert len(elements) == len(group), name
        assert linalg.freeze_matrix(linalg.identity(lat.rank)) in elements, name
        for g in group:
            assert all(type(x) is int for row in g for x in row), name
            assert mat_mul(linalg.transpose(g), mat_mul(lat.gram, g)) == lat.gram, name
            assert linalg.mat_vec(g, h) == h, name
            assert {linalg.mat_vec(g, c) for c in cs.curves} == set(cs.curves), name
        assert all(mat_mul(a, b) in elements for a in group for b in group), name


def test_group_search_past_its_budget_is_trivial(curve_systems, monkeypatch):
    expected = {name: xi_series(cs, 100) for name, cs in curve_systems.items()}
    # L24's search enters 43 nodes, the most of any preset: at 42 it gives up.
    l24 = curve_systems["L24"]
    monkeypatch.setattr(k3scan.series, "MAX_GROUP_NODES", 43)
    assert len(symmetry_group(l24)) == 12
    monkeypatch.setattr(k3scan.series, "MAX_GROUP_NODES", 42)
    assert symmetry_group(l24) == (linalg.freeze_matrix(linalg.identity(4)),)
    monkeypatch.setattr(k3scan.series, "MAX_GROUP_NODES", 0)
    for name, cs in curve_systems.items():
        assert len(symmetry_group(cs)) == 1, name
        assert xi_series(cs, 100) == expected[name], name


def _plain_counts(cs, hi):
    return {d: len(c) for d, c in big_nef_classes_by_square(cs, hi).items()}


def _fixers(group, p):
    return sum(linalg.mat_vec(g, p) == p for g in group)


# The stabiliser of the curve with the largest one: S5's curves have none.
CURVE_STABILISERS = {"S1": 2, "S2": 2, "S3": 2, "S4": 2, "S5": 1, "S6": 2, "L24": 2, "L27": 12}


def test_orbit_counts_match_the_plain_counts(curve_systems):
    # The weights count every class exactly whatever p is: the generic point
    # (a fundamental domain), H (fixed by G, so every class weighs 1) and a
    # curve (a stabiliser between the two).
    stabilisers = {}
    for name, cs in curve_systems.items():
        group = symmetry_group(cs)
        plain = _plain_counts(cs, 200)
        generic = _generic_point(group, cs.lattice.rank)
        curve = max(cs.curves, key=lambda c: _fixers(group, c))
        stabilisers[name] = _fixers(group, curve)
        assert (_fixers(group, generic), _fixers(group, cs.ample_seed)) == (1, len(group)), name
        for p in (generic, cs.ample_seed, curve):
            assert _orbit_counts(cs, 200, group, p) == plain, (name, p)
    assert stabilisers == CURVE_STABILISERS


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(sieve_presets())), st.data())
def test_orbit_counts_from_any_point(curve_systems, name, data):
    cs = curve_systems[name]
    p = data.draw(st.tuples(*[st.integers(-6, 6)] * cs.lattice.rank))
    group = symmetry_group(cs)
    assert _orbit_counts(cs, 60, group, p) == _plain_counts(cs, 60)


def test_the_kernel_takes_the_facet_rows(curve_systems, monkeypatch):
    # The generic point's Dirichlet domain has 2 facets on every rank-3 preset
    # and 3 on L24 and L27; the kernel takes them after the curve rows.
    taken = []
    init = Walls.__init__

    def recording(self, coset, rows):
        taken.append(len(rows))
        init(self, coset, rows)

    monkeypatch.setattr(Walls, "__init__", recording)
    for name, cs in curve_systems.items():
        taken.clear()
        xi_series(cs, 4)
        assert taken == [len(cs.curves) + (3 if cs.lattice.rank == 4 else 2)], name


def test_facet_rows_cut_out_the_cone_of_every_row(curve_systems):
    # Every point of h^perp in a box that meets the facet rows meets every row.
    for name, cs in curve_systems.items():
        coset = DegreeCoset(cs.lattice, cs.ample_seed)
        group = symmetry_group(cs)
        p = _generic_point(group, cs.lattice.rank)
        seen = linalg.mat_vec(cs.lattice.gram, p)
        rows = [
            tuple(a - b for a, b in zip(seen, linalg.mat_vec(cs.lattice.gram, linalg.mat_vec(g, p))))
            for g in group if linalg.mat_vec(g, p) != p
        ]
        facets = _facet_rows(coset, rows)
        assert set(facets) <= set(rows) and len(facets) < len(rows), name
        for x in itertools.product(range(-4, 5), repeat=len(coset.basis)):
            y = [sum(xi * b[i] for xi, b in zip(x, coset.basis)) for i in range(cs.lattice.rank)]
            if all(linalg.dot(y, r) >= 0 for r in facets):
                assert all(linalg.dot(y, r) >= 0 for r in rows), (name, x)


def test_series_invariant_under_a_seed_with_a_smaller_stabiliser(curve_systems):
    # Another interior seed of the same chamber fixes fewer of the curve
    # isometries: 2 of S1's 12 and 12 of L27's 24.  The curves and xi stay.
    for name, seed, order in (("S1", (3, -3, -2), 2), ("L27", (1, -3, 3, 3), 12)):
        cs = curve_systems[name]
        assert is_ample(cs, seed), name
        kmax = 2 * max(bilinear(cs.lattice, seed, c) for c in cs.curves)
        moved = vinberg_sieve(cs.lattice, seed, kmax)
        assert set(moved.curves) == set(cs.curves), name
        assert len(symmetry_group(moved)) == order, name
        assert xi_series(moved, 100) == xi_series(cs, 100), name


def test_symmetry_group_keeps_only_the_maps_of_its_curves(curve_systems):
    # With L27's last curve left out, the isometries that permute the other
    # seven are those that fix it: 4 of the 24.
    l27 = curve_systems["L27"]
    last = l27.curves[-1]
    fewer = l27._replace(
        curves=l27.curves[:-1], gram_of_curves=tuple(row[:-1] for row in l27.gram_of_curves[:-1])
    )
    fixing = {g for g in symmetry_group(l27) if linalg.mat_vec(g, last) == last}
    assert set(symmetry_group(fewer)) == fixing and len(fixing) == 4


@pytest.mark.parametrize("kept", [0, 1])
def test_orbit_counts_do_not_rest_on_the_facet_rows(curve_systems, monkeypatch, kept):
    # With fewer symmetry walls the kernel returns classes outside the domain,
    # and the weight test alone must drop them.
    monkeypatch.setattr(k3scan.series, "_facet_rows", lambda coset, rows: list(rows)[:kept])
    for name, cs in curve_systems.items():
        group = symmetry_group(cs)
        p = _generic_point(group, cs.lattice.rank)
        assert _orbit_counts(cs, 100, group, p) == _plain_counts(cs, 100), name
