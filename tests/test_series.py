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
from k3scan.enumeration import DegreeCoset
from k3scan.errors import CostLimitError
from k3scan.lattice import GramLattice, bilinear, square
from k3scan.series import big_nef_classes_by_square, theta_series, xi_series


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
