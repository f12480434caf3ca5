"""Acceptance suite: every criterion prints one PASS/FAIL line (run with -s).

All comparisons are exact (integer or rational); the only tolerance anywhere
is tolerance zero.  All three mismatches with the paper recorded in
errata.json are asserted as recorded, never as published.  The S1 theta
term (criterion 7) and the L25 isotropic class (criterion 10) must equal the
logged computed values, and the independent numpy oracle (tests/oracle.py)
must confirm each.  The L24 vertex-label swap changes no vertex square or
degree, so criterion 5 compares the unaffected inventory, and criterion 12
checks the enumeration it rests on against the oracle.
"""

import itertools
import random
from fractions import Fraction

from helpers import (
    PUBLISHED_CURVE_GRAMS,
    PUBLISHED_VERTEX_STATS,
    PUBLISHED_VERTICES,
    convolution,
    gram_permutation_equivalent,
    hyperbolic_ell,
    primitive_counts,
)
from isometry_witness import isometry_small
from oracle import box_scan_big_nef_count, box_scan_classes, scan_isotropic_dual_classes

from k3scan.classify import builtin_searches, search_template
from k3scan.cli import run as cli_run
from k3scan.enumeration import DegreeCoset
from k3scan.lattice import (
    GramLattice,
    discriminant_group,
    isotropic_elements,
    overlattice_from_isotropic,
    square,
)
from k3scan.series import big_nef_classes_by_square, theta_series, xi_series

SIEVE_NAMES = ("S1", "S2", "S3", "S4", "S5", "S6", "L24", "L27")


def check(number, description, ok):
    print(f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_curve_systems(curve_systems):
    expected = {"S1": 6, "S2": 6, "S3": 4, "S4": 4, "S5": 4, "S6": 6, "L24": 6, "L27": 8}
    ok = True
    for name in SIEVE_NAMES:
        cs = curve_systems[name]
        if len(cs.curves) != expected[name]:
            ok = False
        if gram_permutation_equivalent(cs.gram_of_curves, PUBLISHED_CURVE_GRAMS[name]) is None:
            ok = False
    check(1, "sieve reproduces every published curve count and intersection matrix", ok)


def _pairs_summing_to(cs, multiple):
    target = tuple(multiple * x for x in cs.ample_seed)
    return [
        (i, j)
        for i in range(len(cs.curves))
        for j in range(i, len(cs.curves))
        if tuple(a + b for a, b in zip(cs.curves[i], cs.curves[j])) == target
    ]


def test_criterion_02_linear_relations(curve_systems):
    ok = True
    for name, spec in (
        ("S1", {2: 3}),
        ("S2", {2: 3}),
        ("S3", {1: 2}),
        ("S6", {2: 1, 3: 2}),
        ("L24", {1: 3}),
        ("L27", {1: 1, 2: 3}),
    ):
        cs = curve_systems[name]
        seen = []
        for multiple, count in spec.items():
            pairs = _pairs_summing_to(cs, multiple)
            if len(pairs) != count:
                ok = False
            seen.extend(pairs)
        if sorted(i for p in seen for i in p) != list(range(len(cs.curves))):
            ok = False
    check(2, "published pair-sum relations hold exactly and exhaust the curves", ok)


def test_criterion_03_minimal_polarizations(curve_systems):
    ok = True
    for name in ("S1", "S4", "S5", "S6", "L27"):
        if len(big_nef_classes_by_square(curve_systems[name], 2).get(2, [])) != 1:
            ok = False
    for name in ("S2", "S3"):
        if big_nef_classes_by_square(curve_systems[name], 2).get(2, []) != []:
            ok = False
        if len(big_nef_classes_by_square(curve_systems[name], 4).get(4, [])) != 1:
            ok = False
    check(3, "unique minimal polarizations at the published squares", ok)


def test_criterion_04_ell_values(curve_systems):
    expected = {
        "S1": Fraction(3), "S2": Fraction(9), "S3": Fraction(3),
        "S4": Fraction(10, 3), "S5": Fraction(2), "S6": Fraction(22, 3),
        "L24": Fraction(7, 2), "L27": Fraction(15, 2),
    }
    ok = all(curve_systems[name].chamber.ell == expected[name] for name in SIEVE_NAMES)
    check(4, "exact chamber radii ell match the published arccosh values", ok)


def test_criterion_05_vertex_inventories(curve_systems):
    ok = True
    for name in SIEVE_NAMES:
        stats = sorted((v.square, v.degree) for v in curve_systems[name].chamber.vertices)
        if stats != PUBLISHED_VERTEX_STATS[name]:
            ok = False
    for name, table in PUBLISHED_VERTICES.items():
        if sorted(v.coords for v in curve_systems[name].chamber.vertices) != table:
            ok = False
    check(5, "vertex squares/degrees and printed coordinate tables reproduced", ok)


def test_criterion_06_xi_series_s2(curve_systems, golden_series):
    doc = golden_series[("S2", "xi")]
    printed = {int(k): v for k, v in doc["coefficients"].items()}
    table = xi_series(curve_systems["S2"], doc["printed_through"])
    ok = all(
        table[d] == printed.get(d, 0)
        for d in range(2, doc["printed_through"] + 1, 2)
    )
    check(6, "xi for S2 matches the published series through T^108", ok)


def test_criterion_07_theta_series(curve_systems, golden_series, errata):
    recorded = {
        (e["preset"], e["exponent"]): e for e in errata if e["kind"] == "theta"
    }
    ok = True
    for name in SIEVE_NAMES:
        doc = golden_series[(name, "theta")]
        printed = {int(k): v for k, v in doc["coefficients"].items()}
        table = theta_series(curve_systems[name], doc["printed_through"])
        for d in range(2, doc["printed_through"] + 1, 2):
            got = table[d]
            want = printed.get(d, 0)
            if got == want:
                continue
            entry = recorded.get((name, d))
            if entry is None or entry["computed"] != got or entry["published"] != want:
                ok = False
                continue
            oracle_count = box_scan_big_nef_count(
                curve_systems[name].lattice,
                curve_systems[name].ample_seed,
                curve_systems[name].curves,
                curve_systems[name].chamber.ell,
                d,
                primitive_only=True,
            )
            if oracle_count != got:
                ok = False
    check(7, "theta matches every published series; mismatches errata-logged and oracle-backed", ok)


def test_criterion_08_convolution_identity(curve_systems):
    ok = True
    for name in SIEVE_NAMES:
        # theta is derived from xi; the primitive classes are counted apart.
        counted = primitive_counts(curve_systems[name], 100)
        if theta_series(curve_systems[name], 100) != counted:
            ok = False
        xi = xi_series(curve_systems[name], 100)
        for d in range(2, 101, 2):
            if xi[d] != convolution(counted, d):
                ok = False
    check(
        8,
        "theta counts the primitive classes, and xi(d) = sum over m^2|d of theta(d/m^2), "
        "up to square 100 on every preset",
        ok,
    )


def test_criterion_09_template_searches():
    searches = builtin_searches()
    ok = True
    for name in ("S1", "S2", "S3", "S4", "S6", "L24", "L27"):
        bs = searches[name]
        solutions = search_template(bs.template, bs.target_rank)
        if {s.values for s in solutions} != set(bs.expected):
            ok = False
        if name == "L24":
            types = {s.values: s.identified for s in solutions}
            if types != {(0, 0, 0): "L24", (0, 0, 1): "L25"}:
                ok = False
        if name == "L27":
            by_values = {s.values: s for s in solutions}
            groups = (
                [(0, 0, 4, 0, 1, 0), (0, 0, 4, 1, 2, 0), (0, 0, 4, 1, 0, 2), (0, 0, 4, 0, 0, 1)],
                [(2, 0, 4, 0, 2, 2), (0, 2, 4, 0, 2, 2), (0, 0, 2, 0, 2, 2),
                 (0, 2, 0, 0, 2, 0), (2, 0, 0, 0, 0, 2)],
            )
            for members in groups:
                lattices = [GramLattice(4, by_values[v].basis_gram) for v in members]
                for a, b in itertools.combinations(lattices, 2):
                    if isometry_small(a, b) is None:
                        ok = False
    check(9, "every configuration search returns exactly the published solutions", ok)


# (B2+B3+B5)/3 in the L25 basis and its negative, reduced into [0, 1)^4.
L25_ISOTROPIC_COSET = {
    (0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    (0, Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
}


def _l25_erratum_problems(lattice, errata):
    """Why the recorded L25 discriminant erratum does not hold; empty if it does."""
    problems = []
    recorded = [e for e in errata if (e["preset"], e["kind"]) == ("L25", "discriminant")]
    if [e["published"] for e in recorded] != ["no non-trivial isotropic element"]:
        problems.append("errata.json does not record the L25 discriminant erratum")
    dg = discriminant_group(lattice)
    found = isotropic_elements(dg)
    if len(found) != 1:
        problems.append(
            f"A(L25) has {len(found)} non-trivial isotropic class(es), errata.json records 1"
        )
    elif dg.element_order(found[0]) != 3 or dg.lift(found[0]) not in L25_ISOTROPIC_COSET:
        problems.append("the A(L25) isotropic class is not +-(B2+B3+B5)/3 of order 3")
    else:
        over = overlattice_from_isotropic(dg, found[0])
        if over.det() != -3 or any(over.gram[i][i] % 2 for i in range(over.rank)):
            problems.append("the L25 overlattice is not even of determinant -3")
    if set(scan_isotropic_dual_classes(lattice.gram)) != L25_ISOTROPIC_COSET:
        problems.append("the oracle scan of L25*/L25 does not find exactly +-(B2+B3+B5)/3")
    return problems


def test_criterion_10_discriminant_analysis(presets, errata):
    details = []
    ok = True
    for name in ("S1", "S3"):
        found = isotropic_elements(discriminant_group(presets[name].lattice))
        if found:
            ok = False
            details.append(f"A({name}) has {len(found)} non-trivial isotropic class(es)")
    dg = discriminant_group(presets["S2"].lattice)
    iso = isotropic_elements(dg)
    if len(iso) != 1:
        ok = False
        details.append(f"A(S2) has {len(iso)}")
    else:
        over = overlattice_from_isotropic(dg, iso[0])
        if isometry_small(over, presets["S5"].lattice) is None:
            ok = False
            details.append("S2 overlattice is not S5")
    l25_problems = _l25_erratum_problems(presets["L25"].lattice, errata)
    if l25_problems:
        ok = False
        details.extend(l25_problems)
    suffix = f" ({'; '.join(details)}; see errata.json)" if details else ""
    check(
        10,
        "published isotropic-element counts for S1/S3/S2 and the S5 overlattice; "
        "the L25 count errata-logged and oracle-backed" + suffix,
        ok,
    )


def test_criterion_11_hodge_index(curve_systems):
    rng = random.Random(424242)
    ok = True
    for cs in curve_systems.values():
        lat = cs.lattice
        found = 0
        while found < 1000:
            v = tuple(rng.randint(-9, 9) for _ in range(lat.rank))
            w = tuple(rng.randint(-9, 9) for _ in range(lat.rank))
            if square(lat, v) <= 0 or square(lat, w) <= 0:
                continue
            found += 1
            ell = hyperbolic_ell(lat, v, w)
            proportional = all(
                v[i] * w[j] == v[j] * w[i]
                for i in range(lat.rank)
                for j in range(lat.rank)
            )
            if ell < 1 or (ell == 1) != proportional:
                ok = False
    check(11, "ell >= 1 with equality iff proportional, 1000 random pairs per preset", ok)


def test_criterion_12_enumeration_oracle(curve_systems):
    ok = True
    for name in SIEVE_NAMES:
        cs = curve_systems[name]
        lat, h = cs.lattice, cs.ample_seed
        coset = DegreeCoset(lat, h)
        for d in (-2, 2, 4, 6, 8, 10, 12):
            for k in range(0 if d == -2 else 1, 13):
                got = sorted(cls for _, cls in coset.classes(k, d, d))
                if got != box_scan_classes(lat, h, d, k):
                    ok = False
    check(12, "square-and-degree enumeration equals the naive box scan on all cells with degree <= 12", ok)


def test_criterion_13_cli_determinism():
    ok = True
    for argv in (
        ["curves", "--preset", "L27"],
        ["chamber", "--preset", "S2"],
        ["series", "--preset", "S4", "--max-square", "40"],
        ["disc", "--preset", "S2"],
        ["classify", "--template", "S1"],
    ):
        code1, out1 = cli_run(argv)
        code2, out2 = cli_run(argv)
        if code1 != 0 or code2 != 0 or out1 != out2:
            ok = False
    for jobs in ("1", "2", "4"):
        code, out = cli_run(["classify", "--template", "L24", "--jobs", jobs])
        if code != 0:
            ok = False
        if jobs == "1":
            reference = out
        elif out != reference:
            ok = False
    check(13, "byte-identical JSON across repeated runs and worker counts", ok)
