"""Acceptance gate: one test per criterion, every comparison exact.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line
per criterion.  Each test also prints a one-line verdict (visible with
``-s`` or on failure).  The enumeration envelope is every feasible
(k, b) with k <= 4, b <= 10, plus (5, 8).
"""

import random
import time
from fractions import Fraction

from gonalgeo.asymptotics import EVEN, ODD, delta_search, positivity_threshold
from gonalgeo.characters import connected_count
from gonalgeo.invariants import FamilyParams, audit_chain, genus_y, surface_invariants
from gonalgeo.reference import class_count, count_tuples, verify_twist_orbits

from conftest import ENVELOPE


def _verdict(criterion: int, text: str) -> None:
    print(f"criterion {criterion}: PASS - {text}")


def test_criterion_1_hurwitz_counts(census_store):
    start = time.monotonic()
    for b in range(2, 14, 2):
        assert class_count(2, b).class_count == 1, b
    assert count_tuples(3, 4) == 24
    assert class_count(3, 4).class_count == 4
    for k, b in ENVELOPE:
        counts, _cen = census_store(k, b)
        assert counts.raw_count == connected_count(k, b), (k, b)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _verdict(1, f"enumeration matches the character oracle on all "
                f"{len(ENVELOPE)} envelope pairs in {elapsed:.1f}s")


def test_criterion_2_census_identities(census_store):
    for k, b in ENVELOPE:
        _counts, cen = census_store(k, b)
        assert cen.type_one + cen.type_two_two + cen.type_three == cen.classes, (k, b)
        assert cen.type_three % 3 == 0, (k, b)
        assert cen.rational_splits <= cen.type_one, (k, b)
        assert cen.type_one == cen.rational_splits + cen.singular, (k, b)
        split_total = sum(cen.split_table.values())
        assert cen.central == cen.type_one - split_total >= 0, (k, b)
        assert cen.rational_splits == sum(
            n for (j, i), n in cen.split_table.items() if i == 0 or i == cen.g
        ), (k, b)
    _counts, small = census_store(3, 4)
    observed = (
        small.type_one, small.type_two_two, small.type_three,
        small.rational_splits, small.singular,
    )
    assert observed == (1, 0, 3, 1, 0)
    _verdict(2, "census identities hold on every pair; census(3,4) = (1,0,3,1,0)")


def test_criterion_3_full_twist_orbits(census_store):
    for k, b in ENVELOPE:
        _counts, cen = census_store(k, b)
        report = verify_twist_orbits(k, b)
        assert report.clean, (k, b)
        assert report.classes == cen.classes, (k, b)
        assert report.type_three_classes == cen.type_three, (k, b)
    _verdict(3, "twist fixes types (1) and (2,2), orbit size 3 on every type-(3) class")


def test_criterion_4_noether_and_excess(census_store):
    rng = random.Random(20260816)
    packs = 0
    for _ in range(120):
        k, b = rng.choice(ENVELOPE)
        _counts, cen = census_store(k, b)
        p = FamilyParams(cen, c=rng.randrange(0, 120), base_genus=rng.randrange(0, 9))
        inv = surface_invariants(p)  # both identities are hard-asserted inside
        assert 12 * inv.chi == inv.k2 + inv.euler
        assert inv.excess == inv.k2 - 8 * inv.chi
        packs += 1
    for k, b in ENVELOPE:
        _counts, cen = census_store(k, b)
        surface_invariants(FamilyParams(cen, c=b, base_genus=1))
    _counts, cen = census_store(3, 4)
    toy = surface_invariants(FamilyParams(cen, c=8, base_genus=2))
    assert (toy.k2, toy.chi, toy.euler, toy.excess) == (-224, Fraction(-28), -112, 0)
    _verdict(4, f"Noether and excess identities on {packs} random packs "
                "+ all censuses; toy values reproduced")


def test_criterion_5_coefficients_independent_of_base_genus(census_store):
    rng = random.Random(977)
    for _ in range(50):
        k, b = rng.choice(ENVELOPE)
        _counts, cen = census_store(k, b)
        c = rng.randrange(0, 120)
        gx1, gx2 = rng.sample(range(0, 40), 2)
        one = surface_invariants(FamilyParams(cen, c=c, base_genus=gx1))
        two = surface_invariants(FamilyParams(cen, c=c, base_genus=gx2))
        assert one.k2_coeff == two.k2_coeff
        assert one.chi_coeff == two.chi_coeff
    _verdict(5, "k2 and chi coefficients agree across base genera on 50 random packs")


def test_criterion_6_threshold_polynomials():
    odd = positivity_threshold(ODD)
    assert odd.reference_coefficients == (Fraction(-3), Fraction(-43, 6), Fraction(1, 6))
    assert odd.reference_first_positive == 44
    assert odd.claim_matches and odd.reference_claim == 44

    even = positivity_threshold(EVEN)
    assert even.reference_coefficients == (Fraction(20), Fraction(-131), Fraction(3))
    assert even.reference_first_positive == 44
    assert even.reference_claim == 43
    assert not even.claim_matches
    assert any("disagrees with exact evaluation" in note for note in even.notes)
    _verdict(6, "odd threshold 44 confirmed; even recorded claim 43 flagged, "
                "exact first positive is 44")


def test_criterion_7_band_certificates(census_store):
    _counts, cen = census_store(3, 4)
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
        cert = delta_search(cen, eps)
        assert abs(cert.ratio - 8) <= eps
        # re-walk the window above the certificate degree
        for d in range(cert.d_min, cert.d_min + cert.window + 1):
            base_genus = (d - 1) * (d - 2) // 2
            inv = surface_invariants(
                FamilyParams(cen, c=cen.b * d, base_genus=base_genus)
            )
            assert inv.ratio is not None and abs(inv.ratio - 8) <= eps
        assert cert.d_min == 3
    _verdict(7, "delta certificates at epsilon 1, 1/2, 1/10 hold through the window")


def test_criterion_8_audit_chain(census_store):
    printed = None
    for k, b in ENVELOPE:
        _counts, cen = census_store(k, b)
        for c, gx in ((b, 1), (2 * b + 1, 3)):
            p = FamilyParams(cen, c=c, base_genus=gx)
            rep = audit_chain(p)
            n1 = cen.type_one
            third = cen.type_three // 3
            m = p.collision_count_base
            assert rep.exceptional_sq == -m * n1
            assert rep.strict_transform_sq == 2 * b * c * cen.classes - 4 * m * n1
            assert rep.ramification_sq == (cen.classes + (b - 1) * (third - n1)) * c
            assert rep.ram_cross == m * (2 * cen.type_two_two + 4 * third)
            assert rep.ka_sq == -(8 * (genus_y(p) - 1) + m * n1)
            assert rep.reference_discrepancy == rep.reference_kf2 - rep.kf2_closed_form
            assert rep.derived_discrepancy == rep.derived_kf2 - rep.kf2_closed_form
            if (k, b, c, gx) == (3, 4, 4, 1):
                printed = rep
    assert printed is not None
    _verdict(8, "audit stations match their closed forms; sample chain "
                f"reference {printed.reference_kf2} vs first-principles "
                f"{printed.derived_kf2} vs closed {printed.kf2_closed_form}")


def test_criterion_9_worker_determinism():
    for k, b in ENVELOPE:
        counts = {count_tuples(k, b, workers=w) for w in (1, 2, 8)}
        assert len(counts) == 1, (k, b)
        assert counts.pop() == connected_count(k, b), (k, b)
    _verdict(9, "counts identical under 1, 2, and 8 workers on every pair")
