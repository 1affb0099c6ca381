"""Surface invariant tests.

The worked family (degree 3, 4 branch points, branch divisor degree 8,
base genus 2) is frozen in full; everything else is identity-driven:
Noether and the excess identity on randomized parameter packs over the
real censuses, coefficient independence from the base genus, and the
audit chain against its closed forms.
"""

import re
from dataclasses import fields
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from gonalgeo import invariants
from gonalgeo.digits import int_digit_limit
from gonalgeo.errors import CapacityError, InvariantViolation, ParameterError
from gonalgeo.invariants import (
    MINUS_ONE_COMPONENT_MEETS,
    MINUS_TWO_COMPONENT_MEETS,
    AuditReport,
    FamilyParams,
    SurfaceInvariants,
    _census_coefficients,
    audit_chain,
    genus_y,
    rational_payload,
    surface_invariants,
)

from conftest import ENVELOPE


@pytest.fixture(scope="session")
def toy(census_store):
    _counts, cen = census_store(3, 4)
    return FamilyParams(cen, c=8, base_genus=2)


def test_family_params_validation(census_store):
    _counts, cen = census_store(3, 4)
    pack = FamilyParams(cen, c=8, base_genus=2)
    assert (pack.census.k, pack.census.g, pack.census.b) == (3, 0, 4)
    assert pack.collision_count_base == 24
    with pytest.raises(ParameterError):
        FamilyParams(cen, c=-1, base_genus=2)
    with pytest.raises(ParameterError):
        FamilyParams(cen, c=8, base_genus=-1)


def test_cautions(census_store):
    _counts, cen = census_store(3, 4)
    comfortable = FamilyParams(cen, c=30, base_genus=2)
    assert comfortable.cautions == ()
    toy = FamilyParams(cen, c=8, base_genus=2)
    assert len(toy.cautions) == 1
    assert "very-ampleness floor 20" in toy.cautions[0]
    tight = FamilyParams(cen, c=2, base_genus=2)
    assert len(tight.cautions) == 2
    assert "below the branch count" in tight.cautions[0]
    special = FamilyParams(cen, c=8, base_genus=2, special_base=True)
    assert special.cautions == ()


def test_toy_family_frozen_values(toy):
    assert genus_y(toy) == 29
    inv = surface_invariants(toy)
    assert isinstance(inv, SurfaceInvariants)
    assert inv.parameter_genus == 29
    assert inv.collision_count_base == 24
    assert inv.collision_count_parameter == 48
    assert inv.singular_fiber_count == 0
    assert inv.euler == -112
    assert inv.k2 == -224
    assert inv.chi == Fraction(-28)
    assert inv.chi_integral
    assert inv.k2_coeff == -24
    assert inv.chi_coeff == Fraction(-3)
    assert inv.excess == 0
    assert not inv.positive_index
    assert inv.ratio == Fraction(8)
    assert inv.slope is None
    assert inv.q_label == 29


def test_degenerate_family_zeroes_out(census_store):
    _counts, cen = census_store(3, 4)
    flat = FamilyParams(cen, c=0, base_genus=1)
    inv = surface_invariants(flat)
    assert (inv.k2, inv.chi, inv.euler, inv.parameter_genus) == (0, 0, 0, 1)
    assert inv.ratio is None and inv.slope is None
    payload = inv.as_payload()
    assert "ratio" not in payload and "slope" not in payload
    assert sorted(payload["notes"]) == [
        "ratio omitted: denominator is zero",
        "slope omitted: denominator is zero",
    ]


def test_payload_shapes(toy):
    payload = surface_invariants(toy).as_payload()
    assert payload["k2"] == {"numerator": "-224", "denominator": "1", "approx": -224.0}
    assert payload["chi_coeff"]["numerator"] == "-3"
    assert payload["positive_index"] is False
    assert payload["chi_integral"] is True
    assert payload["q_label"] == 29
    assert payload["notes"] == ["slope omitted: denominator is zero"]
    assert rational_payload(Fraction(3, 2)) == {
        "numerator": "3", "denominator": "2", "approx": 1.5,
    }


def test_rational_payload_past_float_range():
    assert rational_payload(Fraction(-(10**400), 3)) == {
        "numerator": "-" + "1" + "0" * 400, "denominator": "3", "approx": None,
    }
    # below float range the approximation underflows to zero, which is a float
    assert rational_payload(Fraction(1, 10**400))["approx"] == 0.0


def test_rational_payload_too_long_to_print():
    limit = int_digit_limit()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    for value, message in (
        (-(10**limit), "a numerator is at most -10^"),
        (Fraction(1, 10**limit), "a denominator is at least 10^"),
    ):
        with pytest.raises(CapacityError, match=re.escape(message)):
            rational_payload(value)
    assert rational_payload(10**limit - 1)["numerator"] == "9" * limit


PACKS = st.tuples(
    st.sampled_from(ENVELOPE),
    st.integers(0, 80),
    st.integers(0, 7),
)


@settings(max_examples=120, deadline=None)
@given(pack=PACKS)
def test_identities_on_random_packs(census_store, pack):
    (k, b), c, gx = pack
    _counts, cen = census_store(k, b)
    p = FamilyParams(cen, c=c, base_genus=gx)
    inv = surface_invariants(p)
    # the two identities are also asserted inside; re-check from the outside
    assert 12 * inv.chi == inv.k2 + inv.euler
    assert inv.excess == inv.k2 - 8 * inv.chi
    assert inv.positive_index == (inv.excess > 0)
    assert inv.chi == c * inv.chi_coeff + cen.classes * (gx - 1) * (cen.g - 1)
    assert inv.k2 == c * inv.k2_coeff + 8 * cen.classes * (gx - 1) * (cen.g - 1)
    assert inv.euler == 4 * (cen.g - 1) * (inv.parameter_genus - 1) + 2 * inv.singular_fiber_count
    assert inv.singular_fiber_count == cen.singular * p.collision_count_base
    assert inv.chi_integral == (inv.chi.denominator == 1)
    if inv.chi == 0:
        assert inv.ratio is None
    else:
        assert inv.ratio == Fraction(inv.k2) / inv.chi
    rel = (cen.g - 1) * (inv.parameter_genus - 1)
    if inv.chi == rel:
        assert inv.slope is None
    else:
        assert inv.slope == Fraction(inv.k2 - 8 * rel) / (inv.chi - rel)


@settings(max_examples=60, deadline=None)
@given(pack=st.tuples(st.sampled_from(ENVELOPE), st.integers(0, 50)))
def test_coefficients_ignore_the_base_genus(census_store, pack):
    (k, b), c = pack
    _counts, cen = census_store(k, b)
    invs = [
        surface_invariants(FamilyParams(cen, c=c, base_genus=gx))
        for gx in (0, 3, 11)
    ]
    assert len({inv.k2_coeff for inv in invs}) == 1
    assert len({inv.chi_coeff for inv in invs}) == 1


@pytest.mark.parametrize("k, b", ENVELOPE + [(3, 16), (4, 12)])
def test_census_coefficients_are_the_evaluated_ones(census_store, k, b):
    _counts, cen = census_store(k, b)
    k2_coeff, chi_coeff12 = _census_coefficients(cen)
    chi_coeff = Fraction(chi_coeff12, 12)
    for c, gx in ((b, 0), (7 * b + 3, 4)):
        inv = surface_invariants(FamilyParams(cen, c=c, base_genus=gx))
        assert (inv.k2_coeff, inv.chi_coeff) == (k2_coeff, chi_coeff)
    # the excess per unit of branch degree, in its closed form
    x = (b - 1) * (2 * cen.rational_splits - cen.type_one + Fraction(cen.type_three, 9)) - cen.classes
    assert k2_coeff - 8 * chi_coeff == x


def test_audit_chain_toy_frozen(toy):
    rep = audit_chain(toy)
    assert isinstance(rep, AuditReport)
    assert rep.exceptional_sq == -24
    assert rep.strict_transform_sq == 160
    assert rep.ramification_sq == 32
    assert rep.ram_cross == 96
    assert rep.ka_sq == -248
    assert rep.pullback_ka_sq == -744
    assert rep.reference_cross_term == 160
    assert rep.derived_cross_term == 416
    assert (rep.reference_kg2, rep.reference_ks2, rep.reference_kf2) == (-552, -528, -480)
    assert (rep.derived_kg2, rep.derived_ks2, rep.derived_kf2) == (-296, -272, -224)
    assert rep.kf2_closed_form == -224
    assert rep.derived_matches_closed
    assert rep.derived_discrepancy == 0
    assert rep.reference_discrepancy == -256


def test_audit_payload(toy):
    payload = audit_chain(toy).as_payload()
    assert payload["ka_sq"]["numerator"] == "-248"
    assert payload["derived_matches_closed"] is True
    assert payload["component_intersections"] == {
        "minus_one": {"ramification": 0, "residual": 2},
        "minus_two": {"ramification": 2, "residual": 0},
    }
    assert MINUS_ONE_COMPONENT_MEETS["residual"] == 2
    assert MINUS_TWO_COMPONENT_MEETS["ramification"] == 2


@settings(max_examples=80, deadline=None)
@given(pack=PACKS)
def test_audit_chain_on_random_packs(census_store, pack):
    (k, b), c, gx = pack
    _counts, cen = census_store(k, b)
    p = FamilyParams(cen, c=c, base_genus=gx)
    rep = audit_chain(p)
    n, n1, n22 = cen.classes, cen.type_one, cen.type_two_two
    third = cen.type_three // 3
    m = p.collision_count_base
    gy = genus_y(p)
    # these four stations are their own closed forms, checked verbatim
    assert rep.exceptional_sq == -m * n1
    assert rep.strict_transform_sq == 2 * b * c * n - 4 * m * n1
    assert rep.ramification_sq == (n + (b - 1) * (third - n1)) * c
    assert rep.ram_cross == m * (2 * n22 + 4 * third)
    assert rep.ka_sq == -(8 * (gy - 1) + m * n1)
    assert rep.pullback_ka_sq == k * rep.ka_sq
    # chain structure
    assert rep.derived_cross_term - rep.reference_cross_term == rep.reference_cross_term + 4 * m * n1
    for cross, kg2, ks2, kf2 in (
        (rep.reference_cross_term, rep.reference_kg2, rep.reference_ks2, rep.reference_kf2),
        (rep.derived_cross_term, rep.derived_kg2, rep.derived_ks2, rep.derived_kf2),
    ):
        assert kg2 == rep.ramification_sq + cross + rep.pullback_ka_sq
        assert ks2 == kg2 + (k - 2) * n1 * m
        assert kf2 == ks2 + 2 * m * cen.rational_splits
    # the first-principles chain lands on the closed form; the reference
    # intermediate misses it by the cross-term correction, never asserted
    assert rep.kf2_closed_form == surface_invariants(p).k2
    assert rep.derived_matches_closed
    assert rep.derived_discrepancy == 0
    assert rep.reference_discrepancy == -(rep.reference_cross_term + 4 * m * n1)


def _fraction_surface_invariants(p: FamilyParams) -> SurfaceInvariants:
    """The Fraction evaluation that the integer kernel replaced, kept
    verbatim (bar the identity checks) as the reference for every field."""
    cen = p.census

    def _census_coefficients(census):
        n, n1, third = census.classes, census.type_one, census.type_three // 3
        g, b, e = census.g, census.b, census.rational_splits
        k2_coeff = (b - 1) * (2 * e + n1 + (8 * g - 7) * third) - 3 * n
        chi_coeff = Fraction((b - 1) * (3 * n1 + (12 * g - 11) * third) - 3 * n, 12)
        return k2_coeff, chi_coeff

    n, n1, n22, n3 = cen.classes, cen.type_one, cen.type_two_two, cen.type_three
    e = cen.rational_splits
    g, b, c, gx = cen.g, cen.b, p.c, p.base_genus
    third = n3 // 3
    m = p.collision_count_base
    gy = genus_y(p)

    r = cen.singular * m
    euler = 4 * (g - 1) * (gy - 1) + 2 * r
    k2_coeff, chi_coeff = _census_coefficients(cen)
    k2 = c * k2_coeff + 8 * n * (gx - 1) * (g - 1)
    chi = c * chi_coeff + n * (gx - 1) * (g - 1)

    excess = c * ((b - 1) * (2 * e - n1 + Fraction(n3, 9)) - n)

    rel = (g - 1) * (gy - 1)
    rel_chi = chi - rel
    return SurfaceInvariants(
        parameter_genus=gy,
        collision_count_base=m,
        collision_count_parameter=(n1 + n22 + third) * m,
        singular_fiber_count=r,
        euler=euler,
        k2=k2,
        chi=chi,
        chi_integral=chi.denominator == 1,
        k2_coeff=k2_coeff,
        chi_coeff=chi_coeff,
        excess=excess,
        positive_index=excess > 0,
        ratio=Fraction(k2) / chi if chi else None,
        slope=Fraction(k2 - 8 * rel) / rel_chi if rel_chi else None,
        q_label=gy,
    )


def test_integer_kernel_matches_the_fraction_reference(census_store):
    vanishing = set()
    for k, b in ENVELOPE:
        _counts, cen = census_store(k, b)
        for c in (0, 1, b - 1, b, 40 * b):
            for gx in (0, 1, 2, 6):
                p = FamilyParams(cen, c=c, base_genus=gx)
                got, want = surface_invariants(p), _fraction_surface_invariants(p)
                for field in fields(SurfaceInvariants):
                    a, r = getattr(got, field.name), getattr(want, field.name)
                    assert (a, type(a)) == (r, type(r)), (k, b, c, gx, field.name)
                assert got.as_payload() == want.as_payload()
                vanishing.add((got.ratio is None, got.slope is None))
    # the grid meets chi = 0 and chi = (g - 1)(g_Y - 1) together (base
    # genus 1 on (2, 2)), each alone ((2, 6) at c = 1, base genus 0; (2, 2)
    # at base genus 0), and neither
    assert vanishing == {(True, True), (True, False), (False, True), (False, False)}


def test_each_identity_check_catches_a_change_on_its_other_side(toy, monkeypatch):
    closed_forms = invariants._closed_forms

    def shifted(p):
        # K2 and 12 chi both gain 12: Noether still holds, the excess does not
        k2_coeff, chi_coeff12, k2, chi12 = closed_forms(p)
        return k2_coeff, chi_coeff12, k2 + 12, chi12 + 12

    monkeypatch.setattr(invariants, "_closed_forms", shifted)
    with pytest.raises(InvariantViolation, match="excess closed form"):
        surface_invariants(toy)
    monkeypatch.undo()
    # a parameter genus one higher moves the Euler number alone
    monkeypatch.setattr(invariants, "genus_y", lambda p: genus_y(p) + 1)
    with pytest.raises(InvariantViolation, match="Noether identity failed"):
        surface_invariants(toy)


def test_audit_chain_does_not_evaluate_the_invariants(toy, monkeypatch):
    def refused(p):
        raise AssertionError("audit_chain evaluated surface_invariants")

    monkeypatch.setattr(invariants, "surface_invariants", refused)
    assert audit_chain(toy).kf2_closed_form == -224
