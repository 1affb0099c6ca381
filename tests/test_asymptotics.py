import time
from collections import deque
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gonalgeo.asymptotics
from gonalgeo import invariants

from gonalgeo.asymptotics import (
    EVEN,
    ODD,
    REFERENCE_THRESHOLD_CLAIMS,
    REFERENCE_THRESHOLD_POLYS,
    ConjecturedEstimates,
    DeltaCertificate,
    GonalityCase,
    PlaneCurveBase,
    delta_search,
    maximal_gonality,
    positivity_threshold,
    threshold_polynomial,
)
from gonalgeo.asymptotics import _certificate, _first_positive, _peval
from gonalgeo.degeneration import DegenerationCensus, full_census
from gonalgeo.errors import BudgetExceeded, InvariantViolation, ParameterError
from gonalgeo.invariants import FamilyParams

from conftest import ENVELOPE


def test_gonality_case_validation():
    with pytest.raises(ParameterError):
        GonalityCase("weird", 3)
    with pytest.raises(ParameterError):
        GonalityCase(ODD, 0)
    with pytest.raises(ParameterError):
        GonalityCase(EVEN, 1)
    case = GonalityCase(ODD, 1)
    assert (case.g, case.k, case.b) == (3, 3, 10)
    case = GonalityCase(EVEN, 2)
    assert (case.g, case.k, case.b) == (4, 3, 12)


def test_maximal_gonality_values():
    assert maximal_gonality(3).parity == ODD
    nine = maximal_gonality(9)
    assert (nine.parity, nine.n, nine.k, nine.b) == (ODD, 4, 6, 28)
    assert (maximal_gonality(8).k, maximal_gonality(8).b) == (5, 24)
    assert (maximal_gonality(7).parity, maximal_gonality(7).n) == (ODD, 3)
    assert (maximal_gonality(7).k, maximal_gonality(7).b) == (5, 22)
    with pytest.raises(ParameterError):
        maximal_gonality(2)
    for g in range(3, 60):
        case = maximal_gonality(g)
        assert case.g == g
        assert case.k == (g + 3) // 2
        assert case.b == 2 * g + 2 * case.k - 2


def test_excess_coefficient_frozen_points():
    est = ConjecturedEstimates()
    assert est.excess_coefficient(46, 268) == Fraction(10, 3)
    assert est.excess_coefficient(46, 268) > 0
    # small degrees stay firmly negative
    assert est.excess_coefficient(3, 4) == Fraction(-17, 3)
    assert est.excess_coefficient(4, 10) == -13
    assert est.excess_coefficient(5, 8) < 0


def test_threshold_polynomials_frozen():
    assert threshold_polynomial(ODD) == (
        Fraction(-4), Fraction(-43, 6), Fraction(1, 6),
    )
    assert threshold_polynomial(EVEN) == (
        Fraction(10, 9), Fraction(-131, 18), Fraction(1, 6),
    )


def test_threshold_polynomial_matches_the_pointwise_estimate():
    est = ConjecturedEstimates()
    for parity, floor in ((ODD, 1), (EVEN, 2)):
        poly = threshold_polynomial(parity)
        for n in range(floor, 80):
            case = GonalityCase(parity, n)
            assert _peval(poly, n) == est.excess_coefficient(case.k, case.b)


def test_derived_thresholds_turn_positive_at_44():
    for parity in (ODD, EVEN):
        poly = threshold_polynomial(parity)
        for n in range(1, 44):
            assert _peval(poly, n) <= 0, (parity, n)
        for n in range(44, 200):
            assert _peval(poly, n) > 0, (parity, n)


def test_positivity_threshold_odd_matches_the_record():
    report = positivity_threshold(ODD)
    assert report.derived_first_positive == 44
    assert report.reference_first_positive == 44
    assert report.reference_claim == 44
    assert report.claim_matches
    assert report.reference_coefficients == REFERENCE_THRESHOLD_POLYS[ODD]
    # constant terms differ (-3 recorded, -4 derived); thresholds agree
    assert len(report.notes) == 1
    assert "coefficient(s) [0]" in report.notes[0]
    assert "first positive n matches" in report.notes[0]
    assert _peval(report.derived_coefficients, 44) == Fraction(44 * 44 - 43 * 44 - 24, 6)
    assert _peval(report.reference_coefficients, 44) == Fraction(44 * 44 - 43 * 44 - 18, 6)


def test_positivity_threshold_even_flags_the_recorded_claim():
    report = positivity_threshold(EVEN)
    assert report.derived_first_positive == 44
    assert report.reference_first_positive == 44
    assert report.reference_claim == 43
    assert not report.claim_matches
    # the recorded polynomial is 18 times the derived one, same signs
    assert _peval(report.reference_coefficients, 43) == -66
    assert _peval(report.reference_coefficients, 44) == 64
    assert any("first positive n is 44" in note for note in report.notes)
    assert any("scaled by 18" in note for note in report.notes)
    payload = report.as_payload()
    assert payload["claim_matches"] is False
    assert payload["reference_claim"] == 43
    assert payload["derived_first_positive"] == 44


def test_positivity_threshold_rejects_unknown_parity():
    with pytest.raises(ParameterError):
        positivity_threshold("cubic")


def test_reference_claims_are_recorded_verbatim():
    assert REFERENCE_THRESHOLD_CLAIMS == {ODD: 44, EVEN: 43}


def test_plane_curve_base():
    base = PlaneCurveBase(3, 4)
    assert (base.base_genus, base.c, base.root_8g_plus_1) == (1, 12, 3)
    assert PlaneCurveBase(1, 4).base_genus == 0
    assert PlaneCurveBase(2, 4).root_8g_plus_1 == 1
    for d in range(1, 200):
        base = PlaneCurveBase(d, 10)
        assert base.root_8g_plus_1 ** 2 == 8 * base.base_genus + 1
        assert base.c == 10 * d
    with pytest.raises(ParameterError):
        PlaneCurveBase(0, 4)


def test_delta_search_on_the_small_census(census_store):
    _counts, cen = census_store(3, 4)
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
        cert = delta_search(cen, eps)
        assert cert.d_min == 3
        assert cert.base_genus == 1
        assert cert.c == 4 * 3
        assert cert.ratio == 8
        assert abs(cert.ratio - 8) <= eps
        assert cert.epsilon == eps
        assert cert.window == 8
        assert cert.sufficient_lhs == 0
        assert cert.sufficient_rhs == -12
        assert cert.sufficient_holds is True
    assert delta_search(cen, "1/2", window=0).d_min == 3
    assert delta_search(cen, Fraction(1, 7), window=20).d_min == 3


def test_delta_search_parameter_errors(census_store):
    _counts, cen = census_store(3, 4)
    with pytest.raises(ParameterError):
        delta_search(cen, 0)
    with pytest.raises(ParameterError):
        delta_search(cen, Fraction(-1, 2))
    with pytest.raises(ParameterError):
        delta_search(cen, 1, window=-1)


def test_delta_search_exhaustion_reports_a_trajectory(census_store):
    _counts, cen = census_store(2, 4)
    with pytest.raises(BudgetExceeded) as info:
        delta_search(cen, 1, d_max=25)
    trajectory = info.value.trajectory
    assert len(trajectory) == 8
    assert trajectory[-1][0] == 25
    assert all(ratio == 0 for _d, ratio in trajectory)


_EVALUATED: dict = {}


def surface_invariants(p):
    """invariants.surface_invariants, memoised per (census, c, base
    genus) for the reference sweep below: the grid re-walks the same
    degrees for every epsilon, window and ceiling."""
    key = (id(p.census), p.c, p.base_genus)
    if key not in _EVALUATED:
        _EVALUATED[key] = (p.census, invariants.surface_invariants(p))
    return _EVALUATED[key][1]


def _reference_delta_search(
    census,
    epsilon,
    window: int = 8,
    d_max: int = 10**6,
) -> DeltaCertificate:
    """The degree-by-degree sweep that delta_search replaced, kept
    verbatim as the oracle for the closed form."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if window < 0:
        raise ParameterError(f"window must be nonnegative, got {window}")
    b = census.b
    streak_start = None
    streak_len = 0
    recent: deque = deque(maxlen=8)
    for d in range(3, d_max + 1):
        base = PlaneCurveBase(d, b)
        inv = surface_invariants(FamilyParams(census, base.c, base.base_genus))
        recent.append((d, inv.ratio))
        if inv.ratio is not None and abs(inv.ratio - 8) <= eps:
            if streak_start is None:
                streak_start = d
            streak_len += 1
            if streak_len == window + 1:
                base = PlaneCurveBase(streak_start, b)
                at_start = surface_invariants(FamilyParams(census, base.c, base.base_genus))
                return _certificate(census, at_start, streak_start, eps, window)
        else:
            streak_start, streak_len = None, 0
    exc = BudgetExceeded(
        f"no plane degree d <= {d_max} certifies |ratio - 8| <= {eps} "
        f"with persistence window {window}"
    )
    exc.trajectory = tuple(recent)
    raise exc


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except BudgetExceeded as exc:
        return str(exc), exc.trajectory


BAND_PAIRS = ENVELOPE + [(3, 12), (4, 12)]


@pytest.mark.parametrize("k, b", BAND_PAIRS)
def test_closed_form_band_search_matches_the_sweep(census_store, k, b):
    _counts, cen = census_store(k, b)
    outcomes = set()
    try:
        for eps in (Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 10),
                    Fraction(1, 37), Fraction(1, 100)):
            for window in (0, 1, 8, 20):
                for d_max in (2, 3, 10, 60, 700, 3000):
                    want = _outcome(_reference_delta_search, cen, eps, window, d_max)
                    got = _outcome(delta_search, cen, eps, window, d_max)
                    assert got == want, (eps, window, d_max)
                    outcomes.add(type(got))
    finally:
        _EVALUATED.clear()
    # every pair exercises the give-up path (d_max = 2 at least)
    assert tuple in outcomes


# Valid tallies no enumeration produces.  Disjoint pairs alone make
# chi_coeff negative, so for (3, 8) ratio - 8 = -16/(d - 7): the band holds
# at low degrees, breaks around d = 7 and returns.  Zero classes make chi
# vanish at every degree.
SYNTHETIC_CENSUSES = {
    "band-breaks-above-3": DegenerationCensus(
        k=3, b=8, type_one=0, type_two_two=7, type_three=0, split_table={},
    ),
    "chi-identically-zero": DegenerationCensus(
        k=3, b=8, type_one=0, type_two_two=0, type_three=0, split_table={},
    ),
}


@pytest.mark.parametrize("cen", SYNTHETIC_CENSUSES.values(), ids=SYNTHETIC_CENSUSES.keys())
def test_closed_form_band_search_matches_the_sweep_off_the_census(cen):
    try:
        for eps in (Fraction(16), Fraction(8), Fraction(2), Fraction(1, 2)):
            for window in range(5):
                for d_max in (3, 8, 12, 60, 200):
                    want = _outcome(_reference_delta_search, cen, eps, window, d_max)
                    got = _outcome(delta_search, cen, eps, window, d_max)
                    assert got == want, (eps, window, d_max)
    finally:
        _EVALUATED.clear()
    assert delta_search(SYNTHETIC_CENSUSES["band-breaks-above-3"], 8, window=2).d_min == 3
    assert delta_search(SYNTHETIC_CENSUSES["band-breaks-above-3"], 8, window=3).d_min == 9


def test_genus_one_give_up_is_immediate_at_any_ceiling(census_store):
    _counts, cen = census_store(2, 4)
    for d_max in (10**6, 10**30):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as info:
            delta_search(cen, 1, d_max=d_max)
        assert time.perf_counter() - start < 0.5
        assert str(info.value) == (
            f"no plane degree d <= {d_max} certifies |ratio - 8| <= 1 "
            "with persistence window 8"
        )
        assert info.value.trajectory == tuple(
            (d, Fraction(0)) for d in range(d_max - 7, d_max + 1)
        )


def test_band_search_evaluates_a_fixed_number_of_degrees(census_store, monkeypatch):
    _counts, cen = census_store(3, 8)
    degrees = []

    def counting(p):
        degrees.append(p.c // p.census.b)
        return invariants.surface_invariants(p)

    monkeypatch.setattr(gonalgeo.asymptotics, "surface_invariants", counting)
    cert = delta_search(cen, Fraction(1, 100), window=10**6, d_max=10**30)
    # three cross-checks around the window; the certificate reuses the first
    assert degrees == [cert.d_min, cert.d_min + 10**6, cert.d_min - 1]
    assert cert.d_min > 3


def test_band_search_cross_check_catches_a_wrong_evaluation(census_store, monkeypatch):
    _counts, cen = census_store(3, 8)

    def skewed(p):
        inv = invariants.surface_invariants(p)
        return inv if p.c // p.census.b < 40 else replace(inv, ratio=Fraction(0))

    monkeypatch.setattr(gonalgeo.asymptotics, "surface_invariants", skewed)
    with pytest.raises(InvariantViolation, match="closed-form ratio"):
        delta_search(cen, Fraction(1, 10))
    with pytest.raises(InvariantViolation, match="closed-form ratio"):
        delta_search(cen, Fraction(1, 10), d_max=45)


def test_delta_certificate_payload_notes_genus_one():
    cert = DeltaCertificate(
        d_min=3, base_genus=1, c=24, ratio=Fraction(8), epsilon=Fraction(1),
        window=8, sufficient_lhs=Fraction(0), sufficient_rhs=None,
        sufficient_holds=None,
    )
    payload = cert.as_payload()
    assert "sufficient_rhs" not in payload
    assert "sufficient_holds" not in payload
    assert payload["notes"] == [
        "sufficient-condition right side omitted: fiber genus is 1"
    ]
    certified = DeltaCertificate(
        d_min=3, base_genus=1, c=12, ratio=Fraction(8), epsilon=Fraction(1),
        window=8, sufficient_lhs=Fraction(0), sufficient_rhs=Fraction(-12),
        sufficient_holds=True,
    )
    payload = certified.as_payload()
    assert payload["sufficient_holds"] is True
    assert payload["ratio"]["numerator"] == "8"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=5))
# n^3/1000 - n^2/5 - 1/6 first turns positive at n = 201
@example([Fraction(-1, 6), 0, Fraction(-1, 5), Fraction(1, 1000)])
def test_bounded_threshold_sweep_matches_a_brute_force_sweep(coeffs):
    # the roots lie below 51 for coefficients in [-50, 50], and below 202
    # for the example, so the brute-force sweep sees every sign change
    brute = next((n for n in range(1, 300) if _peval(coeffs, n) > 0), None)
    assert _first_positive(coeffs) == brute


# every certificate of the envelope at epsilon 1, 1/10 and 1/100, as the
# Fraction band search gave them: (d_min, ratio, lhs, rhs, holds), with the
# default window 8 and ceiling 10^6; None is the genus-1 give-up
ENVELOPE_CERTIFICATES = {
    (2, 2): [(4, "8", "1/2", "0", True)] * 3,
    (2, 4): [None] * 3,
    (2, 6): [(63, "7", "30", "30", True), (711, "79/10", "354", "354", True),
             (7191, "799/100", "3594", "3594", True)],
    (2, 8): [(55, "7", "26", "26", True), (631, "79/10", "314", "314", True),
             (6391, "799/100", "3194", "3194", True)],
    (2, 10): [(57, "708/101", "27", "80/3", True), (657, "7908/1001", "327", "980/3", True),
              (6657, "79908/10001", "3327", "9980/3", True)],
    (3, 4): [(3, "8", "0", "-12", True)] * 3,
    (3, 6): [None] * 3,
    (3, 8): [(15, "7", "6", "2184", False), (414, "15176/1921", "411/2", "74760", False),
             (4402, "460280/57607", "4399/2", "800520", False)],
    (3, 10): [(3, "27888/3827", "0", "21980", False), (290, "216160/27361", "287/2", "469060", False),
              (3284, "2180224/272869", "3281/2", "5379460", False)],
    (4, 6): [(3, "8", "0", "-810", True)] * 3,
    (4, 8): [None] * 3,
    (4, 10): [(3, "54374/7499", "0", "1185030", False), (300, "444038/56207", "297/2", "30669030", False),
              (3383, "4488934/561819", "1690", "349209630", False)],
    (5, 8): [(3, "8", "0", "-90720", True)] * 3,
}


@pytest.mark.parametrize("k, b", ENVELOPE)
def test_envelope_certificates_are_the_fraction_search_ones(census_store, k, b):
    _counts, cen = census_store(k, b)
    for eps, want in zip((Fraction(1), Fraction(1, 10), Fraction(1, 100)), ENVELOPE_CERTIFICATES[k, b]):
        if want is None:
            with pytest.raises(BudgetExceeded) as info:
                delta_search(cen, eps)
            assert str(info.value) == (
                f"no plane degree d <= 1000000 certifies |ratio - 8| <= {eps} with persistence window 8"
            )
            assert info.value.trajectory == tuple((d, Fraction(0)) for d in range(999993, 10**6 + 1))
            assert all(type(ratio) is Fraction for _d, ratio in info.value.trajectory)
            continue
        d, ratio, lhs, rhs, holds = want
        cert = delta_search(cen, eps)
        assert cert == DeltaCertificate(
            d_min=d, base_genus=(d - 1) * (d - 2) // 2, c=b * d, ratio=Fraction(ratio),
            epsilon=eps, window=8, sufficient_lhs=Fraction(lhs), sufficient_rhs=Fraction(rhs),
            sufficient_holds=holds,
        )
        assert all(
            type(getattr(cert, name)) is Fraction
            for name in ("ratio", "epsilon", "sufficient_lhs", "sufficient_rhs")
        )


def test_threshold_report_is_derived_once_and_its_payload_is_fresh():
    for parity in (ODD, EVEN):
        report = positivity_threshold(parity)
        assert positivity_threshold(parity) is report
        payload = report.as_payload()
        payload["notes"].append("changed by a caller")
        payload["derived_coefficients"][0]["numerator"] = "0"
        assert report.as_payload() != payload
        assert "changed by a caller" not in report.notes


def _estimate_deviations(k: int, b: int) -> tuple[Fraction, ...]:
    """How far the exact census of (k, b) lies from the limits of HMo's
    estimates at fixed k: N3/N1 - 2(k - 2), N22/N1 - (k - 2)(k - 3)/2,
    N/N1 - C(k, 2) (N the class count) and e/N1."""
    cen = full_census(k, b)[1]
    n1 = cen.type_one
    return (
        Fraction(cen.type_three, n1) - 2 * (k - 2),
        Fraction(cen.type_two_two, n1) - Fraction((k - 2) * (k - 3), 2),
        Fraction(cen.classes, n1) - comb(k, 2),
        Fraction(cen.rational_splits, n1),
    )


@pytest.mark.parametrize("k", range(3, 9))
def test_the_estimates_are_exact_limits_at_fixed_degree(k):
    # the trivial and sign characters lead every connected count, so N3/N1
    # tends to 3|C_3| / C(k, 2) = 2(k - 2) (3-cycles, not their k - 2
    # supports per pair), N22/N1 to (k - 2)(k - 3)/2 and N/N1 to C(k, 2);
    # the split cells carry lower exponents only.  The next exponent is
    # C(k - 1, 2), so each step of 2 in b shrinks a deviation by about
    # (1 - 2/k)^2
    rows = [_estimate_deviations(k, b) for b in range(2 * k + 8, 2 * k + 49, 2)]
    rate = (1 - Fraction(2, k)) ** 2
    for field, column in enumerate(zip(*rows)):
        assert all(dev >= 0 for dev in column), (k, field)
        if k == 3 and field == 1:  # no (2, 2) class at degree 3
            assert set(column) == {0}
            continue
        assert all(a > b for a, b in zip(column, column[1:])), (k, field)
        assert abs(column[-1] / column[-2] / rate - 1) < Fraction(5, 100), (k, field)
