import time
from collections import deque
from dataclasses import replace
from fractions import Fraction

import pytest

import gonalgeo.asymptotics
from gonalgeo import invariants

from gonalgeo.asymptotics import (
    EVEN,
    ODD,
    REFERENCE_THRESHOLD_CLAIMS,
    REFERENCE_THRESHOLD_POLYS,
    ConjecturedEstimates,
    DeltaCertificate,
    EstimatedPositivity,
    GonalityCase,
    PlaneCurveBase,
    delta_search,
    estimated_positivity,
    maximal_gonality,
    positivity_report,
    positivity_threshold,
    threshold_polynomial,
)
from gonalgeo.asymptotics import _certificate, _first_positive, _peval
from gonalgeo.degeneration import DegenerationCensus
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
    assert report.derived_value(44) == Fraction(44 * 44 - 43 * 44 - 24, 6)
    assert report.reference_value(44) == Fraction(44 * 44 - 43 * 44 - 18, 6)


def test_positivity_threshold_even_flags_the_recorded_claim():
    report = positivity_threshold(EVEN)
    assert report.derived_first_positive == 44
    assert report.reference_first_positive == 44
    assert report.reference_claim == 43
    assert not report.claim_matches
    # the recorded polynomial is 18 times the derived one, same signs
    assert report.reference_value(43) == -66
    assert report.reference_value(44) == 64
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
        cert = delta_search(0, 3, cen, eps)
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
    assert delta_search(0, 3, cen, "1/2", window=0).d_min == 3
    assert delta_search(0, 3, cen, Fraction(1, 7), window=20).d_min == 3


def test_delta_search_parameter_errors(census_store):
    _counts, cen = census_store(3, 4)
    with pytest.raises(ParameterError):
        delta_search(0, 3, cen, 0)
    with pytest.raises(ParameterError):
        delta_search(0, 3, cen, Fraction(-1, 2))
    with pytest.raises(ParameterError):
        delta_search(0, 3, cen, 1, window=-1)
    with pytest.raises(ParameterError):
        delta_search(1, 3, cen, 1)  # census is for (3, 4), not (3, 6)


def test_delta_search_exhaustion_reports_a_trajectory(census_store):
    _counts, cen = census_store(2, 4)
    with pytest.raises(BudgetExceeded) as info:
        delta_search(1, 2, cen, 1, d_max=25)
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
    g: int,
    k: int,
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
    b = 2 * g + 2 * k - 2
    if (census.k, census.b) != (k, b):
        raise ParameterError(
            f"census is for ({census.k}, {census.b}), the search wants ({k}, {b})"
        )
    streak_start = None
    streak_len = 0
    recent: deque = deque(maxlen=max(window, 8))
    for d in range(3, d_max + 1):
        base = PlaneCurveBase(d, b)
        inv = surface_invariants(FamilyParams.from_census(census, base.c, base.base_genus))
        recent.append((d, inv.ratio))
        if inv.ratio is not None and abs(inv.ratio - 8) <= eps:
            if streak_start is None:
                streak_start = d
            streak_len += 1
            if streak_len == window + 1:
                return _certificate(census, streak_start, b, eps, window)
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
    g = (b - 2 * k + 2) // 2
    outcomes = set()
    try:
        for eps in (Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 10),
                    Fraction(1, 37), Fraction(1, 100)):
            for window in (0, 1, 8, 20):
                for d_max in (2, 3, 10, 60, 700, 3000):
                    want = _outcome(_reference_delta_search, g, k, cen, eps, window, d_max)
                    got = _outcome(delta_search, g, k, cen, eps, window, d_max)
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
        k=3, b=8, g=2, classes=7, type_one=0, type_two_two=7, type_three=0,
        split_table={},
    ),
    "chi-identically-zero": DegenerationCensus(
        k=3, b=8, g=2, classes=0, type_one=0, type_two_two=0, type_three=0,
        split_table={},
    ),
}


@pytest.mark.parametrize("cen", SYNTHETIC_CENSUSES.values(), ids=SYNTHETIC_CENSUSES.keys())
def test_closed_form_band_search_matches_the_sweep_off_the_census(cen):
    try:
        for eps in (Fraction(16), Fraction(8), Fraction(2), Fraction(1, 2)):
            for window in range(5):
                for d_max in (3, 8, 12, 60, 200):
                    want = _outcome(_reference_delta_search, 2, 3, cen, eps, window, d_max)
                    got = _outcome(delta_search, 2, 3, cen, eps, window, d_max)
                    assert got == want, (eps, window, d_max)
    finally:
        _EVALUATED.clear()
    assert delta_search(2, 3, SYNTHETIC_CENSUSES["band-breaks-above-3"], 8, window=2).d_min == 3
    assert delta_search(2, 3, SYNTHETIC_CENSUSES["band-breaks-above-3"], 8, window=3).d_min == 9


def test_genus_one_give_up_is_immediate_at_any_ceiling(census_store):
    _counts, cen = census_store(2, 4)
    for d_max in (10**6, 10**30):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as info:
            delta_search(1, 2, cen, 1, d_max=d_max)
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
        degrees.append(p.c // p.b)
        return invariants.surface_invariants(p)

    monkeypatch.setattr(gonalgeo.asymptotics, "surface_invariants", counting)
    cert = delta_search(2, 3, cen, Fraction(1, 100), window=10**6, d_max=10**30)
    # three cross-checks around the window, then the certificate
    assert degrees == [cert.d_min, cert.d_min + 10**6, cert.d_min - 1, cert.d_min]
    assert cert.d_min > 3


def test_band_search_cross_check_catches_a_wrong_evaluation(census_store, monkeypatch):
    _counts, cen = census_store(3, 8)

    def skewed(p):
        inv = invariants.surface_invariants(p)
        return inv if p.c // p.b < 40 else replace(inv, ratio=Fraction(0))

    monkeypatch.setattr(gonalgeo.asymptotics, "surface_invariants", skewed)
    with pytest.raises(InvariantViolation, match="closed-form ratio"):
        delta_search(2, 3, cen, Fraction(1, 10))
    with pytest.raises(InvariantViolation, match="closed-form ratio"):
        delta_search(2, 3, cen, Fraction(1, 10), d_max=45)


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


def test_positivity_report(census_store):
    _counts, cen = census_store(3, 4)
    report = positivity_report(FamilyParams.from_census(cen, c=8, base_genus=2))
    assert report.excess == 0
    assert not report.positive_index
    # k2 = -224 against 9*chi = -252: above the bound, as the caution-laden
    # toy parameters should be
    assert report.beyond_miyaoka_yau
    assert report.k2 == -224
    assert report.chi == -28
    assert report.q_label == 29
    payload = report.as_payload()
    assert payload["positive_index"] is False
    assert payload["excess"]["numerator"] == "0"


def test_estimated_positivity():
    est = estimated_positivity(46, 268)
    assert isinstance(est, EstimatedPositivity)
    assert est.coefficient == Fraction(10, 3)
    assert est.positive
    assert est.as_payload()["coefficient"]["denominator"] == "3"
    assert not estimated_positivity(4, 10).positive
    with pytest.raises(ParameterError):
        estimated_positivity(3, 3)
    with pytest.raises(ParameterError):
        estimated_positivity(1, 4)


def test_integer_threshold_sweep_matches_the_fraction_sweep():
    def fraction_sweep(coeffs, n_max):
        return next((n for n in range(1, n_max + 1) if _peval(coeffs, n) > 0), None)

    polys = [threshold_polynomial(p) for p in (ODD, EVEN)]
    polys += list(REFERENCE_THRESHOLD_POLYS.values())
    polys += [
        (Fraction(1, 7),), (Fraction(-1, 3),), (0,), (0, 0, 0),
        (Fraction(-22, 7), Fraction(1, 3)), (5, Fraction(-11, 4), Fraction(1, 3)),
        (Fraction(-1, 6), 0, Fraction(-1, 5), Fraction(1, 1000)),
    ]
    for coeffs in polys:
        for n_max in (0, 1, 5, 9, 10, 43, 44, 200):
            assert _first_positive(coeffs, n_max) == fraction_sweep(coeffs, n_max), (coeffs, n_max)
