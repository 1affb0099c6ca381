"""The paper's second claim and the fibration slope, from exact counts.

Along maximal gonality, k = (g + 3) // 2, the index K2 - 8 chi has the
sign of X = k2_coeff - 8 chi_coeff = (b - 1)(2e - N1 + N3/9) - N for
c > 0.  The exact census turns it positive at g = 19 and keeps it
positive through g = 37, far below the threshold that HMo's estimates
N3 ~ (k - 2) N1, N ~ C(k, 2) N1, e ~ 0 give; the exact N3 / N1 sits near
2(k - 2), not k - 2, and drifts below it as g grows.

The slope s = K2_{F/Y} / chi_f of the family is a census quantity, and
delta / lambda = 12 - s is checked against bounds from outside the
package: Cornalba-Harris for hyperelliptic families, Xiao's slope
inequality, the Brill-Noether divisor and the known small-genus slopes
of M_g, which a family sweeping M_g may not exceed.
"""

from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from gonalgeo.asymptotics import ConjecturedEstimates
from gonalgeo.invariants import FamilyParams, _census_coefficients, surface_invariants

# X / N1 at g = 17 ... 21, 25 and 37, and delta / lambda at maximal
# gonality for g = 2 ... 6 beside the known slopes of M_2 ... M_6
X_OVER_N1 = {17: -5.305, 18: -3.759, 19: 2.031, 20: 4.022, 21: 11.034, 25: 34.039, 37: 143.045}
# N3 / N1 - 2(k - 2) at g = 37: it leaves the 1e-3 band past g = 27
N3_DRIFT_AT_37 = -3.302e-3
SMALL_GENUS = {
    2: (10, 10), 3: (8.9918, 9), 4: (8.4247, Fraction(17, 2)),
    5: (7.6558, 8), 6: (7.3284, Fraction(47, 6)),
}
# (base genus, c) choices: the slope must not depend on them
FAMILIES = ((0, 1), (2, 40), (7, 1000))


def census(census_store, k, g):
    return census_store(k, 2 * g + 2 * k - 2)[1]


def maximal(census_store, g):
    return census(census_store, (g + 3) // 2, g)


def excess_per_c(cen) -> Fraction:
    k2_coeff, chi_coeff12 = _census_coefficients(cen)
    return k2_coeff - Fraction(8 * chi_coeff12, 12)


def slope(cen, base_genus=2, c=40) -> Fraction:
    return surface_invariants(FamilyParams(cen, c, base_genus)).slope


def delta_over_lambda(cen) -> Fraction:
    return 12 - slope(cen)


@pytest.mark.parametrize("g", range(15, 38))
def test_exact_counts_turn_the_index_positive_at_genus_19(census_store, g):
    cen = maximal(census_store, g)
    k, n1 = cen.k, cen.type_one
    x = excess_per_c(cen)
    assert (x > 0) is (g >= 19)
    if g in X_OVER_N1:
        assert float(x / n1) == pytest.approx(X_OVER_N1[g], abs=1e-3)
    for base_genus, c in FAMILIES:
        assert surface_invariants(FamilyParams(cen, c, base_genus)).positive_index is (x > 0)
    # the exact ratios against HMo's: N3 grows like 2(k - 2) N1, twice the
    # estimate, though the ratio drifts below it as g grows; N like
    # C(k, 2) N1 and e like 0, as estimated
    drift = float(Fraction(cen.type_three, n1)) - 2 * (k - 2)
    if g <= 21:
        assert drift == pytest.approx(0, abs=1e-3)
    if g == 37:
        assert drift == pytest.approx(N3_DRIFT_AT_37, abs=1e-4)
    assert float(Fraction(cen.classes, n1)) == pytest.approx(comb(k, 2), abs=1e-2)
    assert Fraction(cen.rational_splits, n1) < Fraction(1, 1000)
    # under the estimates the excess stays negative at every one of these shapes
    assert (-59 if g <= 21 else -79) <= ConjecturedEstimates().excess_coefficient(k, cen.b) <= -46


def test_hyperelliptic_families_meet_cornalba_harris(census_store):
    for g in range(2, 41):
        assert delta_over_lambda(census(census_store, 2, g)) == 8 + Fraction(4, g)


def test_every_slope_obeys_xiao_and_ignores_the_base(census_store):
    families = 0
    for k in range(2, 8):
        for g in range(2, 15):
            if k > (g + 3) // 2 + 6:
                continue
            cen = census(census_store, k, g)
            slopes = {slope(cen, base_genus, c) for base_genus, c in FAMILIES}
            families += len(FAMILIES)
            assert len(slopes) == 1
            assert 4 - Fraction(4, g) <= slopes.pop() <= 12
    assert families == 234


def test_maximal_gonality_stays_under_the_divisor_slopes(census_store):
    composite = [g for g in range(2, 22) if any((g + 1) % d == 0 for d in range(2, g + 1))]
    assert composite == [3, 5, 7, 8, 9, 11, 13, 14, 15, 17, 19, 20, 21]
    for g in composite:
        # the Brill-Noether divisor, when g + 1 is composite
        assert delta_over_lambda(maximal(census_store, g)) <= 6 + Fraction(12, g + 1)
    for g, (value, known) in SMALL_GENUS.items():
        ratio = delta_over_lambda(maximal(census_store, g))
        assert float(ratio) == pytest.approx(value, abs=1e-4)
        assert ratio <= known
    # delta / lambda < 4 is the positive index: it crosses between 18 and 19
    assert float(delta_over_lambda(maximal(census_store, 18))) == pytest.approx(4.147, abs=1e-3)
    assert float(delta_over_lambda(maximal(census_store, 19))) == pytest.approx(3.930, abs=1e-3)


def test_trigonal_families_stay_under_seven_plus_six_over_g(census_store):
    for g in range(2, 41):
        assert delta_over_lambda(census(census_store, 3, g)) <= 7 + Fraction(6, g)


def test_dropping_the_rational_splits_breaks_xiao_at_genus_2(census_store):
    # HMo's estimate e ~ 0 is not a census: at g = 2 the slope falls
    # below Xiao's 4 - 4/g = 2, which the true slope at degree 3 meets
    assert slope(census(census_store, 3, 2)) == 2
    for k in range(3, 8):
        cen = census(census_store, k, 2)
        assert cen.rational_splits > 0
        no_e = replace(cen, split_table={
            (j, i): n for (j, i), n in cen.split_table.items() if i not in (0, cen.g)
        })
        assert no_e.rational_splits == 0
        assert slope(no_e) < 2
