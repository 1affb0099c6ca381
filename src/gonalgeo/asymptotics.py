"""Asymptotic behavior of the surface invariants at maximal gonality,
and the exact search for the plane-degree threshold where the canonical
ratio enters a prescribed band around 8.

Each rule is stated once.  HMo's conjectured growth rule is
``ConjecturedEstimates.excess_coefficient``, and the threshold
polynomials are interpolated from it along ``GonalityCase``, the one
statement of k and b as functions of n.  The band search reads the
coefficients of K2 and chi in the branch degree from
``invariants._census_coefficients``, the same source as
``surface_invariants``.

Everything is exact: threshold polynomials carry Fraction coefficients,
band membership is an integer comparison, and the plane-curve model
generates the base genus from an integer degree, so the square root in
the classical degree formula never produces an approximation.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .degeneration import DegenerationCensus
from .digits import _decimal, _magnitude
from .errors import BudgetExceeded, InvariantViolation, ParameterError
from .invariants import (
    FamilyParams,
    SurfaceInvariants,
    _census_coefficients,
    rational_payload,
    surface_invariants,
)

ODD = "odd"
EVEN = "even"


@dataclass(frozen=True)
class GonalityCase:
    """Parameter pack of a maximal-gonality family, indexed by the
    parity of the fiber genus and the step n."""

    parity: str
    n: int

    def __post_init__(self):
        if self.parity not in (ODD, EVEN):
            raise ParameterError(f"parity must be {ODD!r} or {EVEN!r}, got {self.parity!r}")
        floor = 1 if self.parity == ODD else 2
        if self.n < floor:
            raise ParameterError(f"{self.parity} case needs n >= {floor}, got {self.n}")

    @property
    def g(self) -> int:
        return 2 * self.n + 1 if self.parity == ODD else 2 * self.n

    @property
    def k(self) -> int:
        return self.n + 2 if self.parity == ODD else self.n + 1

    @property
    def b(self) -> int:
        return 6 * self.n + 4 if self.parity == ODD else 6 * self.n


def maximal_gonality(g: int) -> GonalityCase:
    """The (n, k, b) pack for the largest gonality a genus-g curve can
    have, k = (g + 3) // 2.

    >>> case = maximal_gonality(9)
    >>> case.parity, case.n, case.k, case.b
    ('odd', 4, 6, 28)
    >>> maximal_gonality(8).k, maximal_gonality(8).b
    (5, 24)
    """
    if g < 3:
        raise ParameterError(f"maximal-gonality packs start at genus 3, got {g}")
    case = GonalityCase(ODD, (g - 1) // 2) if g % 2 else GonalityCase(EVEN, g // 2)
    if case.g != g or case.k != (g + 3) // 2 or case.b != 2 * g + 2 * case.k - 2:
        raise InvariantViolation(f"gonality pack for genus {g} failed its own checks")
    return case


@dataclass(frozen=True)
class ConjecturedEstimates:
    """Growth rules standing in for a census beyond enumeration range:
    overlapping classes grow like (k - 2) per equal class, total classes
    like k(k - 1)/2 per equal class, and the rational-split count drops
    to its lower bound 0.  Instances carry no state; they mark call
    sites that consciously opt into the estimates."""

    def excess_coefficient(self, k: int, b: int) -> Fraction:
        """Excess per unit of branch degree times equal-class count."""
        return (b - 1) * Fraction(k - 11, 9) - Fraction(k * (k - 1), 2)


# polynomials in n are ascending Fraction coefficient tuples

def _peval(a, n) -> Fraction:
    return sum((Fraction(x) * n**i for i, x in enumerate(a)), Fraction(0))


def threshold_polynomial(parity: str) -> tuple[Fraction, ...]:
    """ConjecturedEstimates.excess_coefficient along one parity's packs,
    as a polynomial in n.

    GonalityCase makes k and b linear in n, so the coefficient is a
    quadratic in n, fixed by its values v2, v3, v4 at n = 2, 3, 4 (packs
    of both parities).  With the forward differences d1 = v3 - v2 and
    d2 = v4 - 2 v3 + v2, it is v2 + d1 (n - 2) + d2 (n - 2)(n - 3)/2.
    """
    est = ConjecturedEstimates()
    v2, v3, v4 = (
        est.excess_coefficient(case.k, case.b)
        for case in (GonalityCase(parity, n) for n in (2, 3, 4))
    )
    d1, d2 = v3 - v2, v4 - 2 * v3 + v2
    return (v2 - 2 * d1 + 3 * d2, d1 - Fraction(5, 2) * d2, d2 / 2)


# the polynomials and thresholds recorded for these cases, kept verbatim
# for comparison against the derivation from the growth rule above
REFERENCE_THRESHOLD_POLYS: dict[str, tuple[Fraction, ...]] = {
    ODD: (Fraction(-3), Fraction(-43, 6), Fraction(1, 6)),  # (n^2 - 43n - 18)/6
    EVEN: (Fraction(20), Fraction(-131), Fraction(3)),      # 3n^2 - 131n + 20
}
REFERENCE_THRESHOLD_CLAIMS = {ODD: 44, EVEN: 43}


def _first_positive(coeffs) -> int | None:
    """Least n >= 1 where the polynomial is positive, None when none is.

    Every root lies below Cauchy's bound B = 1 + max_i ceil(|a_i| / |a_d|)
    for the leading coefficient a_d, so from B on the value has the sign
    of a_d and the sweep to B is exhaustive.
    """
    # scaled by the lcm of the denominators: same signs, integer Horner steps
    scale = math.lcm(*(Fraction(x).denominator for x in coeffs))
    ints = [int(Fraction(x) * scale) for x in coeffs]
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return None
    lead = abs(ints[-1])
    bound = 1 + max((-(-abs(a) // lead) for a in ints[:-1]), default=0)
    for n in range(1, bound + 1):
        value = 0
        for a in reversed(ints):
            value = value * n + a
        if value > 0:
            return n
    return None


def _scalar_ratio(a, b) -> Fraction | None:
    if len(a) != len(b):
        return None
    ratio = None
    for x, y in zip(a, b):
        if (x == 0) != (y == 0):
            return None
        if y != 0:
            r = Fraction(x) / Fraction(y)
            if ratio is None:
                ratio = r
            elif r != ratio:
                return None
    return ratio


@dataclass(frozen=True)
class ThresholdReport:
    """Where the estimated excess turns positive, derived versus
    recorded, with any inconsistencies surfaced as notes."""

    parity: str
    derived_coefficients: tuple[Fraction, ...]
    reference_coefficients: tuple[Fraction, ...]
    derived_first_positive: int | None
    reference_first_positive: int | None
    reference_claim: int
    claim_matches: bool
    notes: tuple[str, ...]

    def as_payload(self) -> dict:
        return {
            "case": self.parity,
            "derived_coefficients": [rational_payload(x) for x in self.derived_coefficients],
            "reference_coefficients": [rational_payload(x) for x in self.reference_coefficients],
            "derived_first_positive": self.derived_first_positive,
            "reference_first_positive": self.reference_first_positive,
            "reference_claim": self.reference_claim,
            "claim_matches": self.claim_matches,
            "notes": list(self.notes),
        }


def positivity_threshold(parity: str) -> ThresholdReport:
    """First n where the estimated excess polynomial for one parity is
    positive, exactly, against the recorded polynomial and claim.  Its
    inputs are constants of this module, so each parity's report is
    derived once per process and shared; it is frozen."""
    if parity not in (ODD, EVEN):
        raise ParameterError(f"parity must be {ODD!r} or {EVEN!r}, got {parity!r}")
    return _threshold_report(parity)


@cache
def _threshold_report(parity: str) -> ThresholdReport:
    derived = threshold_polynomial(parity)
    reference = REFERENCE_THRESHOLD_POLYS[parity]
    claim = REFERENCE_THRESHOLD_CLAIMS[parity]
    d_first = _first_positive(derived)
    r_first = _first_positive(reference)
    notes = []
    if r_first != claim:
        notes.append(
            f"recorded threshold n >= {claim} disagrees with exact evaluation: "
            f"value at {claim} is {_peval(reference, claim)}, first positive n is {r_first}"
        )
    scale = _scalar_ratio(reference, derived)
    if scale is not None and scale != 1:
        notes.append(
            f"recorded polynomial is the derived one scaled by {scale}; "
            "identical sign pattern"
        )
    elif scale is None:
        diffs = [
            i for i, (x, y) in enumerate(zip(reference, derived)) if x != y
        ]
        agreement = "matches" if d_first == r_first else "differs"
        notes.append(
            f"recorded polynomial differs from the independent derivation "
            f"in coefficient(s) {diffs}; first positive n {agreement}"
        )
    return ThresholdReport(
        parity=parity,
        derived_coefficients=derived,
        reference_coefficients=reference,
        derived_first_positive=d_first,
        reference_first_positive=r_first,
        reference_claim=claim,
        claim_matches=r_first == claim,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class PlaneCurveBase:
    """Smooth plane curve of degree d as the base curve: genus is the
    classical (d - 1)(d - 2)/2, and moving every branch point in the
    divisor class cut by lines gives total branch degree b*d."""

    d: int
    b: int

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"plane degree must be at least 1, got {self.d}")

    @property
    def base_genus(self) -> int:
        return (self.d - 1) * (self.d - 2) // 2

    @property
    def c(self) -> int:
        return self.b * self.d

    @property
    def root_8g_plus_1(self) -> int:
        """Exact square root of 8*base_genus + 1; the degree formula
        d = (3 + root)/2 holds with no rounding for d >= 2."""
        return abs(2 * self.d - 3)


@dataclass(frozen=True)
class DeltaCertificate:
    """Least plane degree whose family lands the canonical ratio within
    epsilon of 8, persistently through the window; comparisons exact."""

    d_min: int
    base_genus: int
    c: int
    ratio: Fraction
    epsilon: Fraction
    window: int
    sufficient_lhs: Fraction
    sufficient_rhs: Fraction | None
    sufficient_holds: bool | None

    def as_payload(self) -> dict:
        # the base genus, about d_min^2 / 2, is the longest integer here
        _decimal(self.base_genus, f"the base genus at plane degree {_magnitude(self.d_min)}")
        out = {
            "d_min": self.d_min,
            "base_genus": self.base_genus,
            "c": self.c,
            "ratio": rational_payload(self.ratio),
            "epsilon": rational_payload(self.epsilon),
            "window": self.window,
            "sufficient_lhs": rational_payload(self.sufficient_lhs),
        }
        if self.sufficient_rhs is None:
            out["notes"] = ["sufficient-condition right side omitted: fiber genus is 1"]
        else:
            out["sufficient_rhs"] = rational_payload(self.sufficient_rhs)
            out["sufficient_holds"] = self.sufficient_holds
        return out


def _certificate(
    census: DegenerationCensus, inv: SurfaceInvariants, d: int, eps: Fraction, window: int
) -> DeltaCertificate:
    """The certificate for d_min = d, from the invariants evaluated there.
    The right side, b |X - eps chi_coeff| / (eps (g - 1)) with
    X = |k2_coeff - 8 chi_coeff|, is one Fraction of integers scaled by 12."""
    b = census.b
    base = PlaneCurveBase(d, b)
    lhs = Fraction(2 * base.base_genus - 2, 3 + base.root_8g_plus_1)
    rhs = None
    if census.g != 1:
        k2_coeff, chi_coeff12 = _census_coefficients(census)
        en, ed = eps.numerator, eps.denominator
        band12 = abs(12 * k2_coeff - 8 * chi_coeff12)
        rhs = Fraction(b * abs(band12 * ed - en * chi_coeff12), 12 * en * (census.g - 1))
    return DeltaCertificate(
        d_min=d,
        base_genus=base.base_genus,
        c=base.c,
        ratio=inv.ratio,
        epsilon=eps,
        window=window,
        sufficient_lhs=lhs,
        sufficient_rhs=rhs,
        sufficient_holds=None if rhs is None else lhs >= rhs,
    )


def _band_line(census: DegenerationCensus) -> tuple[int, int, int]:
    """(A, B, X), integers with 12 chi(d) = d*(A + B*(d - 3)) and
    12 (K2 - 8 chi) = b*d*X for the plane-curve family of degree d; see
    delta_search."""
    k2_coeff, chi_coeff12 = _census_coefficients(census)
    return (
        census.b * chi_coeff12,
        6 * census.classes * (census.g - 1),
        12 * k2_coeff - 8 * chi_coeff12,
    )


def _unbanded(eps: Fraction, window: int, d_max: int, trajectory) -> BudgetExceeded:
    """The refusal of a band search no window of which fits below d_max, with its ``trajectory``."""
    exc = BudgetExceeded(f"no plane degree d <= {d_max} certifies |ratio - 8| <= {eps} with persistence window {window}")
    exc.trajectory = trajectory
    return exc


def _check_band(epsilon, window: int, d_max: int) -> Fraction:
    """The band search's check of epsilon, as a Fraction, window and d_max, run by
    the CLI first: a d_max below 3, the least plane degree, certifies nothing."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if window < 0:
        raise ParameterError(f"window must be nonnegative, got {window}")
    if d_max < 3:
        raise _unbanded(eps, window, d_max, ())
    return eps


def delta_search(
    census: DegenerationCensus,
    epsilon,
    window: int = 8,
    d_max: int = 10**6,
) -> DeltaCertificate:
    """Least plane degree d >= 3 whose ratio stays within epsilon of 8
    for window consecutive further degrees, all at most d_max, for the
    families of the census's (k, b) and fiber genus g.

    The band inequality is solved, not swept.  With c = b*d and base
    genus g_X, g_X - 1 = d(d - 3)/2, so

        chi(d)       = c*chi_coeff + n(g - 1)(g_X - 1) = d*L(d),
        L(d)         = b*chi_coeff + n(g - 1)(d - 3)/2,
        K2 - 8*chi   = c*X = b*d*X,
        ratio - 8    = b*X / L(d),

    with chi_coeff and X = k2_coeff - 8*chi_coeff from
    invariants._census_coefficients.

    L is linear in d, so d is in the band exactly when L(d) != 0 and
    |L(d)| >= b|X|/epsilon.  When n(g - 1) != 0 the degrees outside the
    band are the integers of one open interval around the zero d0 of L
    (or d0 alone when X = 0); when g = 1 or n = 0, L is constant and
    d = 3 decides for every degree.  d_min is 3 when the window fits
    below that interval, else the first degree past it.  The arithmetic
    is in integers, on 12 L(d) and 12 X (``_band_line``), with epsilon
    cleared of its denominator; the interval's ends are floor and
    ceiling quotients.

    surface_invariants is evaluated at d_min, d_min + window and
    d_min - 1 (when d_min > 3), and any disagreement with the closed
    form raises InvariantViolation.  Raises BudgetExceeded when no
    window fits below d_max, with the trailing trajectory of the last
    8 degrees up to d_max attached, whatever the window.
    """
    eps = _check_band(epsilon, window, d_max)
    k, b = census.k, census.b
    en, ed = eps.numerator, eps.denominator
    a0, slope, x = _band_line(census)
    floor_l = ed * b * abs(x)  # in the band iff L(d) != 0 and en * |12 L(d)| >= floor_l

    def evaluated(d: int) -> SurfaceInvariants:
        base = PlaneCurveBase(d, b)
        inv = surface_invariants(FamilyParams(census, base.c, base.base_genus))
        line = a0 + slope * (d - 3)  # the closed ratio is 8 + b*x / line
        ratio = inv.ratio
        if (ratio is None) != (line == 0) or (
            ratio is not None and ratio.numerator * line != ratio.denominator * (8 * line + b * x)
        ):
            closed = Fraction(8 * line + b * x, line) if line else None
            raise InvariantViolation(
                f"closed-form ratio {closed} disagrees with the evaluated "
                f"{ratio} at plane degree {d} for ({k}, {b})"
            )
        return inv

    if slope == 0:
        d_min = 3 if a0 and en * abs(a0) >= floor_l else None
    else:
        # the integers p..q lie outside the band, strictly between
        # (n0 - floor_l) / den and (n0 + floor_l) / den, or at n0 / den when
        # floor_l = 0, for the zero n0 / den of L; p > q when none do
        den = en * abs(slope)
        n0 = en * (3 * abs(slope) - (a0 if slope > 0 else -a0))
        if floor_l:
            p, q = (n0 - floor_l) // den + 1, -(-(n0 + floor_l) // den) - 1
        else:
            p, q = -(-n0 // den), n0 // den
        d_min = 3 if p > q or q < 3 or p - 3 > window else q + 1
    if d_min is None or d_min + window > d_max:
        tail = range(max(3, d_max - 7), d_max + 1)
        raise _unbanded(eps, window, d_max, tuple((d, evaluated(d).ratio) for d in tail))
    at_min = evaluated(d_min)
    checks = [(d_min, True), (d_min + window, True)]
    if d_min > 3:
        checks.append((d_min - 1, False))
    for d, expected in checks:
        ratio = (at_min if d == d_min else evaluated(d)).ratio
        inside = ratio is not None and (
            ed * abs(ratio.numerator - 8 * ratio.denominator) <= en * ratio.denominator
        )
        if inside != expected:
            raise InvariantViolation(
                f"closed-form band search puts plane degree {d} "
                f"{'inside' if expected else 'outside'} |ratio - 8| <= {eps} "
                f"for ({k}, {b}), the evaluation disagrees"
            )
    return _certificate(census, at_min, d_min, eps, window)
