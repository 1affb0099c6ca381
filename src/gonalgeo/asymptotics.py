"""Asymptotic behavior of the surface invariants at maximal gonality,
and the exact search for the plane-degree threshold where the canonical
ratio enters a prescribed band around 8.

Everything is exact: threshold polynomials carry Fraction coefficients,
band membership is a rational comparison, and the plane-curve model
generates the base genus from an integer degree, so the square root in
the classical degree formula never produces an approximation.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .covers import validate_cover_shape
from .degeneration import DegenerationCensus
from .errors import BudgetExceeded, InvariantViolation, ParameterError
from .invariants import FamilyParams, rational_payload, surface_invariants

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


# polynomials in n as ascending Fraction coefficient tuples

def _padd(a, b) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return tuple(
        Fraction(a[i] if i < len(a) else 0) + Fraction(b[i] if i < len(b) else 0)
        for i in range(n)
    )


def _pmul(a, b) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return tuple(out)


def _pscale(a, s) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) * s for x in a)


def _peval(a, n) -> Fraction:
    return sum((Fraction(x) * n**i for i, x in enumerate(a)), Fraction(0))


def _case_polys(parity: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # k and b as linear polynomials in n
    if parity == ODD:
        return (2, 1), (4, 6)
    return (1, 1), (0, 6)


def threshold_polynomial(parity: str) -> tuple[Fraction, ...]:
    """Excess coefficient under the growth rules, as a polynomial in n.

    Derived symbolically from the same expression as
    ConjecturedEstimates.excess_coefficient, with k and b replaced by
    their linear forms in n for the given parity.
    """
    k_poly, b_poly = _case_polys(parity)
    overlap_part = _pscale(
        _pmul(_padd(b_poly, (-1,)), _padd(k_poly, (-11,))), Fraction(1, 9)
    )
    class_part = _pscale(_pmul(k_poly, _padd(k_poly, (-1,))), Fraction(1, 2))
    return _padd(overlap_part, _pscale(class_part, -1))


# the polynomials and thresholds recorded for these cases, kept verbatim
# for comparison against the independent derivation above
REFERENCE_THRESHOLD_POLYS: dict[str, tuple[Fraction, ...]] = {
    ODD: (Fraction(-3), Fraction(-43, 6), Fraction(1, 6)),  # (n^2 - 43n - 18)/6
    EVEN: (Fraction(20), Fraction(-131), Fraction(3)),      # 3n^2 - 131n + 20
}
REFERENCE_THRESHOLD_CLAIMS = {ODD: 44, EVEN: 43}


def _first_positive(coeffs, n_max: int) -> int | None:
    # scaled by the lcm of the denominators: same signs, integer Horner steps
    scale = math.lcm(*(Fraction(x).denominator for x in coeffs))
    ints = [int(Fraction(x) * scale) for x in reversed(coeffs)]
    for n in range(1, n_max + 1):
        value = 0
        for a in ints:
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
    n_max: int
    notes: tuple[str, ...]

    def derived_value(self, n) -> Fraction:
        return _peval(self.derived_coefficients, n)

    def reference_value(self, n) -> Fraction:
        return _peval(self.reference_coefficients, n)

    def as_payload(self) -> dict:
        return {
            "case": self.parity,
            "derived_coefficients": [rational_payload(x) for x in self.derived_coefficients],
            "reference_coefficients": [rational_payload(x) for x in self.reference_coefficients],
            "derived_first_positive": self.derived_first_positive,
            "reference_first_positive": self.reference_first_positive,
            "reference_claim": self.reference_claim,
            "claim_matches": self.claim_matches,
            "n_max": self.n_max,
            "notes": list(self.notes),
        }


def positivity_threshold(parity: str, n_max: int = 200) -> ThresholdReport:
    """Exact sign sweep of the estimated excess polynomial for one
    parity, to n_max, against the recorded polynomial and claim."""
    if parity not in (ODD, EVEN):
        raise ParameterError(f"parity must be {ODD!r} or {EVEN!r}, got {parity!r}")
    derived = threshold_polynomial(parity)
    reference = REFERENCE_THRESHOLD_POLYS[parity]
    claim = REFERENCE_THRESHOLD_CLAIMS[parity]
    d_first = _first_positive(derived, n_max)
    r_first = _first_positive(reference, n_max)
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
        n_max=n_max,
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
    census: DegenerationCensus, d: int, b: int, eps: Fraction, window: int
) -> DeltaCertificate:
    base = PlaneCurveBase(d, b)
    params = FamilyParams.from_census(census, base.c, base.base_genus)
    inv = surface_invariants(params)
    lhs = Fraction(2 * base.base_genus - 2, 3 + base.root_8g_plus_1)
    rhs = None
    if params.g != 1:
        band = abs(inv.k2_coeff - 8 * inv.chi_coeff)
        rhs = b * abs(band - eps * inv.chi_coeff) / (eps * (params.g - 1))
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


def _band_line(census: DegenerationCensus, b: int) -> tuple[Fraction, Fraction, Fraction]:
    """(A, B, X) with chi(d) = d*(A + B*(d - 3)) and K2 - 8*chi = b*d*X
    for the plane-curve family of degree d; see delta_search."""
    n, n1, n3 = census.classes, census.type_one, census.type_three
    g, e = census.g, census.rational_splits
    chi_coeff = Fraction((b - 1) * (3 * n1 + (12 * g - 11) * (n3 // 3)) - 3 * n, 12)
    excess_per_c = (b - 1) * (2 * e - n1 + Fraction(n3, 9)) - n
    return b * chi_coeff, Fraction(n * (g - 1), 2), excess_per_c


def delta_search(
    g: int,
    k: int,
    census: DegenerationCensus,
    epsilon,
    window: int = 8,
    d_max: int = 10**6,
) -> DeltaCertificate:
    """Least plane degree d >= 3 whose ratio stays within epsilon of 8
    for window consecutive further degrees, all at most d_max.

    The band inequality is solved, not swept.  With c = b*d and base
    genus g_X, g_X - 1 = d(d - 3)/2, so

        chi(d)       = c*chi_coeff + n(g - 1)(g_X - 1) = d*L(d),
        L(d)         = b*chi_coeff + n(g - 1)(d - 3)/2,
        K2 - 8*chi   = c*X = b*d*X,
        X            = (b - 1)(2e - N1 + N3/9) - n,
        ratio - 8    = b*X / L(d).

    L is linear in d, so d is in the band exactly when L(d) != 0 and
    |L(d)| >= b|X|/epsilon.  When n(g - 1) != 0 the degrees outside the
    band are the integers of one open interval around the zero d0 of L
    (or d0 alone when X = 0); when g = 1 or n = 0, L is constant and
    d = 3 decides for every degree.  d_min is 3 when the window fits
    below that interval, else the first degree past it.  Everything is
    exact Fraction arithmetic.

    surface_invariants is evaluated at d_min, d_min + window and
    d_min - 1 (when d_min > 3), and any disagreement with the closed
    form raises InvariantViolation.  Raises BudgetExceeded when no
    window fits below d_max, with the trailing trajectory of the last
    max(window, 8) degrees up to d_max attached.
    """
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
    a0, slope, x = _band_line(census, b)
    floor_l = b * abs(x) / eps  # in the band iff L(d) != 0 and |L(d)| >= floor_l

    def closed_ratio(d: int) -> Fraction | None:
        line = a0 + slope * (d - 3)
        return 8 + b * x / line if line else None

    def evaluated_ratio(d: int) -> Fraction | None:
        base = PlaneCurveBase(d, b)
        ratio = surface_invariants(
            FamilyParams.from_census(census, base.c, base.base_genus)
        ).ratio
        if ratio != closed_ratio(d):
            raise InvariantViolation(
                f"closed-form ratio {closed_ratio(d)} disagrees with the evaluated "
                f"{ratio} at plane degree {d} for ({k}, {b})"
            )
        return ratio

    if slope == 0:
        d_min = 3 if a0 and abs(a0) >= floor_l else None
    else:
        d0 = 3 - a0 / slope
        radius = floor_l / abs(slope)
        # integers p..q lie outside the band; p > q when none do
        if radius:
            p, q = math.floor(d0 - radius) + 1, math.ceil(d0 + radius) - 1
        else:
            p, q = math.ceil(d0), math.floor(d0)
        d_min = 3 if p > q or q < 3 or p - 3 > window else q + 1
    if d_min is None or d_min + window > d_max:
        exc = BudgetExceeded(
            f"no plane degree d <= {d_max} certifies |ratio - 8| <= {eps} "
            f"with persistence window {window}"
        )
        tail = range(max(3, d_max - max(window, 8) + 1), d_max + 1)
        exc.trajectory = tuple((d, evaluated_ratio(d)) for d in tail)
        raise exc
    checks = [(d_min, True), (d_min + window, True)]
    if d_min > 3:
        checks.append((d_min - 1, False))
    for d, expected in checks:
        ratio = evaluated_ratio(d)
        if (ratio is not None and abs(ratio - 8) <= eps) != expected:
            raise InvariantViolation(
                f"closed-form band search puts plane degree {d} "
                f"{'inside' if expected else 'outside'} |ratio - 8| <= {eps} "
                f"for ({k}, {b}), the evaluation disagrees"
            )
    return _certificate(census, d_min, b, eps, window)


@dataclass(frozen=True)
class PositivityReport:
    """Sign report of the excess for one concrete family."""

    excess: Fraction
    positive_index: bool
    beyond_miyaoka_yau: bool
    k2: int
    chi: Fraction
    q_label: int

    def as_payload(self) -> dict:
        return {
            "excess": rational_payload(self.excess),
            "positive_index": self.positive_index,
            "beyond_miyaoka_yau": self.beyond_miyaoka_yau,
            "k2": rational_payload(self.k2),
            "chi": rational_payload(self.chi),
            "q_label": self.q_label,
        }


def positivity_report(p: FamilyParams) -> PositivityReport:
    """Excess sign from real census data, with the sanity flag for
    exceeding the Miyaoka-Yau bound (no general-type surface does;
    raised only by non-geometric parameter packs)."""
    inv = surface_invariants(p)
    return PositivityReport(
        excess=inv.excess,
        positive_index=inv.positive_index,
        beyond_miyaoka_yau=inv.k2 > 9 * inv.chi,
        k2=inv.k2,
        chi=inv.chi,
        q_label=inv.q_label,
    )


@dataclass(frozen=True)
class EstimatedPositivity:
    """Excess sign under the growth rules, per unit branch degree times
    equal-class count; an asymptotic indication, not a computation."""

    k: int
    b: int
    coefficient: Fraction
    positive: bool

    def as_payload(self) -> dict:
        return {
            "k": self.k,
            "b": self.b,
            "coefficient": rational_payload(self.coefficient),
            "positive": self.positive,
        }


def estimated_positivity(
    k: int, b: int, estimates: ConjecturedEstimates | None = None
) -> EstimatedPositivity:
    validate_cover_shape(k, b)
    est = estimates if estimates is not None else ConjecturedEstimates()
    coeff = est.excess_coefficient(k, b)
    return EstimatedPositivity(k, b, coeff, coeff > 0)
