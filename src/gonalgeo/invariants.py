"""Exact numerical invariants of the fibered surface carried by a family
of simple branched covers.

A family is pinned down by three choices: the collision census of one
(k, b), the genus of the base curve the branch points move on, and the
total degree c of the divisor the b branch points sweep out.  The
parameter curve of the family covers the base curve with degree the
class count, simply branched over collisions of overlapping type, which
fixes its genus; the surface fibered over the parameter curve then has
every invariant a polynomial in the census counts and (c, base genus).
K2 and chi are linear in c; their coefficients of c depend on the census
alone and have one statement, ``_census_coefficients``, which the band
search in ``asymptotics`` reads too.  The excess K2 - 8 chi is c times
X = k2_coeff - 8 chi_coeff = (b - 1)(2e - N1 + N3/9) - N, so for c > 0
the index has the sign of X.  Evaluation is exact throughout and in
integers, on chi scaled by 12 and the excess by 9; a Fraction is built
only for a rational that is reported, and nothing is floating point.

The audit half of the module walks the long route to the canonical
self-intersection (branch curve on a product, blow-up of its nodes,
ramification of the pulled-back cover) and reports each station against
the closed forms, carrying two candidate cross terms side by side; see
``audit_chain``.
"""

from dataclasses import dataclass
from fractions import Fraction

from .degeneration import DegenerationCensus
from .digits import _decimal, _magnitude
from .errors import InvariantViolation, ParameterError

# Pointwise facts used by the audit narrative, not recomputed: a fiber
# component of self-intersection -1 through a blown-up collision meets
# the ramification divisor 0 times and the residual divisor twice; a
# component of self-intersection -2 meets them the other way around.
MINUS_ONE_COMPONENT_MEETS = {"ramification": 0, "residual": 2}
MINUS_TWO_COMPONENT_MEETS = {"ramification": 2, "residual": 0}


@dataclass(frozen=True)
class FamilyParams:
    """One family of covers: a census, which fixes k, g and b, plus the
    base-curve data.

    ``c`` is the total degree of the moving branch divisor (the b branch
    points sweep out divisors of degrees summing to c).  Geometric
    families need every summand at least 1 and, on a general base curve,
    at least base_genus + 3; violations are cautions, not errors, since
    the invariant formulas are polynomial identities either way.
    """

    census: DegenerationCensus
    c: int
    base_genus: int
    special_base: bool = False

    def __post_init__(self):
        if self.c < 0:
            raise ParameterError(f"branch divisor degree must be nonnegative, got {self.c}")
        if self.base_genus < 0:
            raise ParameterError(f"base genus must be nonnegative, got {self.base_genus}")

    @property
    def collision_count_base(self) -> int:
        """Points of the base curve where two branch points meet: (b-1)c."""
        return (self.census.b - 1) * self.c

    @property
    def cautions(self) -> tuple[str, ...]:
        out = []
        b = self.census.b
        if self.c < b:
            out.append(
                f"branch degree {self.c} is below the branch count {b}; "
                "no geometric family moves every branch point"
            )
        floor = b * (self.base_genus + 3)
        if not self.special_base and self.c < floor:
            out.append(
                f"branch degree {self.c} is below the very-ampleness floor {_magnitude(floor)} "
                "for a general base curve of this genus"
            )
        return tuple(out)


@dataclass(frozen=True)
class SurfaceInvariants:
    """Numerical invariants of the fibered surface, all exact.

    ``ratio`` and ``slope`` are None when their denominators vanish.
    ``q_label`` quotes the irregularity of a general member, which equals
    the parameter-curve genus; it is a label, not a derived value.
    """

    parameter_genus: int
    collision_count_base: int
    collision_count_parameter: int
    singular_fiber_count: int
    euler: int
    k2: int
    chi: Fraction
    chi_integral: bool
    k2_coeff: int
    chi_coeff: Fraction
    excess: Fraction
    positive_index: bool
    ratio: Fraction | None
    slope: Fraction | None
    q_label: int

    def as_payload(self) -> dict:
        out: dict = {}
        notes = []
        for name in (
            "parameter_genus", "collision_count_base", "collision_count_parameter",
            "singular_fiber_count", "euler", "k2", "chi", "k2_coeff", "chi_coeff",
            "excess", "ratio", "slope",
        ):
            value = getattr(self, name)
            if value is None:
                notes.append(f"{name} omitted: denominator is zero")
            else:
                out[name] = rational_payload(value)
        out["chi_integral"] = self.chi_integral
        out["positive_index"] = self.positive_index
        out["q_label"] = self.q_label
        if notes:
            out["notes"] = notes
        return out


def rational_payload(value) -> dict:
    """Exact rational as JSON-safe strings, from an int or a Fraction
    read as it is: both carry ``numerator`` and ``denominator`` (1 for an
    int), so no Fraction is built here; the evaluations build one for
    each rational they report (``surface_invariants``).  The float is a
    convenience approximation, never authoritative, and null outside
    float range.  Raises CapacityError when a part has more digits than
    the interpreter prints."""
    try:
        approx = float(value)
    except OverflowError:
        approx = None
    return {
        "numerator": _decimal(value.numerator, "a numerator"),
        "denominator": _decimal(value.denominator, "a denominator"),
        "approx": approx,
    }


def genus_y(p: FamilyParams) -> int:
    """Genus of the parameter curve, from the degree and the branching
    contributed by overlapping-type collisions."""
    cen = p.census
    doubled = cen.classes * (2 * p.base_genus - 2) + 2 * p.collision_count_base * (
        cen.type_three // 3
    )
    if doubled % 2:
        raise InvariantViolation(
            f"parameter-curve genus is not integral for ({cen.k}, {cen.b}), c={p.c}, "
            f"base genus {p.base_genus}"
        )
    return 1 + doubled // 2


def _census_coefficients(census: DegenerationCensus) -> tuple[int, int]:
    """(k2_coeff, 12 chi_coeff): what K2 and twelve times chi gain per
    unit of branch degree c, read off the census alone, in integers.
    The excess per unit of c, k2_coeff - 8 chi_coeff, is
    (b - 1)(2e - N1 + N3/9) - N."""
    n, n1, third = census.classes, census.type_one, census.type_three // 3
    g, b, e = census.g, census.b, census.rational_splits
    k2_coeff = (b - 1) * (2 * e + n1 + (8 * g - 7) * third) - 3 * n
    chi_coeff12 = (b - 1) * (3 * n1 + (12 * g - 11) * third) - 3 * n
    return k2_coeff, chi_coeff12


def _closed_forms(p: FamilyParams) -> tuple[int, int, int, int]:
    """(k2_coeff, 12 chi_coeff, K2, 12 chi) of the family, all integers:
    K2 and chi are linear in c, and both carry the term of the base
    genus, N (g_X - 1)(g - 1), K2 eight times and chi once."""
    cen = p.census
    k2_coeff, chi_coeff12 = _census_coefficients(cen)
    fixed = cen.classes * (p.base_genus - 1) * (cen.g - 1)
    return k2_coeff, chi_coeff12, p.c * k2_coeff + 8 * fixed, p.c * chi_coeff12 + 12 * fixed


def surface_invariants(p: FamilyParams) -> SurfaceInvariants:
    """Evaluate every closed-form invariant, with the built-in identity
    checks (Noether; excess closed form against direct subtraction).

    The arithmetic is in integers, on chi and chi_coeff scaled by 12 and
    the excess scaled by 9, so both identities are integer equations:
    12 chi = K2 + e, and 4 (9 excess) = 3 (12 K2 - 8 (12 chi)).  One
    Fraction is built for each rational reported, chi, chi_coeff,
    excess, ratio = 12 K2 / (12 chi) and slope, at the end.

    >>> from gonalgeo.degeneration import full_census
    >>> pack = FamilyParams(full_census(3, 4)[1], c=8, base_genus=2)
    >>> inv = surface_invariants(pack)
    >>> inv.parameter_genus, inv.k2, inv.chi, inv.euler
    (29, -224, Fraction(-28, 1), -112)
    >>> inv.excess, inv.ratio, inv.slope is None
    (Fraction(0, 1), Fraction(8, 1), True)
    """
    cen = p.census
    n, n1, n22, n3 = cen.classes, cen.type_one, cen.type_two_two, cen.type_three
    g, b = cen.g, cen.b
    m = p.collision_count_base
    gy = genus_y(p)

    r = cen.singular * m
    euler = 4 * (g - 1) * (gy - 1) + 2 * r
    k2_coeff, chi_coeff12, k2, chi12 = _closed_forms(p)

    excess9 = p.c * ((b - 1) * (18 * cen.rational_splits - 9 * n1 + n3) - 9 * n)
    if 4 * excess9 != 3 * (12 * k2 - 8 * chi12):
        raise InvariantViolation(
            f"excess closed form {Fraction(excess9, 9)} disagrees with direct K2 - 8*chi "
            f"{k2 - Fraction(8 * chi12, 12)}: transcription bug"
        )
    if chi12 != k2 + euler:
        raise InvariantViolation(
            f"Noether identity failed: 12*chi={chi12}, K2+e={k2 + euler}"
        )

    rel = (g - 1) * (gy - 1)
    rel_chi12 = chi12 - 12 * rel
    return SurfaceInvariants(
        parameter_genus=gy,
        collision_count_base=m,
        collision_count_parameter=(n1 + n22 + n3 // 3) * m,
        singular_fiber_count=r,
        euler=euler,
        k2=k2,
        chi=Fraction(chi12, 12),
        chi_integral=chi12 % 12 == 0,
        k2_coeff=k2_coeff,
        chi_coeff=Fraction(chi_coeff12, 12),
        excess=Fraction(excess9, 9),
        positive_index=excess9 > 0,
        ratio=Fraction(12 * k2, chi12) if chi12 else None,
        slope=Fraction(12 * (k2 - 8 * rel), rel_chi12) if rel_chi12 else None,
        q_label=gy,
    )


@dataclass(frozen=True)
class AuditReport:
    """Stations of the long computation, each exact.

    The cross term of the pulled-back canonical class is carried twice.
    ``reference_cross_term`` is the branch curve against the canonical
    class of the plain product (the classically quoted intermediate);
    ``derived_cross_term`` is the first-principles value on the blow-up,
    where the strict transform loses twice the exceptional stack and the
    canonical class gains it once, so the two differ by exactly
    reference_cross_term + 4 * (number of blown-up collisions).  Only
    the derived chain is expected to land on the closed form; nothing is
    asserted either way, the discrepancies are report content.
    """

    exceptional_sq: int
    strict_transform_sq: int
    ramification_sq: int
    ram_cross: int
    ka_sq: int
    pullback_ka_sq: int
    reference_cross_term: int
    derived_cross_term: int
    reference_kg2: int
    reference_ks2: int
    reference_kf2: int
    derived_kg2: int
    derived_ks2: int
    derived_kf2: int
    kf2_closed_form: int
    derived_matches_closed: bool
    reference_discrepancy: int
    derived_discrepancy: int

    def as_payload(self) -> dict:
        out: dict = {}
        for name in (
            "exceptional_sq", "strict_transform_sq", "ramification_sq", "ram_cross",
            "ka_sq", "pullback_ka_sq", "reference_cross_term", "derived_cross_term",
            "reference_kg2", "reference_ks2", "reference_kf2",
            "derived_kg2", "derived_ks2", "derived_kf2",
            "kf2_closed_form", "reference_discrepancy", "derived_discrepancy",
        ):
            out[name] = rational_payload(getattr(self, name))
        out["derived_matches_closed"] = self.derived_matches_closed
        out["component_intersections"] = {
            "minus_one": MINUS_ONE_COMPONENT_MEETS,
            "minus_two": MINUS_TWO_COMPONENT_MEETS,
        }
        return out


def audit_chain(p: FamilyParams) -> AuditReport:
    """Recompute the canonical self-intersection the long way.

    The branch curve sits in the product of the parameter curve with the
    line; its nodes (one per equal-type collision) are blown up, the
    degree-k cover is pulled back, and the canonical self-intersection
    of the resulting surface is chained through the ramification
    divisor, the cross term, and the pulled-back canonical class, then
    corrected for contracted components and collision fibers.
    """
    cen = p.census
    n, n1, n22, n3 = cen.classes, cen.type_one, cen.type_two_two, cen.type_three
    e = cen.rational_splits
    k, b, c, gx = cen.k, cen.b, p.c, p.base_genus
    third = n3 // 3
    m = p.collision_count_base
    gy = genus_y(p)

    exceptional_sq = -m * n1
    strict_transform_sq = 2 * b * c * n - 4 * m * n1
    ramification_sq = (n + (b - 1) * (third - n1)) * c
    ram_cross = m * (2 * n22 + 4 * third)
    ka_sq = -(8 * (gy - 1) + m * n1)
    pullback_ka_sq = k * ka_sq

    # branch curve against -2s + (2gy - 2)f on the plain product
    reference_cross = (2 * b * (gx - 1) - 2 * c) * n + 2 * b * m * third
    derived_cross = 2 * reference_cross + 4 * m * n1

    def chain(cross: int) -> tuple[int, int, int]:
        kg2 = ramification_sq + cross + pullback_ka_sq
        ks2 = kg2 + (k - 2) * n1 * m
        kf2 = ks2 + 2 * m * e
        return kg2, ks2, kf2

    ref_kg2, ref_ks2, ref_kf2 = chain(reference_cross)
    der_kg2, der_ks2, der_kf2 = chain(derived_cross)
    closed = _closed_forms(p)[2]
    return AuditReport(
        exceptional_sq=exceptional_sq,
        strict_transform_sq=strict_transform_sq,
        ramification_sq=ramification_sq,
        ram_cross=ram_cross,
        ka_sq=ka_sq,
        pullback_ka_sq=pullback_ka_sq,
        reference_cross_term=reference_cross,
        derived_cross_term=derived_cross,
        reference_kg2=ref_kg2,
        reference_ks2=ref_ks2,
        reference_kf2=ref_kf2,
        derived_kg2=der_kg2,
        derived_ks2=der_ks2,
        derived_kf2=der_kf2,
        kf2_closed_form=closed,
        derived_matches_closed=der_kf2 == closed,
        reference_discrepancy=ref_kf2 - closed,
        derived_discrepancy=der_kf2 - closed,
    )
