"""Answer checker: every operation is compared with a fact computed off
its own code path.

Reports are parsed from the text the command printed, in any of its
three formats, into one flat mapping ``path -> value string``; split
cells of a census become ``M_table[j,i] -> count``.  The surface
invariants are recomputed here from the census counts, and the threshold
polynomials from their defining expressions, so no check calls the code
it checks.  Each ``check_*`` function returns a list of problems; an
empty list means the answer is right.
"""

import csv
import io
import json
import re
from fractions import Fraction
from math import factorial

from workloads import GIVE_UP_D_MAX, fiber_genus

_RATIONAL_KEYS = {"numerator", "denominator", "approx"}
_CELL_KEYS = {"j", "i", "count"}
_TABLE_CELL = re.compile(r"j=(\d+) i=(\d+) count=(\d+)$")
_TRAJECTORY = re.compile(r"^\s+d=(\d+) ratio=(\S+)$", re.M)

# recorded thresholds the asymptotics report must carry
RECORDED_CLAIMS = {"odd": 44, "even": 43}
# recorded threshold polynomials, ascending coefficients in n
RECORDED_POLYS = {
    "odd": (Fraction(-3), Fraction(-43, 6), Fraction(1, 6)),
    "even": (Fraction(20), Fraction(-131), Fraction(3)),
}
CENSUS_KEYS = ("k", "b", "N", "N_tilde", "N1", "N22", "N3", "e", "N_sing", "tool_version")


class ParseError(ValueError):
    pass


def _flatten_json(value, path: str, out: dict) -> None:
    if isinstance(value, dict):
        if set(value) == _RATIONAL_KEYS:
            num, den = value["numerator"], value["denominator"]
            out[path] = num if den == "1" else f"{num}/{den}"
            return
        for key, inner in value.items():
            _flatten_json(inner, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for idx, inner in enumerate(value):
            if isinstance(inner, dict) and set(inner) == _CELL_KEYS:
                out[f"{path}[{inner['j']},{inner['i']}]"] = inner["count"]
            else:
                _flatten_json(inner, f"{path}[{idx}]", out)
    else:
        out[path] = "" if value is None else str(value)


def parse_report(text: str, fmt: str) -> dict[str, str]:
    """Flatten one printed report; raises ParseError on malformed text."""
    out: dict[str, str] = {}
    try:
        if fmt == "json":
            _flatten_json(json.loads(text), "", out)
        elif fmt == "csv":
            for row in csv.reader(io.StringIO(text)):
                if len(row) == 2:
                    out[row[0]] = row[1]
                elif len(row) == 4:
                    out[f"{row[0]}[{row[1]},{row[2]}]"] = row[3]
                else:
                    raise ParseError(f"csv row of {len(row)} fields: {row}")
        elif fmt == "table":
            for line in text.splitlines():
                if line.startswith("note: "):
                    continue
                path, _, rest = line.partition(" ")
                rest = rest.strip()
                cell = _TABLE_CELL.match(rest)
                if cell:
                    out[f"{path}[{cell[1]},{cell[2]}]"] = cell[3]
                else:
                    out[path] = rest
        else:
            raise ParseError(f"unknown format {fmt!r}")
    except (json.JSONDecodeError, csv.Error) as exc:
        raise ParseError(str(exc)) from exc
    if not out:
        raise ParseError("empty report")
    return out


def class_divisor(k: int) -> int:
    return factorial(k) if k >= 3 else 1


def split_cells(flat: dict) -> dict[tuple[int, int], int]:
    cells = {}
    for key, value in flat.items():
        if key.startswith("M_table["):
            j, i = key[len("M_table["):-1].split(",")
            cells[int(j), int(i)] = int(value)
    return cells


def check_census(flat: dict, k: int, b: int, raw_count: int) -> list[str]:
    """The census identities, on the parsed report, and N against the
    character-theoretic count."""
    try:
        missing = [key for key in CENSUS_KEYS if key not in flat]
        if missing:
            return [f"census report lacks {missing}"]
        n, nt, n1, n22, n3, e, ns = (
            int(flat[key]) for key in ("N", "N_tilde", "N1", "N22", "N3", "e", "N_sing")
        )
        cells = split_cells(flat)
        g = fiber_genus(k, b)
        problems = []
        if (int(flat["k"]), int(flat["b"])) != (k, b):
            problems.append(f"report is for ({flat['k']}, {flat['b']})")
        if n != raw_count:
            problems.append(f"N {n} != connected count {raw_count}")
        if n % class_divisor(k) or n // class_divisor(k) != nt:
            problems.append(f"N {n} is not {class_divisor(k)} * N_tilde {nt}")
        if n1 + n22 + n3 != nt:
            problems.append("N1 + N22 + N3 != N_tilde")
        if n3 % 3:
            problems.append("N3 not divisible by 3")
        if any(not (1 <= j <= k // 2 and 0 <= i <= g) or v < 0 for (j, i), v in cells.items()):
            problems.append(f"split cell out of range: {cells}")
        if sum(cells.values()) > n1:
            problems.append("split classes exceed N1")
        if e != sum(v for (j, i), v in cells.items() if i in (0, g)):
            problems.append("e does not count the rational splits")
        if e + ns != n1:
            problems.append("e + N_sing != N1")
        return problems
    except (KeyError, ValueError) as exc:
        return [f"unreadable census report: {exc!r}"]


def check_oracle_enumeration(flat: dict, k: int, b: int, raw_count: int) -> list[str]:
    """oracle-check with enumeration: both counts equal the reference."""
    try:
        raws = (int(flat["oracle_raw"]), int(flat["enumeration_raw"]))
        classes = (int(flat["oracle_classes"]), int(flat["enumeration_classes"]))
    except (KeyError, ValueError) as exc:
        return [f"unreadable oracle-check report: {exc!r}"]
    problems = []
    if raws != (raw_count, raw_count):
        problems.append(f"raw counts {raws} != connected count {raw_count}")
    if classes != (raw_count // class_divisor(k),) * 2 or raw_count % class_divisor(k):
        problems.append(f"class counts {classes} != N / {class_divisor(k)}")
    if flat.get("match") != "True":
        problems.append("match is not True")
    return problems


def hurwitz_genus_zero(k: int) -> int:
    """Connected simply branched genus-0 covers of degree k with labelled
    sheets: (2k - 2)! * k^(k - 3)."""
    return factorial(2 * k - 2) * k ** (k - 3) if k >= 3 else 1


def check_oracle_only(flat: dict, k: int, b: int, census_n: int | None) -> list[str]:
    """oracle-check --oracle-only: divisibility, the genus-0 Hurwitz
    formula, and the enumerated N where the envelope has it."""
    try:
        raw, classes = int(flat["oracle_raw"]), int(flat["oracle_classes"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable oracle report: {exc!r}"]
    problems = []
    if "enumeration_raw" in flat:
        problems.append("--oracle-only report carries an enumeration count")
    if raw % class_divisor(k) or raw // class_divisor(k) != classes:
        problems.append(f"oracle raw {raw} is not {class_divisor(k)} * classes {classes}")
    if b == 2 * k - 2 and raw != hurwitz_genus_zero(k):
        problems.append(f"genus-0 count {raw} != Hurwitz {hurwitz_genus_zero(k)}")
    if census_n is not None and raw != census_n:
        problems.append(f"oracle raw {raw} != enumerated N {census_n}")
    return problems


def family_k2_chi(census: dict, c: int, base_genus: int) -> tuple[int, Fraction]:
    """K^2 and chi of the fibered surface, from the census counts."""
    k, b = int(census["k"]), int(census["b"])
    g = fiber_genus(k, b)
    n, n1, n3, e = (int(census[key]) for key in ("N_tilde", "N1", "N3", "e"))
    third = n3 // 3
    fixed = n * (base_genus - 1) * (g - 1)
    k2 = c * ((b - 1) * (2 * e + n1 + (8 * g - 7) * third) - 3 * n) + 8 * fixed
    chi = c * Fraction((b - 1) * (3 * n1 + (12 * g - 11) * third) - 3 * n, 12) + fixed
    return k2, chi


def plane_ratio(census: dict, d: int) -> Fraction | None:
    """K^2 / chi for the family over a smooth plane curve of degree d."""
    b = int(census["b"])
    k2, chi = family_k2_chi(census, b * d, (d - 1) * (d - 2) // 2)
    return Fraction(k2) / chi if chi else None


def check_invariants(flat: dict, census: dict, c: int, base_genus: int, audit: bool) -> list[str]:
    try:
        k2 = Fraction(flat["invariants.k2"])
        chi = Fraction(flat["invariants.chi"])
        euler = Fraction(flat["invariants.euler"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable invariants report: {exc!r}"]
    problems = []
    if 12 * chi != k2 + euler:
        problems.append(f"12*chi {12 * chi} != K2 + e {k2 + euler}")
    want_k2, want_chi = family_k2_chi(census, c, base_genus)
    if (k2, chi) != (want_k2, want_chi):
        problems.append(f"(K2, chi) ({k2}, {chi}) != ({want_k2}, {want_chi})")
    if audit:
        problems += check_audit(flat, census, c, base_genus)
    return problems


def check_audit(flat: dict, census: dict, c: int, base_genus: int) -> list[str]:
    want_k2, _ = family_k2_chi(census, c, base_genus)
    got = flat.get("audit.kf2_closed_form")
    if got != str(want_k2):
        return [f"audit closed form {got} != K2 {want_k2}"]
    return []


def check_delta(flat: dict | None, stderr: str, census: dict, epsilon: str) -> list[str]:
    """Success: re-walk the certificate window.  Give-up (fiber genus 1):
    the trailing trajectory lies outside the band."""
    eps = Fraction(epsilon)
    if flat is None:
        if f"no plane degree d <= {GIVE_UP_D_MAX}" not in stderr:
            return ["give-up message missing"]
        trajectory = _TRAJECTORY.findall(stderr)
        if not trajectory:
            return ["give-up trajectory missing"]
        problems = []
        for d, ratio in trajectory:
            want = plane_ratio(census, int(d))
            if ratio != str(want) or (want is not None and abs(want - 8) <= eps):
                problems.append(f"trajectory d={d} ratio={ratio}, expected {want} outside the band")
        return problems
    try:
        d_min = int(flat["certificate.d_min"])
        window = int(flat["certificate.window"])
        ratio = Fraction(flat["certificate.ratio"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable delta report: {exc!r}"]
    problems = []
    if ratio != plane_ratio(census, d_min):
        problems.append(f"certificate ratio {ratio} != {plane_ratio(census, d_min)}")
    for d in range(d_min, d_min + window + 1):
        r = plane_ratio(census, d)
        if r is None or abs(r - 8) > eps:
            problems.append(f"ratio {r} at d={d} leaves the band |ratio - 8| <= {eps}")
            break
    return problems


def _first_positive(value_at, n_max: int) -> int | None:
    return next((n for n in range(1, n_max + 1) if value_at(n) > 0), None)


def derived_threshold(case: str, n_max: int = 200) -> int | None:
    """First n where (b - 1)(k - 11)/9 - k(k - 1)/2 turns positive along
    the maximal-gonality family of the given parity."""
    def kb(n):
        return (n + 2, 6 * n + 4) if case == "odd" else (n + 1, 6 * n)

    def value(n):
        k, b = kb(n)
        return (b - 1) * Fraction(k - 11, 9) - Fraction(k * (k - 1), 2)

    return _first_positive(value, n_max)


def recorded_threshold(case: str, n_max: int = 200) -> int | None:
    poly = RECORDED_POLYS[case]
    return _first_positive(lambda n: sum(a * n**i for i, a in enumerate(poly)), n_max)


def check_asymptotics(flat: dict, case: str) -> list[str]:
    want = {
        "case": case,
        "reference_claim": str(RECORDED_CLAIMS[case]),
        "derived_first_positive": str(derived_threshold(case)),
        "reference_first_positive": str(recorded_threshold(case)),
    }
    return [
        f"{key} is {flat.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if flat.get(key) != value
    ]


def check_twist_report(report, classes: int, type_three: int) -> list[str]:
    problems = []
    if not report.clean:
        problems.append(
            f"twist report not clean: {report.fixed_point_failures} fixed-point, "
            f"{report.orbit_size_failures} orbit-size failures"
        )
    if report.classes != classes:
        problems.append(f"{report.classes} classes verified, census has {classes}")
    if report.type_three_classes != type_three:
        problems.append(f"{report.type_three_classes} overlapping classes, census has {type_three}")
    return problems


def check_exit(rc, expected: int, stderr: str) -> list[str]:
    if rc != expected:
        return [f"exit code {rc}, expected {expected}: {stderr.strip()[:200]}"]
    return []
