"""Command line: census enumeration with caching, oracle cross-checks,
invariant evaluation, the audit chain, and the asymptotic reports.

Exit codes: 0 success, 2 invariant violation, 3 budget or capacity
ceiling, 4 bad arguments or an unusable cache directory.  All output is
deterministic for a given configuration and cache state; payloads carry
no timestamps.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import log10
from pathlib import Path

from .asymptotics import delta_search, positivity_threshold
from .cache import (
    census_path,
    census_payload,
    int_digit_limit,
    load_or_compute,
    read_census,
    resolve_cache_dir,
    write_census,
)
from .characters import disconnected_count
from .covers import class_count, class_count_via_oracle, validate_cover_shape
from .degeneration import full_census
from .errors import (
    BudgetExceeded,
    CapacityError,
    InvariantViolation,
    ParameterError,
)
from .invariants import FamilyParams, audit_chain, surface_invariants

DEFAULT_ENUM_BUDGET = 30_000_000

CENSUS_NOTES = (
    "split cells list the smaller-degree component; "
    "equal-degree splits are oriented by i <= g - i",
)


class _Parser(argparse.ArgumentParser):
    """argparse but bad arguments raise instead of exiting with code 2,
    so the exit-code contract stays ours."""

    def error(self, message):
        raise ParameterError(message)


@dataclass(frozen=True)
class RunConfig:
    cache_dir: Path
    workers: int
    output: str
    budget: int

    def __post_init__(self):
        if self.workers < 1:
            raise ParameterError(f"workers must be positive, got {self.workers}")
        if self.budget < 1:
            raise ParameterError(f"budget must be positive, got {self.budget}")


def _config(args) -> RunConfig:
    return RunConfig(
        cache_dir=resolve_cache_dir(args.cache_dir),
        workers=args.workers,
        output=args.output,
        budget=args.budget,
    )


def _resolve_shape(k: int | None, b: int | None, g: int | None) -> tuple[int, int]:
    if k is None:
        raise ParameterError("--k is required")
    if b is None and g is None:
        raise ParameterError("give --b or --g")
    if b is None:
        b = 2 * g + 2 * k - 2
    elif g is not None and b != 2 * g + 2 * k - 2:
        raise ParameterError(
            f"--b {b} and --g {g} disagree: b must be 2g + 2k - 2 = {2 * g + 2 * k - 2}"
        )
    validate_cover_shape(k, b)
    return k, b


def _magnitude(n: int) -> str:
    """``n`` in decimal, or as a lower bound 10^e once it is too long to
    print: Python refuses str() of ints past 4300 digits."""
    if n.bit_length() <= 1000:
        return str(n)
    e = int((n.bit_length() - 1) * log10(2))
    if 10**e > n:  # guard the float against rounding up
        e -= 1
    return f"at least 10^{e}"


def _decimal(n: int, what: str) -> str:
    """``n`` in decimal, or CapacityError when it has more digits than
    the interpreter converts to a string."""
    limit = int_digit_limit()
    # below 2^(3 * limit) = 8^limit, n is short enough without computing 10^limit
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10**limit:
        raise CapacityError(
            f"{what} is {_magnitude(n)}, more than the {limit} digits "
            "this interpreter prints"
        )
    return str(n)


def _unusable_cache(cfg: RunConfig, exc: OSError) -> ParameterError:
    return ParameterError(
        f"cannot use {cfg.cache_dir} as the census cache: {exc.strerror or exc}"
    )


def _guard_budget(k: int, b: int, budget: int) -> None:
    estimate = disconnected_count(k, b)
    if estimate > budget:
        raise BudgetExceeded(
            f"estimated {_magnitude(estimate)} identity-product tuples for ({k}, {b}) exceed "
            f"the enumeration budget {budget}; raise --budget to force, or use "
            "'oracle-check --oracle-only' for the count without enumeration"
        )


_RATIONAL_KEYS = {"numerator", "denominator", "approx"}
_MCELL_KEYS = {"j", "i", "count"}


def _rat_str(d: dict) -> str:
    if d["denominator"] == "1":
        return d["numerator"]
    return f"{d['numerator']}/{d['denominator']}"


def _walk(value, path: str, out: list) -> None:
    if isinstance(value, dict):
        if set(value) == _RATIONAL_KEYS:
            out.append(("scalar", path, _rat_str(value)))
            return
        for key, inner in value.items():
            _walk(inner, f"{path}.{key}" if path else str(key), out)
    elif isinstance(value, (list, tuple)):
        for idx, inner in enumerate(value):
            if isinstance(inner, dict) and set(inner) == _MCELL_KEYS:
                out.append(("mcell", path, inner["j"], inner["i"], inner["count"]))
            else:
                _walk(inner, f"{path}[{idx}]", out)
    else:
        out.append(("scalar", path, "" if value is None else str(value)))


def _emit(payload: dict, fmt: str, notes: tuple[str, ...] = ()) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    rows: list = []
    _walk(payload, "", rows)
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        for row in rows:
            if row[0] == "scalar":
                writer.writerow([row[1], row[2]])
            else:
                writer.writerow([row[1], row[2], row[3], row[4]])
        return
    width = max((len(row[1]) for row in rows), default=0)
    for row in rows:
        if row[0] == "scalar":
            print(f"{row[1]:<{width}}  {row[2]}")
        else:
            print(f"{row[1]:<{width}}  j={row[2]} i={row[3]} count={row[4]}")
    for note in notes:
        print(f"note: {note}")


def cmd_census(args) -> int:
    cfg = _config(args)
    k, b = _resolve_shape(args.k, args.b, args.g)
    if census_path(cfg.cache_dir, k, b).exists():
        counts, cen = read_census(cfg.cache_dir, k, b)
    else:
        _guard_budget(k, b, cfg.budget)
        counts, cen = full_census(k, b, cfg.workers)
        try:
            write_census(cfg.cache_dir, counts, cen)
        except OSError as exc:
            raise _unusable_cache(cfg, exc) from None
    _emit(census_payload(counts, cen), cfg.output, notes=CENSUS_NOTES)
    return 0


def cmd_oracle_check(args) -> int:
    cfg = _config(args)
    k, b = _resolve_shape(args.k, args.b, args.g)
    oracle = class_count_via_oracle(k, b)
    payload = {
        "k": k,
        "b": b,
        "oracle_raw": _decimal(oracle.raw_count, f"the oracle count for ({k}, {b})"),
        "oracle_classes": str(oracle.class_count),
    }
    if not args.oracle_only:
        _guard_budget(k, b, cfg.budget)
        enum = class_count(k, b, cfg.workers)
        payload["enumeration_raw"] = str(enum.raw_count)
        payload["enumeration_classes"] = str(enum.class_count)
        payload["match"] = enum.raw_count == oracle.raw_count
        if not payload["match"]:
            raise InvariantViolation(
                f"enumeration {enum.raw_count} and oracle {oracle.raw_count} "
                f"disagree for ({k}, {b})"
            )
    _emit(payload, cfg.output)
    return 0


def _family(args, cfg: RunConfig) -> FamilyParams:
    k, b = _resolve_shape(args.k, args.b, args.g)
    _counts, cen = read_census(cfg.cache_dir, k, b)
    return FamilyParams.from_census(cen, args.c, args.base_genus, args.special_base)


def cmd_invariants(args) -> int:
    cfg = _config(args)
    params = _family(args, cfg)
    inv = surface_invariants(params)
    payload = {
        "k": params.k,
        "b": params.b,
        "g": params.g,
        "c": params.c,
        "base_genus": params.base_genus,
        "cautions": list(params.cautions),
        "invariants": inv.as_payload(),
        "noether": "12*chi = k2 + euler verified exactly",
    }
    if args.audit:
        payload["audit"] = audit_chain(params).as_payload()
    _emit(payload, cfg.output)
    return 0


def cmd_audit(args) -> int:
    cfg = _config(args)
    params = _family(args, cfg)
    payload = {
        "k": params.k,
        "b": params.b,
        "c": params.c,
        "base_genus": params.base_genus,
        "audit": audit_chain(params).as_payload(),
    }
    _emit(payload, cfg.output)
    return 0


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"expected a rational like 1/2, got {text!r}")


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParameterError(f"expected K,B, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParameterError(f"expected integers K,B, got {text!r}")


def _run_delta(cfg: RunConfig, g: int, k: int, epsilon: str, census_sel, window, d_max) -> int:
    b = 2 * g + 2 * k - 2
    validate_cover_shape(k, b)
    if census_sel is not None:
        pair = _parse_pair(census_sel)
        if pair != (k, b):
            raise ParameterError(
                f"--census {census_sel} does not match k={k}, b=2g+2k-2={b}"
            )
    eps = _parse_fraction(epsilon)
    if not census_path(cfg.cache_dir, k, b).exists():
        _guard_budget(k, b, cfg.budget)
    try:
        _counts, cen = load_or_compute(cfg.cache_dir, k, b, cfg.workers)
    except OSError as exc:
        raise _unusable_cache(cfg, exc) from None
    cert = delta_search(g, k, cen, eps, window=window, d_max=d_max)
    _emit({"g": g, "k": k, "b": b, "certificate": cert.as_payload()}, cfg.output)
    return 0


def cmd_delta(args) -> int:
    cfg = _config(args)
    return _run_delta(cfg, args.g, args.k, args.epsilon, args.census, args.window, args.d_max)


def cmd_asymptotics(args) -> int:
    cfg = _config(args)
    if args.delta is not None:
        if args.case is not None:
            raise ParameterError("give either --case or --delta, not both")
        g_text, k_text, eps = args.delta
        try:
            g, k = int(g_text), int(k_text)
        except ValueError:
            raise ParameterError(f"--delta wants integers G K, got {g_text!r} {k_text!r}")
        return _run_delta(cfg, g, k, eps, args.census, args.window, args.d_max)
    if args.case is None:
        raise ParameterError("give --case odd|even or --delta G K EPSILON")
    report = positivity_threshold(args.case, args.n_max)
    _emit(report.as_payload(), cfg.output)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gonalgeo",
        description=(
            "Exact census of transposition monodromy tuples and the surface "
            "geography of the families they support."
        ),
    )
    common = _Parser(add_help=False)
    common.add_argument("--cache-dir", default=None, help="census cache directory (default: $GG_CACHE_DIR or ./census-cache)")
    common.add_argument("--workers", type=int, default=1, help="accepted for compatibility; enumeration runs in one process")
    common.add_argument("--output", choices=("json", "csv", "table"), default="table", help="report format")
    common.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET, help="enumeration budget, in estimated identity-product tuples")

    shape = _Parser(add_help=False)
    shape.add_argument("--k", type=int, required=True, help="cover degree")
    shape.add_argument("--b", type=int, help="branch point count")
    shape.add_argument("--g", type=int, help="fiber genus (alternative to --b; b = 2g + 2k - 2)")

    family = _Parser(add_help=False)
    family.add_argument("--c", type=int, required=True, help="total degree of the moving branch divisor")
    family.add_argument("--base-genus", type=int, required=True, help="genus of the base curve")
    family.add_argument("--special-base", action="store_true", help="suppress the very-ampleness caution")

    sweep = _Parser(add_help=False)
    sweep.add_argument("--census", default=None, metavar="K,B", help="consistency check of the census selector")
    sweep.add_argument("--window", type=int, default=8, help="persistence window of the band search")
    sweep.add_argument("--d-max", type=int, default=10**6, help="plane-degree ceiling")

    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("census", parents=[common, shape], help="enumerate one (k, b), cache and print its collision census")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("oracle-check", parents=[common, shape], help="compare enumeration against the character oracle")
    p.add_argument("--oracle-only", action="store_true", help="skip enumeration; print the oracle count alone")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("invariants", parents=[common, shape, family], help="surface invariants for a cached census")
    p.add_argument("--audit", action="store_true", help="append the audit chain")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("audit", parents=[common, shape, family], help="audit chain for a cached census")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("asymptotics", parents=[common, sweep], help="positivity thresholds, or a band certificate via --delta")
    p.add_argument("--case", choices=("odd", "even"), help="maximal-gonality parity")
    p.add_argument("--n-max", type=int, default=200, help="sweep bound for the threshold scan")
    p.add_argument("--delta", nargs=3, metavar=("G", "K", "EPSILON"), help="run the band search for fiber genus G, degree K")
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("delta", parents=[common, sweep], help="least plane degree whose family has |K2/chi - 8| <= epsilon")
    p.add_argument("g", type=int, help="fiber genus")
    p.add_argument("k", type=int, help="cover degree")
    p.add_argument("epsilon", help="band half-width, as a rational like 1/2")
    p.set_defaults(func=cmd_delta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.error("a command is required")
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        trajectory = getattr(exc, "trajectory", None)
        if trajectory:
            for d, ratio in trajectory:
                print(f"  d={d} ratio={ratio}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
