"""Command line: census enumeration with caching (``census``), oracle
cross-checks (``oracle-check``), invariant evaluation and the audit
chain (``invariants``, ``audit``), the maximal-gonality positivity
thresholds (``asymptotics --case``), and the band search (``delta``).

``census`` and ``delta`` reach the cache by one route (``_census``): the
budget, in block-state visits (``covers.block_states``), is checked only
for a census that is not cached yet, and a census computed there is
encoded once, for its cache document and a json report alike.
``oracle-check`` prices its oracle against the budget in term products
(``covers.oracle_products``), and its enumeration as a census.  A line
led by a command name is parsed by that command's parser alone
(``_command_parser``), any other line by the full parser
(``build_parser``); both add a command's options from one table, and
each reads the terminal width once.  The option groups that several
commands share are built once per process and handed to each command's
parser as argparse parents (``_group``); every call still builds its
command's parser, with ``-h``, the command's own rows and its handler.
Options must be spelled out in full; an abbreviation is an unknown
option.  ``--workers`` is deprecated: it is still parsed, a positive
value only prints a warning, and it is hidden from help.

Exit codes: 0 success or help, 2 invariant violation, 3 budget or capacity
ceiling (including a reported value too long to print, or a census
file name too long for the file system), 4 bad arguments
or an unusable cache directory.  All output is deterministic for a
given configuration and cache state; payloads carry no timestamps.
"""

import argparse
import csv
import functools
import shutil
import sys
from fractions import Fraction
from math import comb, isqrt, log10

from .asymptotics import delta_search, positivity_threshold
from .cache import census_file, census_payload, json_text, read_census, resolve_cache_dir, write_census
from .covers import block_states, class_count, class_count_via_oracle, cover_genus, oracle_products, validate_cover_shape
from .degeneration import DegenerationCensus, full_census
from .digits import DEFAULT_DIGIT_LIMIT, _EXACT_BITS, _decimal, _floor_log10, _magnitude, _unprintable, int_digit_limit
from .errors import BudgetExceeded, CapacityError, InvariantViolation, ParameterError
from .invariants import FamilyParams, audit_chain, surface_invariants

# not called here (``_census`` computes and writes a census itself, so
# that one encoding serves the cache and the report; the guard prices the
# walk), but the benchmark's span tracer still wraps these names
from .cache import load_or_compute
from .characters import disconnected_count

DEFAULT_ENUM_BUDGET = 1_000_000

CENSUS_NOTES = (
    "split cells list the smaller-degree component; "
    "equal-degree splits are oriented by i <= g - i",
)


class _Exit(Exception):
    """A parser asked to exit (after printing help) with this status."""

    def __init__(self, status: int):
        self.status = status


class _Parser(argparse.ArgumentParser):
    """argparse but bad arguments raise instead of exiting with code 2,
    and help unwinds to ``main`` instead of exiting, so the exit-code
    contract stays ours."""

    _width = None

    def error(self, message):
        raise ParameterError(message)

    def _get_formatter(self):
        # argparse builds a formatter for every add_argument's metavar
        # check, and each would read the terminal width: read it once
        if self._width is None:
            self._width = shutil.get_terminal_size().columns - 2
        return self.formatter_class(prog=self.prog, width=self._width)

    def exit(self, status=0, message=None):  # only help calls it, with no message
        raise _Exit(status)


def _resolve_shape(k: int, b: int | None, g: int | None) -> tuple[int, int]:
    if b is None and g is None:
        raise ParameterError("give --b or --g")
    if b is None:
        b = 2 * g + 2 * k - 2
    elif g is not None and b != 2 * g + 2 * k - 2:
        raise ParameterError(
            f"--b {b} and --g {g} disagree: b must be 2g + 2k - 2 = {_magnitude(2 * g + 2 * k - 2)}"
        )
    _decimal(b, "the branch count b")  # past the digit limit, b fits no message or file name
    validate_cover_shape(k, b)
    return k, b


def _census(args, k: int, b: int) -> tuple[DegenerationCensus, dict | None, str | None]:
    """The census of (k, b), read from the cache or, within the budget,
    computed and cached, with the payload and document text it was
    written as, both None for a census read.  A census whose N is too
    long to print is never cached, and is not looked up: its file name
    may be too long.  One whose file name is too long anyway
    (``census_file``) is refused before the cache is searched or the walk
    priced; the name is checked once, and its path handed on."""
    try:
        too_long = _digit_refusal(k, b, "the tuple count N")
        path = None if too_long else census_file(args.cache_dir, k, b)
        if not too_long and path.exists():
            return read_census(args.cache_dir, k, b, path), None, None
        _guard_budget(k, b, args.budget)
        if too_long:
            raise too_long
        census = full_census(k, b)[1]
        payload = census_payload(census)
        text = json_text(payload) + "\n"
        write_census(args.cache_dir, census, text)
        return census, payload, text
    except OSError as exc:  # a cache directory that cannot be searched or written
        raise ParameterError(
            f"cannot use {args.cache_dir} as the census cache: {exc.strerror or exc}"
        ) from None


def _guard_budget(k: int, b: int, budget: int, oracle: bool = False) -> None:
    """Refuse (k, b) when its census walk, at most S(k) block states in
    each of b - 2 branching layers, or with ``oracle`` the character
    oracle's ``covers.oracle_products``, is priced past the budget.  A
    huge degree is refused before the exact price: per layer, each is at
    least p(k) >= 2^s for the largest s with (s + 1)(s + 2)/2 - 1 <= k,
    as the subsets of {2, ..., s + 1}, padded with 1s, are partitions of k."""
    s = (isqrt(8 * k + 9) - 1) // 2 - 1
    layers = 1 if oracle else b - 2
    # past the budget's bit length, 2^s alone passes it
    if layers << min(s, budget.bit_length()) > budget or (
        oracle_products(k, budget) if oracle else block_states(k, layers, budget)
    ) > budget:
        raise BudgetExceeded(
            f"the character oracle for ({k}, {b}) forms more term products "
            f"than the budget {budget}; raise --budget to force" if oracle else
            f"the census walk for ({k}, {b}) takes more block-state visits than "
            f"the enumeration budget {budget}; raise --budget to force, or use "
            "'oracle-check --oracle-only' for the count without enumeration"
        )


def _digit_refusal(k: int, b: int, what: str) -> CapacityError | None:
    """The refusal of (k, b), before the oracle or the walk counts it,
    when its connected count has more digits than the interpreter prints.
    Appending (t, t) keeps a tuple connected, so Conn(k, b + 2) >=
    C(k, 2) Conn(k, b); from Conn(k, 2k - 2) >= 1, Conn(k, b) >= C(k, 2)^g."""
    limit = int_digit_limit()
    # a genus past 10^300 puts the bound past any digit limit, and past a float
    e = _floor_log10(min(cover_genus(k, b), 10**300) * log10(comb(k, 2)))
    return _unprintable(f"{what} for ({k}, {b})", f"at least 10^{e}", limit) if limit and e >= limit else None


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


def _emit(payload: dict, fmt: str, notes: tuple[str, ...] = (), text: str | None = None) -> None:
    """Print a report; ``text``, when given, is its json already encoded."""
    if fmt == "json":
        sys.stdout.write(text or json_text(payload) + "\n")
        return
    rows: list = []
    _walk(payload, "", rows)
    if fmt == "csv":
        csv.writer(sys.stdout).writerows(row[1:] for row in rows)
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
    k, b = _resolve_shape(args.k, args.b, args.g)
    census, payload, text = _census(args, k, b)
    _emit(payload or census_payload(census), args.output, CENSUS_NOTES, text)
    return 0


def cmd_oracle_check(args) -> int:
    k, b = _resolve_shape(args.k, args.b, args.g)
    if too_long := _digit_refusal(k, b, "the oracle count"):
        raise too_long
    _guard_budget(k, b, args.budget, oracle=True)
    oracle = class_count_via_oracle(k, b)
    payload = {
        "k": k,
        "b": b,
        "oracle_raw": _decimal(oracle.raw_count, f"the oracle count for ({k}, {b})"),
        "oracle_classes": str(oracle.class_count),
    }
    if not args.oracle_only:
        _guard_budget(k, b, args.budget)
        enum = class_count(k, b)
        payload["enumeration_raw"] = str(enum.raw_count)
        payload["enumeration_classes"] = str(enum.class_count)
        payload["match"] = enum.raw_count == oracle.raw_count
        if not payload["match"]:
            raise InvariantViolation(
                f"enumeration {enum.raw_count} and oracle {oracle.raw_count} "
                f"disagree for ({k}, {b})"
            )
    _emit(payload, args.output)
    return 0


def _family(args) -> FamilyParams:
    k, b = _resolve_shape(args.k, args.b, args.g)
    return FamilyParams(read_census(args.cache_dir, k, b), args.c, args.base_genus, args.special_base)


def cmd_invariants(args) -> int:
    params = _family(args)
    inv = surface_invariants(params)
    payload = {
        "k": params.census.k,
        "b": params.census.b,
        "g": params.census.g,
        "c": params.c,
        "base_genus": params.base_genus,
        "cautions": list(params.cautions),
        "invariants": inv.as_payload(),
        "noether": "12*chi = k2 + euler verified exactly",
    }
    if args.audit:
        payload["audit"] = audit_chain(params).as_payload()
    _emit(payload, args.output)
    return 0


def cmd_audit(args) -> int:
    params = _family(args)
    payload = {
        "k": params.census.k,
        "b": params.census.b,
        "c": params.c,
        "base_genus": params.base_genus,
        "audit": audit_chain(params).as_payload(),
    }
    _emit(payload, args.output)
    return 0


def _trajectory_lines(trajectory) -> list[str]:
    """One line per (d, ratio) of a failed band search, which ends at
    d_max.  Too long to print exactly, a degree prints as its offset from
    d_max and a ratio as its float, which stays near 8."""
    d_max = trajectory[-1][0]
    lines = []
    for d, ratio in trajectory:
        if d_max.bit_length() > _EXACT_BITS:
            d = f"d_max-{d_max - d}"
        if ratio is not None and max(abs(ratio.numerator), ratio.denominator).bit_length() > _EXACT_BITS:
            ratio = f"~{float(ratio)!r}"
        lines.append(f"  d={d} ratio={ratio}")
    return lines


def _fraction_digits(text: str) -> int:
    """The most digits of the numerator or denominator that ``Fraction(text)``
    builds before reducing, 0 for a text it would refuse anyway.  An
    exponent makes it build a power of ten with that many digits."""
    body = text.strip().lstrip("+-").replace("_", "")
    if "/" in body:
        return max(len(part.strip()) for part in body.split("/"))
    mantissa, _, exponent = body.replace("E", "e").partition("e")
    whole, _, decimals = mantissa.partition(".")
    try:
        shift = int(exponent or 0) - len(decimals)
    except ValueError:
        return 0
    digits = len((whole + decimals).lstrip("0")) or 1
    return digits + shift if shift >= 0 else max(digits, 1 - shift)


def _parse_fraction(text: str) -> Fraction:
    """Epsilon as a Fraction, refused before it is built when its parts
    would pass the interpreter's digit limit, or, with the limit lifted,
    the interpreter's default limit: nothing else bounds it then."""
    limit = int_digit_limit()
    if _fraction_digits(text) > (limit or DEFAULT_DIGIT_LIMIT):
        raise ParameterError(
            f"the numerator or denominator of epsilon has more than the {limit} digits this interpreter reads"
            if limit else
            f"the numerator or denominator of epsilon has more than {DEFAULT_DIGIT_LIMIT} digits"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"expected a rational like 1/2, got {text!r}")


def cmd_delta(args) -> int:
    k, b = _resolve_shape(args.k, None, args.g)
    eps = _parse_fraction(args.epsilon)
    cert = delta_search(_census(args, k, b)[0], eps, window=args.window, d_max=args.d_max)
    _emit({"g": args.g, "k": k, "b": b, "certificate": cert.as_payload()}, args.output)
    return 0


def cmd_asymptotics(args) -> int:
    _emit(positivity_threshold(args.case).as_payload(), args.output)
    return 0


# the options shared by several commands, as rows of (flags, keywords)
_GROUPS = {
    "common": (
        (("--cache-dir",), {"default": None, "help": "census cache directory (default: $GG_CACHE_DIR or ./census-cache)"}),
        # deprecated and ignored; still parsed because the benchmark still sends it
        (("--workers",), {"type": int, "default": None, "help": argparse.SUPPRESS}),
        (("--output",), {"choices": ("json", "csv", "table"), "default": "table", "help": "report format"}),
        (("--budget",), {"type": int, "default": DEFAULT_ENUM_BUDGET, "help": "budget per counting engine: block-state visits for a walk (S(k) states in each of b - 2 layers), term products for the character oracle"}),
    ),
    "shape": (
        (("--k",), {"type": int, "required": True, "help": "cover degree"}),
        (("--b",), {"type": int, "help": "branch point count"}),
        (("--g",), {"type": int, "help": "fiber genus (alternative to --b; b = 2g + 2k - 2)"}),
    ),
    "family": (
        (("--c",), {"type": int, "required": True, "help": "total degree of the moving branch divisor"}),
        (("--base-genus",), {"type": int, "required": True, "help": "genus of the base curve"}),
        (("--special-base",), {"action": "store_true", "help": "suppress the very-ampleness caution"}),
    ),
}
# one row per command: name, shared option groups, help, own arguments, handler
_COMMANDS = (
    ("census", ("common", "shape"), "enumerate one (k, b), cache and print its collision census", (), cmd_census),
    ("oracle-check", ("common", "shape"), "compare enumeration against the character oracle", (
        (("--oracle-only",), {"action": "store_true", "help": "skip enumeration; print the oracle count alone"}),
    ), cmd_oracle_check),
    ("invariants", ("common", "shape", "family"), "surface invariants for a cached census", (
        (("--audit",), {"action": "store_true", "help": "append the audit chain"}),
    ), cmd_invariants),
    ("audit", ("common", "shape", "family"), "audit chain for a cached census", (), cmd_audit),
    ("asymptotics", ("common",), "where the estimated excess turns positive at maximal gonality", (
        (("--case",), {"choices": ("odd", "even"), "required": True, "help": "maximal-gonality parity"}),
    ), cmd_asymptotics),
    ("delta", ("common",), "least plane degree whose family has |K2/chi - 8| <= epsilon", (
        (("g",), {"type": int, "help": "fiber genus"}),
        (("k",), {"type": int, "help": "cover degree"}),
        (("epsilon",), {"help": "band half-width, as a rational like 1/2"}),
        (("--window",), {"type": int, "default": 8, "help": "persistence window of the band search"}),
        (("--d-max",), {"type": int, "default": 10**6, "help": "plane-degree ceiling"}),
    ), cmd_delta),
)
_COMMAND_ROWS = {row[0]: row for row in _COMMANDS}


@functools.cache
def _group(name: str) -> argparse.ArgumentParser:
    """One shared option group's rows, built once per process into a
    container that command parsers adopt as an argparse parent, sharing
    its actions.  It never parses or prints help, so a fixed width spares
    its metavar checks a terminal read each."""
    container = argparse.ArgumentParser(add_help=False, allow_abbrev=False, formatter_class=functools.partial(argparse.HelpFormatter, width=80))
    for flags, keywords in _GROUPS[name]:
        container.add_argument(*flags, **keywords)
    return container


def _add_rows(make, row, *args, **settings) -> _Parser:
    """Build a command's parser by ``make`` (``_Parser``, or a subparsers
    action's ``add_parser``) with its shared option groups as parents,
    then add its own rows and its handler as ``func``: the one walk of
    the table, for either parser."""
    _name, groups, _help, arguments, handler = row
    parser = make(*args, parents=[_group(group) for group in groups], allow_abbrev=False, **settings)
    for flags, keywords in arguments:
        parser.add_argument(*flags, **keywords)
    parser.set_defaults(func=handler)
    return parser


def _command_parser(name: str) -> _Parser:
    """The parser of one command alone, for the words after its name: it
    parses them as ``build_parser()``'s subparser for ``name`` does, but
    leaves ``command`` unset."""
    return _add_rows(_Parser, _COMMAND_ROWS[name], prog=f"gonalgeo {name}")


def build_parser() -> _Parser:
    """The program's parser, with a subparser for every command."""
    parser = _Parser(
        prog="gonalgeo",
        allow_abbrev=False,
        description=(
            "Exact census of transposition monodromy tuples and the surface "
            "geography of the families they support."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    for row in _COMMANDS:
        _add_rows(sub.add_parser, row, row[0], help=row[2])
    return parser


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit code, help included, without raising.  A line that
    starts with a command name is parsed by that command's parser alone,
    one ``_Parser`` with no program parser around it; any other line by
    the full parser, so its errors and help list every command.  The
    options every command shares are checked, and the cache directory
    resolved, before the command runs."""
    argv = sys.argv[1:] if argv is None else argv
    led = bool(argv) and argv[0] in _COMMAND_ROWS
    parser = _command_parser(argv[0]) if led else build_parser()
    try:
        args = parser.parse_args(argv[1:] if led else argv)
        if not hasattr(args, "func"):
            parser.error("a command is required")
        if args.workers is not None:
            if args.workers < 1:
                raise ParameterError(f"workers must be positive, got {args.workers}")
            print("warning: --workers is deprecated and ignored", file=sys.stderr)
        args.cache_dir = resolve_cache_dir(args.cache_dir)
        if args.budget < 1:
            raise ParameterError(f"budget must be positive, got {args.budget}")
        return args.func(args)
    except _Exit as exc:
        return exc.status
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
            for line in _trajectory_lines(trajectory):
                print(line, file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
