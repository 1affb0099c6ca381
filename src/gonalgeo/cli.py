"""Command line: the collision census and its export (``census``), oracle
cross-checks (``oracle-check``), invariant evaluation and the audit
chain (``invariants``, ``audit``), the maximal-gonality positivity
thresholds (``asymptotics --case``), and the band search (``delta``).

Every command admits its line in one step before any engine runs: its
own arguments first (the shape, then ``--c`` and ``--base-genus`` or
epsilon and ``--window``, by the checks the family and the band search
run themselves), then, in the order the command lists them, a count too
long to print (``_digit_refusal``) and each engine's price against
``--budget`` (``_guard_budget``).  A census is computed by class
algebra, once per shape per process: ``_computed_census`` prices it in
term products (``covers.algebra_price``), then checks its digits, on
every call, and reads it from a memo of the 16 latest shapes
(``_census_of``, 7.8 MiB each at worst); no command reads a cache
document.  ``oracle-check`` prices its oracle, then the walk of
``gonalgeo.reference`` in block-state visits (``covers.block_states``),
then the census it compares the walk with, before it counts any of them.
``census`` also exports its document to the cache directory, encoded
once for the file and a json report alike, and writes it only when the
file does not hold those bytes already (``_census``); a file that held
other bytes is written over and reported as an invariant violation.  It
alone resolves ``--cache-dir``.
A line led by a command name is parsed by that command's parser alone
(``_command_parser``), any other line by the full parser
(``build_parser``); both add a command's options from one table, and
each reads the terminal width once.  The option groups that several
commands share, ``-h`` among them, are built once per process and handed
to each command's parser as argparse parents (``_group``); every call
still builds its command's parser, with its own rows and its handler.
Options must be spelled out in full; an abbreviation is an unknown
option.  ``--workers`` is deprecated: it is still parsed, a positive
value only prints a warning, and it is hidden from help.

Exit codes: 0 success or help, 2 invariant violation (including a
census document that did not hold its census, which ``census`` has just
written again), 3 budget or capacity ceiling (including a reported value
too long to print, or a census file name too long for the file system),
4 bad arguments or a cache directory ``census`` cannot use.  All output
is deterministic for a given configuration; payloads carry no timestamps.
"""

import argparse
import csv
import functools
import shutil
import sys
from fractions import Fraction
from gettext import gettext
from math import comb, log10

from .asymptotics import _check_band, delta_search, positivity_threshold
from .cache import census_file, export_census, json_text, resolve_cache_dir
from .covers import algebra_price, block_states, class_count_via_oracle, cover_genus, validate_cover_shape
from .degeneration import DegenerationCensus, full_census
from .digits import DEFAULT_DIGIT_LIMIT, _EXACT_BITS, _decimal, _floor_log10, _magnitude, _unprintable, int_digit_limit
from .errors import BudgetExceeded, CapacityError, InvariantViolation, ParameterError
from .invariants import FamilyParams, _check_family, audit_chain, surface_invariants
from .reference import cross_check_walk

# not called here (no command reads a cache document, ``_census`` exports
# through ``cache.export_census``), but the benchmark's span tracer wraps these
from .cache import load_or_compute, read_census, write_census
from .characters import disconnected_count
from .reference import class_count

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


def _computed_census(k: int, b: int, budget: int) -> DegenerationCensus:
    """The census of (k, b), once its price fits the budget and its N has
    no more digits than the interpreter prints, both decided on every
    call, a memo hit too; ``_census_of`` computes the census once."""
    _guard_budget(k, b, budget)
    if too_long := _digit_refusal(k, b, "the tuple count N"):
        raise too_long
    return _census_of(k, b)


@functools.lru_cache(maxsize=16)
def _census_of(k: int, b: int) -> DegenerationCensus:
    """``full_census(k, b)``'s census for one process's queries.  Sixteen
    covers perfbench's mixes of 13 and 14 shapes; the largest census the
    default limits admit, (5, 8608), holds 7.8 MiB, so 16 hold < 130 MiB."""
    return full_census(k, b)[1]


def _census(args, k: int, b: int) -> tuple[dict, str]:
    """The payload and document text of the census of (k, b), for its
    report and its export alike (``cache.export_census``).  A census
    whose N is too long to print is never written, and its file name,
    which may be too long to look up, is not checked; one whose file name
    is too long anyway (``census_file``) is refused before it is priced."""
    cache_dir = resolve_cache_dir(args.cache_dir)
    try:
        path = None if _digit_refusal(k, b, "the tuple count N") else census_file(cache_dir, k, b)
        return export_census(cache_dir, _computed_census(k, b, args.budget), path)
    except OSError as exc:  # a cache directory that cannot be searched or written
        raise ParameterError(
            f"cannot use {cache_dir} as the census cache: {exc.strerror or exc}"
        ) from None


# what each engine's refusal names: the engine and the unit it is priced in
_REFUSALS = {
    "census": "the class-algebra census for ({k}, {b}) forms more term products than "
    "the budget {budget}; raise --budget to force, or use 'oracle-check --oracle-only' "
    "for the count alone",
    "oracle": "the character oracle for ({k}, {b}) forms more term products than "
    "the budget {budget}; raise --budget to force",
    "walk": "the block-state walk for ({k}, {b}), which oracle-check compares with the "
    "census, takes more block-state visits than the budget {budget}; raise --budget "
    "to force, or use --oracle-only to skip it",
}


def _guard_budget(k: int, b: int, budget: int, engine: str = "census") -> None:
    """Refuse (k, b) when ``engine`` is priced past the budget: the
    class-algebra "census" or "oracle" (``covers.algebra_price``, in term
    products), or the "walk", at most S(k) block states in each of b - 2
    layers (``covers.block_states``).  A degree past ``covers.MAX_DEGREE``
    is a CapacityError at any budget."""
    price = block_states(k, b - 2) if engine == "walk" else algebra_price(k, b, engine == "census")
    if price > budget:
        raise BudgetExceeded(_REFUSALS[engine].format(k=k, b=b, budget=budget))


def _digit_refusal(k: int, b: int, what: str) -> CapacityError | None:
    """The refusal of (k, b), before class algebra or the walk counts it,
    when its connected count has more digits than the interpreter prints.
    Appending (t, t) keeps a tuple connected, so Conn(k, b + 2) >=
    C(k, 2) Conn(k, b); from Conn(k, 2k - 2) >= 1, Conn(k, b) >= C(k, 2)^g."""
    limit = int_digit_limit()
    # a genus past 10^300 puts the bound past any digit limit, and past a float
    e = _floor_log10(min(cover_genus(k, b), 10**300) * log10(comb(k, 2)))
    return _unprintable(f"{what} for ({k}, {b})", f"at least 10^{e}", limit) if limit and e >= limit else None


_RATIONAL_KEYS = {"numerator", "denominator", "approx"}
_MCELL_KEYS = {"j", "i", "count"}


def _walk(value, path: str, out: list) -> None:
    if isinstance(value, dict):
        if value.keys() == _RATIONAL_KEYS:
            num, den = value["numerator"], value["denominator"]
            out.append(("scalar", path, num if den == "1" else f"{num}/{den}"))
            return
        for key, inner in value.items():
            _walk(inner, f"{path}.{key}" if path else str(key), out)
    elif isinstance(value, (list, tuple)):
        for idx, inner in enumerate(value):
            if isinstance(inner, dict) and inner.keys() == _MCELL_KEYS:
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
    lines = [
        f"{row[1]:<{width}}  {row[2]}\n" if row[0] == "scalar" else f"{row[1]:<{width}}  j={row[2]} i={row[3]} count={row[4]}\n"
        for row in rows
    ]
    sys.stdout.write("".join(lines) + "".join(f"note: {note}\n" for note in notes))


def cmd_census(args) -> int:
    k, b = _resolve_shape(args.k, args.b, args.g)
    payload, text = _census(args, k, b)
    _emit(payload, args.output, CENSUS_NOTES, text)
    return 0


def cmd_oracle_check(args) -> int:
    k, b = _resolve_shape(args.k, args.b, args.g)
    if too_long := _digit_refusal(k, b, "the oracle count"):
        raise too_long
    for engine in ("oracle",) if args.oracle_only else ("oracle", "walk", "census"):
        _guard_budget(k, b, args.budget, engine)
    oracle = class_count_via_oracle(k, b)
    payload = {
        "k": k,
        "b": b,
        "oracle_raw": _decimal(oracle.raw_count, f"the oracle count for ({k}, {b})"),
        "oracle_classes": str(oracle.class_count),
    }
    if not args.oracle_only:
        # the census's N is the oracle count, whose digits were checked above
        enum = cross_check_walk(k, b, _census_of(k, b))
        payload["enumeration_raw"] = str(enum.raw_count)
        payload["enumeration_classes"] = str(enum.class_count)
        # the walk matched the census field by field, and the census's N is the oracle's
        payload["match"] = enum.raw_count == oracle.raw_count
    _emit(payload, args.output)
    return 0


def _family(args) -> FamilyParams:
    k, b = _resolve_shape(args.k, args.b, args.g)
    _check_family(args.c, args.base_genus)
    return FamilyParams(_computed_census(k, b, args.budget), args.c, args.base_genus, args.special_base)


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
    eps = _check_band(_parse_fraction(args.epsilon), args.window)
    cert = delta_search(_computed_census(k, b, args.budget), eps, window=args.window, d_max=args.d_max)
    _emit({"g": args.g, "k": k, "b": b, "certificate": cert.as_payload()}, args.output)
    return 0


def cmd_asymptotics(args) -> int:
    _emit(positivity_threshold(args.case).as_payload(), args.output)
    return 0


# the options shared by several commands, as rows of (flags, keywords)
_GROUPS = {
    "common": (
        # the help row add_help would give each parser, its text translated once per process
        (("-h", "--help"), {"action": "help", "default": argparse.SUPPRESS, "help": gettext("show this help message and exit")}),
        (("--cache-dir",), {"default": None, "help": "where census exports its document (default: $GG_CACHE_DIR or ./census-cache); no command reads it"}),
        # deprecated and ignored; still parsed because the benchmark still sends it
        (("--workers",), {"type": int, "default": None, "help": argparse.SUPPRESS}),
        (("--output",), {"choices": ("json", "csv", "table"), "default": "table", "help": "report format"}),
        (("--budget",), {"type": int, "default": DEFAULT_ENUM_BUDGET, "help": "budget per counting engine: term products for class algebra (the census and the character oracle), block-state visits for the walk that oracle-check compares with the census (S(k) states in each of b - 2 layers)"}),
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
    ("census", ("common", "shape"), "compute one (k, b)'s collision census by class algebra, print it and export it to the cache", (), cmd_census),
    ("oracle-check", ("common", "shape"), "count by the character oracle, and check the census field by field against the block-state walk", (
        (("--oracle-only",), {"action": "store_true", "help": "skip the walk; print the oracle count alone"}),
    ), cmd_oracle_check),
    ("invariants", ("common", "shape", "family"), "surface invariants from the census of (k, b)", (
        (("--audit",), {"action": "store_true", "help": "append the audit chain"}),
    ), cmd_invariants),
    ("audit", ("common", "shape", "family"), "audit chain from the census of (k, b)", (), cmd_audit),
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
    its actions; ``common`` holds ``-h``, so no command parser adds its
    own.  It never parses or prints help, so a fixed width spares its
    metavar checks a terminal read each."""
    container = argparse.ArgumentParser(add_help=False, allow_abbrev=False, formatter_class=functools.partial(argparse.HelpFormatter, width=80))
    for flags, keywords in _GROUPS[name]:
        container.add_argument(*flags, **keywords)
    return container


def _add_rows(make, row, *args, **settings) -> _Parser:
    """Build a command's parser by ``make`` (``_Parser``, or a subparsers
    action's ``add_parser``) without a ``-h`` of its own, with its shared
    option groups, ``-h`` among them, as parents, then add its own rows
    and its handler as ``func``: the one walk of the table, for either
    parser."""
    _name, groups, _help, arguments, handler = row
    parser = make(*args, parents=[_group(group) for group in groups], add_help=False, allow_abbrev=False, **settings)
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
    options every command shares are checked before the command runs."""
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
