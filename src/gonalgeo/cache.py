"""Census cache: one JSON document per (k, b).

The schema is frozen for interchange.  Keys, in order: k, b, N, N_tilde,
N1, N22, N3, M_table, e, N_sing, tool_version.  Every count is a decimal
string so arbitrary precision survives any JSON reader; k and b are
plain integers; M_table is a list of {j, i, count} rows sorted by
(j, i).  A document is the bytes of ``json.dumps(payload, indent=2)``
and a newline, encoded by ``json_text``, which the CLI's json reports
share.  Writing is deterministic, so rewriting an unchanged census is
byte-identical, and atomic: a reader sees the old document or the new
one, never part of one.  Reading rejects a document that is not JSON
in UTF-8 or nests too deeply to parse, whose keys or value types stray
from the schema, that repeats a (j, i) cell, or that holds a
count longer than the interpreter converts to an int, before any census
invariant is checked.

The functions here take or return a ``DegenerationCensus`` alone.  N,
N_tilde, e and N_sing are written from its derived values; on reading,
the stored counts must pass the census validators and each derived key
must equal the value they give.  Either failure is an
InvariantViolation that names the document.  ``tool_version`` names the
version that wrote the document and must be a string, but is not
compared: a document from another version is read like any other, since
every count and derived key in it is validated again on reading.
"""

import json
import os
import re
from itertools import chain
from pathlib import Path

from .degeneration import DegenerationCensus, full_census
from .digits import _decimal, int_digit_limit
from .errors import CapacityError, InvariantViolation, ParameterError
from .version import TOOL_VERSION

ENV_CACHE_DIR = "GG_CACHE_DIR"
DEFAULT_CACHE_DIR = "census-cache"

_SCHEMA_KEYS = (
    "k", "b", "N", "N_tilde", "N1", "N22", "N3", "M_table", "e", "N_sing",
    "tool_version",
)
_COUNT_KEYS = ("N", "N_tilde", "N1", "N22", "N3", "e", "N_sing")
_CELL_KEYS = {"j", "i", "count"}
_DECIMAL = re.compile(r"-?[0-9]+")
_encode_str = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_decimal(value) -> bool:
    if not (isinstance(value, str) and _DECIMAL.fullmatch(value)):
        return False
    limit = int_digit_limit()
    return not limit or len(value.lstrip("-")) <= limit


def _matches_schema(doc) -> bool:
    """Keys, value types, and one M_table row per (j, i) cell.  Counts
    are only checked to be decimal strings here; their values go through
    the census validators."""
    if not isinstance(doc, dict) or set(doc) != set(_SCHEMA_KEYS):
        return False
    if not (_is_int(doc["k"]) and _is_int(doc["b"]) and isinstance(doc["tool_version"], str)):
        return False
    if not all(_is_decimal(doc[key]) for key in _COUNT_KEYS):
        return False
    rows = doc["M_table"]
    if not isinstance(rows, list):
        return False
    cells = set()
    for row in rows:
        if not (
            isinstance(row, dict)
            and set(row) == _CELL_KEYS
            and _is_int(row["j"])
            and _is_int(row["i"])
            and _is_decimal(row["count"])
        ):
            return False
        cells.add((row["j"], row["i"]))
    return len(cells) == len(rows)


def resolve_cache_dir(flag_value: str | os.PathLike | None = None) -> Path:
    """Cache directory, by precedence: explicit flag, then the
    GG_CACHE_DIR environment variable, then ./census-cache."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


def census_path(cache_dir: os.PathLike | str, k: int, b: int) -> Path:
    return Path(cache_dir) / f"census_k{k}_b{b}.json"


def _temporary(name: str, tag: str | None = None) -> str:
    """The temporary name a census is written under beside ``name``:
    a dot, the name, the pid, a tag of 8 random hex digits unless one is
    given, and ".tmp"."""
    return f".{name}.{os.getpid()}.{tag or os.urandom(4).hex()}.tmp"


def census_file(cache_dir: os.PathLike | str, k: int, b: int) -> Path:
    """The census path of (k, b), or CapacityError when its name, or the
    temporary name written beside it, is longer than the cache directory
    (or, not made yet, its nearest existing ancestor) allows.  Nothing is
    created, so this is asked before any walk, once per query: the
    path it returns is handed on to ``load_or_compute`` and
    ``read_census``.  The temporary name is measured with a fixed tag of
    its length, so no random digits are drawn."""
    path = census_path(cache_dir, k, b)
    limit = 255  # where the platform cannot say
    for d in chain((path.parent,), path.parent.parents):
        try:
            limit = os.pathconf(d, "PC_NAME_MAX")
            break
        except OSError:  # not made yet, or not searchable: ask its parent
            continue
        except (AttributeError, ValueError):  # no such query on this platform
            break
    if 0 <= limit < len(os.fsencode(_temporary(path.name, "0" * 8))):
        raise CapacityError(
            f"the census cache file name for ({k}, {b}) is too long for the file system"
        )
    return path


def json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, with strings
    through the C encoder that an indent otherwise turns off.  ``indent``
    is the line break and indentation before a closing bracket.  Keys
    must be strings.  Ints print by ``int.__repr__``, so one past the
    interpreter's digit limit is a ValueError, as it is for
    ``json.dumps``; floats and any other scalar are left to
    ``json.dumps``."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_encode_str(key) + ": " + json_text(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([json_text(item, inner) for item in value]) + indent + "]"
    return json.dumps(value)


def census_payload(census: DegenerationCensus) -> dict:
    """The frozen JSON document for one (k, b), or CapacityError when N,
    the largest count, has more digits than the interpreter prints."""
    return {
        "k": census.k,
        "b": census.b,
        "N": _decimal(census.raw_count, f"the tuple count N for ({census.k}, {census.b})"),
        "N_tilde": str(census.classes),
        "N1": str(census.type_one),
        "N22": str(census.type_two_two),
        "N3": str(census.type_three),
        "M_table": [
            {"j": j, "i": i, "count": str(n)}
            for (j, i), n in sorted(census.split_table.items())
        ],
        "e": str(census.rational_splits),
        "N_sing": str(census.singular),
        "tool_version": TOOL_VERSION,
    }


def write_census(
    cache_dir: os.PathLike | str, census: DegenerationCensus, text: str | None = None
) -> Path:
    """Write the document to a temporary file beside its path, then
    rename it into place, so a killed or concurrent writer never leaves
    a truncated document behind.  ``text``, when given, is the document
    already encoded: ``json_text(census_payload(census)) + "\\n"``."""
    text = text or json_text(census_payload(census)) + "\n"
    path = census_path(cache_dir, census.k, census.b)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(_temporary(path.name))
    # O_EXCL with mode 0o666 gives the umask-derived mode write_text would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_census(
    cache_dir: os.PathLike | str, k: int, b: int, path: Path | None = None
) -> DegenerationCensus:
    """Load and re-validate one cached census: the stored counts go
    through the census validators, and each derived key must equal its
    value computed from them.  A file name too long for the file system
    is a CapacityError (``census_file``), not a bad cache; ``path``, when
    given, is ``census_file``'s answer for (k, b) and is not asked again."""
    path = path or census_file(cache_dir, k, b)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ParameterError(f"no cached census at {path}; run the census command first")
    # bytes that are not UTF-8, or arrays nested past the recursion limit
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParameterError(f"unreadable census document {path}: {exc}")
    except OSError as exc:
        raise ParameterError(f"cannot read census document {path}: {exc.strerror or exc}")
    if not _matches_schema(doc):
        raise ParameterError(
            f"census document {path} does not match the schema; delete and recompute"
        )
    if (doc["k"], doc["b"]) != (k, b):
        raise ParameterError(
            f"census document {path} is for ({doc['k']}, {doc['b']}), expected ({k}, {b})"
        )
    try:
        census = DegenerationCensus(
            k, b,
            type_one=int(doc["N1"]),
            type_two_two=int(doc["N22"]),
            type_three=int(doc["N3"]),
            split_table={(row["j"], row["i"]): int(row["count"]) for row in doc["M_table"]},
        )
    except InvariantViolation as exc:
        raise InvariantViolation(f"census document {path}: {exc}; delete and recompute") from None
    for key, value in (
        ("N", census.raw_count),
        ("N_tilde", census.classes),
        ("e", census.rational_splits),
        ("N_sing", census.singular),
    ):
        if int(doc[key]) != value:
            raise InvariantViolation(
                f"census document {path}: {key} does not match the counts; "
                "delete and recompute"
            )
    return census


def load_or_compute(
    cache_dir: os.PathLike | str, k: int, b: int, path: Path | None = None
) -> DegenerationCensus:
    """Cached census when present, else compute and cache it; ``path``
    as for ``read_census``."""
    path = path or census_file(cache_dir, k, b)
    if path.exists():
        return read_census(cache_dir, k, b, path)
    census = full_census(k, b)[1]
    write_census(cache_dir, census)
    return census
