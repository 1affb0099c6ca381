"""Census cache: one JSON document per (k, b).

The schema is frozen for interchange.  Keys, in order: k, b, N, N_tilde,
N1, N22, N3, M_table, e, N_sing, tool_version.  Every count is a decimal
string so arbitrary precision survives any JSON reader; k and b are
plain integers; M_table is a list of {j, i, count} rows sorted by
(j, i).  Writing is deterministic, so rewriting an unchanged census is
byte-identical, and atomic: a reader sees the old document or the new
one, never part of one.  Reading rejects a document whose keys or value
types stray from the schema, that repeats a (j, i) cell, or that holds a
count longer than the interpreter converts to an int, before any census
invariant is checked.
"""

import json
import os
import re
import sys
from pathlib import Path

from .covers import TupleCensus
from .degeneration import DegenerationCensus, full_census
from .errors import ParameterError
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def int_digit_limit() -> int:
    """Most digits the interpreter converts between int and str, 0 for
    no limit.  Read, never set: the limit is interpreter-wide state."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


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


def census_payload(counts: TupleCensus, census: DegenerationCensus) -> dict:
    """The frozen JSON document for one (k, b)."""
    if (counts.k, counts.b) != (census.k, census.b):
        raise ParameterError(
            f"count pack ({counts.k}, {counts.b}) does not match "
            f"census ({census.k}, {census.b})"
        )
    return {
        "k": census.k,
        "b": census.b,
        "N": str(counts.raw_count),
        "N_tilde": str(counts.class_count),
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
    cache_dir: os.PathLike | str, counts: TupleCensus, census: DegenerationCensus
) -> Path:
    """Write the document to a temporary file beside its path, then
    rename it into place, so a killed or concurrent writer never leaves
    a truncated document behind."""
    path = census_path(cache_dir, census.k, census.b)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(census_payload(counts, census), indent=2) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
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
    cache_dir: os.PathLike | str, k: int, b: int
) -> tuple[TupleCensus, DegenerationCensus]:
    """Load and re-validate one cached census; every census invariant is
    checked again on the way in."""
    path = census_path(cache_dir, k, b)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ParameterError(f"no cached census at {path}; run the census command first")
    except json.JSONDecodeError as exc:
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
    g = (b - 2 * k + 2) // 2
    split_table = {
        (row["j"], row["i"]): int(row["count"]) for row in doc["M_table"]
    }
    census = DegenerationCensus(
        k=k,
        b=b,
        g=g,
        classes=int(doc["N_tilde"]),
        type_one=int(doc["N1"]),
        type_two_two=int(doc["N22"]),
        type_three=int(doc["N3"]),
        split_table=split_table,
        rational_splits=int(doc["e"]),
        singular=int(doc["N_sing"]),
    )
    counts = TupleCensus(k, b, int(doc["N"]), census.classes, "enumeration")
    return counts, census


def load_or_compute(
    cache_dir: os.PathLike | str, k: int, b: int, workers: int = 1
) -> tuple[TupleCensus, DegenerationCensus]:
    """Cached census when present, else compute and cache it."""
    if census_path(cache_dir, k, b).exists():
        return read_census(cache_dir, k, b)
    counts, census = full_census(k, b, workers)
    write_census(cache_dir, counts, census)
    return counts, census
