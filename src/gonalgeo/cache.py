"""Census export: one JSON document per (k, b).

The schema is frozen for interchange.  Keys, in order: k, b, N, N_tilde,
N1, N22, N3, M_table, e, N_sing, tool_version.  Every count is a decimal
string so arbitrary precision survives any JSON reader; k and b are
plain integers; M_table is a list of {j, i, count} rows sorted by
(j, i).  A document is the bytes of ``json.dumps(payload, indent=2)``
and a newline, encoded by ``json_text``, which the CLI's json reports
share.  Writing is deterministic, so rewriting an unchanged census is
byte-identical, and atomic: a reader sees the old document or the new
one, never part of one.

No command reads a document: computing a census again, by class
algebra, costs less than parsing and validating it for every shape up
to genus about 25.  ``census`` exports its document (``export_census``),
and ``read_census`` is one test for a library caller: the file holds,
byte for byte, the document ``census`` would write for (k, b).
"""

import json
import os
from itertools import chain
from math import isfinite
from pathlib import Path

from .degeneration import DegenerationCensus, full_census
from .digits import _decimal
from .errors import CapacityError, InvariantViolation, ParameterError
from .version import TOOL_VERSION

ENV_CACHE_DIR = "GG_CACHE_DIR"
DEFAULT_CACHE_DIR = "census-cache"

_encode_str = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


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
    created, so ``census`` asks this before it prices the census, and
    hands the path it returns on.  The temporary name is measured with a
    fixed tag of its length, so no random digits are drawn."""
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
    ``json.dumps``, and finite floats by ``float.__repr__``, as
    ``json.dumps`` prints them; a non-finite float and any other scalar
    are left to ``json.dumps``."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and isfinite(value):
        return float.__repr__(value)
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


def export_census(cache_dir: os.PathLike | str, census: DegenerationCensus, path: Path) -> tuple[dict, str]:
    """The payload and document text of ``census``, written to ``path``
    (``census_file``'s answer) unless the file holds them already: one
    stat, and a read only when the sizes agree, so an unchanged document
    keeps its inode and mtime.  A file that held other bytes is written
    over and then named in an InvariantViolation, so a document that
    changed in the cache is never passed over silently."""
    payload = census_payload(census)
    text = json_text(payload) + "\n"
    data = text.encode()
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        size = None
    if size == len(data) and path.read_bytes() == data:
        return payload, text
    write_census(cache_dir, census, text)
    if size is not None:
        raise InvariantViolation(
            f"census document {path} did not hold the census of ({census.k}, {census.b}); "
            "the census command has written it again"
        )
    return payload, text


def read_census(
    cache_dir: os.PathLike | str, k: int, b: int, path: Path | None = None
) -> DegenerationCensus:
    """The census of (k, b), computed, once the file at its path holds,
    byte for byte, the document ``census`` writes for it.  A missing or
    unreadable file is a ParameterError, any other content an
    InvariantViolation naming the document; ``path``, when given, is
    ``census_file``'s answer for (k, b) and is not asked again."""
    path = path or census_file(cache_dir, k, b)
    try:
        held = path.read_bytes()
    except FileNotFoundError:
        raise ParameterError(f"no census document at {path}") from None
    except OSError as exc:
        raise ParameterError(f"cannot read census document {path}: {exc.strerror or exc}") from None
    census = full_census(k, b)[1]
    if held != (json_text(census_payload(census)) + "\n").encode():
        raise InvariantViolation(
            f"census document {path} does not hold the census of ({k}, {b}); "
            "the census command rewrites it"
        )
    return census


def load_or_compute(cache_dir: os.PathLike | str, k: int, b: int, path: Path | None = None) -> DegenerationCensus:
    """The census of (k, b), computed and exported as the census command
    does (``export_census``); ``path`` as for ``read_census``."""
    census = full_census(k, b)[1]
    export_census(cache_dir, census, path or census_file(cache_dir, k, b))
    return census
