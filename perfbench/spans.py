"""Span tracing from outside the program.

Each layer's public functions are wrapped where their callers look them
up (``gonalgeo.cli.read_census``, ``gonalgeo.asymptotics.surface_invariants``,
...), so every call through such a name records one span: name, start,
end, parent, and for some functions a count taken from the result.  The
source is never touched and ``remove`` puts every original back.  Nothing
finer than ``surface_invariants`` is wrapped.
"""

import importlib
import json
from contextlib import contextmanager
from time import perf_counter


def _raw_count(result):
    counts = result[0] if isinstance(result, tuple) else result
    return counts.raw_count


# (module, attribute, span name, count taken from the result)
BINDINGS = (
    ("gonalgeo.cli", "main", "cli.main", None),
    ("gonalgeo.cli", "disconnected_count", "characters.disconnected_count", int),
    ("gonalgeo.cli", "class_count", "covers.class_count", _raw_count),
    ("gonalgeo.cli", "class_count_via_oracle", "covers.class_count_via_oracle", None),
    ("gonalgeo.cli", "full_census", "degeneration.full_census", _raw_count),
    ("gonalgeo.cli", "read_census", "cache.read_census", None),
    ("gonalgeo.cli", "write_census", "cache.write_census", lambda path: path.stat().st_size),
    ("gonalgeo.cli", "load_or_compute", "cache.load_or_compute", None),
    ("gonalgeo.cli", "surface_invariants", "invariants.surface_invariants", None),
    ("gonalgeo.cli", "audit_chain", "invariants.audit_chain", None),
    ("gonalgeo.cli", "delta_search", "asymptotics.delta_search", None),
    ("gonalgeo.cli", "positivity_threshold", "asymptotics.positivity_threshold", None),
    ("gonalgeo.cache", "read_census", "cache.read_census", None),
    ("gonalgeo.cache", "write_census", "cache.write_census", lambda path: path.stat().st_size),
    ("gonalgeo.cache", "full_census", "degeneration.full_census", _raw_count),
    ("gonalgeo.asymptotics", "surface_invariants", "invariants.surface_invariants", None),
    # class_count_via_oracle imports connected_count at call time
    ("gonalgeo.characters", "connected_count", "characters.connected_count", None),
    ("gonalgeo.characters", "character_table", "characters.character_table", None),
    ("gonalgeo.tables", "group_tables", "tables.group_tables", None),
    # full_census's binding: where the geography cache fill builds its tables
    ("gonalgeo.degeneration", "group_tables", "tables.group_tables", None),
    ("gonalgeo.degeneration", "verify_twist_orbits", "degeneration.verify_twist_orbits", None),
    # verify_twist_orbits imports class_representatives at call time
    ("gonalgeo.covers", "class_representatives", "covers.class_representatives", len),
)

LAYERS = ("tables", "covers", "degeneration", "characters", "cache", "invariants", "asymptotics", "cli")

NAME, START, END, PARENT, COUNT, OK = range(6)


class Tracer:
    """In-memory span recorder; spans are lists
    ``[name, start, end, parent index, count, ok]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, None, True])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][END] = perf_counter()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[sid][OK] = False
                raise
            finally:
                self._close(sid)
            if count is not None:
                self.spans[sid][COUNT] = count(result)
            return result

        traced.span_name = name
        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("wrappers already installed")
        for module_name, attr, name, count in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, count))

    def remove(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Spans as JSON: one ``[id, name, start, end, parent, count]`` row
        each, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            [i, s[NAME], round(s[START] - t0, 7), round(s[END] - t0, 7), s[PARENT], s[COUNT]]
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"columns": ["id", "name", "start", "end", "parent", "count"], "spans": rows}))


def wrapped_names() -> list[str]:
    """Bindings that currently hold a wrapper rather than the original."""
    out = []
    for module_name, attr, _, _ in BINDINGS:
        if hasattr(getattr(importlib.import_module(module_name), attr), "span_name"):
            out.append(f"{module_name}.{attr}")
    return out


def layer_metrics(spans: list[list], measured_root: str = "bench.measure") -> dict[str, float]:
    """Per-layer figures.  Table builds count over the whole run, since
    set-up is where they happen; everything else counts only spans under
    ``measured_root``."""
    n = len(spans)
    child_time = [0.0] * n
    root = list(range(n))
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
            root[i] = root[s[PARENT]]
    dur = [s[END] - s[START] for s in spans]
    self_time = [dur[i] - child_time[i] for i in range(n)]
    measured = [i for i in range(n) if spans[root[i]][NAME] == measured_root and i != root[i]]

    def total(values, name, ids=measured):
        return sum(values[i] for i in ids if spans[i][NAME] == name)

    def counted(name):
        return sum(spans[i][COUNT] or 0 for i in measured if spans[i][NAME] == name)

    def calls(name):
        return sum(1 for i in measured if spans[i][NAME] == name)

    out = {
        "tables.build_s": total(self_time, "tables.group_tables", range(n)),
        "characters.table_s": total(self_time, "characters.character_table", range(n)),
    }
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = sum(
            self_time[i] for i in measured if spans[i][NAME].split(".")[0] == layer
        )
    tuples = counted("covers.class_count") + counted("degeneration.full_census")
    identity_products = counted("characters.disconnected_count")
    delta_ids = {i for i in measured if spans[i][NAME] == "asymptotics.delta_search"}
    sweep_evals = sum(
        1 for i in measured
        if spans[i][NAME] == "invariants.surface_invariants" and spans[i][PARENT] in delta_ids
    )
    certificates = sum(1 for i in delta_ids if spans[i][OK])
    evaluations = [
        i for i in measured
        if spans[i][NAME] in ("invariants.surface_invariants", "invariants.audit_chain")
    ]
    out.update({
        "covers.count_s": total(dur, "covers.class_count"),
        "covers.tuples": tuples,
        "covers.transitive_share": tuples / identity_products if identity_products else 0.0,
        "covers.representatives_s": total(dur, "covers.class_representatives"),
        "covers.representatives": counted("covers.class_representatives"),
        "degeneration.census_s": total(dur, "degeneration.full_census"),
        "degeneration.twist_check_s": total(self_time, "degeneration.verify_twist_orbits"),
        "characters.oracle_s": total(dur, "characters.connected_count"),
        "characters.guard_s": total(dur, "characters.disconnected_count"),
        "cache.write_s": total(dur, "cache.write_census"),
        "cache.bytes_written": counted("cache.write_census"),
        "cache.read_s": total(dur, "cache.read_census"),
        "cache.reads": calls("cache.read_census"),
        "invariants.evaluate_s": sum(dur[i] for i in evaluations),
        "invariants.calls": len(evaluations),
        "asymptotics.delta_s": total(dur, "asymptotics.delta_search"),
        # each certified search evaluates its first degree once more
        "asymptotics.degrees_swept": sweep_evals - certificates,
        "trace.spans": n,
    })
    return out
