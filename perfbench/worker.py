"""One benchmark process: set-up, then the measured closed loop.

Started by run.py in a fresh interpreter, so the lru caches of the
program start cold and their filling is part of set-up.  Prints
``READY {...}`` once set-up is done and, unless --setup-only, ``RESULT
{...}`` at the end.  Operations run one at a time in this process; only
the parallel pass of a traced ``enumerate`` run asks the program for a
pool of two workers.
"""

import argparse
import io
import json
import math
import random
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from speed import SpeedProbe

# started before the program is imported, so set-up is sampled whole
PROBE = SpeedProbe() if __name__ == "__main__" else None
if PROBE:
    PROBE.start()
SETUP_START = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gonalgeo.cli as cli  # noqa: E402
from gonalgeo import characters, covers, degeneration, tables  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    CLASSIFY_PAIRS,
    ENUMERATE_PAIRS,
    ENVELOPE,
    MIN_OPERATIONS,
    PARALLEL_PAIRS,
    PARALLEL_WORKERS,
    Op,
    enumeration_round,
    fill_ops,
    make_round,
    parallel_round,
)

# references for the checker, taken before any wrapper is installed
_connected_count = characters.connected_count
_full_census = degeneration.full_census

# a run stops starting rounds after this long, whatever else it still wants
RUN_CAP_S = 120.0
# an operation starts with a speed sample at most this old
SAMPLE_AGE_S = 0.005
QUERY_KINDS = ("invariants", "audit", "census", "delta", "oracle", "asymptotics")
PARALLEL_FIGURES = (
    *(f"parallel.efficiency_k{k}_b{b}" for k, b in PARALLEL_PAIRS),
    "parallel.efficiency", "parallel.census_efficiency", "parallel.count_efficiency",
)
PAIRS = {
    "enumerate": ENUMERATE_PAIRS,
    "classify": CLASSIFY_PAIRS,
    "geography": ENVELOPE,
}


@dataclass
class Record:
    op: Op
    latency: float  # at reference speed when a speed probe runs, else wall
    problems: list
    work: int
    wall: float = 0.0


def quantile(sorted_values, q: float) -> tuple[float, int]:
    """The q-quantile smoothed over its rank's 95% interval: the mean of
    the order statistics within 2 sqrt(n q (1 - q)) ranks of rank
    ceil(q n), which is steadier than the single nearest-rank sample.
    Also returns how many samples lie beyond rank ceil(q n)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n))
    half = max(1, round(2 * math.sqrt(n * q * (1 - q))))
    window = sorted_values[max(0, rank - 1 - half):min(n, rank + half)]
    return sum(window) / len(window), n - rank


class Bench:
    def __init__(self, workload: str, seed: int, tmp: Path,
                 tracer: spans.Tracer | None = None, probe: SpeedProbe | None = None):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        self.probe = probe
        self._pending: list = []
        self.raw: dict = {}  # (k, b) -> connected tuple count
        self.census: dict = {}  # (k, b) -> census report parsed at set-up
        self._type_three: dict = {}
        self.setup_records: list[Record] = []

    # set-up

    def setup(self) -> None:
        """What the program needs before the loop: table builds, and for
        geography the cache fill; traced when a tracer is given.  Checking
        waits for ``prepare_checks``, so the checker's own work stays out
        of the trace."""
        if self.tracer is None:
            self._setup()
            return
        self.tracer.install()
        try:
            with self.tracer.span("bench.setup"):
                self._setup()
        finally:
            self.tracer.remove()

    def _setup(self) -> None:
        if self.workload == "geography":
            self._pending = [(op, self._run(op)) for op in fill_ops(self.tmp / "cache")]
            return
        for k in sorted({k for k, _ in PAIRS[self.workload]}):
            tables.group_tables(k)
            if self.workload != "classify":
                characters.character_table(k)

    def prepare_checks(self) -> None:
        for k, b in PAIRS[self.workload]:
            self.raw[k, b] = _connected_count(k, b)
        for op, (t0, t1, outcome) in self._pending:
            record, flat = self._record(op, t0, t1, outcome)
            if not record.problems:
                self.census[op.k, op.b] = flat
            self.setup_records.append(record)

    # running and checking one operation

    def _run(self, op: Op):
        """(start, end, outcome); the outcome is (exit code, stdout, stderr,
        returned value, traceback of an unexpected exception)."""
        out, err = io.StringIO(), io.StringIO()
        rc = result = error = None
        t0 = perf_counter()
        try:
            if op.kind == "verify":
                result = degeneration.verify_twist_orbits(op.k, op.b)
            elif op.kind == "probe":
                result = covers.count_tuples(op.k, op.b, workers=PARALLEL_WORKERS)
            else:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(list(op.argv))
        except Exception:
            error = traceback.format_exc(limit=3)
        t1 = perf_counter()
        return t0, t1, (rc, out.getvalue(), err.getvalue(), result, error)

    def execute(self, op: Op, traced: bool = False) -> Record:
        if traced:
            self.tracer.install()
            try:
                with self.tracer.span("bench.measure"):
                    t0, t1, outcome = self._run(op)
            finally:
                self.tracer.remove()
        else:
            if self.probe:
                self.probe.sample(SAMPLE_AGE_S)
            t0, t1, outcome = self._run(op)
        return self._record(op, t0, t1, outcome)[0]

    def _record(self, op: Op, t0: float, t1: float, outcome) -> tuple[Record, dict | None]:
        latency = self.probe.normalise(t0, t1) if self.probe else t1 - t0
        problems, work, flat = self._check(op, *outcome)
        return Record(op, latency, problems, work, t1 - t0), flat

    def _reference_type_three(self, k: int, b: int) -> int:
        if (k, b) not in self._type_three:
            self._type_three[k, b] = _full_census(k, b)[1].type_three
        return self._type_three[k, b]

    def _check(self, op: Op, rc, out: str, err: str, result, error):
        """(problems, units of work, parsed report)."""
        if error is not None:
            return [f"{op.kind} raised: {error.strip()}"], 0, None
        if op.kind == "verify":
            classes = self.raw[op.k, op.b] // check.class_divisor(op.k)
            problems = check.check_twist_report(result, classes, self._reference_type_three(op.k, op.b))
            return problems, result.classes, None
        if op.kind == "probe":
            want = self.raw[op.k, op.b]
            return ([] if result == want else [f"probe counted {result}, expected {want}"]), 0, None

        problems = check.check_exit(rc, op.expect_rc, err)
        if problems:
            return problems, 0, None
        census = self.census.get((op.k, op.b))
        if census is None and op.kind in ("invariants", "audit", "delta"):
            return [f"no reference census for ({op.k}, {op.b})"], 0, None
        if op.kind == "delta" and op.expect_rc == 3:
            return check.check_delta(None, err, census, op.epsilon), 1, None
        try:
            flat = check.parse_report(out, op.fmt)
        except check.ParseError as exc:
            return [f"unparseable {op.fmt} {op.kind} report: {exc}"], 0, None

        enumerating = self.workload == "enumerate"
        if op.kind == "census":
            problems = check.check_census(flat, op.k, op.b, self.raw[op.k, op.b])
            if census is not None and flat != census:
                problems.append("cached census differs from the one written at set-up")
            return problems, int(flat.get("N", 0)) if enumerating else 1, flat
        if op.kind == "oracle-check":
            problems = check.check_oracle_enumeration(flat, op.k, op.b, self.raw[op.k, op.b])
            return problems, int(flat.get("enumeration_raw", 0)), flat
        if op.kind == "oracle":
            known = int(census["N"]) if census else None
            return check.check_oracle_only(flat, op.k, op.b, known), 1, flat
        if op.kind == "invariants":
            return check.check_invariants(flat, census, op.c, op.base_genus, op.audit), 1, flat
        if op.kind == "audit":
            return check.check_audit(flat, census, op.c, op.base_genus), 1, flat
        if op.kind == "delta":
            return check.check_delta(flat, err, census, op.epsilon), 1, flat
        if op.kind == "asymptotics":
            return check.check_asymptotics(flat, op.case), 1, flat
        return [f"no checker for {op.kind}"], 0, flat

    # the closed loop

    def rounds(self, seconds: float):
        """Whole rounds until ``seconds`` have passed and the workload's
        fewest operations are done.  With a tracer, every operation
        also runs a traced twin (same parameters, its own cache for
        enumerate), alternating which of the two goes first.
        Returns (records, traced records, rounds)."""
        rng = random.Random(self.seed)
        twin_rng = random.Random(self.seed)
        min_ops = MIN_OPERATIONS[self.workload]
        records: list[Record] = []
        traced: list[Record] = []
        done = 0
        t0 = perf_counter()
        while True:
            ops = make_round(self.workload, rng, self._cache_dir("run", done))
            if self.tracer is None:
                records += [self.execute(op) for op in ops]
            else:
                twins = make_round(self.workload, twin_rng, self._cache_dir("traced", done))
                for i, (op, twin) in enumerate(zip(ops, twins)):
                    if i % 2:
                        traced.append(self.execute(twin, traced=True))
                    records.append(self.execute(op))
                    if not i % 2:
                        traced.append(self.execute(twin, traced=True))
            done += 1
            elapsed = perf_counter() - t0
            if elapsed >= RUN_CAP_S or (elapsed >= seconds and len(records) >= min_ops):
                break
        return records, traced, done

    def _cache_dir(self, phase: str, round_index: int) -> Path:
        if self.workload == "geography":
            return self.tmp / "cache"
        return self.tmp / f"{phase}{round_index}"

    def parallel_passes(self) -> tuple[list[Record], list[Record]]:
        """The parallel pairs with two workers (and the pool probe), then
        with one; both untraced."""
        rng = random.Random(self.seed)
        parallel = [self.execute(op) for op in parallel_round(rng, self.tmp / "parallel")]
        serial = [self.execute(op) for op in enumeration_round(rng, PARALLEL_PAIRS, self.tmp / "serial")]
        return parallel, serial


def end_to_end(records: list[Record]) -> dict:
    latencies = sorted(r.latency for r in records)
    busy = sum(latencies)
    p50, _ = quantile(latencies, 0.50)
    p99, beyond = quantile(latencies, 0.99)
    walls = sorted(r.wall for r in records)
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "work_per_s": sum(r.work for r in records if not r.problems) / busy,
        "op_p50_ms": p50 * 1e3,
        "op_p99_ms": p99 * 1e3,
        "peak_rss_mib": peak_kib / 1024,
        "ops": len(records),
        "beyond_p99": beyond,
        "busy_s": busy,
        "wall_work_per_s": sum(r.work for r in records if not r.problems) / sum(walls),
        "wall_p50_ms": quantile(walls, 0.50)[0] * 1e3,
        "wall_p99_ms": quantile(walls, 0.99)[0] * 1e3,
    }


def _median_latency(records, kind, pair=None) -> float:
    values = [r.latency for r in records if r.op.kind == kind and (pair is None or (r.op.k, r.op.b) == pair)]
    return median(values) if values else 0.0


def parallel_figures(serial: list[Record], parallel: list[Record]) -> dict:
    """Serial time over twice the parallel time, per pair, per command and
    overall; each time is the median latency of that command on that pair."""
    sums: dict = {}
    for k, b in PARALLEL_PAIRS:
        for kind in ("census", "oracle-check"):
            for mode, records in (("serial", serial), ("parallel", parallel)):
                t = _median_latency(records, kind, (k, b))
                for key in (f"_k{k}_b{b}", kind, ""):
                    sums[key, mode] = sums.get((key, mode), 0.0) + t

    def efficiency(key):
        return sums[key, "serial"] / (PARALLEL_WORKERS * sums[key, "parallel"])

    keys = [f"_k{k}_b{b}" for k, b in PARALLEL_PAIRS] + ["", "census", "oracle-check"]
    return {name: efficiency(key) for name, key in zip(PARALLEL_FIGURES, keys)}


def layer_figures(bench: Bench, records: list[Record], traced: list[Record]):
    """Per-layer figures of a traced run.  Returns (figures, records of the
    extra parallel and serial passes that enumerate adds)."""
    figures = spans.layer_metrics(bench.tracer.spans)
    untraced_busy = sum(r.latency for r in records)
    figures["trace.overhead_s"] = sum(r.latency for r in traced) - untraced_busy
    figures["trace.overhead_share"] = figures["trace.overhead_s"] / untraced_busy
    for kind in QUERY_KINDS:
        figures[f"query.{kind}_p50_ms"] = (
            _median_latency(records, kind) * 1e3 if bench.workload == "geography" else 0.0
        )
    extra = []
    if bench.workload == "enumerate":
        parallel, serial = bench.parallel_passes()
        figures["pool.overhead_ms"] = _median_latency(parallel, "probe") * 1e3
        figures.update(parallel_figures(serial, parallel))
        extra = parallel + serial
    else:
        figures["pool.overhead_ms"] = 0.0
        figures.update(dict.fromkeys(PARALLEL_FIGURES, 0.0))
    return figures, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(PAIRS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # traced runs report wall time; the probe would only disturb the spans
    probe = PROBE
    if args.trace and probe:
        probe.stop()
        probe = None
    bench = Bench(args.workload, args.seed, args.tmp, spans.Tracer() if args.trace else None, probe)
    try:
        return _serve(args, bench)
    finally:
        if probe:
            probe.stop()


def _serve(args, bench: Bench) -> int:
    bench.setup()
    bench.prepare_checks()
    ready = {
        "attempted": len(bench.setup_records),
        "failed": sum(1 for r in bench.setup_records if r.problems),
    }
    if bench.probe:
        ready["probe_s"], ready["kernel_s"] = bench.probe.window(SETUP_START, perf_counter())
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        _report_problems(bench.setup_records)
        return 0

    records, traced, rounds = bench.rounds(args.seconds)
    everything = bench.setup_records + records + traced
    result = {"rounds": rounds, **end_to_end(records)}
    if bench.tracer:
        left = spans.wrapped_names()
        if left:
            everything.append(Record(Op("unwrap", 0, 0), 0.0, [f"wrappers left in place: {left}"], 0))
        result["per_layer"], extra = layer_figures(bench, records, traced)
        everything += extra
        if args.trace_out:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            bench.tracer.write(args.trace_out)
    result["attempted"] = len(everything)
    result["failed"] = sum(1 for r in everything if r.problems)
    _report_problems(everything)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _report_problems(records: list[Record], limit: int = 10) -> None:
    bad = [r for r in records if r.problems]
    for r in bad[:limit]:
        print(f"FAILED {r.op.kind} {r.op.argv or (r.op.k, r.op.b)}: {'; '.join(r.problems)}", file=sys.stderr)
    if len(bad) > limit:
        print(f"... and {len(bad) - limit} more failures", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
