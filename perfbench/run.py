"""Benchmark command: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload geography --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Set-up is timed from the start of a
fresh interpreter to the moment it is ready to serve, several times, and
reported as the median; the last of those interpreters then runs the
measured closed loop (worker.py).  With ``--trace 0`` the result holds the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  Every answer is checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero, with no
result line, when the program is missing or a worker fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

from speed import REFERENCE_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
DEADLINE_S = 170.0
WORK_UNITS = {
    "enumerate": "tuples",
    "classify": "classes",
    "geography": "queries",
}


class WorkerFailed(RuntimeError):
    pass


def _spawn(args, tmp: Path, extra=()) -> subprocess.Popen:
    env = {key: value for key, value in os.environ.items() if key != "GG_CACHE_DIR"}
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(tmp), *extra,
    ]
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def _line(proc: subprocess.Popen, prefix: str) -> dict:
    for line in proc.stdout:
        if line.startswith(prefix + " "):
            return json.loads(line[len(prefix) + 1:])
    proc.wait()
    raise WorkerFailed(f"worker exited with code {proc.returncode} before {prefix}")


def _finish(proc: subprocess.Popen) -> None:
    proc.stdout.read()
    if proc.wait() != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")


def run(args, tmp: Path, deadline: float) -> tuple[list[float], dict]:
    """(set-up times, result of the measuring worker); the set-up answers
    of the other workers are added to its counts."""
    setup_times = []
    setup_attempted = setup_failed = 0
    repeats = 1 if args.trace else SETUP_REPEATS
    for i in range(repeats):
        last = i == repeats - 1
        extra = [] if last else ["--setup-only"]
        if last and args.trace:
            extra = ["--trace-out", str(ROOT / "perfbench-out" / f"trace-{args.workload}-seed{args.seed}.json")]
        t0 = perf_counter()
        proc = _spawn(args, tmp / f"w{i}", extra)
        killer = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
        killer.start()
        try:
            ready = _line(proc, "READY")
            wall = perf_counter() - t0
            if "kernel_s" in ready:
                wall = (wall - ready["probe_s"]) * REFERENCE_KERNEL_S / ready["kernel_s"]
            setup_times.append(wall)
            if last:
                result = _line(proc, "RESULT")
            _finish(proc)
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if not last:
            setup_attempted += ready["attempted"]
            setup_failed += ready["failed"]
    result["attempted"] += setup_attempted
    result["failed"] += setup_failed
    return setup_times, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORK_UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gonalgeo" / "cli.py").is_file():
        print(f"error: no gonalgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        setup_times, result = run(args, tmp, perf_counter() + DEADLINE_S)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    values = dict(result.get("per_layer", {}))
    values["setup_s"] = median(setup_times)
    values.update({key: result[key] for key in ("work_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mib")})
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1

    failed, attempted = result["failed"], result["attempted"]
    unit = WORK_UNITS[args.workload]
    print(f"workload {args.workload}, seed {args.seed}: {result['rounds']} rounds, {result['ops']} operations")
    if not args.trace:
        op = "query" if args.workload == "geography" else "op"
        print("  times at reference speed, wall clock in brackets")
        print(f"  {unit}_per_s {result['work_per_s']:.6g} 1/s ({result['wall_work_per_s']:.6g})")
        print(f"  {op}_p50_ms {result['op_p50_ms']:.6g} ms ({result['wall_p50_ms']:.6g})")
        print(f"  {op}_p99_ms {result['op_p99_ms']:.6g} ms ({result['wall_p99_ms']:.6g}), "
              f"{result['ops']} samples, {result['beyond_p99']} beyond p99")
        print(f"  setup_s {values['setup_s']:.6g} s, median of {len(setup_times)}")
        print(f"  peak_rss_mib {result['peak_rss_mib']:.6g} MiB")
    print(f"  error_rate {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
