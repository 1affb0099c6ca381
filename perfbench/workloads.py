"""Pair sets and the seeded operation stream of every workload.

A run measures whole rounds.  A round of ``enumerate`` is one pass over
its pair set, of ``classify`` one verification of each pair, and of
``geography`` a block of 260 queries whose kind counts and delta
parameters are fixed, so the mix of work in a run does not depend on the
seed.  The seed only chooses the order (not for ``classify``) and the
free parameters (family data, output format, oracle sizes).  The parallel round is not a workload
of its own; the traced run of ``enumerate`` times it.
"""

import random
from dataclasses import dataclass

WORKLOADS = ("enumerate", "classify", "geography")

# the acceptance envelope: every feasible (k, b) with k <= 4, b <= 10, plus (5, 8)
ENVELOPE = tuple(
    (k, b) for k in range(2, 5) for b in range(2 * k - 2, 11, 2)
) + ((5, 8),)
ENUMERATE_PAIRS = ENVELOPE + ((3, 16),)
CLASSIFY_PAIRS = ((4, 10), (5, 8), (3, 12))
PARALLEL_PAIRS = ((3, 16), (4, 10), (5, 8))
PROBE_PAIR = (3, 4)
PARALLEL_WORKERS = 2

EPSILONS = ("1", "1/10", "1/100")
# fiber-genus-1 families have ratio exactly 0 and never enter the band; the
# default plane-degree ceiling would cost about 35 s per query
GIVE_UP_D_MAX = 2000
FORMATS = ("json", "table", "csv")
ORACLE_DEGREES = tuple(range(2, 13))
ORACLE_EXTRA_BRANCHES = (0, 2, 4)  # b = 2k - 2 + extra

# queries of each kind in one geography round: 45% invariants (a fifth of
# them with --audit), 5% audit, 10% cached census, 15% delta (each
# envelope pair with each epsilon once), 10% oracle-only, 15% asymptotics
GEOGRAPHY_ROUND = {
    "invariants": 117,
    "audit": 13,
    "census": 26,
    "delta": 39,
    "oracle": 26,
    "asymptotics": 39,
}
INVARIANTS_WITH_AUDIT = 23
# fewest operations a run measures: p99 of the queries needs ten samples
# beyond it, and the median command of enumerate rests on its ~50 small
# commands of three rounds
MIN_OPERATIONS = {"enumerate": 84, "classify": 1, "geography": 1000}


def fiber_genus(k: int, b: int) -> int:
    return (b - 2 * k + 2) // 2


@dataclass(frozen=True)
class Op:
    """One operation: a command line for ``gonalgeo.cli.main``, or, for
    ``verify`` and ``probe``, a direct call to a public function."""

    kind: str
    k: int
    b: int
    argv: tuple[str, ...] = ()
    fmt: str = "json"
    expect_rc: int = 0
    c: int = 0
    base_genus: int = 0
    audit: bool = False
    epsilon: str = ""
    case: str = ""


def cli_argv(command, cache_dir, fmt="json", workers=1, *extra) -> tuple[str, ...]:
    argv = [command, *map(str, extra), "--cache-dir", str(cache_dir), "--output", fmt]
    if workers != 1:
        argv += ["--workers", str(workers)]
    return tuple(argv)


def _shape(k, b) -> tuple:
    return ("--k", k, "--b", b)


def fill_ops(cache_dir) -> list[Op]:
    """The census commands that fill a cache with the whole envelope."""
    return [Op("census", k, b, cli_argv("census", cache_dir, "json", 1, *_shape(k, b))) for k, b in ENVELOPE]


def enumeration_round(rng: random.Random, pairs, cache_dir, workers=1) -> list[Op]:
    """census on a cold cache, then oracle-check, for each pair in a
    seeded order."""
    order = list(pairs)
    rng.shuffle(order)
    ops = []
    for k, b in order:
        ops.append(Op("census", k, b, cli_argv("census", cache_dir, "json", workers, *_shape(k, b))))
        ops.append(Op("oracle-check", k, b, cli_argv("oracle-check", cache_dir, "json", workers, *_shape(k, b))))
    return ops


def parallel_round(rng: random.Random, cache_dir) -> list[Op]:
    """The parallel pairs with two workers, and the pool probe."""
    ops = enumeration_round(rng, PARALLEL_PAIRS, cache_dir, PARALLEL_WORKERS)
    ops.insert(rng.randrange(len(ops) + 1), Op("probe", *PROBE_PAIR))
    return ops


def classify_round() -> list[Op]:
    """Always in the same order: the peak resident memory depends on it
    (57 MiB with (4, 10) last, 64 MiB otherwise, from heap fragmentation),
    so a shuffled order would make peak_rss_mib bimodal across seeds."""
    return [Op("verify", k, b) for k, b in CLASSIFY_PAIRS]


def geography_round(rng: random.Random, cache_dir) -> list[Op]:
    """One balanced block of read-only queries against a filled cache."""
    ops = []
    fmt = lambda: rng.choice(FORMATS)

    def family(kind, k, b, audit=False):
        c = rng.randint(1, 40 * b)
        base_genus = rng.randint(0, 6)
        extra = (*_shape(k, b), "--c", c, "--base-genus", base_genus)
        if audit:
            extra += ("--audit",)
        f = fmt()
        return Op(kind, k, b, cli_argv(kind, cache_dir, f, 1, *extra), f,
                  c=c, base_genus=base_genus, audit=audit)

    inv_pairs = list(ENVELOPE) * (GEOGRAPHY_ROUND["invariants"] // len(ENVELOPE))
    rng.shuffle(inv_pairs)
    with_audit = set(rng.sample(range(len(inv_pairs)), INVARIANTS_WITH_AUDIT))
    ops += [family("invariants", k, b, i in with_audit) for i, (k, b) in enumerate(inv_pairs)]
    ops += [family("audit", k, b) for k, b in ENVELOPE]

    for k, b in ENVELOPE * (GEOGRAPHY_ROUND["census"] // len(ENVELOPE)):
        f = fmt()
        ops.append(Op("census", k, b, cli_argv("census", cache_dir, f, 1, *_shape(k, b)), f))

    for k, b in ENVELOPE:
        g = fiber_genus(k, b)
        for eps in EPSILONS:
            f = fmt()
            extra = (g, k, eps) + (("--d-max", GIVE_UP_D_MAX) if g == 1 else ())
            ops.append(Op("delta", k, b, cli_argv("delta", cache_dir, f, 1, *extra), f,
                          expect_rc=3 if g == 1 else 0, epsilon=eps))

    for _ in range(GEOGRAPHY_ROUND["oracle"]):
        k = rng.choice(ORACLE_DEGREES)
        b = 2 * k - 2 + rng.choice(ORACLE_EXTRA_BRANCHES)
        f = fmt()
        ops.append(Op("oracle", k, b, cli_argv("oracle-check", cache_dir, f, 1, "--oracle-only", *_shape(k, b)), f))

    for _ in range(GEOGRAPHY_ROUND["asymptotics"]):
        case, f = rng.choice(("odd", "even")), fmt()
        ops.append(Op("asymptotics", 0, 0, cli_argv("asymptotics", cache_dir, f, 1, "--case", case), f, case=case))

    rng.shuffle(ops)
    return ops


def make_round(workload: str, rng: random.Random, cache_dir) -> list[Op]:
    """The next round of ``workload``.  ``cache_dir`` must be fresh for
    ``enumerate`` and the filled cache for ``geography``."""
    if workload == "enumerate":
        return enumeration_round(rng, ENUMERATE_PAIRS, cache_dir)
    if workload == "classify":
        return classify_round()
    if workload == "geography":
        return geography_round(rng, cache_dir)
    raise ValueError(f"unknown workload {workload!r}")
