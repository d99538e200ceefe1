"""Host time of the set-associative LRU replay in its two regimes.

The LRU cache model (``repro.memory.lru_cache``) is Section III-A's
"traditional cache strategy".  Its replay kernel,
``repro.kernels.numpy_impl.lru_replay``, runs in two regimes:

* **verify**: the oracle's ``lru-cache`` configuration
  (``ORACLE_CONFIGS["lru-cache"]``, 16 cache vertices: 2 sets x 8
  ways) on RC at size 0.5 and CF at size 0.125, the graphs of
  ``amst verify``'s benchmark workload;
* **organization**: the cache-organization sweep's LRU row
  (``AmstConfig.full(16, cache_vertices=4096)`` + ``lru_cache``, 512
  sets x 8 ways) on all ten Table I analogs at size 1.

For each dataset the simulator runs ``--rounds`` times and the record
keeps the median of the run's own ``kernel.lru_replay`` section
(``PerfReport.extra["host_timing"]``), with the modelled counts of its
two LRU caches.  The script uses only APIs older than the scan-based replay,
so the same file measures an older checkout through ``PYTHONPATH``::

    PYTHONPATH=<old checkout>/src python benchmarks/bench_lru_replay.py \\
        --out /tmp/BENCH_lru_old.json
    PYTHONPATH=src python benchmarks/bench_lru_replay.py --check \\
        --baseline /tmp/BENCH_lru_old.json --out benchmarks/BENCH_lru.json

``--baseline`` embeds an earlier record and the per-regime speedups
over it, and requires identical modelled counts.  ``--check`` replays
every batch of one extra run per dataset through ``ScalarLRUCache``
from the same starting state and fails on any difference in hits,
evictions, clock, tags or stamps.
"""

import statistics

import numpy as np

from repro.bench import load
from repro.core import Amst, AmstConfig
from repro.kernels import numpy_impl
from repro.memory import ScalarLRUCache
from repro.verify import ORACLE_CONFIGS

#: regime -> (configuration, ((dataset, size), ...))
REGIMES = {
    "verify": (ORACLE_CONFIGS["lru-cache"], (("RC", 0.5), ("CF", 0.125))),
    "organization": (
        AmstConfig.full(16, cache_vertices=4096).with_(lru_cache=True),
        tuple((key, 1.0) for key in ("EF", "GD", "CD", "CL", "RC", "RP",
                                     "RT", "UR", "CF", "UU")),
    ),
}


def measure(cfg, graph, rounds):
    """Median ``kernel.lru_replay`` seconds over ``rounds`` runs, plus
    the run's call count and the modelled counts of its two caches
    (Parent and MinEdge, both LRU under ``lru_cache``)."""
    seconds = []
    for _ in range(rounds):
        out = Amst(cfg).run(graph)
        timing = out.report.extra["host_timing"]["kernel.lru_replay"]
        seconds.append(timing["seconds"])
    caches = (out.state.parent_cache, out.state.minedge_cache)
    return {
        "seconds": statistics.median(seconds),
        "sets": caches[0].sets,
        "ways": caches[0].ways,
        "calls": int(timing["calls"]),
        "accesses": sum(int(c.stats.accesses + c.stats.writes)
                        for c in caches),
        "hits": sum(int(c.stats.hits) for c in caches),
        "evictions": sum(int(c.stats.evictions) for c in caches),
    }


def check_against_scalar(cfg, graph):
    """One run with every batch replayed again by ``ScalarLRUCache``;
    returns the number of batches that differed."""
    kernel = numpy_impl.lru_replay
    bad = []

    def checked(ids, tags, stamps, clock, nsets, ways):
        ref = ScalarLRUCache(nsets * ways, ways=ways)
        ref._tags[:] = tags
        ref._stamp[:] = stamps
        ref._clock = clock
        hits, evictions, clock = kernel(ids, tags, stamps, clock, nsets,
                                        ways)
        want = ref.lookup(ids)
        same = (np.array_equal(hits, want) and hits.dtype == want.dtype
                and evictions == ref.stats.evictions
                and clock == ref._clock
                and np.array_equal(tags, ref._tags)
                and np.array_equal(stamps, ref._stamp))
        bad.append(not same)
        return hits, evictions, clock

    numpy_impl.lru_replay = checked
    try:
        Amst(cfg).run(graph)
    finally:
        numpy_impl.lru_replay = kernel
    return sum(bad), len(bad)


def main(argv=None):
    import argparse
    import json
    import os
    import platform
    import sys

    from repro.bench.benchio import write_bench_json

    ap = argparse.ArgumentParser(
        description="LRU replay host time, verify and cache-organization "
                    "regimes")
    ap.add_argument("--size", type=float, default=1.0,
                    help="multiplier on every dataset's size")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=3,
                    help="runs per dataset; the record keeps the median")
    ap.add_argument("--out", default="benchmarks/BENCH_lru.json")
    ap.add_argument("--baseline", default=None,
                    help="an earlier record of this script to embed and "
                         "compare against")
    ap.add_argument("--check", action="store_true",
                    help="also replay every batch through ScalarLRUCache; "
                         "exit non-zero on any difference")
    args = ap.parse_args(argv)

    regimes, mismatched, batches = {}, 0, 0
    for regime, (cfg, datasets) in REGIMES.items():
        rows = {}
        for key, size in datasets:
            g = load(key, seed=args.seed, size=size * args.size)
            rows[key] = {"size": size * args.size,
                         **measure(cfg, g, args.rounds)}
            if args.check:
                bad, total = check_against_scalar(cfg, g)
                mismatched += bad
                batches += total
                rows[key]["scalar_mismatches"] = bad
            print(f"{regime:>12} {key}: {rows[key]['seconds']:.3f} s over "
                  f"{rows[key]['calls']} batches", flush=True)
        regimes[regime] = {
            "seconds": sum(r["seconds"] for r in rows.values()),
            "datasets": rows,
        }
        print(f"{regime:>12}: {regimes[regime]['seconds']:.3f} s", flush=True)

    doc = {
        "benchmark": "lru-replay-regimes",
        "size": args.size,
        "seed": args.seed,
        "rounds": args.rounds,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "regimes": regimes,
        "criteria": {},
    }
    if args.check:
        doc["criteria"]["identical_to_scalar"] = mismatched == 0
        print(f"scalar check: {mismatched} of {batches} batches differ",
              flush=True)
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            base = json.load(fh)
        doc["baseline"] = {k: base[k] for k in ("git_sha", "regimes")
                           if k in base}
        counts = ("calls", "accesses", "hits", "evictions")
        doc["criteria"]["same_modelled_counts"] = all(
            row[c] == base["regimes"][regime]["datasets"][key][c]
            for regime, r in regimes.items()
            for key, row in r["datasets"].items() for c in counts)
        doc["speedup"] = {
            regime: {
                "total": round(base["regimes"][regime]["seconds"]
                               / r["seconds"], 2),
                **{key: round(base["regimes"][regime]["datasets"][key]
                              ["seconds"] / row["seconds"], 2)
                   for key, row in r["datasets"].items()},
            }
            for regime, r in regimes.items()
        }
        for regime, ratios in doc["speedup"].items():
            print(f"{regime:>12} speedup: {ratios}", flush=True)

    write_bench_json(args.out, doc)
    print(f"wrote {args.out}", flush=True)
    if not all(doc["criteria"].values()):
        print(f"criteria unmet: {doc['criteria']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
