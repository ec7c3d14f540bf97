#!/usr/bin/env python
"""Compile once, apply many: a PermutationService in front of the plan cache.

The expensive part of the paper's algorithm is offline planning (two
layers of König colouring); applying a planned permutation is cheap.
The service packages that asymmetry: you *register* named permutations
(fingerprinted, engine auto-chosen), *warm* the cache once, and then
*serve* any number of apply requests without ever re-planning.  This
example

1. registers three named permutations (one non-square, so the service
   picks the padded engine for it),
2. warms the cache and serves a burst of single and batched requests,
3. starts a **second** service on the same cache directory and shows it
   serve from disk — zero cold plans in the new process,
4. prints the tiered cache statistics that prove all of the above.

Run:  python examples/permutation_service.py
"""

import tempfile
import time

import numpy as np

from repro import PermutationService
from repro.permutations.named import bit_reversal, random_permutation

N = 4096              # perfect square, 64 % 32 == 0 -> scheduled engine
N_ODD = 5000          # not a square -> padded engine
WIDTH = 32
REQUESTS = 16


def expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


def main() -> None:
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as cache_dir:
        # --- register + warm ---------------------------------------------
        svc = PermutationService(width=WIDTH, cache_dir=cache_dir)
        perms = {
            "bitrev": bit_reversal(N),
            "shuffle": random_permutation(N, seed=1),
            "odd-length": random_permutation(N_ODD, seed=2),
        }
        for name, p in perms.items():
            fp = svc.register(name, p)
            engine = svc._registry[name].engine
            print(f"registered {name!r:14} n = {len(p):5}  "
                  f"engine = {engine:9}  fingerprint {fp[:12]}...")
        t0 = time.perf_counter()
        warmed = svc.warm()
        print(f"\nwarmed {warmed} plan(s) in "
              f"{time.perf_counter() - t0:.2f}s — planning is done.\n")

        # --- serve -------------------------------------------------------
        t0 = time.perf_counter()
        for _ in range(REQUESTS):
            for name, p in perms.items():
                a = rng.random(len(p)).astype(np.float32)
                assert np.array_equal(svc.apply(name, a), expected(p, a))
        batch = np.stack([np.arange(N, dtype=np.float32)] * 3)
        out = svc.apply_batch("bitrev", batch)
        assert np.array_equal(out[0], expected(perms["bitrev"], batch[0]))
        serve_s = time.perf_counter() - t0
        plans = svc.planner.stats()["cold_plans"]
        assert plans == warmed, "serving must not re-plan"
        print(f"{REQUESTS * len(perms) + 1} requests served without "
              f"re-planning in {serve_s * 1e3:.1f} ms "
              f"({plans} plan(s) total, all from warm())")

        # --- a fresh process: the disk tier ------------------------------
        fresh = PermutationService(width=WIDTH, cache_dir=cache_dir)
        for name, p in perms.items():
            fresh.register(name, p)
        fresh.warm()
        a = np.arange(N, dtype=np.float32)
        assert np.array_equal(
            fresh.apply("bitrev", a), expected(perms["bitrev"], a)
        )
        stats = fresh.stats()
        assert stats["sealed_hits"] == len(perms)
        assert stats["cold_plans"] == 0
        print(f"\na second service on the same cache dir warmed "
              f"{len(perms)} plan(s) entirely from sealed sidecars "
              f"(sealed_hits = {stats['sealed_hits']}, "
              f"cold_plans = 0)\n")

        print("cache statistics:")
        print(fresh.describe())


if __name__ == "__main__":
    main()
