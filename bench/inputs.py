"""Seeded inputs for the three workloads.

The same (workload, seed) pair always gives the same inputs.  The scan
grid points are fixed by design, so every seed asks for the same amount
of work: the seed draws how each multicharge is written (component
order and multiples of e added, which the scan normalises away) and the
members whose defect the checker recounts from hook lengths.  The
oracle draws its instances from the seed, with a fixed number in every
(level, rank) stratum so that a round costs about the same for every
seed.
"""

from __future__ import annotations

import random
from itertools import product

import reference as R

SCAN_WIDE = {"level": 3, "rank": 10, "e": 3}
SCAN_DEEP = {"level": 2, "rank": 18, "e": 2, "p": 2, "jobs": 2}
ORACLE_STRATA = [(2, 5), (2, 6), (2, 7), (2, 8), (3, 5), (3, 6), (3, 7)]
ORACLE_PER_STRATUM = 48
# strata where a multipartition with equal components exists; their first
# instances get equal charges, the only shift-periodic multicharges that
# leave no zero charged hook at levels 2 and 3
ORACLE_PERIODIC = {(2, 6): 4, (2, 8): 4, (3, 6): 4}
HOOK_SAMPLE = {"scan-wide": 32, "scan-deep": 256}


def _representative(rng: random.Random, charges, e: int) -> list[int]:
    """Another multicharge with the same normalisation: components
    permuted and each charge moved by a multiple of e."""
    order = rng.sample(range(len(charges)), len(charges))
    return [charges[k] + e * rng.randint(-2, 2) for k in order]


def scan_wide(rng: random.Random) -> dict:
    l, n, e = SCAN_WIDE["level"], SCAN_WIDE["rank"], SCAN_WIDE["e"]
    grid = [c for c in product(range(e), repeat=l) if list(c) == sorted(c)]
    rng.shuffle(grid)
    count = R.count_multipartitions(l, n)
    return {
        **SCAN_WIDE,
        "charges": [_representative(rng, c, e) for c in grid],
        "samples": [
            sorted(rng.sample(range(count), HOOK_SAMPLE["scan-wide"])) for _ in grid
        ],
    }


def scan_deep(rng: random.Random) -> dict:
    l, n, e = SCAN_DEEP["level"], SCAN_DEEP["rank"], SCAN_DEEP["e"]
    count = R.count_multipartitions(l, n)
    return {
        **SCAN_DEEP,
        "charges": _representative(rng, (0, 1), e),
        "samples": [sorted(rng.sample(range(count), HOOK_SAMPLE["scan-deep"]))],
    }


def oracle(rng: random.Random) -> dict:
    instances = []
    for l, n in ORACLE_STRATA:
        pool = R.multipartitions(l, n)
        equal = [mp for mp in pool if len(set(mp)) == 1]
        for k in range(ORACLE_PER_STRATUM):
            e = 2 + k % 3
            if k < ORACLE_PERIODIC.get((l, n), 0):
                mp, charges = rng.choice(equal), [rng.randrange(e)] * l
            else:
                while True:
                    mp = rng.choice(pool)
                    charges = [rng.randint(0, n + 2) for _ in range(l)]
                    if not R.has_zero_charged_hook(mp, charges):
                        break
            instances.append(
                {"mp": R.format_mp(mp), "charges": charges, "e": e}
            )
    return {"instances": instances}


GENERATORS = {"scan-wide": scan_wide, "scan-deep": scan_deep, "oracle": oracle}


def make(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    return {"workload": workload, "seed": seed, **GENERATORS[workload](rng)}
