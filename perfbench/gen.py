"""Seeded inputs for the four workloads.

Every operation's input is a JSON-able spec made from (workload, seed,
index) alone, so one seed always yields the same inputs, and a run makes
them lazily, one operation at a time, outside the timed region.  The spec
holds everything the oracles need; the program sees only the files and
arguments made from it.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

#: Coordinate bounds (numerator, denominator) of the CLI's own batteries.
SMALL = (8, 6)
#: Coordinates large enough that double-precision phases lose exactness.
WIDE = (10**6, 10**3)
#: Members per support class in clustered point sets.
CLASS_SIZE = 32

# One schedule cycle per workload.  The cost classes are arranged so that
# the median latency falls in the middle of a block of operations of one
# kind (three 128-point regular batteries, three 2-orbit searches, the
# 32-term positivity checks), so it does not jump between kinds from run to
# run.  The order interleaves cheap and dear operations, so that a run cut
# mid-cycle still has a balanced mix.
PSD_CYCLE = (
    (128, "regular"),
    (64, "scattered"),
    (256, "clustered"),
    (128, "clustered"),
    (128, "regular"),
    (64, "corrupt"),
    (128, "wide"),
    (256, "regular"),
    (128, "scattered"),
    (128, "regular"),
    (128, "corrupt"),
)
ALGEBRA_CYCLE = (
    ("positivity", 16),
    ("collinearity", 100),
    ("positivity", 32),
    ("frame", 16),
    ("multiplicativity", 25),
    ("positivity", 64),
    ("frame", 32),
)
#: Orbits per slot of the Bell configurations, one operation each.
BELL_CYCLE = (1, 2, 1, 3, 2, 1, 4, 2, 6)
#: Every VERIFY_REPEAT-th verify_all operation repeats operation 0.
VERIFY_REPEAT = 6

#: The Bell catalog: configurations per orbit count, and search seeds each.
BELL_ORBITS = (1, 2, 3, 4, 6)
BELL_CONFIGS = 4
BELL_SEEDS = 8

CYCLES = {
    "verify_all": 1,
    "psd_batteries": len(PSD_CYCLE),
    "algebra_products": len(ALGEBRA_CYCLE),
    "bell_search": len(BELL_CYCLE),
}


def _rng(*key) -> random.Random:
    # random.Random seeds a str through SHA-512, so this is stable across
    # processes, unlike hash().
    return random.Random("/".join(str(k) for k in key))


def _frac(rng: random.Random, bounds=SMALL) -> Fraction:
    num, den = bounds
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def fmt(pt) -> list[str]:
    return [str(c) for c in pt]


def _epr_state(rng: random.Random, **extra) -> dict:
    return {"kind": "epr", "lambda": rng.uniform(-3, 3), "mu": rng.uniform(-3, 3), **extra}


def scattered_points(rng, n, bounds=SMALL) -> list[tuple]:
    """Distinct random points: mostly singleton support classes."""
    pts, seen = [], set()
    while len(pts) < n:
        p = tuple(_frac(rng, bounds) for _ in range(4))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def clustered_points(rng, n, class_size, bounds=SMALL) -> list[tuple]:
    """Distinct points in ceil(n / class_size) support classes.

    (a, b, u - a, b - v) has the invariant (a + c, b - d) = (u, v), so each
    class is one invariant value.
    """
    invariants: list[tuple] = []
    while len(invariants) < -(-n // class_size):
        inv = (_frac(rng, bounds), _frac(rng, bounds))
        if inv not in invariants:
            invariants.append(inv)
    pts, seen = [], set()
    while len(pts) < n:
        u, v = invariants[len(pts) % len(invariants)]
        a, b = _frac(rng, bounds), _frac(rng, bounds)
        p = (a, b, u - a, b - v)
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def _coeff(rng) -> list[float]:
    return [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]


def _psd_spec(rng, n, family) -> dict:
    if family == "clustered":
        pts, state = clustered_points(rng, n, CLASS_SIZE), _epr_state(rng)
    elif family == "wide":
        pts, state = clustered_points(rng, n, CLASS_SIZE, WIDE), _epr_state(rng)
    elif family == "scattered":
        pts, state = scattered_points(rng, n), _epr_state(rng)
    elif family == "regular":
        pts, state = scattered_points(rng, n), {"kind": "regular"}
    else:  # corrupt: the negative control, which must exit 1
        pts, state = scattered_points(rng, n), _epr_state(rng, corrupt_kernel=True)
    return {"op": "psd", "n": n, "family": family, "state": state,
            "points": [fmt(p) for p in pts]}


def _algebra_spec(rng, op, size) -> dict:
    state = _epr_state(rng)
    if op == "positivity":
        pts = clustered_points(rng, size, 8)
        return {"op": op, "n": size, "state": state,
                "terms": [[fmt(p), *_coeff(rng)] for p in pts]}
    if op == "frame":
        # classes of 4 make the Gram rank-deficient, so whitening drops
        # directions; P moves frame vectors onto each other, so the
        # compression is not zero
        pts = clustered_points(rng, size, 4)
        moves = {}
        while len(moves) < 8:
            j, k = rng.randrange(size), rng.randrange(size)
            moves[tuple(u - v for u, v in zip(pts[j], pts[k]))] = _coeff(rng)
        return {"op": op, "n": size, "state": state,
                "frame": [fmt(p) for p in pts],
                "poly": [[fmt(p), *c] for p, c in moves.items()]}
    if op == "multiplicativity":
        cases = []
        for _ in range(size):
            s, t = _frac(rng), _frac(rng)
            a, b = _frac(rng), _frac(rng)
            probes = scattered_points(rng, 2) + [(a, b, -a, b)]
            cases.append([str(s), str(t), [fmt(p) for p in probes]])
        return {"op": op, "n": size, "state": state, "cases": cases}
    cases = [fmt(_frac(rng) for _ in range(4)) for _ in range(size)]
    return {"op": op, "n": size, "state": state, "cases": cases}


def _orbit_slot(reps) -> list[list[str]]:
    out = []
    for x in reps:
        out.append(fmt(x))
        out.append(fmt(tuple(-c for c in x)))
    return out


def bell_catalog_entry(orbits: int, index: int) -> dict:
    """A fixed Bell configuration: the monomial orbit plus orbits - 1 more.

    Slots a1, a2 share the orbits of (a, b) and slots b1, b2 those of the
    correlated partners (-a, b), so every extra orbit can contribute.
    """
    rng = _rng("bell-catalog", orbits, index)
    while True:
        xa = (_frac(rng, (4, 3)), _frac(rng, (4, 3)))
        if any(xa):
            break
    reps = [xa]
    while len(reps) < orbits:
        x = (_frac(rng, (4, 3)), _frac(rng, (4, 3)))
        if any(x) and x not in reps and tuple(-c for c in x) not in reps:
            reps.append(x)
    partners = [(-a, b) for a, b in reps]
    slot_a, slot_b = _orbit_slot(reps), _orbit_slot(partners)
    return {
        "config": {"supports": [slot_a, slot_a, slot_b, slot_b],
                   "restarts": 4, "max_iters": 120},
        "state": _epr_state(rng),
    }


def bell_spec(orbits: int, index: int, seed: int) -> dict:
    """Catalog configuration `index` of `orbits` orbits, searched with `seed`."""
    return {"op": "bell", "orbits": orbits, "key": f"o{orbits}c{index}/{seed}",
            "search_seed": seed, **bell_catalog_entry(orbits, index)}


def spec(workload: str, seed: int, index: int) -> dict:
    """The input of operation `index` of `workload` under `seed`."""
    if workload == "verify_all":
        if index % VERIFY_REPEAT == VERIFY_REPEAT - 1:
            return dict(spec(workload, seed, 0), repeat=True)
        rng = _rng(workload, seed, index)
        return {"op": "verify_all", "seed": rng.randrange(2**31), "state": _epr_state(rng)}
    rng = _rng(workload, seed, index)
    if workload == "psd_batteries":
        return _psd_spec(rng, *PSD_CYCLE[index % len(PSD_CYCLE)])
    if workload == "algebra_products":
        return _algebra_spec(rng, *ALGEBRA_CYCLE[index % len(ALGEBRA_CYCLE)])
    if workload == "bell_search":
        return bell_spec(BELL_CYCLE[index % len(BELL_CYCLE)],
                         rng.randrange(BELL_CONFIGS), rng.randrange(BELL_SEEDS))
    raise ValueError(f"unknown workload {workload!r}")


def digest(workload: str, seed: int, count: int) -> str:
    """sha256 of the first `count` operation specs."""
    h = hashlib.sha256()
    for i in range(count):
        h.update(json.dumps(spec(workload, seed, i), sort_keys=True).encode())
    return h.hexdigest()

