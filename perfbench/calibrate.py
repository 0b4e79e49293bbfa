"""Machine-speed calibration for the timed metrics.

On a VM that shares its host, the speed of pure-Python code drifts by up
to 1.8x for minutes at a time, and a pass's wall time drifts with it.
The benchmark therefore runs this fixed reference work next to every
timed pass and every set-up probe and scales each time by
REFERENCE_S / (time of the reference work next to it).  The reference
work resembles the program's own: sparse dict polynomials with tuple
exponents and int or Fraction coefficients, and a breadth-first closure
of permutation tuples.  It uses nothing from fixedfield, so a change to
the program cannot move it.

Changing this module changes the unit of every timed metric: re-measure
the baselines after any edit.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Seconds the reference work is scaled to; a fixed constant, close to
# what the work takes on the machine the baselines were measured on.
REFERENCE_S = 0.15
REPEATS = 30


def _poly(rng, terms, fractions):
    out = {}
    while len(out) < terms:
        e = tuple(rng.randint(0, 3) if rng.random() < 0.4 else 0 for _ in range(8))
        out[e] = Fraction(rng.randint(1, 9), rng.randint(1, 4)) if fractions else rng.randint(1, 9)
    return out


_RNG = random.Random(1)
_INT_A, _INT_B = _poly(_RNG, 40, False), _poly(_RNG, 40, False)
_FRAC_A, _FRAC_B = _poly(_RNG, 12, True), _poly(_RNG, 12, True)
_GENS = [tuple(_RNG.sample(range(8), 8)) for _ in range(3)]


def _mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _closure(cap=3000):
    ident = tuple(range(8))
    seen = {ident}
    frontier = [ident]
    while frontier and len(seen) <= cap:
        nxt = []
        for h in frontier:
            for g in _GENS:
                p = tuple(g[j] for j in h)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


def reference_seconds() -> float:
    """Wall seconds of one run of the reference work.  Its data stay far
    below the program's own, so it does not move peak_rss_mb."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _mul(_INT_A, _INT_B)
        _mul(_FRAC_A, _FRAC_B)
    _closure()
    return time.perf_counter() - t0
