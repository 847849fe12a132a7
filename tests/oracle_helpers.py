"""Independent brute-force oracles shared by the test modules.

These deliberately re-derive stability from first principles (rank
comparisons over exhaustive enumeration) without touching the package's
own enumeration, so the two routes stay independent.  quarter_draws puts
every random draw on a grid of quarters, for the tie tests.
"""

import itertools
import math
import random

import numpy as np

from conematch import rng


def brute_stable_set(doctor_prefs, hospital_prefs, caps):
    """Every capacity-respecting matching on mutual edges with no
    rank-blocking pair, as tuples of doctor_of (None = unmatched)."""
    n_doc, n_hosp = len(doctor_prefs), len(hospital_prefs)
    d_rank = [{h: i for i, h in enumerate(lst)} for lst in doctor_prefs]
    h_rank = [{d: i for i, d in enumerate(lst)} for lst in hospital_prefs]
    options = [[None] + [h for h in doctor_prefs[d] if d in h_rank[h]]
               for d in range(n_doc)]
    stable = set()
    for combo in itertools.product(*options):
        fills = [0] * n_hosp
        ok = True
        for h in combo:
            if h is not None:
                fills[h] += 1
                if fills[h] > caps[h]:
                    ok = False
                    break
        if not ok:
            continue
        blocking = False
        for d in range(n_doc):
            cur = combo[d]
            cur_rank = d_rank[d][cur] if cur is not None else math.inf
            for h in doctor_prefs[d]:
                if d_rank[d][h] >= cur_rank:
                    break
                if d not in h_rank[h]:
                    continue
                held = [dd for dd in range(n_doc) if combo[dd] == h]
                if len(held) < caps[h] or any(
                        h_rank[h][d] < h_rank[h][dd] for dd in held):
                    blocking = True
                    break
            if blocking:
                break
        if not blocking:
            stable.add(combo)
    return stable, d_rank


def random_lists(n_doc, n_hosp, seed, complete=True, k=None):
    gen = random.Random(seed)
    doctor_prefs = []
    for _ in range(n_doc):
        hs = list(range(n_hosp))
        gen.shuffle(hs)
        doctor_prefs.append(hs if complete else hs[:k])
    hospital_prefs = []
    listed = [set() for _ in range(n_hosp)]
    for d, hs in enumerate(doctor_prefs):
        for h in hs:
            listed[h].add(d)
    for h in range(n_hosp):
        ds = sorted(listed[h])
        gen.shuffle(ds)
        hospital_prefs.append(ds)
    return doctor_prefs, hospital_prefs


def quarter_draws(monkeypatch):
    """Round every draw down to a multiple of 1/4 while monkeypatch holds.

    Clears the low 51 of the 53 bits of rng.bits, the one integer draw
    behind both rng.uniform (so every value oracle) and the selection
    kernel, so the two see the same ties.  Generate markets before calling:
    ratings drawn on the grid are not distinct.
    """
    bits, low = rng.bits, np.uint64((1 << 51) - 1)

    def quantised(hi, hj, out=None):
        out = bits(hi, hj, out)
        out &= ~low
        return out

    monkeypatch.setattr(rng, "bits", quantised)
