"""The selection kernel's threshold and exact-cut paths against the code
they replaced.

strategy._top_in_cones hashes each cone cell to the head of its draw only.
A chunk's rows take one threshold on the heads' top 31 bits, and a row the
threshold leaves short, or every row of a chunk too dense for it, takes
the exact cut (strategy._exact_survivors).  Each path is forced here by
patching the dense cut and the threshold's keep, and the selection is
compared with tests/legacy_edges.top_in_cones, which draws one flat value
per cone cell: in all three settings, kappa 1 and 5, counts 1, k and k^2,
chunk budgets of one row, 97 cells and the default, on cones from empty to
clamped, on draws rounded down to quarters, and on one n=20,000 market.
"""

import math

import numpy as np
import pytest

from oracle_helpers import quarter_draws, same_selection
from conematch import rng, strategy
from conematch.market import SETTINGS, generate, make_config
from conematch.strategy import compute_cone

K = 5
BUDGETS = (strategy._WINDOW_BUDGET, 1, 97)
# every row through the exact cut; every chunk on a threshold, the rows it
# leaves short through the exact cut; a threshold that keeps `count` cells
# of the narrowest row, so many rows fall short; and one that keeps every
# cell, so no row reaches the exact cut.  tests/test_one_pass.py compares
# the kernel as shipped.
PATHS = ("all_exact", "threshold", "tight", "no_exact")


def force_path(monkeypatch, path):
    """Steer _top_in_cones down `path`; returns the list that collects the
    number of rows each exact-cut call takes."""
    calls = []
    exact = strategy._exact_survivors

    def counting(heads, w, count):
        calls.append(w.size)
        return exact(heads, w, count)

    monkeypatch.setattr(strategy, "_exact_survivors", counting)
    if path == "all_exact":
        monkeypatch.setattr(strategy, "_DENSE_CUT", 0.0)
    else:
        monkeypatch.setattr(strategy, "_DENSE_CUT", math.inf)
    if path == "tight":
        monkeypatch.setattr(strategy, "_threshold_keep", lambda count: count)
    elif path == "no_exact":
        monkeypatch.setattr(strategy, "_threshold_keep", lambda count: 1 << 40)
    return calls


def check_path(path, calls, inst, count, budget):
    # rows: the doctors with a nonempty cone; wide: those with more than
    # `count` members.  Only a wide row falls short of a threshold at
    # `count`, and one alone in its chunk (budget 1) does so about half
    # the time; in a chunk with a narrower row it may keep every cell
    sizes = np.array([compute_cone(inst, d).member_hospitals.size
                      for d in range(inst.config.n_doctors)])
    rows, wide = np.count_nonzero(sizes), np.count_nonzero(sizes > count)
    if path == "all_exact":
        assert sum(calls) == rows
    elif path == "no_exact":
        assert calls == []
    elif path == "tight":
        assert sum(calls) <= wide
        if budget == 1:
            assert (sum(calls) > 0) == (wide > 0)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("kappa", [1, 5])
@pytest.mark.parametrize("count", [1, K, K * K])
def test_every_path_matches_legacy(monkeypatch, path, setting, kappa, count):
    cfg = make_config(211, kappa=kappa, k=K, cone_override=0.3, seed=1,
                      setting=setting)
    inst = generate(cfg, 0)
    calls = force_path(monkeypatch, path)
    for budget in BUDGETS:
        monkeypatch.setattr(strategy, "_WINDOW_BUDGET", budget)
        calls.clear()
        same_selection(inst, count)
        check_path(path, calls, inst, count, budget)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("cone", [0.001, 5.0])
@pytest.mark.parametrize("kappa", [1, 5])
def test_every_path_matches_legacy_on_empty_and_clamped_cones(
        monkeypatch, path, cone, kappa):
    cfg = make_config(211, kappa=kappa, k=K, cone_override=cone, seed=3)
    inst = generate(cfg, 0)
    calls = force_path(monkeypatch, path)
    for budget in BUDGETS:
        monkeypatch.setattr(strategy, "_WINDOW_BUDGET", budget)
        calls.clear()
        doctors = same_selection(inst, K)
        if cone == 0.001:      # some cones empty
            assert np.unique(doctors).size < cfg.n_doctors
        else:                  # every cone the whole market
            assert inst.cone_clamped and doctors.size == K * cfg.n_doctors
        check_path(path, calls, inst, K, budget)


@pytest.mark.parametrize("path", PATHS)
def test_every_path_matches_legacy_under_quantised_values(monkeypatch, path):
    # values on a grid of quarters: most rows tie at the cut, and every
    # row a real threshold meets falls short of it
    for setting in SETTINGS:
        for kappa, count in ((1, 1), (1, K), (5, K * K)):
            cfg = make_config(211, kappa=kappa, k=K, cone_override=0.3,
                              seed=7, setting=setting)
            inst = generate(cfg, 0)
            with monkeypatch.context() as m:
                quarter_draws(m)
                calls = force_path(m, path)
                for budget in BUDGETS:
                    m.setattr(strategy, "_WINDOW_BUDGET", budget)
                    same_selection(inst, count)
                if path == "no_exact":
                    assert calls == []


def test_the_exact_cut_keeps_heads_that_tie_on_their_top_31_bits():
    # heads whose top 31 bits take two values while the 33 below are
    # random: the tail's xor moves bits 63.. down onto 32.., so draws
    # order such heads otherwise than the heads do.  Every in-cone cell at
    # or above its row's count-th largest draw must survive.
    gen = np.random.default_rng(11)
    rows, width, count = 40, 30, 4
    top = gen.choice(np.array([0x5A5A5A5A, 0x7FFFFFFF], dtype=np.uint64),
                     (rows, width))
    low = gen.integers(0, 1 << 33, (rows, width), dtype=np.uint64)
    heads = (top << np.uint64(33)) | low
    draws = rng.bits_tail(heads.copy())
    w = gen.integers(1, width + 1, rows)
    w[-1] = width
    row, col = strategy._exact_survivors(heads.copy(), w, count)
    assert np.all(col < w[row])
    for r in range(rows):
        cone = draws[r, :w[r]]
        cut = np.sort(cone)[::-1][min(count, w[r]) - 1]
        want = np.flatnonzero(cone >= cut)
        assert np.isin(want, col[row == r]).all(), r


def test_a_large_market_matches_legacy():
    # n=20,000: cones of 1,000 to 2,700 hospitals, a few dozen rows a
    # chunk, every chunk on the threshold
    cfg = make_config(20_000, kappa=5, k=K, cone_override=0.3, seed=42)
    same_selection(generate(cfg, 0), K)
