"""Width-sorted broadcast selection and one-pass aggregation against the code
they replaced.

tests/legacy_edges.py keeps the selection that drew one flat value per cone
cell in doctor-id chunks (top_in_cones) and the aggregation that reduced
each run's rank groups one call at a time (aggregate).  Selection is
compared in all three settings, kappa 1 and 5, counts 1, k and k^2, on cones
from empty to wider than the rating range and on draws rounded down to
quarters; aggregation is compared array by array, bitwise, on
120-run campaigns with unmatched doctors and empty hospitals.
"""

import dataclasses

import numpy as np
import pytest

import legacy_edges
from oracle_helpers import quarter_draws
from conematch import metrics, strategy
from conematch.da import doctor_proposing_da
from conematch.market import SETTINGS, generate, make_config
from conematch.strategy import build_assignment, build_preferences

K = 5


def same_selection(inst, count):
    """The doctors of the selected pairs, once both ways agree."""
    want = legacy_edges.top_in_cones(inst, count)
    got = strategy._top_in_cones(inst, count)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return want[0]


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("kappa", [1, 5])
@pytest.mark.parametrize("count", [1, K, K * K])
def test_selection_matches_legacy(monkeypatch, setting, kappa, count):
    for seed in (0, 1):
        cfg = make_config(211, kappa=kappa, k=K, cone_override=0.3,
                          seed=seed, setting=setting)
        inst = generate(cfg, 0)
        # the default budget, one row per chunk, and chunks of a few rows
        for budget in (strategy._WINDOW_BUDGET, 1, 97):
            monkeypatch.setattr(strategy, "_WINDOW_BUDGET", budget)
            assert same_selection(inst, count).size > 0


@pytest.mark.parametrize("cone", [0.001, 0.02, 0.3, 1.0, 5.0])
@pytest.mark.parametrize("kappa", [1, 5])
def test_selection_matches_legacy_from_empty_to_clamped_cones(cone, kappa):
    cfg = make_config(211, kappa=kappa, k=K, cone_override=cone, seed=3)
    inst = generate(cfg, 0)
    doctors = same_selection(inst, K)
    if cone == 0.001:      # some cones empty
        assert np.unique(doctors).size < cfg.n_doctors
    if cone == 5.0:        # every cone the whole market
        assert inst.cone_clamped and doctors.size == K * cfg.n_doctors


@pytest.mark.parametrize("setting", SETTINGS)
def test_selection_matches_legacy_under_quantised_values(monkeypatch, setting):
    # values on a grid of quarters: most rows tie at the cut
    for kappa, count in ((1, 1), (1, K), (5, K), (5, K * K)):
        cfg = make_config(211, kappa=kappa, k=K, cone_override=0.3, seed=7,
                          setting=setting)
        inst = generate(cfg, 0)
        with monkeypatch.context() as m:
            quarter_draws(m)
            for budget in (strategy._WINDOW_BUDGET, 1, 97):
                m.setattr(strategy, "_WINDOW_BUDGET", budget)
                same_selection(inst, count)


RUNS = 120


@pytest.fixture(scope="module")
def campaigns():
    """120 runs each of two small markets whose sizes are no multiple of
    the group sizes below, with unmatched doctors and empty hospitals."""
    out = []
    for n, kappa, k, cone in ((57, 3, 2, 0.05), (83, 5, 2, 0.05)):
        cfg = make_config(n, kappa=kappa, k=k, cone_override=cone, seed=11,
                          runs=RUNS)
        stats = []
        for r in range(RUNS):
            inst = generate(cfg, r)
            asg = build_assignment(inst)
            prefs = build_preferences(asg)
            m = doctor_proposing_da(*prefs, inst.capacities)
            stats.append(metrics.run_stats(asg, m, check_stability=False))
        assert sum((~s.doctor_matched).sum() for s in stats) > RUNS
        assert sum((s.hospital_fill == 0).sum() for s in stats) > 50
        out.append(stats)
    return out


def same_series(got, want):
    assert list(got) == list(want)
    for m in want:
        g, w = got[m], want[m]
        for f in dataclasses.fields(w):
            a, b = getattr(g, f.name), getattr(w, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b, equal_nan=True), (m, f.name)
            else:
                assert a == b, (m, f.name)


@pytest.mark.parametrize("group_size", [1, 7, 10])
def test_aggregate_matches_legacy(campaigns, group_size):
    for stats in campaigns:
        for runs in (stats, stats[:1], stats[:9]):
            # folded run by run, as run_campaign does
            folded = [metrics.group_run(s, group_size) for s in runs]
            same_series(metrics.aggregate(folded),
                        legacy_edges.aggregate(runs, group_size))


def test_aggregate_refuses_runs_folded_otherwise(campaigns):
    stats = campaigns[0][:3]
    folded = [metrics.group_run(s, 7) for s in stats]
    with pytest.raises(ValueError):
        metrics.aggregate(folded + [metrics.group_run(stats[0], 10)])
    with pytest.raises(ValueError):
        metrics.aggregate(folded + [metrics.group_run(campaigns[1][0], 7)])


def test_finite_row_means_match_one_mean_per_row():
    # rows of every finite count, NaN and inf anywhere, long rows summed
    # pairwise: each equals x[np.isfinite(x)].mean() bit for bit
    gen = np.random.default_rng(5)
    mat = gen.normal(size=(400, 150)) * 10.0 ** gen.integers(-3, 7, (400, 1))
    mat[gen.random(mat.shape) < gen.random((400, 1))] = np.nan
    mat[gen.random(mat.shape) < 0.01] = np.inf
    want = [float(r[np.isfinite(r)].mean()) if np.isfinite(r).any() else np.nan
            for r in mat]
    for m in (mat, np.asfortranarray(mat)):
        assert np.array_equal(metrics._finite_row_means(m), want,
                              equal_nan=True)
