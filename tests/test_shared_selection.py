"""One cone selection per market: configs that draw the same market
(market.market_key) share one top-count pass per run, cut to each config's
count, and write the CSVs each would write alone."""

import dataclasses

import numpy as np
import pytest

from conematch import cli, strategy
from conematch.market import MarketConfig, generate, make_config, market_key
from conematch.strategy import SharedSelection, _top_in_cones


def campaign_csvs(configs, out, **options):
    campaign = cli.Campaign(configs=configs, out_dir=out, **options)
    assert cli.run_campaign(campaign) == cli.EXIT_OK
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def resized(configs, n):
    return [dataclasses.replace(cfg, n_doctors=n, n_hospitals=n // 5)
            for cfg in configs]


OPTIONS = dict(audit_sample=1.0, deviation_focals=1, deviation_replicates=2)


@pytest.mark.parametrize("preset", cli.PRESETS)
def test_shared_selection_writes_each_configs_own_csvs(tmp_path, preset):
    configs = resized(cli.preset_configs(preset, seed=42, runs=3), 200)
    together = campaign_csvs(configs, tmp_path / "together", **OPTIONS)
    alone = {}
    for i, cfg in enumerate(configs):
        alone.update(campaign_csvs([cfg], tmp_path / f"alone{i}", **OPTIONS))
    assert len(together) == 3 * len(configs)   # metrics, double cut, deviation
    assert together == alone


def test_interleaved_groups_and_unequal_runs(tmp_path):
    # two markets whose configs alternate, and a group whose configs stop
    # at different runs: the later runs of the longer one run alone
    base = dict(cone_override=0.3, seed=5)
    configs = [make_config(150, kappa=3, k=3, runs=3, **base),
               make_config(150, kappa=1, k=3, runs=2, **base),
               make_config(150, kappa=3, k=2, runs=1,
                           setting="RequestInterview", **base),
               make_config(150, kappa=1, k=4, runs=3,
                           setting="SchoolChoice", **base)]
    assert market_key(configs[0]) == market_key(configs[2])
    assert market_key(configs[1]) == market_key(configs[3])
    assert market_key(configs[0]) != market_key(configs[1])
    out = tmp_path / "together"
    together = campaign_csvs(configs, out, audit_sample=1.0)
    alone = {}
    for i, cfg in enumerate(configs):
        alone.update(campaign_csvs([cfg], tmp_path / f"alone{i}",
                                   audit_sample=1.0))
    assert together == alone
    # summary.txt lists the configs in config order
    slugs = [line.split()[0] for line in
             (out / "summary.txt").read_text().splitlines()]
    assert slugs == [f"config={s}" for s in cli._unique_slugs(configs)]


def test_one_selection_per_market_and_run(tmp_path, monkeypatch):
    # the paper-campaign shape: four configs, one market
    counts = []
    real = strategy._top_in_cones

    def counting(instance, count):
        counts.append(count)
        return real(instance, count)
    monkeypatch.setattr(strategy, "_top_in_cones", counting)
    grid = dict(n_doctors=200, capacity=5, cone_override=0.3, seed=42, runs=2)
    configs = (cli.expand_grid(dict(grid, setting="Residency", k=[5, 12]))
               + cli.expand_grid(dict(grid, setting="RequestInterview", k=5))
               + cli.expand_grid(dict(grid, setting="SchoolChoice", k=5)))
    campaign_csvs(configs, tmp_path / "shared")
    assert counts == [25, 25]
    # a config alone in its market selects at its own count, once per run
    counts.clear()
    campaign_csvs(configs[:1], tmp_path / "alone")
    assert counts == [5, 5]


def test_failure_is_the_first_in_run_order(tmp_path, monkeypatch):
    # run 0 of every config in the group runs before run 1 of any
    real = cli._run_one

    def failing(cfg, run_index, audit_sample, slug, selection=None):
        if cfg.k == 4 and run_index == 0:
            raise cli.AuditFailure(slug, run_index, "stability")
        return real(cfg, run_index, audit_sample, slug, selection)
    monkeypatch.setattr(cli, "_run_one", failing)
    configs = cli.expand_grid(dict(n_doctors=60, capacity=3, k=[3, 4],
                                   cone_override=0.3, runs=2))
    out = tmp_path / "fail"
    campaign = cli.Campaign(configs=configs, out_dir=out)
    assert cli.run_campaign(campaign) == cli.EXIT_AUDIT
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary == [f"config={cli.config_slug(configs[1])} run=0 "
                       f"check=stability audits=FAIL"]
    assert not list(out.glob("*.csv"))


# -- the cut: the first count entries of a top-C list --

def cone_widths(inst):
    lo, hi = inst.hospital_range
    lows = np.maximum(lo, inst.doctor_ratings - inst.half_width)
    highs = np.minimum(hi, inst.doctor_ratings + inst.half_width)
    return (np.searchsorted(inst.hospital_sorted, highs)
            - np.searchsorted(inst.hospital_sorted, lows))


@pytest.mark.parametrize("cone", [0.004, 0.3])
@pytest.mark.parametrize("k", [2, 5])
def test_cut_selection_equals_a_selection_at_the_count(cone, k):
    for seed in (0, 1, 2):
        inst = generate(make_config(211, kappa=1, k=k, cone_override=cone,
                                    seed=seed), 0)
        widths = cone_widths(inst)
        if cone < 0.01:
            assert np.any(widths == 0)
        widest = int(widths.max())
        counts = sorted({1, k, k * k, widest + 1})
        shared = SharedSelection(max(counts))
        for count in counts:
            got = shared.top(inst, count)
            want = _top_in_cones(inst, count)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


def test_selection_refuses_another_market_or_a_larger_count():
    cfg = make_config(100, kappa=2, k=3, cone_override=0.3, seed=4)
    shared = SharedSelection(9)
    shared.top(generate(cfg, 0), 3)
    # the same market regenerated, and a config that draws it
    shared.top(generate(cfg, 0), 9)
    shared.top(generate(dataclasses.replace(cfg, k=2), 0), 2)
    with pytest.raises(ValueError, match="another market"):
        shared.top(generate(cfg, 1), 3)
    with pytest.raises(ValueError, match="another market"):
        shared.top(generate(dataclasses.replace(cfg, seed=5), 0), 3)
    with pytest.raises(ValueError, match="top-9"):
        shared.top(generate(cfg, 0), 10)


# -- the grouping key --

BASE = dict(n_doctors=120, n_hospitals=40, capacity=3, k=3,
            cone_override=0.3, seed=7)


@pytest.mark.parametrize("change", [
    dict(seed=8), dict(n_doctors=121), dict(n_hospitals=41, capacity=3),
    dict(capacity=2), dict(rating_shift=0.25), dict(cone_override=0.2),
    dict(cone_override=None), dict(capacity=tuple([3] * 39 + [4])),
])
def test_configs_of_other_markets_get_other_keys(change):
    assert market_key(MarketConfig(**BASE)) != \
        market_key(MarketConfig(**dict(BASE, **change)))


@pytest.mark.parametrize("one,other", [
    ({}, dict(k=5)), ({}, dict(setting="RequestInterview")),
    ({}, dict(setting="SchoolChoice")), ({}, dict(nu_d=0.5, nu_h=0.0)),
    ({}, dict(runs=3)), ({}, dict(a=2.0)),
    ({}, dict(capacity=tuple([2, 4] * 20))),
    # both cones clamp to the hospitals' whole rating range, [0, 1)
    (dict(cone_override=7.5), dict(cone_override=None)),
])
def test_configs_of_one_market_draw_it_alike(one, other):
    one = MarketConfig(**dict(BASE, **one))
    other = MarketConfig(**dict(BASE, **other))
    assert market_key(one) == market_key(other)
    for run in range(3):
        a, b = generate(one, run), generate(other, run)
        np.testing.assert_array_equal(a.doctor_ratings, b.doctor_ratings)
        np.testing.assert_array_equal(a.hospital_ratings, b.hospital_ratings)
        assert a.half_width == b.half_width
        assert a.private_dh_state == b.private_dh_state
