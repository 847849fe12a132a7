import json
import math

import numpy as np
import pytest

from conematch import market
from conematch.market import (ConfigError, MarketConfig, derive_alpha,
                              generate, make_config, shift_ranges)


def test_config_validation():
    with pytest.raises(ConfigError):
        MarketConfig(n_doctors=0, n_hospitals=5)
    with pytest.raises(ConfigError):
        MarketConfig(n_doctors=5, n_hospitals=2, k=3)   # k > hospitals
    with pytest.raises(ConfigError):
        MarketConfig(n_doctors=5, n_hospitals=2, k=2, capacity=0)
    with pytest.raises(ConfigError):
        MarketConfig(n_doctors=5, n_hospitals=2, k=2, nu_d=1.5)
    with pytest.raises(ConfigError):
        MarketConfig(n_doctors=5, n_hospitals=2, k=2, setting="Bogus")
    MarketConfig(n_doctors=5, n_hospitals=2, k=2, capacity=(2, 3))


def test_derive_alpha_residency():
    cfg = MarketConfig(n_doctors=10, n_hospitals=10, k=5, a=5.0)
    # sqrt(2*(4a+1)*ln k / k) at a=5, k=5
    assert derive_alpha(cfg) == pytest.approx(3.676857144960413, rel=1e-12)


def test_derive_alpha_school_cancellation():
    cfg = MarketConfig(n_doctors=50, n_hospitals=42, k=42,
                       setting=market.SCHOOL_CHOICE)
    # 2*(4a+1) = 42 = k, so alpha collapses to ln 42
    assert derive_alpha(cfg) == pytest.approx(math.log(42), rel=1e-12)


def test_cone_override_is_absolute_half_width():
    cfg = MarketConfig(n_doctors=10, n_hospitals=10, k=5, cone_override=0.15)
    inst = generate(cfg, 0)
    assert inst.half_width == pytest.approx(0.15)
    assert inst.alpha_eff == pytest.approx(0.03)
    assert not inst.cone_clamped


def test_alpha_and_cone_override_together_are_refused():
    # derive_alpha would return alpha while the cone ran at cone_override
    with pytest.raises(ConfigError, match="alpha or cone_override, not both"):
        MarketConfig(n_doctors=10, n_hospitals=10, k=5, alpha=0.05,
                     cone_override=0.4)
    assert derive_alpha(MarketConfig(n_doctors=10, n_hospitals=10, k=5,
                                     alpha=0.05)) == 0.05


def test_alpha_requires_k_at_least_2():
    with pytest.raises(ConfigError):
        cfg = MarketConfig(n_doctors=10, n_hospitals=10, k=1)
        derive_alpha(cfg)


def test_derived_alpha_clamps_cone():
    # derived alpha far above 1 at small k: the cone covers the whole range
    cfg = MarketConfig(n_doctors=10, n_hospitals=10, k=5)
    inst = generate(cfg, 0)
    assert inst.cone_clamped
    assert inst.half_width == pytest.approx(1.0)


def test_generate_deterministic_and_run_separated():
    cfg = make_config(40, kappa=2, k=3, cone_override=0.3, seed=7)
    a = generate(cfg, 0)
    b = generate(cfg, 0)
    c = generate(cfg, 1)
    assert np.array_equal(a.doctor_ratings, b.doctor_ratings)
    assert np.array_equal(a.hospital_ratings, b.hospital_ratings)
    assert a.private_dh(3, 5) == b.private_dh(3, 5)
    assert not np.array_equal(a.doctor_ratings, c.doctor_ratings)


def test_value_oracle_pure_and_pairwise():
    cfg = make_config(40, kappa=2, k=3, cone_override=0.3, seed=11)
    inst = generate(cfg, 2)
    v = inst.private_dh(np.arange(10), 4)
    assert np.array_equal(v, inst.private_dh(np.arange(10), 4))
    assert inst.interview_dh(1, 2) != inst.interview_dh(2, 1)
    # replicate salts give fresh, deterministic draws
    assert inst.interview_dh(1, 2, salt=5) != inst.interview_dh(1, 2)
    assert inst.interview_dh(1, 2, salt=5) == inst.interview_dh(1, 2, salt=5)


def test_rating_mean_clt():
    cfg = make_config(2000, kappa=5, k=5, cone_override=0.15, seed=3)
    inst = generate(cfg, 0)
    assert 0.48 <= inst.doctor_ratings.mean() <= 0.52


def test_ratings_distinct():
    cfg = make_config(2000, kappa=1, k=5, cone_override=0.15, seed=5)
    inst = generate(cfg, 0)
    assert np.unique(inst.doctor_ratings).size == 2000
    assert np.unique(inst.hospital_ratings).size == 2000


def test_shift_ranges():
    equal = make_config(100, kappa=1, k=3, cone_override=0.3)
    assert shift_ranges(equal) == ((0.0, 1.0), (0.0, 1.0))

    extra_doctors = MarketConfig(n_doctors=125, n_hospitals=100, capacity=1,
                                 k=3, cone_override=0.3)
    (d_lo, d_hi), (h_lo, h_hi) = shift_ranges(extra_doctors)
    assert (d_lo, d_hi) == (0.0, 1.25)
    assert (h_lo, h_hi) == (0.25, 1.25)
    assert d_hi - d_lo == pytest.approx(1.25)
    assert h_hi - h_lo == pytest.approx(1.0)

    extra_places = MarketConfig(n_doctors=100, n_hospitals=125, capacity=1,
                                k=3, cone_override=0.3)
    (d_lo, d_hi), (h_lo, h_hi) = shift_ranges(extra_places)
    assert (h_lo, h_hi) == (0.0, 1.25)
    assert (d_lo, d_hi) == (0.25, 1.25)


def test_shifted_instance_ranges_respected():
    cfg = MarketConfig(n_doctors=125, n_hospitals=100, capacity=1, k=3,
                       cone_override=0.3, seed=1)
    inst = generate(cfg, 0)
    assert inst.doctor_ratings.min() >= 0.0
    assert inst.doctor_ratings.max() < 1.25
    assert inst.hospital_ratings.min() >= 0.25
    assert inst.hospital_ratings.max() < 1.25


def test_config_file_round_trip():
    # to_dict written as JSON reads back to the same config
    for cfg in (make_config(30, kappa=3, k=2, cone_override=0.3, seed=9, runs=4),
                MarketConfig(n_doctors=6, n_hospitals=3, capacity=(1, 2, 3), k=2,
                             cone_override=0.3)):
        assert MarketConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_from_dict_derives_a_missing_n_hospitals():
    # n_doctors / kappa, rounded half to even and at least 1
    derived = MarketConfig.from_dict(json.loads(
        '{"n_doctors": 41, "capacity": 2, "k": 3, "cone_override": 0.3}'))
    assert derived == make_config(41, kappa=2, k=3, cone_override=0.3)
    assert derived.n_hospitals == 20
    one = MarketConfig.from_dict({"n_doctors": 1, "capacity": 3, "k": 1,
                                  "cone_override": 0.3})
    assert one.n_hospitals == 1
    with pytest.raises(ConfigError):
        MarketConfig.from_dict({"n_hospitals": 3, "k": 2})


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        MarketConfig.from_dict({"n_doctors": 5, "n_hospitals": 5, "k": 2,
                                "mystery": 1})


def test_private_values_marginally_uniform():
    # KS statistic of 10,000 private values against uniform[0,1),
    # 1% critical value
    cfg = make_config(200, kappa=2, k=3, cone_override=0.3, seed=17)
    inst = generate(cfg, 0)
    i = np.repeat(np.arange(100), 100)
    j = np.tile(np.arange(100), 100)
    x = np.sort(inst.private_dh(i, j))
    n = x.size
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - x), np.max(x - np.arange(n) / n))
    assert ks < 1.6276 / np.sqrt(n)


def test_private_and_interview_values_uncorrelated():
    cfg = make_config(200, kappa=2, k=3, cone_override=0.3, seed=19)
    inst = generate(cfg, 0)
    i = np.repeat(np.arange(100), 100)
    j = np.tile(np.arange(100), 100)
    v = inst.private_dh(i, j)
    w = inst.interview_dh(i, j)
    assert abs(np.corrcoef(v, w)[0, 1]) < 0.03


def test_band_queries():
    cfg = make_config(200, kappa=1, k=4, cone_override=0.2, seed=13)
    inst = generate(cfg, 0)
    ids = inst.hospitals_in_band(0.4, 0.6)
    mask = (inst.hospital_ratings >= 0.4) & (inst.hospital_ratings < 0.6)
    assert set(ids) == set(np.flatnonzero(mask))


def test_capacities_must_sum_within_int64():
    # every entry fits int64, but total_places and the oracle would wrap the
    # sum, whether the capacities are a vector or one uniform value
    base = dict(n_doctors=4, n_hospitals=2, k=2, cone_override=0.3)
    for capacity in ((2 ** 62, 2 ** 62), (market.INT64_MAX, 1), 2 ** 62):
        with pytest.raises(ConfigError, match="sum"):
            MarketConfig(capacity=capacity, **base)
    with pytest.raises(ConfigError, match="sum"):
        MarketConfig.from_dict(dict(base, capacity=[2 ** 62, 2 ** 62]))
    for capacity in ((market.INT64_MAX - 1, 1), 2 ** 62 - 1):
        cfg = MarketConfig(capacity=capacity, **base)
        assert cfg.total_places() == sum(cfg.capacities().tolist())
