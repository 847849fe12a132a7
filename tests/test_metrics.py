import math

import numpy as np
import pytest

from conematch import metrics
from conematch.da import doctor_proposing_da
from conematch.market import (REQUEST_INTERVIEW, RESIDENCY, SCHOOL_CHOICE,
                              generate, make_config)
from conematch.metrics import (CSV_HEADER, aggregate, bound_check,
                               doctor_non_match_fraction, group_run, run_stats,
                               theorem_non_match_bounds, write_metrics_csv)
from conematch.strategy import (build_assignment, build_preferences,
                                select_interviews)


def one_run(seed=0, run=0, **kw):
    kw.setdefault("cone_override", 0.15)
    cfg = make_config(kw.pop("n", 100), kappa=kw.pop("kappa", 2),
                      k=kw.pop("k", 3), seed=seed, **kw)
    inst = generate(cfg, run)
    asg = select_interviews(inst)
    prefs = build_preferences(asg)
    m = doctor_proposing_da(*prefs, inst.capacities)
    return inst, asg, m, run_stats(asg, m)


def test_loss_arithmetic():
    inst, asg, m, st = one_run(seed=1)
    for d in np.flatnonzero(st.doctor_matched):
        expect = inst.doctor_ratings[d] + 2.0 - st.doctor_utility[d]
        assert st.doctor_loss[d] == pytest.approx(expect)
    # the worked example: utility 2.4 at rating 0.6 leaves loss 0.2
    assert (0.6 + 2.0) - 2.4 == pytest.approx(0.2)


def test_matched_loss_bounds():
    _, _, _, st = one_run(seed=2, n=200, kappa=2, k=4)
    losses = st.doctor_loss[st.doctor_matched]
    assert np.all(losses > -1.0) and np.all(losses < 3.0)


def test_unmatched_carry_full_benchmark():
    _, _, _, st = one_run(seed=3, n=60, kappa=1, k=2, cone_override=0.05)
    unmatched = ~st.doctor_matched
    if unmatched.any():
        d = int(np.flatnonzero(unmatched)[0])
        assert st.doctor_loss[d] == pytest.approx(st.doctor_rating[d] + 2.0)
        assert math.isnan(st.doctor_utility[d])


def test_empty_hospital_flagged():
    inst, asg, m, st = one_run(seed=4, n=40, kappa=5, k=2, cone_override=0.05)
    empty = st.hospital_fill == 0
    if empty.any():
        h = int(np.flatnonzero(empty)[0])
        assert not st.hospital_fully_matched[h]
        assert math.isnan(st.hospital_loss[h])


def test_accounting_identity():
    _, _, m, st = one_run(seed=5, n=150, kappa=3, k=3)
    assert int(st.hospital_fill.sum()) == int(st.doctor_matched.sum())
    assert int((m.doctor_of >= 0).sum()) == int(st.doctor_matched.sum())


@pytest.mark.parametrize("setting", [RESIDENCY, REQUEST_INTERVIEW])
def test_hospital_loss_sums_seats_in_ascending_doctor_id(setting):
    # each hospital's seat utilities are added one at a time in ascending
    # doctor id: run_stats matches that loop bit for bit, and a loop in
    # descending id differs somewhere, so the order is pinned
    cfg = make_config(600, kappa=5, k=5, cone_override=0.3, seed=7,
                      setting=setting)
    inst = generate(cfg, 0)
    asg = build_assignment(inst)
    if setting == REQUEST_INTERVIEW:
        assert (asg.hospital_rank < 0).any()     # unranked edges
    m = doctor_proposing_da(*build_preferences(asg), inst.capacities)
    got = run_stats(asg, m).hospital_loss

    def loop(order):
        want = np.full(cfg.n_hospitals, np.nan)
        for h in range(cfg.n_hospitals):
            seats = order(np.flatnonzero(m.doctor_of == h).tolist())
            if seats:
                total = 0.0
                for d in seats:
                    total += float(asg.u_hosp[asg.edge_index([d], [h])[0]])
                want[h] = inst.hospital_ratings[h] + 1.0 - total / len(seats)
        return want

    assert got.tobytes() == loop(sorted).tobytes()
    assert got.tobytes() != loop(lambda ds: sorted(ds, reverse=True)).tobytes()


def test_unstable_matching_refused():
    inst, asg, m, _ = one_run(seed=6)
    swapped = np.flatnonzero(m.doctor_of >= 0)[:2]
    if swapped.size == 2:
        a, b = swapped
        if m.doctor_of[a] != m.doctor_of[b]:
            m.doctor_of[[a, b]] = m.doctor_of[[b, a]]
            with pytest.raises((ValueError, AssertionError)):
                run_stats(asg, m)


def test_non_bottommost_flag():
    inst, _, _, st = one_run(seed=7)
    cut = inst.doctor_range[0] + inst.half_width
    assert np.array_equal(st.doctor_non_bottommost, inst.doctor_ratings >= cut)


def nearest_rank(values, pct):
    # the percentile rule aggregate applies to each group's row
    return float(metrics._nearest_rank_rows(np.sort(values)[None, :],
                                            np.array([values.size]), pct)[0])


def test_nearest_rank_percentiles():
    vals = np.arange(1.0, 101.0)
    assert nearest_rank(vals, 10.0) == 10.0
    assert nearest_rank(vals, 90.0) == 90.0
    assert nearest_rank(vals, 100.0) == 100.0
    assert nearest_rank(np.array([5.0]), 10.0) == 5.0


def test_aggregate_single_run_collapses_whiskers():
    _, _, _, st = one_run(seed=8, n=100, kappa=2, k=3)
    series = aggregate([group_run(st)])
    s = series[metrics.DOCTOR_MATCH_RATE]
    finite = np.isfinite(s.mean)
    assert np.allclose(s.p10[finite], s.mean[finite])
    assert np.allclose(s.p90[finite], s.mean[finite])


def test_aggregate_two_run_mean():
    runs = [one_run(seed=9, run=r)[3] for r in range(2)]
    series = aggregate([group_run(s) for s in runs])
    s = series[metrics.DOCTOR_MATCH_RATE]
    # cross-run mean of per-run group rates, computed independently
    for g in range(s.mean.size):
        per_run = []
        for st in runs:
            order = np.argsort(-st.doctor_rating, kind="stable")
            chunk = st.doctor_matched[order[g * 10:(g + 1) * 10]]
            per_run.append(chunk.mean())
        assert s.mean[g] == pytest.approx(np.mean(per_run))


def test_aggregate_constant_zero_losses():
    base = one_run(seed=10)[3]
    runs = []
    for r in range(5):
        st = one_run(seed=10, run=r)[3]
        st.doctor_loss = np.zeros_like(st.doctor_loss)
        st.doctor_matched = np.ones_like(st.doctor_matched)
        runs.append(st)
    series = aggregate([group_run(s) for s in runs])
    s = series[metrics.DOCTOR_LOSS]
    assert np.allclose(s.mean, 0.0) and np.allclose(s.p90, 0.0)


def test_aggregate_rejects_mixed_configs():
    a = one_run(seed=11)[3]
    b = one_run(seed=12)[3]
    with pytest.raises(ValueError):
        aggregate([group_run(a), group_run(b)])


def test_groups_partition_agents():
    _, _, _, st = one_run(seed=13, n=95, kappa=1, k=3)
    series = aggregate([group_run(st)])
    s = series[metrics.DOCTOR_MATCH_RATE]
    assert s.group_lo[0] == 1
    assert s.group_hi[-1] == 95
    assert s.mean.size == 10   # 9 full groups + one of 5


def test_csv_schema_and_reproducibility(tmp_path):
    inst, _, _, st = one_run(seed=14)
    series = aggregate([group_run(st)])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(p1, series, st.config, inst.half_width)
    write_metrics_csv(p2, series, st.config, inst.half_width)
    text = p1.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert text == p2.read_text()
    assert ",0.15," in text.splitlines()[1]     # cone column is the half-width


def test_theorem_bound_values():
    d5, _ = theorem_non_match_bounds("Residency", 5, 5.0, 5)
    d12, h12 = theorem_non_match_bounds("Residency", 12, 5.0, 5)
    assert d5 == pytest.approx(0.08406841052122764, rel=1e-12)
    assert d12 == pytest.approx(0.008510448922666816, rel=1e-12)
    assert h12 == pytest.approx(math.exp(-0.375 * 5 * math.sqrt(12 * math.log(12) / 21)),
                                rel=1e-12)
    s5, _ = theorem_non_match_bounds(SCHOOL_CHOICE, 5, 5.0, 5)
    assert s5 == pytest.approx(math.exp(-20.0 / 21.0), rel=1e-12)


def test_bound_check_report_shape():
    runs5 = [one_run(seed=15, run=r, n=200, kappa=2, k=3)[3] for r in range(3)]
    report = bound_check({3: runs5})
    entry = report["per_k"][3]
    assert 0.0 <= entry["doctor_non_match"] <= 1.0
    assert entry["doctor_bound"] > 0
    assert report["monotone_in_k"] is True


def test_doctor_non_match_fraction_pooling():
    runs = [one_run(seed=16, run=r)[3] for r in range(2)]
    frac = doctor_non_match_fraction(runs)
    total = sum(int(s.doctor_non_bottommost.sum()) for s in runs)
    bad = sum(int((~s.doctor_matched[s.doctor_non_bottommost]).sum()) for s in runs)
    assert frac == pytest.approx(bad / total)
