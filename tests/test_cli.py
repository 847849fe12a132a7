import gc
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conematch import analysis, cli, da, market, metrics
from conematch.market import (ConfigError, MarketConfig, RESIDENCY, SCHOOL_CHOICE,
                              make_config)
from conematch.strategy import InterviewAssignment

from legacy_edges import legacy_expand_grid


def write_config(tmp_path, **overrides):
    raw = {"n_doctors": 30, "n_hospitals": 10, "capacity": 3, "k": 2,
           "cone_override": 0.2, "seed": 5, "runs": 3}
    raw.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def test_verify_only_passes():
    assert cli.main(["--verify-only", "--seed", "3"]) == cli.EXIT_OK


def test_verify_only_prints_to_the_stdout_of_the_call(capsys):
    assert cli.verify_only(3) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 + 3 + 1
    assert all(line.startswith("PASS  ") for line in lines[:-1])
    assert lines[-1] == "ok"


def _failed_checks(capsys):
    # the check each FAIL line of one verify_only(3) call names
    assert cli.verify_only(3) == cli.EXIT_AUDIT
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"FAILURES: {len(lines) - 1}"
    assert all(line.startswith("FAIL  ") for line in lines[:-1])
    return [line.rsplit("check=", 1)[1] for line in lines[:-1]]


def test_verify_only_runs_the_campaign_audits(monkeypatch, capsys):
    # it audits through _run_one, so a campaign check that fails fails here
    monkeypatch.setattr(analysis, "rural_hospital_invariant",
                        lambda *args: False)
    assert _failed_checks(capsys) == ["rural-hospital"] * 9


def test_verify_only_names_a_failed_order_invariance(monkeypatch, capsys):
    monkeypatch.setattr(cli, "order_invariance_check", lambda *args: False)
    assert _failed_checks(capsys) == ["order-invariance"] * 9


def test_verify_only_runs_both_double_cuts_on_every_market(monkeypatch,
                                                          capsys):
    sides = []
    real = cli.double_cut.run_double_cuts

    def recording(cuts):
        for prefs, scenario in cuts:
            cfg = prefs[0].source.instance.config
            sides.append((cfg.seed, cfg.n_doctors, scenario.focal_side))
        return real(cuts)
    monkeypatch.setattr(cli.double_cut, "run_double_cuts", recording)
    assert cli.verify_only(3) == cli.EXIT_OK
    markets = [(3 + t, 6) for t in range(6)] + [(3 + t, 60) for t in range(3)]
    assert sides == [m + (side,) for m in markets
                     for side in ("hospital", "doctor")]


def test_verify_only_takes_the_largest_seed():
    # its trial seeds wrap past 2**64 - 1 instead of leaving the range
    assert cli.main(["--verify-only", "--seed", str(2 ** 64 - 1)]) == cli.EXIT_OK


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("mode", [["--verify-only"], ["--preset", "school"]])
def test_out_of_range_seed_is_a_configuration_error(mode, seed, capsys,
                                                    tmp_path):
    rc = cli.main(mode + ["--seed", str(seed), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CONFIG
    assert err.startswith("configuration error: --seed")


def test_small_campaign_writes_csv_and_summary(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["--config", str(path), "--out", str(out),
                   "--audit-sample", "1.0"])
    assert rc == cli.EXIT_OK
    csvs = [p for p in out.glob("*.csv") if "double_cut" not in p.name]
    assert len(csvs) == 1
    lines = csvs[0].read_text().splitlines()
    assert lines[0] == ("group_lo,group_hi,metric,mean,p10,p90,runs,"
                        "setting,n,k,kappa,cone,seed")
    summary = (out / "summary.txt").read_text()
    assert "audits=ok" in summary and "hash=" in summary
    # sampled double-cut audits append surplus-report rows
    dc = list(out.glob("*_double_cut.csv"))
    assert len(dc) == 1
    dc_lines = dc[0].read_text().splitlines()
    assert dc_lines[0].startswith("focal_side,focal,doctors,hospitals")
    assert len(dc_lines) == 1 + 2 * 3   # two scenarios per audited run


def test_campaign_reproducible(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["--config", str(path), "--out", str(out1)]) == cli.EXIT_OK
    assert cli.main(["--config", str(path), "--out", str(out2)]) == cli.EXIT_OK
    c1 = sorted(out1.glob("*.csv"))[0].read_bytes()
    c2 = sorted(out2.glob("*.csv"))[0].read_bytes()
    assert c1 == c2


def test_grid_expansion_crosses_lists():
    configs = cli.expand_grid({"n_doctors": 40, "capacity": [1, 2],
                               "k": [2, 3], "cone_override": 0.3,
                               "runs": 1, "seed": 0})
    assert len(configs) == 4
    assert {(c.kappa, c.k) for c in configs} == {(1, 2), (1, 3), (2, 2), (2, 3)}
    # n_hospitals derived as n / kappa when omitted
    assert {c.n_hospitals for c in configs if c.kappa == 2} == {20}


def test_grid_capacity_vector():
    configs = cli.expand_grid({"n_doctors": 6, "n_hospitals": 3,
                               "capacity": [[1, 2, 3]], "k": 2,
                               "cone_override": 0.5, "runs": 1, "seed": 0})
    assert len(configs) == 1
    assert configs[0].capacity == (1, 2, 3)
    # every list entry is a vector, whichever entry comes first
    mixed = cli.expand_grid({"n_doctors": 4, "capacity": [[2, 2], 2, [1, 3]],
                             "k": 2, "cone_override": 0.5})
    assert [c.capacity for c in mixed] == [(2, 2), 2, (1, 3)]
    assert [c.n_hospitals for c in mixed] == [2, 2, 2]


def test_unknown_key_exits_config_error(tmp_path):
    path = write_config(tmp_path, bogus=1)
    assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG


def test_no_inputs_exits_config_error():
    assert cli.main([]) == cli.EXIT_CONFIG


def test_presets_cover_settings():
    for name in cli.PRESETS:
        configs = cli.preset_configs(name, seed=1, runs=2)
        assert configs
        for c in configs:
            assert c.runs == 2
    settings = {c.setting for c in cli.preset_configs("paper-2000", 1, 1)}
    assert settings == {RESIDENCY, "RequestInterview"}
    assert all(c.setting == SCHOOL_CHOICE
               for c in cli.preset_configs("school", 1, 1))


def test_preset_campaign_smoke(tmp_path):
    out = tmp_path / "preset"
    rc = cli.main(["--preset", "paper-500", "--runs", "2", "--seed", "1",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert len(list(out.glob("*.csv"))) == 2   # k=5 and k=12 configs


def test_paper_2000_preset_emits_figure_datasets(tmp_path):
    out = tmp_path / "p2000"
    rc = cli.main(["--preset", "paper-2000", "--runs", "1", "--seed", "1",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 2    # Residency and RequestInterview
    text = csvs[0].read_text()
    for metric in ("doctor_match_rate", "doctor_loss",
                   "hospital_full_rate", "hospital_loss"):
        assert metric in text


def test_deviation_csv_written(tmp_path):
    path = write_config(tmp_path, runs=2)
    out = tmp_path / "dev"
    campaign = cli.Campaign(configs=cli.expand_grid(json.loads(path.read_text())),
                            out_dir=out, deviation_focals=2,
                            deviation_replicates=2)
    assert cli.run_campaign(campaign) == cli.EXIT_OK
    dev_files = list(out.glob("*_deviation.csv"))
    assert len(dev_files) == 1
    lines = dev_files[0].read_text().splitlines()
    assert lines[0] == "focal,kind,param,gain_mean,gain_se,replicates"
    assert len(lines) > 1


def _generate_calls(monkeypatch):
    calls = []
    real = cli.generate

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(cli, "generate", counting)
    return calls


def test_preset_zero_runs_exits_config_error(tmp_path, monkeypatch):
    calls = _generate_calls(monkeypatch)
    rc = cli.main(["--preset", "paper-500", "--runs", "0",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG and not calls


def test_group_size_below_one_exits_config_error(tmp_path, monkeypatch):
    calls = _generate_calls(monkeypatch)
    rc = cli.main(["--config", str(write_config(tmp_path)), "--group-size", "0",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG and not calls


def test_group_size_beyond_int64_exits_config_error(tmp_path, monkeypatch,
                                                    capsys):
    calls = _generate_calls(monkeypatch)
    rc = cli.main(["--config", str(write_config(tmp_path)), "--group-size",
                   "99999999999999999999999", "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG and not calls
    assert "configuration error: --group-size" in capsys.readouterr().err


def test_group_larger_than_every_side_pads_to_the_agents(tmp_path,
                                                          monkeypatch):
    # with 6 doctors and 3 hospitals, a group of 10**6 is each whole side:
    # its rows are no wider than 6, and its CSV is that of a group of 6
    config = write_config(tmp_path, n_doctors=6, n_hospitals=3, capacity=2,
                          k=2, cone_override=0.4, runs=1)
    widths, rank_groups = [], metrics._rank_groups

    def recording(*args):
        out = rank_groups(*args)
        widths.append(out.shape[1])
        return out
    monkeypatch.setattr(metrics, "_rank_groups", recording)

    def csv_bytes(group_size):
        out = tmp_path / str(group_size)
        assert cli.main(["--config", str(config), "--out", str(out),
                         "--group-size", str(group_size)]) == cli.EXIT_OK
        return {p.name: p.read_bytes() for p in out.glob("*.csv")}

    wide = csv_bytes(10 ** 6)
    assert wide and wide == csv_bytes(6)
    assert widths and max(widths) <= 6


@pytest.mark.parametrize("rate", ["nan", "-0.1", "1.5"])
def test_audit_sample_out_of_range_exits_config_error(tmp_path, monkeypatch,
                                                      rate):
    calls = _generate_calls(monkeypatch)
    rc = cli.main(["--config", str(write_config(tmp_path)),
                   "--audit-sample", rate, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG and not calls


@pytest.mark.parametrize("option", [dict(group_size=0),
                                    dict(group_size=10 ** 30),
                                    dict(audit_sample=float("nan")),
                                    dict(audit_sample=-1.0),
                                    dict(audit_sample=2.0),
                                    dict(audit_sample="0.5"),
                                    dict(audit_sample=True),
                                    dict(group_size=2.5),
                                    dict(group_size=True),
                                    dict(deviation_focals=2.5),
                                    dict(deviation_focals=True),
                                    dict(deviation_focals=-1),
                                    dict(deviation_focals=2,
                                         deviation_replicates=0),
                                    dict(deviation_replicates=2 ** 63),
                                    dict(deviation_replicates=False)])
def test_python_route_refuses_the_flag_ranges(tmp_path, monkeypatch, option):
    # a Campaign built in Python meets the CLI's ranges and types before
    # any market
    calls = _generate_calls(monkeypatch)
    configs = cli.expand_grid(json.loads(write_config(tmp_path).read_text()))
    with pytest.raises(ConfigError,
                       match="must (lie in|be an integer|be a finite number)"):
        cli.run_campaign(cli.Campaign(configs=configs,
                                      out_dir=tmp_path / "out", **option))
    assert not calls and not (tmp_path / "out").exists()


def test_alpha_beside_cone_override_exits_config_error(tmp_path, monkeypatch,
                                                      capsys):
    calls = _generate_calls(monkeypatch)
    rc = cli.main(["--config", str(write_config(tmp_path, alpha=0.05)),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG and not calls
    assert "alpha or cone_override, not both" in capsys.readouterr().err


def test_k1_without_cone_exits_config_error(tmp_path, monkeypatch):
    calls = _generate_calls(monkeypatch)
    path = tmp_path / "k1.json"
    path.write_text(json.dumps({"n_doctors": 30, "n_hospitals": 10,
                                "capacity": 3, "k": 1, "seed": 5, "runs": 2}))
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG and not calls


def test_top_level_array_exits_config_error(tmp_path, monkeypatch):
    calls = _generate_calls(monkeypatch)
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"n_doctors": 30, "n_hospitals": 10}]))
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG and not calls


def test_empty_list_value_exits_config_error(tmp_path, monkeypatch):
    calls = _generate_calls(monkeypatch)
    rc = cli.main(["--config", str(write_config(tmp_path, k=[])),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG and not calls


@pytest.mark.parametrize("field,value", [
    ("capacity", 0),             # n_hospitals' default divides by it
    ("k", 5.5),
    ("cone_override", float("nan")),
    ("n_doctors", True),         # a bool is not one doctor
    ("rating_shift", -1),        # every doctor would share one rating
    ("rating_shift", -1.0),
    ("n_doctors", 0),
    ("runs", 0),
    ("k", 0),
    ("k", 11),                   # n_hospitals (30 / 3) plus one
    ("seed", 2 ** 64),
    ("nu_d", 1.0000001),
    ("capacity", [[]]),
    ("capacity", [[1, 2]]),      # two entries for n / kappa = 15 hospitals
])
def test_bad_field_value_exits_config_error(tmp_path, monkeypatch, field, value):
    calls = _generate_calls(monkeypatch)
    path = write_config(tmp_path, **{field: value})
    raw = json.loads(path.read_text())
    del raw["n_hospitals"]
    path.write_text(json.dumps(raw))
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG and not calls


def _engine_calls(monkeypatch, cfg, audit_sample):
    # DA runs by either engine: the FIFO loop (_engine) or the round
    # engine (_rounds), which runs to its last proposer on its own
    calls = []
    for name in ("_engine", "_rounds"):
        def counting(*args, real=getattr(da, name)):
            calls.append(1)
            return real(*args)
        monkeypatch.setattr(da, name, counting)
    cli._run_one(cfg, 0, audit_sample, cli.config_slug(cfg))
    return len(calls)


@pytest.mark.parametrize("setting", [RESIDENCY, SCHOOL_CHOICE])
def test_audited_run_computes_each_orientation_once(monkeypatch, setting):
    # base DA, hospital-optimal DA and one truncated run per scenario
    cfg = make_config(120, kappa=3, k=5, cone_override=0.3, seed=3,
                      setting=setting)
    assert _engine_calls(monkeypatch, cfg, 1.0) <= 4


def test_unaudited_residency_run_is_one_da(monkeypatch):
    cfg = make_config(120, kappa=3, k=5, cone_override=0.3, seed=3)
    assert _engine_calls(monkeypatch, cfg, 0.0) == 1


@pytest.mark.parametrize("audit_sample", [0.0, 1.0])
def test_run_without_deviation_csv_builds_no_preference_lists(
        monkeypatch, audit_sample):
    # both DA orientations and the double-cut runs read the edge table's
    # arrays: no EdgeLists view builds its lists, ranks or utils, and the
    # double cuts run on the run's own two views
    views = []
    real = da.EdgeLists.__init__

    def keeping(self, *args):
        views.append(self)
        real(self, *args)
    monkeypatch.setattr(da.EdgeLists, "__init__", keeping)
    cfg = make_config(120, kappa=3, k=5, cone_override=0.3, seed=3)
    _, assignment, rows = cli._run_one(cfg, 0, audit_sample,
                                       cli.config_slug(cfg))
    assert len(rows) == (2 if audit_sample else 0)
    assert len(views) == 2
    for side in views:
        assert side.source is assignment
        assert not {"lists", "ranks", "utils"} & vars(side).keys()


@pytest.mark.parametrize("setting", [RESIDENCY, SCHOOL_CHOICE])
def test_audited_run_computes_each_matchings_edges_once(monkeypatch, setting):
    # the engine hands back the matched edges of the base matching, the
    # hospital-optimal one and each cut run; the blocking scan, run_stats,
    # the surplus rows and the dominance checks read those, and nothing
    # looks an edge up again
    calls = []
    for name in ("matched_edges", "edge_index"):
        def counting(self, *args, real=getattr(InterviewAssignment, name)):
            calls.append(name)
            return real(self, *args)
        monkeypatch.setattr(InterviewAssignment, name, counting)
    cfg = make_config(120, kappa=3, k=5, cone_override=0.3, seed=3,
                      setting=setting)
    _, _, rows = cli._run_one(cfg, 0, 1.0, cli.config_slug(cfg))
    assert len(rows) == 2
    assert calls == []


def test_paper_campaign_makes_one_engine_call_per_orientation(tmp_path,
                                                              monkeypatch):
    # four configs, every run audited: one doctor DA call, one hospital DA
    # call and one call per double-cut orientation over all four, where
    # each config alone makes four; the market is drawn once, and no edge
    # is looked up outside the engine
    calls = []
    for module, name in ((da, "_rounds"), (cli, "generate"),
                         (InterviewAssignment, "matched_edges"),
                         (InterviewAssignment, "edge_index")):
        def counting(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, counting)
    # the paper-campaign workload's four configs, which draw one market
    grid = dict(n_doctors=200, capacity=5, cone_override=0.3, seed=42, runs=1)
    configs = (cli.expand_grid(dict(grid, setting="Residency", k=[5, 12]))
               + cli.expand_grid(dict(grid, setting="RequestInterview", k=5))
               + cli.expand_grid(dict(grid, setting="SchoolChoice", k=5)))
    campaign = cli.Campaign(configs=configs, out_dir=tmp_path, audit_sample=1.0)
    assert cli.run_campaign(campaign) == cli.EXIT_OK
    assert calls.count("_rounds") == 4
    assert calls.count("generate") == 1
    assert calls.count("matched_edges") == calls.count("edge_index") == 0
    assert len(list(tmp_path.glob("*_double_cut.csv"))) == 4


def test_unaudited_residency_campaign_runs_no_hospital_proposing_da(
        tmp_path, monkeypatch):
    # no audit reads the hospital-optimal matching: every engine call has
    # one-slot proposers, the doctors, one call per run for both configs
    slots = []
    real = da._rounds

    def recording(*args):
        slots.append(int(args[5].max()))
        return real(*args)
    monkeypatch.setattr(da, "_rounds", recording)
    configs = cli.expand_grid(dict(n_doctors=120, capacity=3, k=[3, 5],
                                   cone_override=0.3, seed=4, runs=2))
    campaign = cli.Campaign(configs=configs, out_dir=tmp_path)
    assert cli.run_campaign(campaign) == cli.EXIT_OK
    assert slots == [1, 1]


SWEEP_VALUES = [True, 0, -1, 1.5, "x", None, [], {}, float("nan"),
                float("inf")]


@pytest.mark.parametrize("field", [f.name for f in fields(MarketConfig)])
def test_config_value_sweep_never_ends_in_a_traceback(tmp_path, capsys, field):
    # every JSON value type in every field, with n_hospitals given and
    # derived from n / kappa: the campaign runs or exits 2
    for derived in (False, True):
        for value in SWEEP_VALUES:
            raw = {"n_doctors": 6, "n_hospitals": 3, "capacity": 2, "k": 2,
                   "cone_override": 0.4, "seed": 5, "runs": 1, field: value}
            if derived and field != "n_hospitals":
                del raw["n_hospitals"]
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(raw))     # NaN, Infinity as json writes them
            rc = cli.main(["--config", str(path), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG), (field, value, err)
            assert "Traceback" not in err, (field, value)


def test_huge_integers_and_numpy_scalars_end_in_a_config_or_exit_2(
        tmp_path, capsys):
    # an integer too large for a float in a real field, and a capacity that
    # no int64 holds, are refused with exit 2; one below 2**63 is accepted
    # where the capacities' sum fits int64 too
    base = {"n_doctors": 6, "n_hospitals": 3, "capacity": 2, "k": 2,
            "cone_override": 0.4, "runs": 1}
    for field, value in (("a", 10 ** 400), ("capacity", 2 ** 63),
                         ("capacity", [[2, 2 ** 63, 2]])):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(base, **{field: value})))
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG, (field, err)
        assert "Traceback" not in err and f"{field} must" in err, (field, err)
    big = MarketConfig.from_dict(dict(base, n_hospitals=1, k=1,
                                      capacity=2 ** 63 - 1))
    assert big.capacities().tolist() == [2 ** 63 - 1]
    # runs stops at 2**63 - 1 too, so config_hash can write every config
    for runs in (2 ** 63, 10 ** 5000):
        with pytest.raises(ConfigError, match="runs must"):
            make_config(6, kappa=2, k=2, cone_override=0.4, runs=runs)
    assert cli.config_hash(make_config(6, kappa=2, k=2, cone_override=0.4,
                                       runs=2 ** 63 - 1))
    # a numpy scalar is stored as the Python number it holds
    numpy_cfg = make_config(np.int64(40), kappa=2, k=3, cone_override=0.3)
    plain_cfg = make_config(40, kappa=2, k=3, cone_override=0.3)
    assert type(numpy_cfg.n_doctors) is int and type(numpy_cfg.n_hospitals) is int
    assert numpy_cfg.to_dict() == plain_cfg.to_dict()
    assert cli.config_hash(numpy_cfg) == cli.config_hash(plain_cfg)
    assert cli.config_slug(numpy_cfg) == cli.config_slug(plain_cfg)
    campaign = cli.Campaign(configs=[numpy_cfg], out_dir=tmp_path / "np")
    assert cli.run_campaign(campaign) == cli.EXIT_OK
    scalars = MarketConfig(n_doctors=np.int64(6), n_hospitals=np.int32(3),
                           capacity=(np.int64(2),) * 3, k=np.int64(2),
                           a=np.float32(2.5), nu_d=np.float64(0.5),
                           seed=np.uint64(7), cone_override=0.4)
    assert all(type(v) in (int, float, str, tuple, type(None))
               for v in scalars.to_dict().values())
    assert all(type(c) is int for c in scalars.capacity)


FUZZ_CASES = 4000
# 10 ** 5000 has more digits than str() writes, so json.dumps in
# config_hash cannot write it; no field may accept it
FUZZ_INTS = [0, 1, 2, 3, -1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 63 - 1,
             2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 10 ** 400,
             10 ** 5000, -(2 ** 63)]
FUZZ_FLOATS = [0.0, -0.0, 0.4, 1.0, 1.0000001, float("inf"), float("-inf"),
               float("nan"), 2.0 ** 53, 2.0 ** 63, 2.0 ** 64, 1e308, 5e-324]


def _fuzz_value(gen, depth=0):
    kind = gen.integers(6 if depth < 2 else 5)
    if kind == 0:
        return FUZZ_INTS[gen.integers(len(FUZZ_INTS))]
    if kind == 1:
        return FUZZ_FLOATS[gen.integers(len(FUZZ_FLOATS))]
    if kind == 2:
        return bool(gen.integers(2)) if gen.integers(2) else np.bool_(gen.integers(2))
    if kind == 3:
        return ["", "x", "2", "Residency", "nan"][gen.integers(5)]
    if kind == 4:       # a numpy scalar of a type that holds the value
        value = FUZZ_INTS[gen.integers(len(FUZZ_INTS))]
        for scalar in (np.int8, np.int32, np.int64, np.uint64):
            if np.iinfo(scalar).min <= value <= np.iinfo(scalar).max:
                return scalar(value)
        with np.errstate(over="ignore"):        # 1e308 is inf as a float32
            return (np.float64, np.float32)[gen.integers(2)](
                FUZZ_FLOATS[gen.integers(len(FUZZ_FLOATS))])
    return [_fuzz_value(gen, depth + 1) for _ in range(gen.integers(4))]


def test_config_fuzz_gives_a_usable_config_or_a_config_error():
    # FUZZ_CASES seeded cases: one to three fields of a valid config, every
    # market.FIELDS field and the setting among them, set to integers near
    # 2**53, 2**63 and 2**64 or of 401 or 5001 digits, floats (inf, NaN, -0.0),
    # bools, strings, nested lists and numpy scalars, with n_hospitals
    # given or derived.  Each reads to a config whose to_dict, hash and
    # slug work and which reads back from its JSON, or raises ConfigError.
    gen = np.random.default_rng(20261019)
    names = list(market.FIELDS) + ["setting"]
    outcomes = []
    for _ in range(FUZZ_CASES):
        raw = {"n_doctors": 6, "n_hospitals": 3, "capacity": 2, "k": 2,
               "cone_override": 0.4, "seed": 5, "runs": 1}
        for name in gen.choice(names, size=gen.integers(1, 4), replace=False):
            raw[str(name)] = _fuzz_value(gen)
        if gen.integers(2) and "n_hospitals" in raw:
            del raw["n_hospitals"]
        try:
            cfg = MarketConfig.from_dict(raw)
        except ConfigError:
            outcomes.append(False)
            continue
        data = cfg.to_dict()
        assert cli.config_hash(cfg) and cli.config_slug(cfg), raw
        assert MarketConfig.from_dict(json.loads(json.dumps(data))) == cfg, raw
        outcomes.append(True)
    assert len(outcomes) == FUZZ_CASES
    assert FUZZ_CASES // 20 < sum(outcomes) < FUZZ_CASES * 19 // 20


UNREADABLE_CONFIGS = {
    # each capacity fits int64, their sum does not (two uniform configs)
    "capacity-sum": b'{"n_doctors": 6, "n_hospitals": 2, "capacity": '
                    b'[4611686018427387904, 4611686018427387904], "k": 2, '
                    b'"cone_override": 0.4}',
    # past the 4,300 digits Python parses into an int
    "5000-digit-integer": b'{"n_doctors": 6, "a": 1' + b"0" * 4999 + b"}",
    "not-utf-8": b'{"n_doctors": 6, "setting": "\xff"}',
    "nested-200000-deep": b'{"n_doctors": ' + b"[" * 200000 + b"]" * 200000
                          + b"}",
}


@pytest.mark.parametrize("name", UNREADABLE_CONFIGS)
def test_unreadable_or_overflowing_config_exits_2_without_traceback(tmp_path,
                                                                    name):
    path = tmp_path / "cfg.json"
    path.write_bytes(UNREADABLE_CONFIGS[name])
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "conematch.cli", "--config", str(path),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == cli.EXIT_CONFIG, done.stderr
    assert done.stderr.startswith("configuration error: "), done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_naming_a_file_exits_2_without_traceback(tmp_path, out):
    # --out that is a file, or a path under one, is a configuration error
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"n_doctors": 6, "capacity": 2, "k": 2,
                                "cone_override": 0.4, "runs": 1}))
    (tmp_path / "file").write_text("kept\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "conematch.cli", "--config", str(path),
         "--out", str(tmp_path / out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == cli.EXIT_CONFIG, done.stderr
    assert done.stderr.startswith("configuration error: --out "), done.stderr
    assert "Traceback" not in done.stderr
    assert (tmp_path / "file").read_text() == "kept\n"


# (field, value, accepted with n_hospitals = 3 given): both sides of each
# bound, numpy scalars, and capacity vectors
CONFIG_BOUNDARIES = [
    *((f, v, v == 1) for f in ("n_doctors", "capacity", "k", "runs") for v in (0, 1)),
    ("n_hospitals", 0, False), ("n_hospitals", 1, False),    # k = 2 > 1
    ("seed", 2 ** 64 - 1, True), ("seed", 2 ** 64, False),
    ("rating_shift", -1.0, False), ("rating_shift", -0.999, True),
    ("nu_d", 1.0, True), ("nu_d", 1.0000001, False),
    ("nu_h", 1.0, True), ("nu_h", 1.0000001, False),
    ("k", 3, True), ("k", 4, False),
    ("n_doctors", np.int64(6), True), ("k", np.int64(3), True),
    ("capacity", np.int64(2), True), ("seed", np.int64(7), True),
    ("a", np.float64(2.5), True), ("nu_d", np.float64(0.5), True),
    ("alpha", np.float64(0.5), False),     # beside the base's cone_override
    ("k", np.bool_(True), False), ("nu_d", np.bool_(False), False),
    ("capacity", [[]], False), ("capacity", [[2, 2]], False),
    ("capacity", [[1, 2, 3]], True), ("capacity", [[1, 1, 2]], True),
    ("capacity", np.array([1, 2, 3]), True),
]


def _grid_reading(expand, raw):
    # "refused", or each config's fields, hash and slug
    try:
        configs = expand(raw)
    except ConfigError:
        return "refused"
    return [(json.dumps(cfg.to_dict(), sort_keys=True), cli.config_hash(cfg),
             cli.config_slug(cfg)) for cfg in configs]


def _plain(raw):
    # the one deliberate difference on these inputs: a numpy scalar is
    # stored as the Python number it holds, where the legacy reader kept it
    return {key: v.item() if isinstance(v, np.generic) else v
            for key, v in raw.items()}


def test_grid_reader_matches_the_legacy_validator():
    # every sweep value and boundary in every field, with n_hospitals given
    # and derived from n / kappa: both readers accept or refuse it alike,
    # and agree on every accepted config's fields, hash and slug
    cases = [(f.name, v, None) for f in fields(MarketConfig) for v in SWEEP_VALUES]
    for field, value, accepted in cases + CONFIG_BOUNDARIES:
        for derived in (False, True):
            raw = {"n_doctors": 6, "n_hospitals": 3, "capacity": 2, "k": 2,
                   "cone_override": 0.4, "seed": 5, "runs": 1, field: value}
            if derived and field != "n_hospitals":
                del raw["n_hospitals"]
            got = _grid_reading(cli.expand_grid, raw)
            assert got == _grid_reading(legacy_expand_grid, _plain(raw)), \
                (field, value, derived)
            if accepted is not None and not derived:
                assert (got != "refused") == accepted, (field, value)


def every_path_campaign(out_dir, **overrides):
    # all three settings, oracle-sized and not, every run double-cut
    # audited, deviation probes on run 0
    configs = cli.expand_grid({
        "n_doctors": [8, 40], "capacity": 2, "k": 2, "cone_override": 0.4,
        "seed": 5, "runs": 2,
        "setting": ["Residency", "RequestInterview", "SchoolChoice"]})
    options = dict(audit_sample=1.0, deviation_focals=2,
                   deviation_replicates=2)
    options.update(overrides)
    return cli.Campaign(configs=configs, out_dir=out_dir, **options)


@pytest.fixture
def collector_restored():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_campaign_restores_the_callers_collector(tmp_path, enabled,
                                                 collector_restored):
    campaign = every_path_campaign(tmp_path, deviation_focals=0)
    campaign.configs = campaign.configs[:1]
    gc.enable() if enabled else gc.disable()
    assert cli.run_campaign(campaign) == cli.EXIT_OK
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_audit_failure_restores_the_callers_collector(tmp_path, monkeypatch,
                                                      enabled,
                                                      collector_restored):
    monkeypatch.setattr(analysis, "find_blocking_pairs",
                        lambda *args, **kwargs: [None])
    campaign = every_path_campaign(tmp_path)
    gc.enable() if enabled else gc.disable()
    assert cli.run_campaign(campaign) == cli.EXIT_AUDIT
    assert gc.isenabled() == enabled
    assert "check=stability audits=FAIL" in (tmp_path / "summary.txt").read_text()


def test_campaign_leaves_no_reference_cycles(tmp_path, collector_restored):
    # run_campaign pauses the collector because a campaign makes no cyclic
    # garbage; a cycle added on any path would show here.  The first
    # campaign in a process may import modules lazily, and an import can
    # leave cycles, so one runs beforehand.
    campaign = every_path_campaign(tmp_path)
    assert cli.run_campaign(campaign) == cli.EXIT_OK
    gc.collect()
    gc.disable()
    assert cli.run_campaign(campaign) == cli.EXIT_OK
    assert gc.collect() == 0
    assert len(list(tmp_path.glob("*_deviation.csv"))) == 6
    assert len(list(tmp_path.glob("*_double_cut.csv"))) == 6


def test_campaign_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call in a process: 10-17 ms,
    # and cyclic garbage that the paused collector would keep
    tests = Path(__file__).resolve().parent
    code = ("import sys, pathlib, test_cli\n"
            "from conematch import cli\n"
            f"campaign = test_cli.every_path_campaign(pathlib.Path({str(tmp_path)!r}))\n"
            "assert cli.run_campaign(campaign) == cli.EXIT_OK\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
