import json
from dataclasses import fields

import pytest

from conematch import cli, da
from conematch.market import MarketConfig, RESIDENCY, SCHOOL_CHOICE, make_config
from conematch.strategy import InterviewAssignment


def write_config(tmp_path, **overrides):
    raw = {"n_doctors": 30, "n_hospitals": 10, "capacity": 3, "k": 2,
           "cone_override": 0.2, "seed": 5, "runs": 3}
    raw.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def test_verify_only_passes():
    assert cli.main(["--verify-only", "--seed", "3"]) == cli.EXIT_OK


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


@pytest.mark.parametrize("rate", ["nan", "-0.1", "1.5"])
def test_audit_sample_out_of_range_exits_config_error(tmp_path, monkeypatch,
                                                      rate):
    calls = _generate_calls(monkeypatch)
    rc = cli.main(["--config", str(write_config(tmp_path)),
                   "--audit-sample", rate, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG and not calls


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
])
def test_bad_field_value_exits_config_error(tmp_path, monkeypatch, field, value):
    calls = _generate_calls(monkeypatch)
    path = write_config(tmp_path, **{field: value})
    raw = json.loads(path.read_text())
    del raw["n_hospitals"]
    path.write_text(json.dumps(raw))
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG and not calls


def _engine_calls(monkeypatch, tmp_path, cfg, audit_sample):
    calls = []
    real = da._engine

    def counting(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(da, "_engine", counting)
    campaign = cli.Campaign(configs=[cfg], out_dir=tmp_path,
                            audit_sample=audit_sample)
    cli._run_one(cfg, 0, campaign, cli.config_slug(cfg))
    return len(calls)


@pytest.mark.parametrize("setting", [RESIDENCY, SCHOOL_CHOICE])
def test_audited_run_computes_each_orientation_once(tmp_path, monkeypatch,
                                                    setting):
    # base DA, hospital-optimal DA and one truncated run per scenario
    cfg = make_config(120, kappa=3, k=5, cone_override=0.3, seed=3,
                      setting=setting)
    assert _engine_calls(monkeypatch, tmp_path, cfg, 1.0) <= 4


def test_unaudited_residency_run_is_one_da(tmp_path, monkeypatch):
    cfg = make_config(120, kappa=3, k=5, cone_override=0.3, seed=3)
    assert _engine_calls(monkeypatch, tmp_path, cfg, 0.0) == 1


@pytest.mark.parametrize("setting", [RESIDENCY, SCHOOL_CHOICE])
def test_audited_run_computes_each_matchings_edges_once(tmp_path, monkeypatch,
                                                        setting):
    # the base matching, the hospital-optimal one and one cut run per
    # scenario; the blocking scan, run_stats and the dominance checks share
    # what was computed
    calls = []
    real = InterviewAssignment.matched_edges

    def counting(self, matching):
        calls.append(matching)
        return real(self, matching)
    monkeypatch.setattr(InterviewAssignment, "matched_edges", counting)
    cfg = make_config(120, kappa=3, k=5, cone_override=0.3, seed=3,
                      setting=setting)
    campaign = cli.Campaign(configs=[cfg], out_dir=tmp_path, audit_sample=1.0)
    cli._run_one(cfg, 0, campaign, cli.config_slug(cfg))
    assert len(calls) == 4
    assert len({id(m) for m in calls}) == 4


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
