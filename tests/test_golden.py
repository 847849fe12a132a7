"""Golden pins: sha256 of every CSV from one small fixed campaign.

The campaign covers both interview protocols, school choice, an
oracle-sized market (brute-force enumeration and the rural-hospital oracle
branch), audits on every run and the deviation CSV.  A refactor of the
pipeline or the audits must leave these digests unchanged.  `summary.txt`
is not pinned: it records wall times.

PINNED_PROPOSALS pins truncated_da's proposal records under a trivial
rule, both orientations, on four seed-42 n=2000 markets.  Each record is
hashed from its proposer on, in order; its step is its place in that
order (halt records are not proposals and are not hashed).  Proposals do
not depend on how halts are recorded, so these digests hold across any
change to the halt bookkeeping of the FIFO loop.

To re-derive the digests after an intended output change, print
`campaign_digests(tmp_path)` from a checkout of the code being pinned.
"""

import hashlib

import pytest

from conematch import cli, da
from conematch.market import generate, make_config
from conematch.strategy import build_assignment, build_preferences

from oracle_helpers import proposals

CONE = 0.3

GRIDS = (
    dict(n_doctors=100, capacity=5, setting="Residency", k=[5, 12], runs=3),
    dict(n_doctors=80, capacity=4, setting="RequestInterview", k=5, runs=3),
    dict(n_doctors=60, capacity=3, setting="SchoolChoice", k=5, runs=3),
    # oracle-sized: 6 doctors, 3 hospitals, 6 places
    dict(n_doctors=6, n_hospitals=3, capacity=2, setting="Residency", k=2,
         runs=3),
)

PINNED = {
    "requestinterview_n80_k5_kap4_cone0.3_seed11.csv":
        "87d76d3312aaf899b056d621813eae3a148ce4db406efb8f06b519db7a997340",
    "requestinterview_n80_k5_kap4_cone0.3_seed11_deviation.csv":
        "4d6e2d367a6fb652bfc68486ba646f059055269c7e3982a76743fade39936abe",
    "requestinterview_n80_k5_kap4_cone0.3_seed11_double_cut.csv":
        "c9cd6a3dc1d9d21a9b4cc3dec5ac296af9c39144b9fa0c92f81a6010b831373c",
    "residency_n100_k12_kap5_cone0.3_seed11.csv":
        "6fc4bde54cff5a9340e9773e8d3e6af72120c98a0fe89a3edab45ed63640acce",
    "residency_n100_k12_kap5_cone0.3_seed11_deviation.csv":
        "c601ba6026433aa062fea9c8f5634baeb57da42ea8afcc649d359b21de62952b",
    "residency_n100_k12_kap5_cone0.3_seed11_double_cut.csv":
        "db1edc868d405cd1d7fcfbd7f3fea8809518dfc7e60a14809214dad900e37de8",
    "residency_n100_k5_kap5_cone0.3_seed11.csv":
        "3d8650f65390eadbb2635fc0a1a58ad5faea740c6ac10d374ac5d83b33029a92",
    "residency_n100_k5_kap5_cone0.3_seed11_deviation.csv":
        "c267188239c8d48d68b9c376db14929c95616e705c165602abad1c140c06b8c8",
    "residency_n100_k5_kap5_cone0.3_seed11_double_cut.csv":
        "88dfd74fd560ce0ca8fb0334be472d2faf9074233339bfef7227fa65b04bf633",
    "residency_n6_k2_kap2_cone0.3_seed11.csv":
        "6573a0e2267f2b16873b47d9bb51f4f48c212ed516d5efded75a4ff79545eddb",
    "residency_n6_k2_kap2_cone0.3_seed11_deviation.csv":
        "b8f6c8de73470a3c8ea2f34e2c1f936f364aff41f92fba042e5137563df903a7",
    "residency_n6_k2_kap2_cone0.3_seed11_double_cut.csv":
        "1f33c058f8ca40102cd02714707b3c78aab7cc903ce9ae4471e228db694686fb",
    "schoolchoice_n60_k5_kap3_cone0.3_seed11.csv":
        "23297961a120ecf67be075ee34bb10c9137a7faee980b25f17c6bd0f36c32854",
    "schoolchoice_n60_k5_kap3_cone0.3_seed11_deviation.csv":
        "b21062ac94eea65f780eba254abec028ff1c44a0f7d68cfb389155b67c6a8066",
    "schoolchoice_n60_k5_kap3_cone0.3_seed11_double_cut.csv":
        "337030628de79913323e28d168349efcb8cafdccc3172c813e35bd7966152408",
}


def campaign_digests(tmp_path):
    configs = []
    for grid in GRIDS:
        configs.extend(cli.expand_grid(dict(grid, seed=11, cone_override=CONE)))
    out = tmp_path / "golden"
    campaign = cli.Campaign(configs=configs, out_dir=out, audit_sample=1.0,
                            deviation_focals=2, deviation_replicates=2)
    assert cli.run_campaign(campaign) == cli.EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def test_campaign_csv_digests(tmp_path):
    assert campaign_digests(tmp_path) == PINNED


PINNED_PROPOSALS = {
    ("Residency", 5, da.DOCTORS_PROPOSE):
        "730b2c466fe84774967f84e04f8f256b4e8205ae55e4243b12891f76f5b16c3d",
    ("Residency", 5, da.HOSPITALS_PROPOSE):
        "6e395fa4193771473fac62afea26e3be2eb23131eb03e1dc6705a8cc2b5d096a",
    ("Residency", 12, da.DOCTORS_PROPOSE):
        "de6477b238fa1039b256e64dfd588f70e90a2c97794928e660fdd9da1831eec3",
    ("Residency", 12, da.HOSPITALS_PROPOSE):
        "a0eb366c2d7ca02455f1c29f645902e46ac3799a4b1ec7d6e7016e98706902e9",
    ("RequestInterview", 5, da.DOCTORS_PROPOSE):
        "12fea5d49ee8ee9fd610788446d069c7c591c9fd06f6dd17da290cbcf8d0b8b7",
    ("RequestInterview", 5, da.HOSPITALS_PROPOSE):
        "bf1817ce43e408de0863174cf966a047598a8e0fc0653083a8884ad56bf3e26a",
    ("SchoolChoice", 5, da.DOCTORS_PROPOSE):
        "d9eccd3165485e9f57758481239f67eb0685c7cb95fa66cac1f8b0835ce6262f",
    ("SchoolChoice", 5, da.HOSPITALS_PROPOSE):
        "e269e2ff0c2957877ae553bc7ab6b4c7fe0689f19ce715bf008113cb5df93bfd",
}


@pytest.mark.parametrize("setting,k", [("Residency", 5), ("Residency", 12),
                                       ("RequestInterview", 5),
                                       ("SchoolChoice", 5)])
def test_truncated_da_proposal_record_digests(setting, k):
    cfg = make_config(2000, kappa=5, k=k, cone_override=CONE, seed=42,
                      setting=setting)
    inst = generate(cfg, 0)
    prefs = build_preferences(build_assignment(inst))
    for orientation in (da.DOCTORS_PROPOSE, da.HOSPITALS_PROPOSE):
        _, log = da.truncated_da(*prefs, inst.capacities, da.TruncationRule(),
                                 orientation)
        records = [e[1:] for e in proposals(log)]
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == PINNED_PROPOSALS[setting, k, orientation]
