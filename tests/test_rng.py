import numpy as np
import pytest

from conematch import market, rng
from conematch.deviation import _replicate_salt


def test_identical_keys_identical_values():
    s = rng.key_state(123, 4, rng.KIND_PRIVATE_DH)
    a = rng.uniform(s, np.arange(64), 7)
    b = rng.uniform(rng.key_state(123, 4, rng.KIND_PRIVATE_DH), np.arange(64), 7)
    assert np.array_equal(a, b)
    assert float(rng.uniform(s, 5, 7)) == a[5]


def test_streams_separate():
    a = rng.uniform(rng.key_state(1, 0, rng.KIND_PRIVATE_DH), np.arange(100), 0)
    b = rng.uniform(rng.key_state(1, 1, rng.KIND_PRIVATE_DH), np.arange(100), 0)
    c = rng.uniform(rng.key_state(1, 0, rng.KIND_INTERVIEW_DH), np.arange(100), 0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_range_and_uniformity():
    # Kolmogorov-Smirnov on 10k draws against uniform[0,1), 1% critical value
    s = rng.key_state(99, 0, rng.KIND_PRIVATE_DH)
    x = np.sort(rng.uniform(s, np.arange(10_000), 3))
    assert x.min() >= 0.0 and x.max() < 1.0
    n = x.size
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - x), np.max(x - (np.arange(n) / n)))
    critical_1pct = 1.6276 / np.sqrt(n)
    assert ks < critical_1pct


def test_independence_proxy():
    # private vs interview streams for the same pairs
    sp = rng.key_state(7, 0, rng.KIND_PRIVATE_DH)
    si = rng.key_state(7, 0, rng.KIND_INTERVIEW_DH)
    i = np.repeat(np.arange(100), 100)
    j = np.tile(np.arange(100), 100)
    v = rng.uniform(sp, i, j)
    w = rng.uniform(si, i, j)
    assert abs(np.corrcoef(v, w)[0, 1]) < 0.03


# computed by the splitmix64 code before uniform was split into stages
PINNED_STATES = {(0, 0, 1, 0): 17913671590881668180,
                 (42, 0, 3, 0): 11132436533567955750,
                 (42, 0, 3, 7): 16238184876762016195,
                 (2**64 - 1, 2**32, 6, 1_000_003): 75190044105391558}
PINNED_DRAWS = {(0, 0): 5801669254448967,
                (17, 4): 8077583748132884,
                (1999, 399): 8320395937743016,
                (2**64 - 1, 2**63): 5545653872348420}


def test_pinned_states_and_draws():
    for key, want in PINNED_STATES.items():
        got = rng.key_state(*key)
        assert isinstance(got, np.uint64) and int(got) == want
    s = rng.key_state(42, 0, rng.KIND_PRIVATE_DH)
    for (i, j), want in PINNED_DRAWS.items():
        assert rng.uniform(s, i, j) == want * 2.0 ** -53
        assert int(rng.bits(rng.half_i(s, i), rng.half_j(j))) == want


def _same_bits(a, b):
    return (np.shape(a) == np.shape(b)
            and np.array_equal(np.asarray(a).view(np.uint64),
                               np.asarray(b).view(np.uint64)))


@pytest.mark.parametrize("i, j", [
    (5, 7),                                             # scalars
    (np.array(5), np.array(7)),                         # 0-d arrays
    (np.arange(30)[:, None],                            # column x matrix
     np.random.default_rng(0).integers(0, 10**6, (30, 40))),
    (np.array([0, 2**63, 2**64 - 1], dtype=np.uint64),  # extreme ids
     np.array([[2**64 - 1], [0]], dtype=np.uint64)),
])
def test_uniform_is_scaled_bits(i, j):
    s = rng.key_state(7, 1, rng.KIND_PRIVATE_DH)
    u = rng.uniform(s, i, j)
    b = rng.bits(rng.half_i(s, i), rng.half_j(j))
    assert b.dtype == np.uint64 and int(b.max()) < 2 ** 53
    assert _same_bits(u, b.astype(np.float64) * 2.0 ** -53)


def test_bits_is_the_tail_of_the_head_and_the_head_tops_it():
    # random halves, and halves at 0 and 2**64 - 1, whose sums wrap
    gen = np.random.default_rng(5)
    edge = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    hi = np.concatenate((edge, gen.integers(0, 2**64, 60, dtype=np.uint64,
                                            endpoint=False)))[:, None]
    hj = np.concatenate((edge, gen.integers(0, 2**64, 50, dtype=np.uint64,
                                            endpoint=False)))[None, :]
    b = rng.bits(hi, hj)
    head = rng.bits_head(hi, hj)
    assert head.dtype == np.uint64 and head.shape == b.shape
    # the head's top 31 bits are the draw's: a threshold on them is exact
    assert np.array_equal(head >> np.uint64(33), b >> np.uint64(22))
    assert rng.bits_tail(head) is head and np.array_equal(head, b)
    # made in a caller's buffers, the heads are the same
    out, tmp = np.empty(b.shape, np.uint64), np.empty(b.shape, np.uint64)
    assert rng.bits_head(hi, hj, out=out, tmp=tmp) is out
    assert np.array_equal(rng.bits_tail(out), b)


def test_a_salted_state_is_the_unsalted_states_half_at_the_salt():
    # MarketInstance.interview_dh/hd salt their kept state this way, for
    # every salt a deviation replicate addresses
    top = _replicate_salt(19_999, 999)
    salts = [1, 2, 3, 1_000_003, 2**32, top - 1, top]
    salts += [_replicate_salt(f, t) for f in (0, 1, 7, 19_999)
              for t in (0, 1, 19, 999)]
    for seed, run in ((0, 0), (42, 3), (2**64 - 1, 2**32)):
        for kind in (rng.KIND_INTERVIEW_DH, rng.KIND_INTERVIEW_HD):
            state = rng.key_state(seed, run, kind)
            halves = rng.half_i(state, np.array(salts, dtype=np.uint64))
            assert halves.tolist() == [int(rng.key_state(seed, run, kind, s))
                                       for s in salts]
            assert isinstance(rng.half_i(state, top)[()], np.uint64)


def test_salted_interview_draws_use_the_salted_stream():
    inst = market.generate(market.make_config(50, kappa=5, k=3,
                                              cone_override=0.3, seed=9), 2)
    salt = _replicate_salt(49, 19)
    slots = np.arange(5)
    dh = rng.uniform(rng.key_state(9, 2, rng.KIND_INTERVIEW_DH, salt), 7, slots)
    hd = rng.uniform(rng.key_state(9, 2, rng.KIND_INTERVIEW_HD, salt), slots, 7)
    assert _same_bits(inst.interview_dh(7, slots, salt), dh)
    assert _same_bits(inst.interview_hd(slots, 7, salt), hd)
