"""The selfcheck's random checks draw exactly the classes, make exactly the
randbytes calls and leave exactly the generator state of a byte-by-byte
reading of randbytes, every value they draw is exactly uniform, and the
negative-curve check's screen passes exactly the draws with p_a = 0."""

import functools
import itertools
import random
import types

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from nslattice import (
    InputError,
    SelfcheckConfig,
    SurfaceLattice,
    blowup_hirzebruch_lattice,
    blowup_p2_lattice,
    hirzebruch_lattice,
)
from nslattice import selfcheck
from test_selfcheck import QUICK

# the default seeds and family ranges, with the sample count capped
DEFAULT_CAPPED = SelfcheckConfig(random_classes=100)


def logged_generators(monkeypatch, module):
    """Make ``module``'s random.Random a generator that logs each randbytes(n)
    call as (n, value), and return the list of the generators it makes."""
    generators = []

    class Logged(random.Random):
        def __init__(self, seed):
            self.calls = []
            super().__init__(seed)
            generators.append(self)

        def randbytes(self, n):
            value = super().randbytes(n)
            self.calls.append((n, value))
            return value

    monkeypatch.setattr(module, "random", types.SimpleNamespace(Random=Logged))
    return generators


def record_draws(monkeypatch, method):
    """Log ((family, n, r), coeffs) for each class passed to
    ``SurfaceLattice.<method>``, and every generator the selfcheck makes."""
    draws = []
    original = getattr(SurfaceLattice, method)

    def logged(lat, d):
        draws.append(((lat.family.value, lat.n, lat.r), d.coeffs))
        return original(lat, d)

    monkeypatch.setattr(SurfaceLattice, method, logged)
    return draws, logged_generators(monkeypatch, selfcheck)


def oracle_genus_and_k_dot(spec, coeffs):
    """p_a and K.D of a replayed draw, from the family's own Gram matrix and K."""
    gram, k = oracles.family_form(spec)
    dd, kd = oracles.gram_pairing(gram, coeffs, coeffs), oracles.gram_pairing(gram, k, coeffs)
    return 1 + (dd + kd) // 2, kd


def replayed_attempts(cfg):
    """How many draws the negative-curve check makes: replayed from randbytes
    until cfg.random_classes of them have p_a = 0 and K.D >= 1, or until its
    cap of 500 draws per class.  A draw whose tail was never drawn has no
    p_a = 0 class."""
    cap, attempts = cfg.random_classes * 500, 64
    while True:
        draws, _ = oracles.replay_negative_curve_draws(
            cfg.seed + 2, cfg.family_n_max, cfg.family_r_max, min(attempts, cap)
        )
        accepted = 0
        for i, (spec, coeffs) in enumerate(draws):
            if coeffs is None:
                continue
            genus, kd = oracle_genus_and_k_dot(spec, coeffs)
            accepted += genus == 0 and kd >= 1
            if accepted == cfg.random_classes:
                return i + 1
        if attempts >= cap:
            return cap
        attempts *= 2


@pytest.mark.parametrize("cfg", [QUICK, DEFAULT_CAPPED], ids=["quick", "default-capped"])
def test_adjunction_parity_draws(monkeypatch, cfg):
    # each draw is paired once, by self_intersection
    draws, generators = record_draws(monkeypatch, "self_intersection")
    assert selfcheck.check_adjunction_parity(cfg).passed
    expected, plain = oracles.replay_adjunction_parity_draws(
        cfg.seed, cfg.family_n_max, cfg.family_r_max, cfg.random_coeff_bound, cfg.random_classes
    )
    assert draws == expected
    assert [g.getstate() for g in generators] == [plain.getstate()]


@pytest.mark.parametrize(
    "cfg,pool_size",
    [
        (QUICK, 48),
        (DEFAULT_CAPPED, 307),
        # the two smallest valid pools: F_0, P^2 and Bl_0 F_0, then Bl_1 P^2 and Bl_1 F_0 too
        (SelfcheckConfig(family_n_max=0, family_r_max=0, random_classes=2), 3),
        (SelfcheckConfig(family_n_max=0, family_r_max=1, random_classes=2), 5),
        # powers of two, where a draw below the pool size keeps every byte
        (SelfcheckConfig(family_n_max=1, family_r_max=1, random_classes=20), 8),
        (SelfcheckConfig(family_n_max=1, family_r_max=9, random_classes=20), 32),
    ],
    ids=["quick", "default-capped", "pool-1", "pool-2", "pool-8", "pool-32"],
)
def test_negative_curve_draws(monkeypatch, cfg, pool_size):
    assert len(selfcheck._family_sweep(cfg)) == pool_size
    # the check makes exactly the randbytes calls of the byte-by-byte replay,
    # which draws a tail only for a head that can reach p_a = 0, and only the
    # draws with p_a = 0 reach the pairings
    screened, generators = record_draws(monkeypatch, "self_intersection")
    assert selfcheck.check_negative_curve_adjunction(cfg).passed
    attempts = replayed_attempts(cfg)
    replays = logged_generators(monkeypatch, oracles)
    expected, plain = oracles.replay_negative_curve_draws(
        cfg.seed + 2, cfg.family_n_max, cfg.family_r_max, attempts
    )
    assert replays == [plain]
    assert [g.calls for g in generators] == [plain.calls]
    tails = [(s, c) for s, c in expected if c is not None]
    assert screened == [(s, c) for s, c in tails if oracle_genus_and_k_dot(s, c)[0] == 0]
    assert screened and len(tails) < len(expected)
    assert [g.getstate() for g in generators] == [plain.getstate()]


def chosen_draws(attempts):
    """A stand-in for selfcheck._uniform that hands the negative-curve check the
    chosen ``attempts``, (v, tail bytes) pairs: each v as a block of its own on
    the pick stream, and its tail as the next block of the tail stream if the
    check asks for one before its next pick.  Returns the stand-in and the list
    of the attempts whose tails were asked for."""
    asked, current = [], [None]

    def picks():
        for attempt in attempts:
            current[0] = attempt
            yield [attempt[0]]

    def tails():
        while True:
            asked.append(current[0])
            yield current[0][1]

    return (lambda rng, m: tails() if m == 9 else picks()), asked


def head_and_tail(lat, x0, xh):
    """The head (d_0, d_h), or (d_0) on P^2, of raw head digits, and the length
    of the tail after it."""
    return (x0 - 4, xh - 4)[: lat.rank], max(lat.rank - 2, 0)


def test_head_screen_is_exact_on_every_small_draw(monkeypatch):
    # every lattice with n <= 2 and r <= 2, so of rank <= 4, every head and every
    # tail: the check pairs exactly the draws with p_a = 0, and asks for the tail
    # of exactly the heads with 0 <= p_a(head) <= 10 (rank - 2)
    cfg = SelfcheckConfig(family_n_max=2, family_r_max=2, random_classes=10**6)
    pool = selfcheck._family_sweep(cfg)
    attempts, zero, reachable = [], [], []
    for v in range(81 * len(pool)):
        lat = pool[v // 81]
        spec, (head, tail) = (lat.family.value, lat.n, lat.r), head_and_tail(lat, *divmod(v % 81, 9))
        for raw in itertools.product(range(9), repeat=tail):
            coeffs = head + tuple(x - 4 for x in raw)
            attempts.append((v, bytes(raw)))
            genus, kd = oracle_genus_and_k_dot(spec, coeffs)
            assert lat._genus(coeffs) == genus
            if genus == 0:
                zero.append((v, (spec, coeffs), kd))
            if tail and 0 <= oracles.head_genus(spec, head) <= 10 * tail:
                reachable.append(attempts[-1])
    assert len(attempts) == 3 * 9**4 + 4 * 9**3 + 8 * 9**2
    screened, _ = record_draws(monkeypatch, "self_intersection")
    stand_in, asked = chosen_draws(attempts)
    monkeypatch.setattr(selfcheck, "_uniform", stand_in)
    result = selfcheck.check_negative_curve_adjunction(cfg)
    assert screened == [draw for _, draw, _ in zero]
    assert asked == reachable
    # no head the screen rejects has a draw with p_a = 0
    assert {v for v, (_, coeffs), _ in zero if len(coeffs) > 2} <= {v for v, _ in asked}
    # the stand-in runs out long before 10**6 classes: that is the only failure
    accepted, cap = sum(kd >= 1 for _, _, kd in zero), 500 * cfg.random_classes
    assert result.detail == f"1 failures; first: only {accepted} qualifying classes found in {cap} samples"


@seed(20260808)
@settings(max_examples=150, deadline=None)
@given(
    lat=st.one_of(
        st.builds(hirzebruch_lattice, st.integers(0, 20)),
        st.builds(blowup_p2_lattice, st.integers(0, 13)),
        st.builds(blowup_hirzebruch_lattice, st.integers(0, 20), st.integers(0, 12)),
    ),
    raw=st.lists(st.integers(0, 8), min_size=14, max_size=14),
)
def test_head_screen_is_exact_up_to_rank_14(lat, raw):
    # one attempt on a pool of one lattice: the same property on every family
    spec, (head, tail) = (lat.family.value, lat.n, lat.r), head_and_tail(lat, raw[0], raw[1])
    coeffs = head + tuple(x - 4 for x in raw[2 : 2 + tail])
    attempt = (9 * raw[0] + raw[1], bytes(raw[2 : 2 + tail]))
    with pytest.MonkeyPatch.context() as mp:
        screened, _ = record_draws(mp, "self_intersection")
        stand_in, asked = chosen_draws([attempt])
        mp.setattr(selfcheck, "_family_sweep", lambda cfg: [lat])
        mp.setattr(selfcheck, "_uniform", stand_in)
        selfcheck.check_negative_curve_adjunction(SelfcheckConfig(random_classes=1))
    genus = oracle_genus_and_k_dot(spec, coeffs)[0]
    assert lat._genus(coeffs) == genus
    assert screened == ([(spec, coeffs)] if genus == 0 else [])
    assert asked == ([attempt] if tail and 0 <= oracles.head_genus(spec, head) <= 10 * tail else [])


# word widths 1, 2, 4 and 16 bytes, each at both ends of its range of m
@pytest.mark.parametrize("m", [1, 9, 19, 256, 257, 65_536, 65_537, 2**64 + 1])
def test_sampler_matches_the_byte_replay(m):
    ours, plain = random.Random(m), random.Random(m)
    blocks = selfcheck._uniform(ours, m)
    got = [x for _ in range(3) for x in next(blocks)]
    replay = oracles.uniform_draws(plain, m)
    assert got == [next(replay) for _ in got]
    if m <= 257:
        assert set(got) == set(range(m))
    assert ours.getstate() == plain.getstate()


class OneWord:
    """A stand-in generator: each randbytes(n) gives one chosen word of ``width``
    bytes, little-endian, then zero bytes, and notes how many words it gave."""

    def __init__(self, word, width):
        self.word, self.width = word, width

    def randbytes(self, n):
        self.words = n // self.width
        return self.word.to_bytes(self.width, "little") + bytes(n - self.width)


@functools.cache
def least_dropped_word(m):
    """The least word the sampler drops for m, or 256^width if it keeps them all,
    by bisection on the first word of a block; the other words are 0, which is
    always kept.  Each kept word must give its value mod m."""
    width = oracles.word_width(m)
    kept, dropped = 0, 256**width
    while dropped - kept > 1:
        mid = (kept + dropped) // 2
        rng = OneWord(mid, width)
        block = next(selfcheck._uniform(rng, m))
        if len(block) == rng.words:
            assert block[0] == mid % m
            kept = mid
        else:
            assert len(block) == rng.words - 1
            dropped = mid
    return dropped


@seed(20260808)
@settings(max_examples=20, deadline=None)
@given(
    n_max=st.integers(0, 3),
    r_max=st.integers(0, 3),
    classes=st.integers(0, 30),
    bound=st.sampled_from([8, 16, 32, 70]).flatmap(lambda bits: st.integers(0, 2**bits)),
    rng_seed=st.integers(-(2**64), 2**64),
)
def test_random_checks_pass_on_uniform_draws(n_max, r_max, classes, bound, rng_seed):
    cfg = SelfcheckConfig(
        family_n_max=n_max,
        family_r_max=r_max,
        random_classes=classes,
        isometry_random_classes=classes,
        random_coeff_bound=bound,
        seed=rng_seed,
    )
    spans, sampler = [], selfcheck._uniform

    def recorded(rng, m):
        spans.append(m)
        return sampler(rng, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selfcheck, "_uniform", recorded)
        for check in (
            selfcheck.check_adjunction_parity,
            selfcheck.check_basis_change_isometries,
            selfcheck.check_negative_curve_adjunction,
        ):
            assert check(cfg).passed, check.__name__
    assert 2 * bound + 1 in spans and 9 in spans
    # the kept words are 0 up to a multiple of m, less than m short of all words:
    # each value below m has the same number of words
    for m in set(spans):
        top, words = least_dropped_word(m), 256 ** oracles.word_width(m)
        assert top % m == 0 and words - top < m


def test_empty_ranges_raise_instead_of_looping():
    # a negative coefficient bound would make the sampler loop forever, and
    # an empty family pool leave nothing to draw: the config refuses both
    with pytest.raises(InputError, match="random_coeff_bound"):
        SelfcheckConfig(random_coeff_bound=-1)
    with pytest.raises(InputError, match="family_n_max"):
        SelfcheckConfig(family_n_max=-1, family_r_max=-1)


def test_family_sweep_is_the_factory_lattices():
    pool = selfcheck._family_sweep(SelfcheckConfig())
    assert pool == [
        *(hirzebruch_lattice(n) for n in range(21)),
        *(blowup_p2_lattice(r) for r in range(13)),
        *(blowup_hirzebruch_lattice(n, r) for n in range(21) for r in range(13)),
    ]
    for lat in pool:
        assert lat.rank == oracles.family_rank(lat.family.value, lat.r)
