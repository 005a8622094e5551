"""The selfcheck's random checks draw exactly the classes, make exactly the
getrandbits calls and leave exactly the generator state that plain
randint/randrange calls give, and the negative-curve check's screen passes
exactly the draws with p_a = 0."""

import functools
import random
import types

import pytest

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
    """Make ``module``'s random.Random a generator that logs each getrandbits(k)
    call as (k, value), and return the list of the generators it makes."""
    generators = []

    class Logged(random.Random):
        def __init__(self, seed):
            self.calls = []
            super().__init__(seed)
            generators.append(self)

        def getrandbits(self, k):
            value = super().getrandbits(k)
            self.calls.append((k, value))
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


@functools.cache
def oracle_form(spec):
    """G and K of a family's lattice, as oracles builds them, once per (family, n, r)."""
    return oracles.family_gram(*spec), oracles.family_canonical(*spec)


def oracle_genus_and_k_dot(spec, coeffs):
    """p_a and K.D of a replayed draw, from the family's own Gram matrix and K."""
    gram, k = oracle_form(spec)
    dd, kd = oracles.gram_pairing(gram, coeffs, coeffs), oracles.gram_pairing(gram, k, coeffs)
    return 1 + (dd + kd) // 2, kd


def replayed_attempts(cfg):
    """How many draws the negative-curve check makes: replayed with plain
    randrange and randint until cfg.random_classes of them have p_a = 0 and
    K.D >= 1, or until its cap of 500 draws per class."""
    cap, attempts = cfg.random_classes * 500, 64
    while True:
        draws, _ = oracles.replay_negative_curve_draws(
            cfg.seed + 2, cfg.family_n_max, cfg.family_r_max, min(attempts, cap)
        )
        accepted = 0
        for i, (spec, coeffs) in enumerate(draws):
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
        # powers of two, where size.bit_length() and (size - 1).bit_length() differ
        (SelfcheckConfig(family_n_max=1, family_r_max=1, random_classes=20), 8),
        (SelfcheckConfig(family_n_max=1, family_r_max=9, random_classes=20), 32),
    ],
    ids=["quick", "default-capped", "pool-1", "pool-2", "pool-8", "pool-32"],
)
def test_negative_curve_draws(monkeypatch, cfg, pool_size):
    assert len(selfcheck._family_sweep(cfg)) == pool_size
    # the check makes exactly the getrandbits calls of plain randrange and
    # randint draws, and only the draws with p_a = 0 reach the pairings
    screened, generators = record_draws(monkeypatch, "self_intersection")
    assert selfcheck.check_negative_curve_adjunction(cfg).passed
    attempts = replayed_attempts(cfg)
    replays = logged_generators(monkeypatch, oracles)
    expected, plain = oracles.replay_negative_curve_draws(
        cfg.seed + 2, cfg.family_n_max, cfg.family_r_max, attempts
    )
    assert replays == [plain]
    assert [g.calls for g in generators] == [plain.calls]
    assert screened == [(s, c) for s, c in expected if oracle_genus_and_k_dot(s, c)[0] == 0]
    assert screened
    assert [g.getstate() for g in generators] == [plain.getstate()]


@pytest.mark.parametrize("bound", [0, 4, 7, 8, 9])  # spans m = 1, 9, 15, 17, 19
def test_random_class_matches_randint_at_edge_spans(bound):
    ours, plain = random.Random(bound), random.Random(bound)
    for rank in list(range(15)) * 10:
        got = selfcheck._random_class(ours, rank, bound)
        assert got.coeffs == tuple(plain.randint(-bound, bound) for _ in range(rank))
    assert ours.getstate() == plain.getstate()


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
