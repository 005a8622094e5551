"""The selfcheck's random checks draw exactly the classes, and leave exactly
the generator state, that plain randint/randrange calls give."""

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


def record_draws(monkeypatch, method):
    """Log ((family, n, r), coeffs) for each call of ``SurfaceLattice.<method>``,
    which takes a class or, as ``_genus`` does, its raw coefficients, and every
    generator the selfcheck makes."""
    draws, generators = [], []
    original = getattr(SurfaceLattice, method)

    def logged(lat, d):
        coeffs = getattr(d, "coeffs", d)
        draws.append(((lat.family.value, lat.n, lat.r), tuple(coeffs)))
        return original(lat, d)

    class Logged(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            generators.append(self)

    monkeypatch.setattr(SurfaceLattice, method, logged)
    monkeypatch.setattr(selfcheck, "random", types.SimpleNamespace(Random=Logged))
    return draws, generators


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
    # each attempt screens its raw draw with the genus kernel exactly once
    draws, generators = record_draws(monkeypatch, "_genus")
    selfcheck.check_negative_curve_adjunction(cfg)
    assert draws
    expected, plain = oracles.replay_negative_curve_draws(
        cfg.seed + 2, cfg.family_n_max, cfg.family_r_max, len(draws)
    )
    assert draws == expected
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
