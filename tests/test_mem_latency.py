"""Tests for the latency profile, noise model and obfuscation policy."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mem.latency import (
    CLOCK_HZ,
    LatencyProfile,
    NoiseModel,
    ObfuscationPolicy,
    cycles_to_seconds,
    kbps,
)
from repro.sim.events import AccessPath
from repro.sim.rng import RngStream


def test_default_profile_matches_paper_reference_points():
    profile = LatencyProfile()
    assert profile.local_shared == pytest.approx(98.0)
    assert profile.local_excl == pytest.approx(124.0)
    assert profile.local_excl - profile.local_shared == pytest.approx(26.0)


def test_profile_ordering_enforced():
    with pytest.raises(ConfigError):
        LatencyProfile(local_shared=200.0, local_excl=100.0)


def test_profile_positive_enforced():
    with pytest.raises(ConfigError):
        LatencyProfile(l1_hit=-1.0)


def test_for_path_covers_all_load_paths():
    profile = LatencyProfile()
    for path in (AccessPath.L1_HIT, AccessPath.L2_HIT,
                 AccessPath.LOCAL_SHARED, AccessPath.LOCAL_EXCL,
                 AccessPath.REMOTE_SHARED, AccessPath.REMOTE_EXCL,
                 AccessPath.DRAM):
        assert profile.for_path(path) > 0


def test_for_path_rejects_uncached():
    with pytest.raises(ConfigError):
        LatencyProfile().for_path(AccessPath.UNCACHED)


def test_noise_disabled_returns_base():
    model = NoiseModel(enabled=False)
    rng = RngStream(np.random.default_rng(0))
    assert model.sample(100.0, rng) == 100.0


def test_noise_never_below_one_cycle():
    model = NoiseModel(sigma=1000.0)
    rng = RngStream(np.random.default_rng(0))
    assert all(model.sample(2.0, rng) >= 1.0 for _ in range(100))


def test_noise_centered_on_base():
    model = NoiseModel(sigma=2.5, tail_probability=0.0)
    rng = RngStream(np.random.default_rng(0))
    samples = [model.sample(100.0, rng) for _ in range(2000)]
    assert abs(np.mean(samples) - 100.0) < 0.5
    assert 1.5 < np.std(samples) < 3.5


def test_noise_tail_creates_outliers():
    model = NoiseModel(sigma=0.1, tail_probability=0.5, tail_scale=100.0)
    rng = RngStream(np.random.default_rng(0))
    samples = [model.sample(100.0, rng) for _ in range(500)]
    assert max(samples) > 150.0


def test_noise_sample_is_numpy_draw_sequence():
    model = NoiseModel(sigma=2.5, tail_probability=0.3, tail_scale=60.0)
    rng = RngStream(np.random.default_rng(5))
    gen = np.random.default_rng(5)
    for _ in range(500):
        value = 100.0 + 2.5 * gen.standard_normal()
        if gen.random() < 0.3:
            value += gen.exponential(60.0)
        assert model.sample(100.0, rng) == max(1.0, value)
    assert rng.bit_generator.state == gen.bit_generator.state


def test_obfuscation_policy_scope():
    policy = ObfuscationPolicy(suspicious_cores={3})
    assert policy.applies_to(3)
    assert not policy.applies_to(0)


def test_obfuscation_range():
    policy = ObfuscationPolicy(suspicious_cores={0}, lo=90.0, hi=250.0)
    rng = RngStream(np.random.default_rng(1))
    draws = [policy.obfuscate(rng) for _ in range(200)]
    assert min(draws) >= 90.0
    assert max(draws) <= 250.0


def test_cycles_to_seconds():
    assert cycles_to_seconds(CLOCK_HZ) == pytest.approx(1.0)


def test_kbps():
    # 1000 bits in one second = 1 Kbps
    assert kbps(1000, CLOCK_HZ) == pytest.approx(1.0)
    assert kbps(10, 0.0) == 0.0


def test_profile_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        LatencyProfile().l1_hit = 1.0
