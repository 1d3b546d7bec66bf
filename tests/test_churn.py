"""Tests for failure injection (repro.churn.failures) and the liveness
mutations of :class:`repro.membership.OracleView` it is built on."""

from __future__ import annotations

import pytest

from repro.churn import apply_churn, revive_all
from repro.config import ChurnConfig
from repro.errors import EmptyPopulationError
from repro.membership import OracleView
from repro.ring import Ring, build_pointers, verify
from repro.rng import make_rng


def ring_of(n: int) -> Ring:
    ring = Ring()
    for node_id in range(n):
        ring.insert(node_id, node_id / n)
    return ring


class TestCrashFraction:
    def test_kills_requested_share(self):
        ring = ring_of(100)
        victims = OracleView(ring).crash_fraction(make_rng(0), 0.33)
        assert len(victims) == 33
        assert ring.live_count == 67

    def test_victims_are_actually_dead(self):
        ring = ring_of(50)
        victims = OracleView(ring).crash_fraction(make_rng(1), 0.2)
        for victim in victims:
            assert not ring.is_alive(victim)

    def test_zero_fraction_kills_nobody(self):
        ring = ring_of(10)
        assert OracleView(ring).crash_fraction(make_rng(2), 0.0) == []
        assert ring.live_count == 10

    def test_never_kills_everyone(self):
        ring = ring_of(3)
        victims = OracleView(ring).crash_fraction(make_rng(3), 0.99)
        assert ring.live_count >= 1
        assert len(victims) <= 2

    def test_full_fraction_spares_exactly_one(self):
        ring = ring_of(5)
        victims = OracleView(ring).crash_fraction(make_rng(4), 1.0)
        assert len(victims) == 4
        assert ring.live_count == 1

    def test_rejects_fraction_above_one(self):
        with pytest.raises(ValueError):
            OracleView(ring_of(5)).crash_fraction(make_rng(4), 1.0000001)

    def test_rejects_negative_fraction(self):
        with pytest.raises(ValueError):
            OracleView(ring_of(5)).crash_fraction(make_rng(4), -0.1)

    def test_single_peer_ring_loses_nobody(self):
        ring = ring_of(1)
        assert OracleView(ring).crash_fraction(make_rng(4), 1.0) == []
        assert ring.live_count == 1

    def test_already_dead_victims_excluded_from_base(self):
        # 10 peers, 4 already dead: fraction 0.5 counts over the 6 live
        # peers only (3 victims) and never re-selects a dead one.
        ring = ring_of(10)
        first = OracleView(ring).crash_fraction(make_rng(11), 0.4)
        assert len(first) == 4
        second = OracleView(ring).crash_fraction(make_rng(12), 0.5)
        assert len(second) == 3
        assert not set(first) & set(second)
        assert ring.live_count == 3

    def test_rejects_empty_ring(self):
        with pytest.raises(EmptyPopulationError):
            OracleView(Ring()).crash_fraction(make_rng(5), 0.1)

    def test_victims_unique(self):
        ring = ring_of(60)
        victims = OracleView(ring).crash_fraction(make_rng(6), 0.5)
        assert len(victims) == len(set(victims))

    def test_repeated_waves_compound(self):
        ring = ring_of(100)
        OracleView(ring).crash_fraction(make_rng(7), 0.5)
        OracleView(ring).crash_fraction(make_rng(8), 0.5)
        assert ring.live_count == 25


class TestBulkPrimitives:
    def test_crash_many_flips_and_reports(self):
        ring = ring_of(10)
        assert OracleView(ring).crash([1, 3, 5]) == [1, 3, 5]
        assert ring.live_count == 7

    def test_crash_many_skips_already_dead(self):
        ring = ring_of(10)
        OracleView(ring).crash([1, 3])
        # Re-crashing dead peers is a no-op, reported as unchanged.
        assert OracleView(ring).crash([1, 3, 5]) == [5]
        assert ring.live_count == 7

    def test_revive_many_mirrors_crash_many(self):
        ring = ring_of(10)
        OracleView(ring).crash([2, 4, 6])
        assert OracleView(ring).revive([2, 6, 8]) == [2, 6]  # 8 was never dead
        assert ring.live_count == 9
        assert not ring.is_alive(4)

    def test_bulk_round_trip_restores_everything(self):
        ring = ring_of(25)
        dead = OracleView(ring).crash(range(0, 25, 2))
        assert OracleView(ring).revive(dead) == dead
        assert ring.live_count == 25


class TestReviveAll:
    def test_round_trip(self):
        ring = ring_of(40)
        victims = OracleView(ring).crash_fraction(make_rng(9), 0.25)
        revive_all(ring, victims)
        assert ring.live_count == 40

    def test_revive_empty_list_noop(self):
        ring = ring_of(5)
        revive_all(ring, [])
        assert ring.live_count == 5


class TestApplyChurn:
    def test_faultless_config_is_noop(self):
        ring = ring_of(20)
        pointers = build_pointers(ring)
        victims = apply_churn(ring, pointers, ChurnConfig(kill_fraction=0.0))
        assert victims == []
        assert ring.live_count == 20

    def test_kill_and_repair(self):
        ring = ring_of(60)
        pointers = build_pointers(ring)
        victims = apply_churn(ring, pointers, ChurnConfig(kill_fraction=0.33))
        assert len(victims) == 19
        verify(ring, pointers)  # the paper's assumed self-stabilization

    def test_repair_can_be_disabled(self):
        from repro.errors import RingInvariantError

        ring = ring_of(60)
        pointers = build_pointers(ring)
        apply_churn(ring, pointers, ChurnConfig(kill_fraction=0.33, repair_ring=False))
        with pytest.raises(RingInvariantError):
            verify(ring, pointers)

    def test_victim_choice_is_seeded(self):
        ring_a, ring_b = ring_of(50), ring_of(50)
        victims_a = apply_churn(ring_a, build_pointers(ring_a), ChurnConfig(kill_fraction=0.2, seed=5))
        victims_b = apply_churn(ring_b, build_pointers(ring_b), ChurnConfig(kill_fraction=0.2, seed=5))
        assert victims_a == victims_b

    def test_different_fractions_use_disjoint_streams(self):
        ring_a, ring_b = ring_of(50), ring_of(50)
        victims_a = apply_churn(ring_a, build_pointers(ring_a), ChurnConfig(kill_fraction=0.2, seed=5))
        victims_b = apply_churn(ring_b, build_pointers(ring_b), ChurnConfig(kill_fraction=0.4, seed=5))
        assert set(victims_a) != set(victims_b)


class TestChurnOnOverlay:
    def test_overlay_survives_wave_and_revival(self):
        from repro.rng import make_rng as rng_of

        from conftest import build_overlay

        overlay = build_overlay(n=150, seed=40, cap=8)
        victims = apply_churn(
            overlay.ring, overlay.pointers, ChurnConfig(kill_fraction=0.33)
        )
        rng = rng_of(41)
        for __ in range(40):
            source = overlay.random_live_node(rng)
            assert overlay.route(source, float(rng.random()), faulty=True).success
        revive_all(overlay.ring, victims)
        overlay.repair_ring()
        verify(overlay.ring, overlay.pointers)
        for __ in range(20):
            source = overlay.random_live_node(rng)
            assert overlay.route(source, float(rng.random())).success


class TestDeprecationShims:
    """Supported procedures must not warn (pytest.ini turns every
    DeprecationWarning into an error)."""

    def test_supported_procedures_do_not_warn(self):
        ring = ring_of(20)
        victims = apply_churn(ring, build_pointers(ring), ChurnConfig(kill_fraction=0.2))
        revive_all(ring, victims)
