"""Focused tests of the contention model's mechanisms."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.multicore.contention import AppProfile, _miss_scale, solve_mix
from repro.multicore.coordinator import throttle_factor
from repro.statstack.mrc import MissRatioCurve


def mrc(points):
    sizes = np.array([p[0] for p in points], dtype=np.int64)
    ratios = np.array([p[1] for p in points])
    return MissRatioCurve(sizes, ratios)


def profile(**kw):
    defaults = dict(
        name="app",
        cycles_alone=1e6,
        dram_lines=10_000,
        llc_insert_lines=10_000,
        mlp=2.0,
        mrc=mrc([(64 * 1024, 0.5), (8 << 20, 0.5)]),
        mr_full_llc=0.5,
    )
    defaults.update(kw)
    return AppProfile(**defaults)


class TestThrottleFactor:
    def test_no_throttle_below_70pct(self):
        assert throttle_factor(0.0) == 1.0
        assert throttle_factor(0.69) == 1.0

    def test_floor_at_saturation(self):
        assert throttle_factor(1.0) == pytest.approx(0.25)

    def test_monotone(self):
        values = [throttle_factor(r) for r in (0.7, 0.8, 0.9, 1.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestMissScale:
    def test_no_traffic_app(self):
        assert _miss_scale(profile(dram_lines=0, llc_insert_lines=0), 1 << 20) == 1.0

    def test_flat_curve_no_scaling(self):
        app = profile()
        assert _miss_scale(app, 1 << 20) == pytest.approx(1.0)

    def test_shrinking_share_raises_traffic(self):
        app = profile(
            mrc=mrc([(64 * 1024, 0.9), (1 << 20, 0.6), (8 << 20, 0.2)]),
            mr_full_llc=0.2,
        )
        small = _miss_scale(app, 512 * 1024)
        large = _miss_scale(app, 6 << 20)
        assert small > large >= 1.0

    def test_nta_fraction_immune(self):
        curve = mrc([(64 * 1024, 0.9), (8 << 20, 0.2)])
        polluting = profile(mrc=curve, mr_full_llc=0.2, llc_insert_lines=10_000)
        bypassing = profile(mrc=curve, mr_full_llc=0.2, llc_insert_lines=0)
        share = 512 * 1024
        assert _miss_scale(bypassing, share) == pytest.approx(1.0)
        assert _miss_scale(polluting, share) > 1.0


class TestThrottlingInMix:
    def test_throttleable_traffic_retired_under_pressure(self, amd):
        # four heavy HW-like apps: the model must retire speculative
        # lines rather than queue them all
        hw_app = profile(
            cycles_alone=2e5,
            dram_lines=30_000,
            llc_insert_lines=30_000,
            throttleable_lines=15_000,
            throttle_cycle_cost=10_000.0,
        )
        out = solve_mix(amd, [hw_app] * 4)
        # retired lines: final transfers below the solo figure
        assert all(c.dram_lines < 30_000 for c in out)

    def test_no_throttling_when_uncontended(self, amd):
        hw_app = profile(
            cycles_alone=1e8,  # extremely light offered load
            dram_lines=1_000,
            throttleable_lines=500,
            throttle_cycle_cost=1_000.0,
        )
        out = solve_mix(amd, [hw_app])
        assert out[0].dram_lines == pytest.approx(1_000, rel=0.01)
        assert out[0].cycles == pytest.approx(1e8, rel=0.01)

    def test_exposure_discounts_extra_miss_latency(self, amd):
        curve = mrc([(64 * 1024, 0.9), (1 << 20, 0.6), (8 << 20, 0.2)])
        kwargs = dict(
            cycles_alone=5e5,
            dram_lines=20_000,
            llc_insert_lines=20_000,
            mrc=curve,
            mr_full_llc=0.2,
        )
        exposed = profile(exposure=1.0, **kwargs)
        covered = profile(exposure=0.1, **kwargs)
        polluter = profile(cycles_alone=2e5, dram_lines=50_000)
        t_exposed = solve_mix(amd, [exposed, polluter])[0].cycles
        t_covered = solve_mix(amd, [covered, polluter])[0].cycles
        assert t_covered < t_exposed

    def test_validation(self):
        with pytest.raises(SimulationError):
            profile(exposure=1.5)
        with pytest.raises(SimulationError):
            profile(throttleable_lines=-1)


class TestSharedThrottleCurve:
    """One canonical back-off curve serves every consumer (no copies)."""

    def test_single_definition(self):
        from repro.hwpref.base import throttle_factor as base_curve
        from repro.multicore import contention

        assert contention.throttle_factor is base_curve
        assert throttle_factor is base_curve

    def test_prefetcher_model_parity(self):
        # A prefetcher's internal factor must equal the analytic model's
        # at every utilisation, default tuning applied.
        from repro.hwpref.stride_pref import PCStridePrefetcher

        rho = {"value": 0.0}
        pf = PCStridePrefetcher(utilisation=lambda: rho["value"])
        for value in (0.0, 0.5, 0.7, 0.75, 0.85, 0.95, 1.0):
            rho["value"] = value
            assert pf._throttle_factor() == pytest.approx(throttle_factor(value))


class TestPartitionFixedPoint:
    """Insertion rates must track each app's *current* share (not the
    equal split), so asymmetric mixes converge away from it."""

    @staticmethod
    def _mix():
        hungry = profile(
            name="hungry",
            dram_lines=20_000,
            llc_insert_lines=20_000,
            mrc=mrc(
                [
                    (64 * 1024, 0.9),
                    (1 << 20, 0.6),
                    (2 << 20, 0.45),
                    (4 << 20, 0.3),
                    (8 << 20, 0.1),
                ]
            ),
            mr_full_llc=0.1,
        )
        flat = profile(name="flat", dram_lines=20_000, llc_insert_lines=20_000)
        return [hungry, flat]

    def test_shares_evolve_past_first_iteration(self, amd):
        # Pre-fix, rates were always evaluated at llc/n, so the shares
        # were identical for every iteration count.
        apps = self._mix()
        first = solve_mix(amd, apps, iterations=1)
        converged = solve_mix(amd, apps, iterations=30)
        assert converged[0].llc_share_bytes < 0.75 * first[0].llc_share_bytes
        assert converged[1].llc_share_bytes > 1.5 * first[1].llc_share_bytes

    def test_shares_move_monotonically_from_equal_split(self, amd):
        apps = self._mix()
        hungry_shares = [
            solve_mix(amd, apps, iterations=k)[0].llc_share_bytes
            for k in (1, 2, 3, 5, 10)
        ]
        assert all(a > b for a, b in zip(hungry_shares, hungry_shares[1:]))

    def test_shares_still_sum_to_capacity(self, amd):
        total = sum(
            c.llc_share_bytes for c in solve_mix(amd, self._mix(), iterations=30)
        )
        assert total == pytest.approx(amd.llc.size_bytes)
