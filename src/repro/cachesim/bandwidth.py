"""Off-chip bandwidth / memory-controller contention model.

A real memory controller moves a bounded number of bytes per cycle.
:class:`BandwidthModel` enforces that bound with a single-server
occupancy queue: every off-chip transfer reserves a slot of
``n_bytes / peak_bytes_per_cycle`` cycles that starts no earlier than the
previous transfer finished.  When offered load approaches the peak, slots
queue up and *everyone* sharing the controller waits longer — the
mechanism behind the paper's multicore results, where an inaccurate
prefetcher that fetches twice the bytes taxes its neighbours.

The model also keeps an exponentially weighted moving average of
bytes-per-cycle so hardware prefetchers can observe utilisation and
throttle (paper §I notes commodity parts do this, yet still waste
traffic).
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["BandwidthModel"]


class BandwidthModel:
    """Shared memory-controller queue and utilisation tracker.

    Parameters
    ----------
    peak_bytes_per_cycle:
        Achievable off-chip bytes per core cycle (from
        :meth:`repro.config.MachineConfig.bytes_per_cycle`).
    window_cycles:
        Time constant of the utilisation EWMA.  Shorter windows react to
        bursts; the default (20k cycles) smooths over loop iterations.
    """

    __slots__ = ("peak", "window", "_free_time", "_ewma_bpc", "_last_time", "total_bytes", "total_transfers")

    def __init__(
        self,
        peak_bytes_per_cycle: float,
        window_cycles: float = 20_000.0,
    ) -> None:
        if peak_bytes_per_cycle <= 0:
            raise ConfigError("peak_bytes_per_cycle must be positive")
        if window_cycles <= 0:
            raise ConfigError("window_cycles must be positive")
        self.peak = peak_bytes_per_cycle
        self.window = window_cycles
        self._free_time = 0.0
        self._ewma_bpc = 0.0
        self._last_time = 0.0
        self.total_bytes = 0
        self.total_transfers = 0

    # ------------------------------------------------------------------
    # queue
    # ------------------------------------------------------------------

    def transfer(self, now: float, n_bytes: int) -> tuple[float, float]:
        """Reserve a controller slot for ``n_bytes`` requested at ``now``.

        Returns ``(start_time, duration)``: the transfer occupies the
        controller during ``[start_time, start_time + duration)``, with
        ``start_time >= now`` delayed behind earlier transfers.  Callers
        add their DRAM access latency on top to get data arrival.

        The utilisation EWMA first decays by the time since the previous
        transfer, ``1 - min(dt / window, 1)`` (no time passes for a
        request at or before it), then adds this transfer's share of the
        window.
        """
        if n_bytes < 0:
            raise ConfigError("n_bytes must be non-negative")
        start = now if now > self._free_time else self._free_time
        duration = n_bytes / self.peak
        self._free_time = start + duration
        self.total_bytes += n_bytes
        self.total_transfers += 1
        last = self._last_time
        if now > last:
            x = (now - last) / self.window
            self._ewma_bpc *= 1.0 - x if x < 1.0 else 0.0
            self._last_time = now
        self._ewma_bpc += n_bytes / self.window
        return start, duration

    def charge_batch(self, now: float, n_bytes: int, count: int) -> None:
        """Reserve ``count`` consecutive slots of ``n_bytes`` at ``now``.

        Batch counterpart of :meth:`transfer` for a burst of same-size
        transfers at one instant (a writeback drain).  It leaves the
        queue, the totals and the EWMA bit-identical to ``count``
        :meth:`transfer` calls: after the first, each slot starts where
        the previous one ended and no time has passed for the EWMA, so
        each only adds its duration and its share of the window, one
        float addition at a time.
        """
        if count < 0:
            raise ConfigError("count must be non-negative")
        if count == 0:
            return
        self.transfer(now, n_bytes)
        duration = n_bytes / self.peak
        share = n_bytes / self.window
        free = self._free_time
        ewma = self._ewma_bpc
        for _ in range(count - 1):
            free += duration
            ewma += share
        self._free_time = free
        self._ewma_bpc = ewma
        self.total_bytes += n_bytes * (count - 1)
        self.total_transfers += count - 1

    # ------------------------------------------------------------------
    # utilisation
    # ------------------------------------------------------------------

    def utilisation(self) -> float:
        """Smoothed utilisation ``rho`` in [0, 1] for throttling decisions."""
        return min(self._ewma_bpc / self.peak, 1.0)
