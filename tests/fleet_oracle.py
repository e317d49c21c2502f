"""Test-side reference fleet: scalar contention, per-tick draws.

:class:`ScalarCellContention` is the original dict/loop shared-cell
scheduler that :class:`repro.cellular.cell.CellContention` replaced,
kept verbatim as the fleet engine's bit-identity oracle. Do not
optimize it.

:func:`run_reference_fleet` runs :func:`repro.core.fleet.run_fleet`
on this oracle with no tick plans installed: every member draws its
channel randomness per tick and re-arms its own tick event, and the
contention state is re-summed from dicts on every share query. The
fingerprint suite pins ``run_fleet == run_reference_fleet``
packet for packet, and ``benchmarks/test_fleet_scale.py`` measures
the engine's speedup against it.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

import repro.core.fleet
from repro.cellular.cell import CellCapacityConfig, allocate_prbs


def run_reference_fleet(config, **kwargs):
    """``run_fleet(config, **kwargs)`` on the scalar reference engine."""
    with mock.patch.object(
        repro.core.fleet, "CellContention", ScalarCellContention
    ), mock.patch.object(
        repro.core.fleet, "install_fleet_plans", lambda channels, duration: None
    ):
        return repro.core.fleet.run_fleet(config, **kwargs)


class _UeState:
    """Latest radio state one attached session reported."""

    __slots__ = ("cell", "unc_ul_bps", "unc_dl_bps", "demand_ul_bps", "demand_dl_bps")

    def __init__(self) -> None:
        self.cell: int | None = None
        self.unc_ul_bps = 0.0
        self.unc_dl_bps = 0.0
        self.demand_ul_bps: float | None = None
        self.demand_dl_bps: float | None = None


class ScalarCellContention:
    """Reference dict/loop implementation of :class:`CellContention`.

    The original (pre-vectorization) scheduler, kept verbatim: the
    fleet fingerprint gates run every pinned fleet config against both
    implementations and assert exact packet-log equality, and the
    N=64 scale bench measures the fast path's speedup against a fleet
    built on this class. Do not optimize it.
    """

    def __init__(
        self, num_cells: int, config: CellCapacityConfig | None = None
    ) -> None:
        if num_cells < 1:
            raise ValueError("num_cells must be >= 1")
        self.config = config if config is not None else CellCapacityConfig()
        self.num_cells = num_cells
        self._ues: dict[int, _UeState] = {}
        self._members: dict[int, list[int]] = {}
        self._offsets = np.zeros(num_cells)
        #: Highest concurrent attachment count ever seen per cell.
        self.peak_attached: dict[int, int] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(
        self,
        ue_id: int,
        *,
        demand_ul_bps: float | None = None,
        demand_dl_bps: float | None = None,
    ) -> None:
        """Declare a session (before its first measurement tick)."""
        if ue_id in self._ues:
            raise ValueError(f"ue {ue_id} already registered")
        state = _UeState()
        state.demand_ul_bps = demand_ul_bps
        state.demand_dl_bps = demand_dl_bps
        self._ues[ue_id] = state

    def attach(self, ue_id: int, cell: int) -> None:
        """Move ``ue_id`` onto ``cell`` (no-op if already attached)."""
        state = self._ues[ue_id]
        if state.cell == cell:
            return
        if not 0 <= cell < self.num_cells:
            raise ValueError(f"cell {cell} out of range")
        if state.cell is not None:
            self._members[state.cell].remove(ue_id)
        state.cell = cell
        members = self._members.setdefault(cell, [])
        members.append(ue_id)
        members.sort()
        self.peak_attached[cell] = max(
            self.peak_attached.get(cell, 0), len(members)
        )
        self._refresh_offsets()

    def attached_count(self, cell: int) -> int:
        """Sessions currently attached to ``cell``."""
        return len(self._members.get(cell, ()))

    def _refresh_offsets(self) -> None:
        config = self.config
        self._offsets.fill(0.0)
        for cell, members in self._members.items():
            extra = len(members) - 1
            if extra > 0:
                self._offsets[cell] = -min(
                    config.lb_max_db, config.lb_step_db * extra
                )

    # ------------------------------------------------------------------
    # handover inputs
    # ------------------------------------------------------------------
    def offsets(self) -> np.ndarray:
        """Per-cell CIO vector (dB) added to A3 measurements."""
        return self._offsets

    def blocked_cells(self, ue_id: int) -> tuple[int, ...]:
        """Cells ``ue_id`` may not enter (admission control)."""
        cap = self.config.max_sessions
        blocked = tuple(
            cell
            for cell, members in self._members.items()
            if len(members) >= cap and ue_id not in members
        )
        return blocked

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def update_rates(
        self, ue_id: int, unc_ul_bps: float, unc_dl_bps: float
    ) -> None:
        """Report a session's uncontended (full-budget) link rates."""
        state = self._ues[ue_id]
        state.unc_ul_bps = unc_ul_bps
        state.unc_dl_bps = unc_dl_bps

    @staticmethod
    def _request(
        demand_bps: float | None, unc_bps: float, budget: int
    ) -> int:
        """PRBs needed to serve ``demand_bps`` at this UE's efficiency."""
        if demand_bps is None or unc_bps <= 0.0:
            return budget
        needed = math.ceil(demand_bps * budget / unc_bps)
        return max(1, min(budget, needed))

    def shares(self, ue_id: int) -> tuple[float, float]:
        """Current (uplink, downlink) PRB share of ``ue_id`` in [0, 1]."""
        state = self._ues[ue_id]
        cell = state.cell
        if cell is None:
            return 1.0, 1.0
        members = self._members[cell]
        if len(members) == 1:
            return 1.0, 1.0
        config = self.config
        index = members.index(ue_id)
        ul_requests = [
            self._request(
                self._ues[u].demand_ul_bps,
                self._ues[u].unc_ul_bps,
                config.num_prb_ul,
            )
            for u in members
        ]
        dl_requests = [
            self._request(
                self._ues[u].demand_dl_bps,
                self._ues[u].unc_dl_bps,
                config.num_prb_dl,
            )
            for u in members
        ]
        ul_alloc = allocate_prbs(ul_requests, config.num_prb_ul)
        dl_alloc = allocate_prbs(dl_requests, config.num_prb_dl)
        return (
            ul_alloc[index] / config.num_prb_ul,
            dl_alloc[index] / config.num_prb_dl,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def cell_load(self, cell: int) -> float:
        """Uplink PRB utilization of ``cell`` in [0, 1]."""
        members = self._members.get(cell)
        if not members:
            return 0.0
        budget = self.config.num_prb_ul
        requests = [
            self._request(
                self._ues[u].demand_ul_bps, self._ues[u].unc_ul_bps, budget
            )
            for u in members
        ]
        allocation = allocate_prbs(requests, budget)
        used = sum(min(a, r) for a, r in zip(allocation, requests))
        return used / budget

    def loads(self) -> dict[int, float]:
        """Uplink PRB utilization of every occupied cell."""
        return {
            cell: self.cell_load(cell)
            for cell in sorted(self._members)
            if self._members[cell]
        }

    def occupancy(self) -> dict[int, int]:
        """Attached-session count of every occupied cell."""
        return {
            cell: len(members)
            for cell, members in sorted(self._members.items())
            if members
        }
