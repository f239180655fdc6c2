"""Parameter-scan orchestration: single-case time series, probe-frequency
line scans, and 2-d (control, probe) grids with steady-state observables,
convergence times and spectral gaps.

Each grid point is an independent work item: the drive period is chosen
commensurate with both field frequencies and resolved, from the half
sub-period T/(2m) under its sign gauge, to an eighth-order U_T whose
three-level error estimate is at most 1e-12 (periodic.accurate_plan:
Richardson extrapolation of sixth-order step counts), and the steady
state is the limit of U_T^n applied to the initial state (its projection
onto the fixed points of U_T), averaged over one period in the rotating
frame as the trapezoid mean of its states; the CLI's gap and validate
resolve U_T alike.  Time series (run_case) keep q * BASE_STEPS grid
points per period by default.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import periodic
from .analysis import (DEGENERATE_GAP_TOL, rwa_error, spectral_gap,
                       trace_defect)
from .magnus import MagnusOrder, propagate
from .model import (LDIM, LambdaParams, closed_generator, ground_state,
                    liouville_generator, rwf_phases, unvec, vec)
from .periodic import (Trajectory, accurate_plan, commensurate_period,
                       convergence_time, one_period, period_mean_map)

SWEEPABLE = ("omega_p", "omega_c", "rabi_p", "rabi_c", "gamma_12", "gamma_23")
OBSERVABLES = ("populations", "coherences", "rwa_error",
               "convergence_time", "spectral_gap")
DRIVES = ("full", "rwa", "both")
# Cap on the rows (grid times) per drive of one run_case call,
# floor(steps_per_period * horizon / period) + 1.  Every row's time and
# state are held until the call returns, 152 B each (~9.5 GiB at the
# cap), so a longer horizon is refused before anything is computed.
MAX_ROWS = 2 ** 26
# Rows per block of a time series: the states, their frame transform and
# the CSV text are formed one block at a time.
ROW_BLOCK = 2048


def _variants(drive: str) -> tuple[str, ...]:
    if drive not in DRIVES:
        raise ValueError(f"drive must be one of {DRIVES}, got {drive!r}")
    return ("full", "rwa") if drive == "both" else (drive,)


def _rwf_factors(p: LambdaParams, times) -> np.ndarray:
    """conj(w_i) w_j at each time: the entrywise factors of to_rwf."""
    w = rwf_phases(p, times)
    return np.conj(w)[..., :, None] * w[..., None, :]


def to_rwf(states: np.ndarray, p: LambdaParams, times) -> np.ndarray:
    """Rotating-frame transform W(t)^dag rho W(t) of one lab-frame state
    or a stack of them: diagonals are unchanged, off-diagonals pick up the
    drive phases."""
    return _rwf_factors(p, times) * states


def _frame_rows(p: LambdaParams, times, open_system: bool) -> np.ndarray:
    """The rotating frame as factors on the rows of a propagator, at each
    time: conj w on a closed system's amplitudes (W^dag psi), conj(w_i) w_j
    on an open one's vec index (to_rwf's factors)."""
    if open_system:
        return _rwf_factors(p, times).reshape(np.shape(times) + (LDIM,))
    return np.conj(rwf_phases(p, times))


def run_case(p: LambdaParams, horizon: float,
             order: MagnusOrder = MagnusOrder.ORDER6,
             drive: str = "full", frame: str = "lab",
             steps_per_period: int | None = None) -> Trajectory:
    """Propagate the density matrix from |1><1| over [0, horizon].

    Closed cases run in the 3x3 Hilbert space, dissipative ones in the
    9x9 Liouville space.  One span is resolved: the drive period T, or a
    shorter horizon h on its own ceil(steps * h / T)-step grid.  Longer
    horizons reuse it stroboscopically: the state v_n = U_T^n e0 (e0 = |1>,
    or vec|1><1|) is carried from period to period, and period n's rows are
    the span's propagators applied to it, ROW_BLOCK rows at a time, written
    in the requested frame into one preallocated state stack, so no
    multi-period propagator stack and no second full-length array is
    held.  The rotating frame is folded into the span, as its factors
    multiply across shifts, F(j span + s) = F(j span) F(s): each row of
    the span's stack takes F(s) in place, a block at a time, a copy of
    the lab-frame span map carries the state, and a block of span j is
    one product with it and one multiply by the constant F(j span).  A
    horizon that is negative or NaN, or of more than MAX_ROWS grid times,
    raises ValueError before anything is propagated.
    """
    if drive not in ("full", "rwa"):
        raise ValueError(f"run_case drive must be 'full' or 'rwa', got {drive!r}")
    if frame not in ("lab", "rwf"):
        raise ValueError(f"frame must be 'lab' or 'rwf', got {frame!r}")
    if not horizon >= 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    rwa = drive == "rwa"
    if horizon == 0:
        return Trajectory(times=np.array([0.0]),
                          states=np.array([ground_state()]), frame=frame)

    open_system = p.is_dissipative
    period, steps = commensurate_period(p.omega_p, p.omega_c)
    if steps_per_period is not None:
        steps = steps_per_period
    g = (liouville_generator(p, rwa=rwa) if open_system
         else closed_generator(p, rwa=rwa))
    periodic.make_plan(g, period, steps)  # checks periodicity and the cap
    if steps * (horizon / period) >= MAX_ROWS:
        raise ValueError(
            f"horizon {horizon} needs about {steps * horizon / period:.3g} "
            f"rows per drive, above the cap MAX_ROWS = {MAX_ROWS}")
    span = min(horizon, period)
    n_steps = max(1, math.ceil(steps * span / period - 1e-9))
    micro = propagate(g, 0.0, span, n_steps, order=order,
                      return_intermediate=True)
    grid = np.linspace(0.0, span, n_steps + 1)
    carry = micro[-1]
    if frame == "rwf":
        # fold the frame into the span: F(j span + s) = F(j span) F(s)
        carry = carry.copy()  # the lab-frame span map
        for a in range(0, len(micro), ROW_BLOCK):
            micro[a:a + ROW_BLOCK] *= _frame_rows(
                p, grid[a:a + ROW_BLOCK], open_system)[:, :, None]
    # A span shorter than T is repeated once: its second block is the
    # row at t = h, micro[0] @ U(h).
    # Rows taken from each span: a whole span's endpoint duplicates the
    # next span's start, and the last span is cut at the horizon.
    spans = int(math.floor(horizon / span + 1e-12))
    last = int(np.searchsorted(grid + spans * span, horizon * (1.0 + 1e-12),
                               side="right"))
    counts = [n_steps] * spans + [last] * (last > 0)
    times = np.empty(sum(counts))
    states = np.empty((len(times), 3, 3), dtype=complex)
    v = np.eye(g.dim, dtype=complex)[0]  # |1>, or vec|1><1|
    row = 0
    for j, m in enumerate(counts):
        times[row:row + m] = grid[:m] + j * span
        shift = _frame_rows(p, j * span, open_system) \
            if frame == "rwf" else None  # F(j span)
        for a in range(0, m, ROW_BLOCK):
            b = min(a + ROW_BLOCK, m)
            col = micro[a:b] @ v
            if shift is not None:
                col *= shift
            block = states[row + a:row + b]
            if open_system:
                block[...] = col.reshape(-1, 3, 3)
            else:
                np.multiply(col[:, :, None], np.conj(col)[:, None, :],
                            out=block)
        row += m
        v = carry @ v
    return Trajectory(times=times, states=states, frame=frame)


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.name not in SWEEPABLE:
            raise ValueError(
                f"cannot sweep {self.name!r}; allowed: {SWEEPABLE}")
        bounds = (self.start, self.stop, self.step)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"{self.name} axis start:stop:step must be "
                             f"finite, got {':'.join(map(str, bounds))}")
        if self.step <= 0:
            raise ValueError("axis step must be positive")
        if self.start > self.stop:
            raise ValueError("axis start must be <= stop")

    def values(self) -> np.ndarray:
        n = int(round((self.stop - self.start) / self.step))
        vals = self.start + self.step * np.arange(n + 1)
        return vals[vals <= self.stop + 1e-9 * self.step]


@dataclass(frozen=True)
class SweepSpec:
    base: LambdaParams
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    observables: tuple[str, ...] = ("populations", "coherences")
    drive: str = "both"
    eps_ss: float = 1e-6
    workers: int = 1

    def __post_init__(self):
        for obs in self.observables:
            if obs not in OBSERVABLES:
                raise ValueError(
                    f"unknown observable {obs!r}; allowed: {OBSERVABLES}")
        _variants(self.drive)
        if "rwa_error" in self.observables and self.drive != "both":
            raise ValueError("observable 'rwa_error' compares both drives; "
                             f"it needs drive 'both', got {self.drive!r}")

    def grid(self) -> list[dict[str, float]]:
        """Grid-point parameter overrides, axis1 outer, axis2 inner."""
        a1 = self.axis1.values()
        if self.axis2 is None:
            return [{self.axis1.name: v} for v in a1]
        a2 = self.axis2.values()
        return [{self.axis1.name: v1, self.axis2.name: v2}
                for v1 in a1 for v2 in a2]


@dataclass
class SweepResult:
    columns: list[str]
    rows: list[dict]

    def table(self) -> list[list]:
        return [[row.get(c, "") for c in self.columns] for row in self.rows]


def steady_state_summary(p: LambdaParams, rwa: bool,
                         eps: float = 1e-6) -> dict:
    """Steady-state observables at one grid point: rho_ss_rwf, the
    rotating-frame trapezoid average over one period of the states that
    the period's propagators take lim U_T^n |1><1| to (the unit-trace
    projection R (L R)^-1 L v0 onto U_T's fixed points, R and L the null
    vectors of U_T - I for its k >= 1 singular values <= DEGENERATE_GAP_TOL
    * max(1, sigma_max)), the eps-convergence time t_conv of the period
    averages, the spectral gap, U_T's trace defect, and U_T itself (u_t).

    The period is resolved once, by one_period from the extrapolated
    sub-period stack that periodic.accurate_plan accepts, on its grid of
    ``steps`` per period, and ``step_error`` is its three-level estimate of
    U_T's max-entry error (<= STEP_ERROR_TARGET)."""
    if not p.is_dissipative:
        raise ValueError("steady-state analysis requires dissipation")
    period, _ = commensurate_period(p.omega_p, p.omega_c)
    g = liouville_generator(p, rwa=rwa)
    plan, step_error, sub = accurate_plan(g, period)
    u_t, micro = one_period(g, plan, sub)
    t_conv = convergence_time(g, plan, ground_state(), eps=eps,
                              precomputed=(u_t, micro))
    left, sigma, right = np.linalg.svd(u_t - np.eye(LDIM))
    k = max(1, int(np.sum(sigma <= DEGENERATE_GAP_TOL * max(1.0, sigma[0]))))
    left, right = left[:, -k:].conj().T, right[-k:].conj().T
    v_ss = right @ np.linalg.solve(left @ right, left @ vec(ground_state()))
    # factors first: their broadcast temporaries are freed before the states
    factors = _rwf_factors(p, plan.micromotion_times).reshape(-1, LDIM)
    gap = spectral_gap(u_t, period=plan.period)
    return {
        "rho_ss_rwf": unvec(period_mean_map(
            factors * (micro @ (v_ss / np.trace(unvec(v_ss)))))),
        "t_conv": t_conv,
        "gap": gap.gap,
        "gap_per_time": gap.gap_per_time,
        "trace_defect": trace_defect(u_t),
        "period": plan.period,
        "steps": plan.steps_per_period,
        "step_error": step_error,
        "u_t": u_t,
    }


def _state_columns(prefix: str, rho: np.ndarray, want_pops: bool,
                   want_coh: bool) -> dict:
    out = {}
    if want_pops:
        out.update({f"{prefix}rho11": rho[0, 0].real,
                    f"{prefix}rho22": rho[1, 1].real,
                    f"{prefix}rho33": rho[2, 2].real})
    if want_coh:
        for (i, j), tag in (((0, 1), "r12"), ((0, 2), "r13"), ((1, 2), "r23")):
            out[f"{prefix}re_{tag}"] = rho[i, j].real
            out[f"{prefix}im_{tag}"] = rho[i, j].imag
    return out


def _eval_point(spec: SweepSpec, overrides: dict[str, float]) -> dict:
    row: dict = dict(overrides)
    try:
        p = spec.base.with_(**overrides)
        summaries = {}
        for variant in _variants(spec.drive):
            summaries[variant] = steady_state_summary(
                p, rwa=(variant == "rwa"), eps=spec.eps_ss)
        want_pops = "populations" in spec.observables
        want_coh = "coherences" in spec.observables
        for variant, s in summaries.items():
            prefix = f"{variant}_"
            row.update(_state_columns(prefix, s["rho_ss_rwf"],
                                      want_pops, want_coh))
            if "convergence_time" in spec.observables:
                row[f"{prefix}t_conv"] = s["t_conv"]
            if "spectral_gap" in spec.observables:
                row[f"{prefix}gap"] = s["gap"]
                row[f"{prefix}gap_per_time"] = s["gap_per_time"]
            row[f"{prefix}trace_defect"] = s["trace_defect"]
            row[f"{prefix}steps"] = s["steps"]
        if "rwa_error" in spec.observables:
            row["rwa_error"] = rwa_error(summaries["rwa"]["rho_ss_rwf"],
                                         summaries["full"]["rho_ss_rwf"])
        row["period"] = next(iter(summaries.values()))["period"]
    except Exception as exc:  # isolate failures to this grid point
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point; failures are recorded per row and never
    abort the sweep.  Rows come back in deterministic grid order.  A pool
    forks all its processes at once, so it gets min(workers, points, CPUs);
    a worker that dies (as by an out-of-memory kill) raises MemoryError."""
    points = spec.grid()
    workers = min(spec.workers, len(points), os.cpu_count() or 1)
    if workers > 1:
        # only here: keeps importing cli light (the pool loads multiprocessing)
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_eval_point, [spec] * len(points),
                                     points))
        except BrokenProcessPool as exc:
            raise MemoryError(f"a sweep worker died: {exc}") from exc
    else:
        rows = [_eval_point(spec, pt) for pt in points]
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return SweepResult(columns=columns, rows=rows)


def rwa_error_curve(p: LambdaParams, horizon: float,
                    steps_per_period: int | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Relative Frobenius deviation between the co-rotating-drive and
    exact-drive (sixth-order) states over time, from |1><1|."""
    full = run_case(p, horizon, drive="full",
                    steps_per_period=steps_per_period)
    approx = run_case(p, horizon, drive="rwa",
                      steps_per_period=steps_per_period)
    return full.times, rwa_error(approx.states, full.states)
