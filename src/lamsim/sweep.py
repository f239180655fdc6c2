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
from .magnus import (MagnusOrder, _frame_fill, _frame_powers,
                     _propagate_grids, propagate)
from .model import (DIM, LDIM, LambdaParams, closed_generator, frame_rates,
                    ground_state, liouville_generator, unvec, vec)
from .periodic import (Trajectory, _powers_of, accurate_plan,
                       commensurate_period, convergence_time, one_period,
                       period_mean_map)

SWEEPABLE = ("omega_p", "omega_c", "rabi_p", "rabi_c", "gamma_12", "gamma_23")
OBSERVABLES = ("populations", "coherences", "rwa_error",
               "convergence_time", "spectral_gap")
DRIVES = ("full", "rwa", "both")
# Rows per block of a time series: the states, their frame transform and
# the CSV text are formed one block at a time.
ROW_BLOCK = 2048


def _variants(drive: str) -> tuple[str, ...]:
    if drive not in DRIVES:
        raise ValueError(f"drive must be one of {DRIVES}, got {drive!r}")
    return ("full", "rwa") if drive == "both" else (drive,)


def _frame_rows(p: LambdaParams, times, dim: int) -> np.ndarray:
    """The rotating frame F(t) = e^{i theta t}, theta = frame_rates(p, dim),
    as factors on the rows of a propagator at each time, shape
    times.shape + (dim,): on a closed system's amplitudes (dim 3) or an
    open one's vec index (dim 9)."""
    return np.exp(1j * np.multiply.outer(times, frame_rates(p, dim)))


def to_rwf(states: np.ndarray, p: LambdaParams, times) -> np.ndarray:
    """Rotating-frame transform F(t) rho F(t)^dag of one lab-frame state
    or a stack of them: rho_ij e^{i (theta_i - theta_j) t}, so diagonals
    are kept bit for bit and off-diagonals pick up the drive phases (the
    product run_case takes on an open system's rows)."""
    return states * _frame_rows(p, times, LDIM).reshape(
        np.shape(times) + (DIM, DIM))


def run_case(p: LambdaParams, horizon: float,
             order: MagnusOrder = MagnusOrder.ORDER6,
             drive: str = "full", frame: str = "lab",
             steps_per_period: int | None = None) -> Trajectory:
    """Propagate the density matrix from |1><1| over [0, horizon].

    Closed cases run in the 3x3 Hilbert space, dissipative ones in the
    9x9 Liouville space.  One span is resolved here: the drive period T,
    or a shorter horizon h on its own ceil(steps * h / T)-step grid.  Its
    rows are formed only when the returned Trajectory is read, ROW_BLOCK
    rows at a time (Trajectory.blocks streams them; its times, states and
    populations collect them).  Longer horizons reuse the span
    stroboscopically: one state is carried from span to span, from e0
    (|1>, or vec|1><1|), and span j's rows are the span's propagators
    applied to it.  Every span but the last gives N rows, as its endpoint
    is the next span's start; the last gives its rows up to the horizon,
    endpoint included.  What a span keeps, and the frame its rows are
    formed in:

    - the full drive of a closed system: its (N + 1, 3, 3) propagators;
      lab rows;
    - the full drive of an open one: its (N + 1, 9, 9) propagators R(s)
      in the generator's own real coordinates (magnus._propagate_grids
      without vec; the Hermitian ones, U(s) = S R(s) S^-1); the carried
      state is S^-1 v (Generator._own_vector), and a block of rows is
      mapped to the vec basis as S (R(s) S^-1 v) (Generator._vec_rows);
      lab rows;
    - the RWA drive, exact in its rotating frame (_frame_route): the
      ROW_BLOCK + 1 powers E^i of one block and the doubling powers
      E^(2^i), not the span's complex (N + 1, d, d) stack, which is twice
      the open full drive's span; rotating-frame rows.

    The rotating frame is F(t) = e^{i theta t}, theta =
    model.frame_rates(p, d), on a closed system's amplitudes or an open
    one's vec index; the RWA generator declares its frame as -theta.
    Rows asked for in the other frame take one table over the span's
    grid times s: the full drive's F(s), the RWA drive's Phi(s) = F(s)^-1.
    No row takes a phase of its span's start: a span is either the only
    one or the period T, and F(T) = I at the commensurate T.  Everything
    that can fail (the periodicity check, the Magnus steps and the
    exponentials) runs in this call; the row blocks are products of the
    finite arrays it keeps.  A horizon that is negative, NaN or infinite,
    or so long that the last span's row times would not increase (its
    start outgrows the grid step by about 2^52), raises ValueError
    before anything is propagated.
    """
    if drive not in ("full", "rwa"):
        raise ValueError(f"run_case drive must be 'full' or 'rwa', got {drive!r}")
    if frame not in ("lab", "rwf"):
        raise ValueError(f"frame must be 'lab' or 'rwf', got {frame!r}")
    if not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be >= 0 and finite, got {horizon}")
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
    span = min(horizon, period)
    n_steps = max(1, math.ceil(steps * span / period - 1e-9))
    grid = np.linspace(0.0, span, n_steps + 1)
    spans = max(1, math.ceil(horizon / span - 1e-12))
    ends = grid + (spans - 1) * span  # the last span's row times
    if not np.all(np.diff(ends) > 0):
        raise ValueError(f"horizon {horizon:g} is too long: row times of "
                         f"steps {span / n_steps:g} no longer increase")
    width = ROW_BLOCK
    start = np.eye(g.dim, dtype=complex)[0]  # |1>, or vec|1><1|
    if rwa:
        rows, advance = _frame_route(g, grid, width)
    else:
        if open_system:  # the generator's real coordinates, mapped per block
            stack = _propagate_grids(g, 0.0, span, [(n_steps, True)],
                                     order)[0]
            start, to_vec = g._own_vector(start), g._vec_rows
        else:
            stack = propagate(g, 0.0, span, n_steps, order=order,
                              return_intermediate=True)
            to_vec = None

        def rows(v: np.ndarray, a: int, b: int) -> np.ndarray:
            col = _applied(stack[a:b], v)
            return col if to_vec is None else to_vec(col)

        def advance(v: np.ndarray) -> np.ndarray:
            return stack[-1] @ v
    factors = None
    if (frame == "rwf") != rwa:  # the frame the route's rows are not in
        factors = _frame_rows(p, grid, g.dim)
        factors = factors.conj() if rwa else factors
    last = int(np.searchsorted(ends, horizon * (1.0 + 1e-12), side="right"))

    def blocks():
        v = start
        for j in range(spans):
            m = n_steps if j < spans - 1 else last
            for a in range(0, m, width):
                b = min(a + width, m)
                col = rows(v, a, b)
                if factors is not None:
                    col *= factors[a:b]
                yield grid[a:b] + j * span, (
                    col.reshape(-1, DIM, DIM) if open_system
                    else col[:, :, None] * np.conj(col)[:, None, :])
            v = advance(v)

    return Trajectory.streamed(blocks, (spans - 1) * n_steps + last, frame)


def _applied(stack: np.ndarray, v: np.ndarray) -> np.ndarray:
    """stack[k] @ v for every k, as one product of the stacked rows with v
    (a batch of small products is several times slower)."""
    return (stack.reshape(-1, len(v)) @ v).reshape(len(stack), -1)


def _frame_route(g, grid: np.ndarray, width: int):
    """run_case's rotating-frame rows and span-to-span carry for a
    generator with a frame Phi(t) = diag(e^{i g.frame t}), on the span's
    grid of N steps dt.

    The carried state x is the rotating-frame one, Phi(t)^-1 psi(t) at
    the span's start t, which k steps take exactly to E^k x, E = exp(dt B)
    (magnus._frame_powers); a span takes it to E^N x.  A block of at most
    ``width`` rows a..b is the table E^i, i < b - a, applied to E^a x,
    both from the span's one batch of doubling powers E^(2^i) (the table
    by magnus._frame_fill, E^a x by periodic._powers_of)."""
    n_steps = len(grid) - 1
    doubling = _frame_powers(g, 0.0, grid[-1] / n_steps, n_steps)
    table = _frame_fill(doubling, min(width, n_steps) + 1)
    power = _powers_of(doubling)

    def rows(v: np.ndarray, a: int, b: int) -> np.ndarray:
        return _applied(table[:b - a], power(a, v))

    def advance(v: np.ndarray) -> np.ndarray:
        return power(n_steps, v)

    return rows, advance


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
    plan, step_error, stack = accurate_plan(g, period)
    u_t, micro = one_period(g, plan, stack)
    t_conv = convergence_time(g, plan, ground_state(), eps=eps,
                              precomputed=(u_t, micro))
    left, sigma, right = np.linalg.svd(u_t - np.eye(LDIM))
    k = max(1, int(np.sum(sigma <= DEGENERATE_GAP_TOL * max(1.0, sigma[0]))))
    left, right = left[:, -k:].conj().T, right[-k:].conj().T
    v_ss = right @ np.linalg.solve(left @ right, left @ vec(ground_state()))
    # factors first: their broadcast temporaries are freed before the states
    factors = _frame_rows(p, plan.micromotion_times, LDIM)
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
