"""The benchmark workloads, their seeded inputs and correctness gates.

A workload is built from a seed (which only orders its items; lamsim sees
nothing but the generated inputs), runs one timed pass at a time, and
verifies each pass afterwards, outside the timed region.  An item is one
steady-state solve, or one ``lamsim propagate`` call; each is timed with
the host speed reference (hostspeed.py) taken just before and after it.

Gates, each computed by a route independent of the code under test
(see oracles.py):
  (a) RWA one-period maps equal expm(T L_rwf) of the rotating-frame
      generator, which is exact because T is commensurate with the drive;
  (b) RWA steady states equal the null vector of L_rwf, within
      10 eps_ss / (1 - e^{-gap T}): at convergence the period-average
      delta is at most eps_ss and the slowest mode shrinks by e^{-gap T}
      per period; the factor 10 covers oscillating mode pairs and the
      Frobenius-versus-max-entry norms;
  (c) A-I RWA rotating-frame rows equal the closed-form TPR density;
  (d) full-drive states are unit-trace, Hermitian and positive;
  (e) the steady-tpr convergence periods stay 7/7/78/79/5/5 T.
Repeated passes must also give byte-identical outputs; for timeseries-cli
the gates run on the first pass only, as later passes must repeat its bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from pathlib import Path

import numpy as np

import hostspeed
import oracles
from lamsim import analysis, cli, model, rwa_oracle, sweep
from tracer import patched

BASE_STEPS = 2 ** 13 - 1
EPS_SS = 1e-6                 # library default of eps / --eps-ss
TRACE_TOL = 1e-9
HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9
PERIOD_MAP_TOL = 1e-10        # gate (a); 0.7-2.3e-12 measured
TPR_ORACLE_TOL = 1e-8         # gate (c); acceptance criterion 1's tolerance
RWA_ERROR_RTOL = 1e-9


class Item:
    __slots__ = ("key", "seconds", "reference_s", "errors")

    def __init__(self, key: str):
        self.key = key
        self.seconds = 0.0
        self.reference_s = hostspeed.REFERENCE_S
        self.errors: list[str] = []

    @property
    def scaled_s(self) -> float:
        return hostspeed.scaled(self.seconds, self.reference_s)


class Stopwatch:
    """Times the consecutive items of one pass, each bracketed by the host
    speed reference; the kernel run after one item is the one before the
    next."""

    def __init__(self):
        self._last = None

    @contextlib.contextmanager
    def timed(self, item: Item):
        before = self._last if self._last is not None else hostspeed.sample()
        start = time.perf_counter()
        try:
            yield item
        finally:
            item.seconds = time.perf_counter() - start
            self._last = hostspeed.sample()
            item.reference_s = 0.5 * (before + self._last)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _gap_per_period(gen: np.ndarray, period: float) -> float:
    decay = np.sort(-np.linalg.eigvals(gen).real)
    return float(decay[1] * period)


def _steady_tol(gen: np.ndarray, period: float) -> float:
    return 10.0 * EPS_SS / (1.0 - np.exp(-_gap_per_period(gen, period)))


def _check_density(item: Item, rho: np.ndarray):
    trace, herm, min_eig = oracles.density_defects(rho)
    if trace > TRACE_TOL:
        item.errors.append(f"trace defect {trace:.3e}")
    if herm > HERMITIAN_TOL:
        item.errors.append(f"hermiticity defect {herm:.3e}")
    if min_eig < -PSD_TOL:
        item.errors.append(f"negative eigenvalue {min_eig:.3e}")


def _check_close(item: Item, what: str, got, want, tol: float):
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not dev <= tol:
        item.errors.append(f"{what}: deviation {dev:.3e} > {tol:.1e}")


class _Workload:
    """Shared pass bookkeeping: digests of the first pass are the
    reference for byte-identity of every later pass."""

    name = ""
    entry: tuple = ()         # (container, key) where the first item starts

    def __init__(self):
        self._first_digests: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.out_bytes = 0

    def _record_digest(self, item: Item, digest: str):
        first = self._first_digests.setdefault(item.key, digest)
        self.digests[item.key] = digest
        if digest != first:
            item.errors.append("output differs from the first pass")


class SteadyTpr(_Workload):
    """steady_state_summary for A-II, B-II, C-II x {full, rwa} at
    two-photon resonance (q = 1), plus rwa_error of each pair."""

    name = "steady-tpr"
    entry = (sweep, "steady_state_summary")
    CASES = ("A-II", "B-II", "C-II")
    CONVERGENCE_PERIODS = {"A-II/full": 7, "A-II/rwa": 7, "B-II/full": 78,
                           "B-II/rwa": 79, "C-II/full": 5, "C-II/rwa": 5}

    def __init__(self, seed: int, outdir: Path):
        super().__init__()
        keys = [f"{c}/{d}" for c in self.CASES for d in ("full", "rwa")]
        order = np.random.default_rng(seed).permutation(len(keys))
        self.order = [keys[i] for i in order]
        self.params = {c: model.preset(c) for c in self.CASES}
        self._oracle: dict[str, tuple] = {}

    def run_pass(self):
        items, results, errors = [], {}, {}
        captured = {}

        def capture(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                # A copy: out[0] is a view that would keep the whole
                # micromotion stack alive and inflate peak_rss_mb.
                captured["u_t"] = out[0].copy()
                return out
            return wrapper

        watch = Stopwatch()
        with patched(sweep, "one_period", capture(sweep.one_period)):
            for key in self.order:
                case, drive = key.split("/")
                item = Item(key)
                items.append(item)
                with watch.timed(item):
                    try:
                        s = sweep.steady_state_summary(self.params[case],
                                                       rwa=(drive == "rwa"))
                    except Exception as exc:  # counted as a failed item
                        item.errors.append(f"{type(exc).__name__}: {exc}")
                        continue
                    results[key] = (s, captured.pop("u_t"))
                    pair = (f"{case}/full", f"{case}/rwa")
                    if all(k in results for k in pair):
                        # Part of the item that completes the pair.
                        errors[case] = analysis.rwa_error(
                            results[pair[1]][0]["rho_ss_rwf"],
                            results[pair[0]][0]["rho_ss_rwf"])
        return items, (results, errors)

    def _reference(self, case: str, period: float):
        if case not in self._oracle:
            gen = oracles.rwf_generator(self.params[case])
            self._oracle[case] = (
                oracles.expm_taylor(period * gen), oracles.null_state(gen),
                _steady_tol(gen, period))
        return self._oracle[case]

    def verify(self, items, outputs):
        results, errors = outputs
        for item in items:
            if item.key not in results:
                continue
            case, drive = item.key.split("/")
            s, u_t = results[item.key]
            rho = s["rho_ss_rwf"]
            self._record_digest(item, _digest(
                rho.tobytes(), np.array([s["t_conv"], s["gap"]]).tobytes()))
            periods = s["t_conv"] / s["period"]
            if abs(periods - self.CONVERGENCE_PERIODS[item.key]) > 1e-9:
                item.errors.append(f"converged in {periods} T, expected "
                                   f"{self.CONVERGENCE_PERIODS[item.key]}")
            if drive == "rwa":
                u_ref, rho_ref, tol = self._reference(case, s["period"])
                _check_close(item, "period map vs expm(T L_rwf)", u_t, u_ref,
                             PERIOD_MAP_TOL)
                _check_close(item, "steady state vs null(L_rwf)", rho,
                             rho_ref, tol)
            else:
                _check_density(item, rho)
            if case in errors:
                want = oracles.rel_frobenius(
                    results[f"{case}/rwa"][0]["rho_ss_rwf"],
                    results[f"{case}/full"][0]["rho_ss_rwf"])
                if abs(errors[case] - want) > RWA_ERROR_RTOL * want:
                    item.errors.append(f"rwa_error {errors[case]!r} != "
                                       f"{want!r}")


def _read_csv(path: Path) -> tuple[list[str], list[str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return lines[0].split(","), lines[1:]


def _states(cols: dict[str, np.ndarray], prefix: str = "") -> np.ndarray:
    """Hermitian 3x3 states from CSV population and coherence columns."""
    n = len(cols[f"{prefix}rho11"])
    rho = np.zeros((n, 3, 3), dtype=complex)
    for i in range(3):
        rho[:, i, i] = cols[f"{prefix}rho{i + 1}{i + 1}"]
    for (i, j), tag in (((0, 1), "r12"), ((0, 2), "r13"), ((1, 2), "r23")):
        rho[:, i, j] = (cols[f"{prefix}re_{tag}"]
                        + 1j * cols[f"{prefix}im_{tag}"])
        rho[:, j, i] = np.conj(rho[:, i, j])
    return rho


class TimeseriesCli(_Workload):
    """Four in-process ``lamsim propagate --frame rwf`` calls: A-I over
    8 periods and A-II over 4, each with the full and the RWA drive."""

    name = "timeseries-cli"
    entry = (cli, "run_case")
    CALLS = (("A-I", 8, "full"), ("A-I", 8, "rwa"),
             ("A-II", 4, "full"), ("A-II", 4, "rwa"))

    def __init__(self, seed: int, outdir: Path):
        super().__init__()
        order = np.random.default_rng(seed).permutation(len(self.CALLS))
        self.calls = []
        for i in order:
            case, periods, drive = self.CALLS[i]
            out = outdir / f"{case}-{drive}.csv"
            argv = ["propagate", "--case", case, "--periods", str(periods),
                    "--drive", drive, "--frame", "rwf", "--out", str(out)]
            self.calls.append((f"{case}/{drive}", periods, out, argv))

    def run_pass(self):
        items, codes, watch = [], {}, Stopwatch()
        for key, _, _, argv in self.calls:
            item = Item(key)
            with watch.timed(item):
                codes[key] = cli.main(argv)
            items.append(item)
        return items, codes

    def verify(self, items, codes):
        self.out_bytes = 0
        for item, (key, periods, out, _) in zip(items, self.calls):
            if codes[key] != 0:
                item.errors.append(f"lamsim propagate exit code {codes[key]}")
                continue
            raw = out.read_bytes()
            self.out_bytes += len(raw)
            repeat = item.key in self._first_digests
            self._record_digest(item, _digest(raw))
            if repeat:
                # Bytes equal to the first pass's, which the gates below
                # checked, or the item has already failed.
                continue
            header, rows = _read_csv(out)
            data = np.loadtxt(rows, delimiter=",", usecols=range(10), ndmin=2)
            cols = dict(zip(header, data.T))
            n_rows = periods * BASE_STEPS + 1
            if len(rows) != n_rows:
                item.errors.append(f"{len(rows)} rows, expected {n_rows}")
                continue
            case, drive = key.split("/")
            p = model.preset(case)
            t, rho = cols["t"], _states(cols)
            if drive == "full":
                _check_density(item, rho)
            elif case == "A-I":
                want = np.moveaxis(rwa_oracle.rwa_density_tpr(p, t), -1, 0)
                _check_close(item, "rows vs closed-form TPR density", rho,
                             want, TPR_ORACLE_TOL)
            else:
                gen = oracles.rwf_generator(p)
                v0 = oracles.ground_vec()
                sample = np.linspace(0, n_rows - 1, 9).astype(int)
                want = [(oracles.expm_taylor(t[k] * gen) @ v0).reshape(3, 3)
                        for k in sample]
                _check_close(item, "rows vs expm(t L_rwf) rho0", rho[sample],
                             want, PERIOD_MAP_TOL)


WORKLOADS = {w.name: w for w in (SteadyTpr, TimeseriesCli)}
