"""Command-line front end: config parsing, the propagate / sweep / gap /
validate subcommands, and CSV emission.

Each setting is declared once (``_FLAGS``).  A subcommand takes the shared
settings and those it reads (``_READS``), as flags or as keys of an
optional ``key = value`` file (``#`` comments, quoted strings; flags win);
any other setting exits 2.  Outputs are CSV with ``#``-prefixed metadata
lines recording the resolved parameters and the settings read, so
identical inputs give byte-identical files (unless ``--timestamp``).

Exit codes: 0 success, 1 validation-threshold failure, 2 configuration or
I/O error (a ValueError from the library's own checks of the parameters,
sweep axes and observables is one: its message is the ``error: ...`` line
on stderr), 3 numerical failure or out of memory (a dead sweep worker too;
no file is written), or for ``sweep`` failed grid points and, for ``gap``
and ``sweep --observables spectral_gap``, unresolved gaps, |lambda_2(U_T)|
<= 1e-12, written as nan (the full CSV is still written and a count goes
to stderr).  ``gap`` also writes nan for the eigen-log of every eigenvalue
with |lambda| <= 1e-12, whatever the exit code.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from contextlib import closing
from dataclasses import dataclass, field, fields as dc_fields
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from .analysis import (LAMBDA2_FLOOR, cptp_check, density_validity,
                       resolved_log, spectral_gap)
from .magnus import MagnusOrder, propagate
from .model import (DIM, PRESET_NAMES, LambdaParams, ground_state,
                    liouville_generator, preset, vec)
from .periodic import (HorizonError, Trajectory, accurate_plan,
                       commensurate_period, one_period)
from .sweep import (DRIVES, SweepAxis, SweepSpec, _variants, run_case,
                    run_sweep)

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_PARAM_KEYS = ("e1", "e2", "e3", "omega_p", "omega_c", "rabi_p", "rabi_c",
               "gamma_12", "gamma_23", "nbar_12", "nbar_23")

# setting -> add_argument keywords of its --flag; a config-file value takes
# the same type (str if none) and choices
_FLAGS = {
    "config": dict(help="key = value configuration file"),
    "case": dict(choices=PRESET_NAMES), "out": {}, "observables": {},
    "order": dict(type=int, choices=(4, 6),
                  help="Magnus order of the full drive's time series "
                       "(default 6); the RWA drive is exact in its rotating "
                       "frame at any order and step count"),
    "drive": dict(choices=DRIVES), "frame": dict(choices=("lab", "rwf")),
    **{k: dict(type=int) for k in ("steps_per_period", "periods", "workers")},
    **{k: dict(type=float) for k in ("horizon", "eps_ss", "delta_omega_p",
                                     "delta_omega_c")},
    **{k: dict(metavar="a:b:step")
       for k in ("omega_p_range", "omega_c_range")},
    "timestamp": dict(action="store_true", default=None,
                      help="record generation time in the CSV header"),
    **{k: dict(type=float, help=argparse.SUPPRESS) for k in _PARAM_KEYS},
}
_FLAG_ONLY = ("config", "timestamp")  # never config-file keys
_SHARED = ("config", "case", "out", "timestamp", "delta_omega_p",
           "delta_omega_c", *_PARAM_KEYS)
# the settings each subcommand reads besides the shared ones
_READS = {
    "propagate": ("order", "steps_per_period", "periods", "horizon", "drive",
                  "frame"),
    "sweep": ("drive", "observables", "eps_ss", "workers", "omega_p_range",
              "omega_c_range"),
    "gap": ("drive",),
    "validate": ("drive",),
}
# the run settings a subcommand's metadata records, if it reads them
_RECORDED = ("order", "steps_per_period", "drive", "frame", "eps_ss")
# the part of a config line before its comment: a '#' inside quotes is text
_BEFORE_COMMENT = re.compile(r"""(?:[^#"']|"[^"]*"?|'[^']*'?)*""")


class ConfigError(Exception):
    """Invalid configuration (unknown key, type mismatch, conflicts)."""


@dataclass
class RunConfig:
    """Fully merged run configuration with library defaults applied;
    ``params`` holds the explicitly given LambdaParams fields, keyed by
    _PARAM_KEYS."""

    case: str | None = None
    params: dict[str, float] = field(default_factory=dict)
    delta_omega_p: float = 0.0
    delta_omega_c: float = 0.0
    order: int = 6  # propagate only
    steps_per_period: int | None = None  # propagate: q * BASE_STEPS
    periods: int | None = None
    horizon: float | None = None
    drive: str = "both"
    frame: str = "rwf"
    out: str | None = None
    observables: str = "populations,coherences"
    eps_ss: float = 1e-6
    workers: int = 1
    omega_p_range: str | None = None
    omega_c_range: str | None = None
    timestamp: bool = False


def _parse_value(key: str, raw: str, where: str, command: str):
    if key in _FLAG_ONLY or key not in (*_SHARED, *_READS[command]):
        raise ConfigError(f"{where}: {command} takes no key {key!r}")
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        raw = raw[1:-1]
    spec = _FLAGS[key]
    try:
        value = spec.get("type", str)(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    if "choices" in spec and value not in spec["choices"]:
        raise ConfigError(f"{where}: {key} must be one of "
                          f"{spec['choices']}, got {value!r}")
    return value


def parse_config_text(text: str, command: str) -> dict:
    """Parse ``key = value`` configuration text for one subcommand into a
    validated dict."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _BEFORE_COMMENT.match(line).group().strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        out[key] = _parse_value(key, raw, f"line {lineno}", command)
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge a config file (if any) with flag overrides into a RunConfig."""
    values: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read(), args.command))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    cfg_names = {f.name for f in dc_fields(RunConfig)}
    for key, value in vars(args).items():
        if (key in cfg_names or key in _PARAM_KEYS) and value is not None:
            values[key] = value
    params = {k: values.pop(k) for k in _PARAM_KEYS if k in values}
    if values.get("case") is not None and params:
        raise ConfigError(
            f"preset 'case' conflicts with explicit keys {list(params)}")
    cfg = RunConfig(params=params,
                    **{k: v for k, v in values.items() if k in cfg_names})
    if cfg.periods is not None and cfg.horizon is not None:
        raise ConfigError("periods and horizon are mutually exclusive")
    for key, holds, rule in (
            *((k, lambda v: v >= 1, ">= 1")
              for k in ("steps_per_period", "periods", "workers")),
            *((k, lambda v: 0 < v < np.inf, "positive and finite")
              for k in ("horizon", "eps_ss"))):
        value = getattr(cfg, key)
        if value is not None and not holds(value):
            raise ConfigError(f"{key} must be {rule}, got {value}")
    return cfg


def resolve_params(cfg: RunConfig) -> LambdaParams:
    if cfg.case is not None:
        if cfg.case not in PRESET_NAMES:
            raise ConfigError(f"unknown case {cfg.case!r}; "
                              f"expected one of {PRESET_NAMES}")
        return preset(cfg.case, delta_omega_p=cfg.delta_omega_p,
                      delta_omega_c=cfg.delta_omega_c)
    kwargs = cfg.params
    missing = [k for k in ("e2", "e3", "rabi_p", "rabi_c") if k not in kwargs]
    if missing:
        raise ConfigError(
            f"missing required keys {missing} (or pass case = \"A-I\" ... "
            f"\"C-II\")")
    if "omega_p" not in kwargs and "omega_c" not in kwargs:
        return LambdaParams.tpr(delta_omega_p=cfg.delta_omega_p,
                                delta_omega_c=cfg.delta_omega_c, **kwargs)
    if "omega_p" not in kwargs or "omega_c" not in kwargs:
        raise ConfigError("omega_p and omega_c must be given together")
    for key in ("omega_p", "omega_c"):
        if getattr(cfg, f"delta_{key}"):
            raise ConfigError(f"delta_{key} cannot detune explicit {key}")
    return LambdaParams(**kwargs)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _metadata_lines(cfg: RunConfig, p: LambdaParams, command: str,
                    extra: dict) -> list[str]:
    items = {k: getattr(p, k) for k in _PARAM_KEYS}
    items.update((k, getattr(cfg, k)) for k in _RECORDED
                 if k in _READS[command])
    items.update(extra)  # a resolved value keeps its setting's place
    lines = [f"# {key} = {_fmt(val)}" for key, val in items.items()]
    if cfg.timestamp:
        lines.append(f"# generated = "
                     f"{datetime.now(timezone.utc).isoformat()}")
    return lines


def _write_csv(cfg: RunConfig, metadata: list[str], header: list[str],
               blocks) -> None:
    """Write metadata, header and the blocks (bytes-like UTF-8 text, each
    a run of complete ``\n``-terminated rows) to ``cfg.out`` as bytes, or
    to stdout as the decoded text."""
    head = "".join(f"{line}\n" for line in [*metadata, ",".join(header)])
    if cfg.out is not None:
        with open(cfg.out, "wb") as fh:
            fh.write(head.encode())
            fh.writelines(blocks)
    else:
        sys.stdout.write(head)
        sys.stdout.writelines(bytes(block).decode() for block in blocks)


def _row_text(rows) -> bytes:
    """One text block of mixed-type rows, cell by cell."""
    return "".join(",".join(_fmt(cell) for cell in row) + "\n"
                   for row in rows).encode()


PROPAGATE_HEADER = ["t", "rho11", "rho22", "rho33", "re_r12", "im_r12",
                    "re_r13", "im_r13", "re_r23", "im_r23", "drive", "frame"]


def _propagate_columns(times: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Rows of a trajectory as a (len(times), 10) float array in
    PROPAGATE_HEADER order."""
    return np.column_stack([
        times, rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 2, 2].real,
        rho[:, 0, 1].real, rho[:, 0, 1].imag, rho[:, 0, 2].real,
        rho[:, 0, 2].imag, rho[:, 1, 2].real, rho[:, 1, 2].imag])


def _trajectory_blocks(trajectories: dict[str, Trajectory], frame: str):
    """The text of every block of each drive's trajectory, in order, as
    it is formed: every float as %.17g (the same text as _fmt), then
    ``,drive,frame``.  The blocks alternate between two formatters, the
    even ones on one worker thread and the odd ones on the caller's, so
    two blocks at most are formatted or held at a time: an odd block is
    given out once the worker has its successor.  A formatter's error
    is raised here, and the worker is stopped on every exit."""
    # only here: keeps importing cli light for the other subcommands
    from concurrent.futures import ThreadPoolExecutor

    from ._floattext import FloatRows

    tables = ((_propagate_columns(times, states), f",{drive},{frame}")
              for drive, traj in trajectories.items()
              for times, states in traj.blocks())
    mine, theirs = FloatRows(), FloatRows()
    with ThreadPoolExecutor(1) as pool:
        job = text = None
        for i, (table, suffix) in enumerate(tables):
            if i % 2 == 0:
                job = pool.submit(theirs, table, suffix)
                if text is not None:
                    yield text
                    text = None
            else:
                text = mine(table, suffix)
                yield job.result()
                job = None
        if job is not None:
            yield job.result()
        if text is not None:
            yield text


def cmd_propagate(cfg: RunConfig) -> int:
    """Write each drive's time series.  run_case resolves every drive's
    span, and everything that can fail with it, before the output is
    opened, so a numerical failure leaves no partial file; the rows are
    then formed one block at a time, formatted on two threads
    (_trajectory_blocks) and written in block order, as bytes to --out
    or as text streamed to stdout, and no drive's horizon of states is
    held."""
    p = resolve_params(cfg)
    period, q_steps = commensurate_period(p.omega_p, p.omega_c)
    steps = cfg.steps_per_period or q_steps  # build_config rejects 0
    if cfg.horizon is not None:
        horizon = cfg.horizon
    else:
        horizon = (cfg.periods if cfg.periods is not None else 1) * period
    trajectories = {drive: run_case(
        p, horizon, order=MagnusOrder(cfg.order), drive=drive,
        frame=cfg.frame, steps_per_period=steps)
        for drive in _variants(cfg.drive)}
    meta = {"steps_per_period": steps, "horizon": horizon}
    with closing(_trajectory_blocks(trajectories, cfg.frame)) as blocks:
        _write_csv(cfg, _metadata_lines(cfg, p, "propagate", meta),
                   PROPAGATE_HEADER, blocks)
    return EXIT_OK


def _parse_range(spec: str, name: str) -> tuple[float, float, float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must look like start:stop:step, "
                          f"got {spec!r}")
    try:
        return tuple(float(x) for x in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise ConfigError(f"bad number in {name}: {exc}") from exc


def cmd_sweep(cfg: RunConfig) -> int:
    p = resolve_params(cfg)
    axes = []
    for key, axis_name in (("omega_p_range", "omega_p"),
                           ("omega_c_range", "omega_c")):
        spec = getattr(cfg, key)
        if spec is not None:
            axes.append(SweepAxis(axis_name, *_parse_range(spec, key)))
    if not axes:
        raise ConfigError(
            "sweep needs --omega-p-range and/or --omega-c-range")
    observables = tuple(s.strip() for s in cfg.observables.split(",")
                        if s.strip())
    result = run_sweep(SweepSpec(
        base=p, axis1=axes[0], axis2=axes[1] if len(axes) > 1 else None,
        observables=observables, drive=cfg.drive, eps_ss=cfg.eps_ss,
        workers=cfg.workers))
    _write_csv(cfg, _metadata_lines(cfg, p, "sweep",
                               {"observables": cfg.observables}),
               result.columns, [_row_text(result.table())])
    errors = [row["error"] for row in result.rows if "error" in row]
    if errors:
        print(f"sweep: {len(errors)} of {len(result.rows)} points failed; "
              f"first: {errors[0]}", file=sys.stderr)
    unresolved = _report_unresolved("sweep", [
        value for row in result.rows for key, value in row.items()
        if key.endswith("_gap")])
    return EXIT_NUMERICAL if errors or unresolved else EXIT_OK


def _report_unresolved(command: str, gaps: list[float]) -> int:
    """Count the unresolved (NaN) gaps and say so on stderr."""
    n = sum(map(math.isnan, gaps))
    if n:
        print(f"{command}: {n} of {len(gaps)} spectral gaps unresolved "
              f"(|lambda_2(U_T)| <= {LAMBDA2_FLOOR:g}), written as nan",
              file=sys.stderr)
    return n


def _period_maps(cfg: RunConfig, p: LambdaParams) -> tuple[dict, dict]:
    """Each drive's one-period map U_T in Liouville space, resolved as
    steady_state_summary resolves it (periodic.accurate_plan): mapped from
    the full drive's accepted stack, or the RWA drive's exact U_T from
    propagate, that stack's last row with no stack; and the metadata: the
    period and one step count per drive, in row order."""
    period, _ = commensurate_period(p.omega_p, p.omega_c)
    maps, steps = {}, []
    for drive in _variants(cfg.drive):
        g = liouville_generator(p, rwa=drive == "rwa")
        plan, _, stack = accurate_plan(g, period)
        maps[drive] = (propagate(g, 0.0, period, plan.steps_per_period)
                       if stack is None else one_period(g, plan, stack)[0])
        steps.append(str(plan.steps_per_period))
    return maps, {"steps_per_period": " ".join(steps), "period": period}


def cmd_gap(cfg: RunConfig) -> int:
    p = resolve_params(cfg)
    maps, meta = _period_maps(cfg, p)
    rows, gaps = [], []
    for drive, u_t in maps.items():
        report = spectral_gap(u_t, period=meta["period"])
        gaps.append(report.gap)
        for i, lg in enumerate(report.eigen_logs):
            if not resolved_log(lg):
                lg = complex(math.nan, math.nan)
            rows.append([drive, f"log{i}", lg.real, lg.imag])
        rows.append([drive, "gap", report.gap, ""])
        rows.append([drive, "gap_per_time", report.gap_per_time, ""])
        rows.append([drive, "degenerate", int(report.degenerate), ""])
    _write_csv(cfg, _metadata_lines(cfg, p, "gap", meta),
               ["drive", "quantity", "re", "im"], [_row_text(rows)])
    return EXIT_NUMERICAL if _report_unresolved("gap", gaps) else EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    p = resolve_params(cfg)
    maps, meta = _period_maps(cfg, p)
    rows = []
    worst_fail = False
    for drive, u_t in maps.items():
        cptp = cptp_check(u_t)
        rho_t = (u_t @ vec(ground_state())).reshape(DIM, DIM)
        dens = density_validity(rho_t)
        checks = [
            ("trace_defect", cptp.trace_defect, 1e-10),
            ("min_choi_eigenvalue", -cptp.min_choi_eigenvalue, 1e-9),
            ("choi_hermiticity_defect", cptp.choi_hermiticity_defect, 1e-9),
            ("state_trace_defect", dens.trace_defect, 1e-10),
            ("state_hermiticity_defect", dens.hermiticity_defect, 1e-10),
            ("state_min_eigenvalue", -dens.min_eigenvalue, 1e-9),
        ]
        for name, defect, threshold in checks:
            ok = defect <= threshold
            worst_fail |= not ok
            rows.append([drive, name, defect, threshold,
                         "pass" if ok else "FAIL"])
    _write_csv(cfg, _metadata_lines(cfg, p, "validate", meta),
               ["drive", "check", "defect", "threshold", "status"],
               [_row_text(rows)])
    return EXIT_THRESHOLD if worst_fail else EXIT_OK


_COMMANDS = {
    "propagate": (cmd_propagate, "time-series propagation to CSV"),
    "sweep": (cmd_sweep, "steady-state observables over frequency grids"),
    "gap": (cmd_gap, "spectral gap of the one-period propagator"),
    "validate": (cmd_validate, "CPTP and density-matrix defect report"),
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="lamsim",
        description="Driven three-level lambda-system dynamics via "
                    "Magnus-expansion propagators.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        sp = subparsers.add_parser(name, help=helptext)
        for key, kwargs in _FLAGS.items():
            if key in _SHARED or key in _READS[name]:
                sp.add_argument(f"--{key.replace('_', '-')}", **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return _COMMANDS[args.command][0](cfg)
    except (FloatingPointError, HorizonError, MemoryError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
