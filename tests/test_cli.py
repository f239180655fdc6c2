import concurrent.futures
import contextlib
import dataclasses
import functools
import io
import os
import re
import sys
import threading
import tracemalloc
from collections import Counter
from datetime import datetime
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamsim import _floattext, cli, periodic, sweep
from lamsim._floattext import FloatRows
from lamsim.cli import (ConfigError, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                        PROPAGATE_HEADER, RunConfig, build_config, main,
                        parse_config_text, resolve_params)
from lamsim.magnus import CHUNK_STEPS
from lamsim.model import liouville_generator, preset
from lamsim.periodic import (BASE_STEPS, MAX_PLAN_STEPS, MIN_STEPS,
                             Trajectory, accurate_plan, commensurate_period)
from lamsim.sweep import ROW_BLOCK, SweepAxis, run_case, steady_state_summary

STEPS = "64"  # keep CLI round trips fast; numerics are tested elsewhere


class TestConfigText:
    def test_basic(self):
        values = parse_config_text(
            'case = "A-II"\n# comment\neps_ss = 1e-4\nworkers = 2\n', "sweep")
        assert values == {"case": "A-II", "eps_ss": 1e-4, "workers": 2}

    def test_inline_comment_and_quotes(self):
        values = parse_config_text("drive = 'rwa'  # co-rotating only\n",
                                   "gap")
        assert values == {"drive": "rwa"}

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2.*bogus"):
            parse_config_text("case = \"A-I\"\nbogus = 3\n", "propagate")

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="bad value for 'steps_per"):
            parse_config_text("steps_per_period = many\n", "propagate")

    def test_hash_inside_quotes_is_text(self):
        values = parse_config_text(
            "out = \"run#1.csv\"  # the '#' before this one is text\n"
            "case = 'A-II'#no space\n", "gap")
        assert values == {"out": "run#1.csv", "case": "A-II"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n", "propagate")

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(cli._READS)),
           st.lists(st.one_of(
               st.tuples(st.one_of(st.sampled_from(sorted(cli._FLAGS)),
                                   st.text(max_size=12)),
                         st.text(max_size=20)).map(" = ".join),
               st.text(max_size=30)), max_size=6))
    def test_arbitrary_lines_raise_only_config_error(self, command, lines):
        try:
            parse_config_text("\n".join(lines), command)
        except ConfigError:
            pass


class TestBuildConfig:
    def _args(self, command="propagate", **kw):
        import argparse
        ns = argparse.Namespace(command=command, config=None)
        for key, value in kw.items():
            setattr(ns, key, value)
        return ns

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text('case = "A-I"\nsteps_per_period = 100\n')
        args = self._args(config=str(cfg_file), steps_per_period=200)
        cfg = build_config(args)
        assert cfg.case == "A-I" and cfg.steps_per_period == 200

    def test_preset_conflicts_with_explicit(self):
        with pytest.raises(ConfigError, match="conflicts"):
            build_config(self._args(case="A-I", rabi_p=2.0))

    def test_periods_horizon_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            build_config(self._args(periods=2, horizon=5.0))

    def test_defaults(self):
        cfg = build_config(self._args())
        assert cfg.order == 6 and cfg.steps_per_period is None
        assert cfg.drive == "both" and cfg.eps_ss == 1e-6


# The settings each subcommand does not read, with values their readers
# accept; each is refused as a flag and as a config-file key.
UNREAD = {
    "propagate": ("observables", "eps_ss", "workers", "omega_p_range",
                  "omega_c_range"),
    "sweep": ("order", "steps_per_period", "periods", "horizon", "frame"),
    "gap": ("order", "steps_per_period", "periods", "horizon", "frame",
            "observables", "eps_ss", "workers", "omega_p_range",
            "omega_c_range"),
}
UNREAD["validate"] = UNREAD["gap"]
UNREAD_PAIRS = [(cmd, key) for cmd, keys in UNREAD.items() for key in keys]
VALUES = {"order": "4", "observables": "populations", "eps_ss": "1e-4",
          "workers": "1", "omega_p_range": "6:6:1", "omega_c_range": "4:4:1",
          "steps_per_period": STEPS, "periods": "1", "horizon": "1.0",
          "frame": "rwf"}


def _flag(key):
    return f"--{key.replace('_', '-')}"


class TestSettingsPerSubcommand:
    def test_unread_pairs(self):
        assert len(UNREAD_PAIRS) == 30
        for command, keys in UNREAD.items():
            assert not set(keys) & set(cli._READS[command])
            assert set(keys) | set(cli._READS[command]) | set(
                cli._SHARED) == set(cli._FLAGS)

    @pytest.mark.parametrize("command,key", UNREAD_PAIRS)
    def test_unread_flag_exits_2(self, tmp_path, capsys, command, key):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--case", "A-II", _flag(key), VALUES[key],
                  "--out", str(out)])
        assert exc_info.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key", UNREAD_PAIRS)
    def test_unread_config_key_exits_2(self, tmp_path, capsys, command, key):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f'case = "A-II"\n{key} = {VALUES[key]}\n')
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg_file),
                     "--out", str(out)]) == EXIT_CONFIG
        assert (f"line 2: {command} takes no key {key!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("line", ["order = 5", 'drive = "sideways"',
                                      "timestamp = false",
                                      "config = other.cfg"])
    def test_bad_config_value_or_key_exits_2(self, tmp_path, capsys, command,
                                             line):
        # choices come from the flag table; flag-only settings are no keys
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f'case = "A-II"\n{line}\n')
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg_file),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 2" in err and line.split(" =")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_lists_only_read_settings(self, capsys, command):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--help"])
        assert exc_info.value.code == 0
        listed = set(re.findall(r"--([a-z0-9-]+)", capsys.readouterr().out))
        visible = {_flag(k)[2:] for k in (*cli._SHARED, *cli._READS[command])
                   if k not in cli._PARAM_KEYS}
        assert listed == visible | {"help"}

    @pytest.mark.parametrize("argv,recorded", [
        (["propagate", "--case", "A-II", "--periods", "1",
          "--steps-per-period", STEPS],
         ["order", "steps_per_period", "drive", "frame", "horizon"]),
        (["sweep", "--case", "B-II", "--drive", "rwa", "--omega-p-range",
          "6:6:1", "--observables", "populations"],
         ["drive", "eps_ss", "observables"]),
        (["gap", "--case", "A-II"], ["drive", "steps_per_period", "period"]),
        (["validate", "--case", "A-II"],
         ["drive", "steps_per_period", "period"]),
    ])
    def test_metadata_records_settings_read(self, tmp_path, argv, recorded):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) != EXIT_CONFIG
        meta, _ = _read_csv(out)
        keys = [line[2:].split(" = ")[0] for line in meta]
        assert keys == [*cli._PARAM_KEYS, *recorded]


class TestParser:
    def test_consecutive_calls_parse_independently(self, monkeypatch):
        # The parser is built once per process; each call still parses
        # only its own arguments, into its own namespace.
        seen = []
        real = cli.build_config

        def recording(args):
            seen.append(dict(vars(args)))
            return real(args)

        monkeypatch.setattr(cli, "build_config", recording)
        for command in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, command,
                                (lambda cfg: EXIT_OK, ""))
        assert main(["propagate", "--case", "A-I", "--periods", "3",
                     "--drive", "rwa", "--frame", "lab"]) == EXIT_OK
        assert main(["gap", "--case", "B-II"]) == EXIT_OK
        assert main(["propagate", "--case", "A-II"]) == EXIT_OK
        assert main(["sweep", "--omega-p-range", "1:2:1"]) == EXIT_OK
        assert cli._parser() is cli._parser()
        for args, command in zip(seen, ["propagate", "gap", "propagate",
                                        "sweep"]):
            assert set(args) == {"command", *cli._SHARED,
                                 *cli._READS[command]}
        assert seen[0]["periods"] == 3 and seen[0]["drive"] == "rwa"
        assert seen[1]["case"] == "B-II" and seen[1]["drive"] is None
        assert seen[2]["case"] == "A-II"
        assert seen[2]["periods"] is seen[2]["drive"] is None
        assert seen[2]["frame"] is None
        assert seen[3]["case"] is None
        assert seen[3]["omega_p_range"] == "1:2:1"


class TestHorizonCap:
    @pytest.mark.parametrize("horizon", [2e8 * np.pi, 1e13])
    def test_huge_horizon_streams_but_does_not_collect(self, horizon):
        # One span is resolved whatever the horizon (A-I: T = 2 pi, here
        # of 64 steps).  Its rows stream; collecting them raises before
        # their arrays are allocated.
        traj = run_case(preset("A-I"), horizon, steps_per_period=int(STEPS))
        for collect in ("times", "states", "populations"):
            with pytest.raises(ValueError, match="MAX_ROWS"):
                getattr(traj, collect)
        times, _ = next(traj.blocks())
        assert np.array_equal(times, np.linspace(0.0, 2.0 * np.pi,
                                                 int(STEPS) + 1)[:-1])

    @pytest.mark.parametrize("horizon", [1e16, 1e300, 1e308])
    def test_horizon_whose_times_cannot_increase_exits_2(
            self, tmp_path, capsys, horizon):
        # steps of 2 pi / 64: at t = 1e16, where a double's spacing
        # is 2, t + dt rounds to t, so the rows would repeat their times
        with pytest.raises(ValueError, match="no longer increase"):
            run_case(preset("A-I"), horizon, steps_per_period=int(STEPS))
        out = tmp_path / "x.csv"
        assert main(["propagate", "--case", "A-I", "--horizon", str(horizon),
                     "--steps-per-period", STEPS,
                     "--out", str(out)]) == EXIT_CONFIG
        assert "no longer increase" in capsys.readouterr().err
        assert not out.exists()

    def test_cap_counts_rows_per_drive(self, monkeypatch):
        # two periods of 64 steps and half a step: 129 rows, the cap; half
        # a step more streams 130 rows but collects none
        p, steps = preset("A-II"), int(STEPS)
        dt = 2.0 * np.pi / steps
        monkeypatch.setattr(periodic, "MAX_ROWS", 2 * steps + 1)
        traj = run_case(p, 4.0 * np.pi + 0.5 * dt, steps_per_period=steps)
        assert len(traj.times) == periodic.MAX_ROWS
        over = run_case(p, 4.0 * np.pi + 1.5 * dt, steps_per_period=steps)
        assert sum(len(t) for t, _ in over.blocks()) == periodic.MAX_ROWS + 1
        with pytest.raises(ValueError, match="MAX_ROWS"):
            over.states

    def test_propagate_past_the_cap_writes_every_row(self, tmp_path,
                                                     monkeypatch):
        # lamsim propagate streams its rows, so a cap below a drive's 193
        # rows (three periods of 64 steps) changes no byte it writes
        argv = ["propagate", "--case", "A-I", "--drive", "both", "--periods",
                "3", "--steps-per-period", STEPS, "--out"]
        free, capped = tmp_path / "free.csv", tmp_path / "capped.csv"
        assert main(argv + [str(free)]) == EXIT_OK
        monkeypatch.setattr(periodic, "MAX_ROWS", 2 * int(STEPS) + 1)
        assert main(argv + [str(capped)]) == EXIT_OK
        _, rows = _read_csv(capped)
        assert len(rows) == 1 + 2 * (3 * int(STEPS) + 1)
        assert capped.read_bytes() == free.read_bytes()

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # run_case is called before the output is opened: a failure there
        # (or a benchmark probe that stops the clock there) finds no file
        out = tmp_path / "x.csv"
        seen = []

        def out_of_memory(*args, **kwargs):
            seen.append(out.exists())
            raise MemoryError("Unable to allocate 40.0 GiB")

        monkeypatch.setattr(cli, "run_case", out_of_memory)
        rc = main(["propagate", "--case", "A-I", "--periods", "1",
                   "--out", str(out)])
        assert seen == [False]
        assert rc == EXIT_NUMERICAL
        assert "Unable to allocate" in capsys.readouterr().err
        assert not out.exists()


class TestResolveParams:
    def test_preset(self):
        p = resolve_params(RunConfig(case="B-II"))
        assert p.rabi_c == 0.2 and p.gamma_23 == 1.0

    def test_missing_keys_listed(self):
        with pytest.raises(ConfigError, match="e2"):
            resolve_params(RunConfig())

    def test_explicit_tpr(self):
        cfg = RunConfig(params=dict(e2=6.0, e3=2.0, rabi_p=1.0, rabi_c=1.0),
                        delta_omega_p=0.5)
        p = resolve_params(cfg)
        assert p.omega_p == pytest.approx(6.5)
        assert p.omega_c == pytest.approx(4.0)

    def test_explicit_frequencies(self):
        # a zero detuning is no conflict
        cfg = RunConfig(params=dict(e2=6.0, e3=2.0, rabi_p=1.0, rabi_c=1.0,
                                    omega_p=6.5, omega_c=4.25),
                        delta_omega_p=0.0, delta_omega_c=-0.0)
        p = resolve_params(cfg)
        assert (p.omega_p, p.omega_c) == (6.5, 4.25)

    # A detuning has no frequency to shift once both are given explicitly:
    # it is refused, as a flag or a config key, not dropped.
    EXPLICIT = ["--e2", "6", "--e3", "2", "--rabi-p", "1", "--rabi-c", "1.12",
                "--gamma-12", "0.9", "--gamma-23", "1", "--omega-p", "6",
                "--omega-c", "4", "--drive", "rwa"]

    @pytest.mark.parametrize("key", ["delta_omega_p", "delta_omega_c"])
    def test_detuning_flag_refused_next_to_frequencies(self, tmp_path,
                                                        capsys, key):
        out = tmp_path / "x.csv"
        rc = main(["gap", *self.EXPLICIT, _flag(key), "0.5",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{key} cannot detune explicit {key[6:]}" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["delta_omega_p", "delta_omega_c"])
    def test_detuning_key_refused_next_to_frequencies(self, tmp_path,
                                                       capsys, key):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("e2 = 6\ne3 = 2\nrabi_p = 1\nrabi_c = 1.12\n"
                            "gamma_12 = 0.9\ngamma_23 = 1\nomega_p = 6\n"
                            f"omega_c = 4\n{key} = -0.25\n")
        out = tmp_path / "x.csv"
        rc = main(["gap", "--config", str(cfg_file), "--drive", "rwa",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{key} cannot detune explicit {key[6:]}" in err
        assert not out.exists()

    def test_partial_frequencies_rejected(self):
        cfg = RunConfig(params=dict(e2=6.0, e3=2.0, rabi_p=1.0, rabi_c=1.0,
                                    omega_p=6.0))
        with pytest.raises(ConfigError, match="together"):
            resolve_params(cfg)

    def test_unknown_case(self):
        with pytest.raises(ConfigError, match="unknown case"):
            resolve_params(RunConfig(case="Z-I"))


def _read_csv(path):
    meta, rows = [], []
    for line in path.read_text().splitlines():
        (meta if line.startswith("#") else rows).append(line)
    return meta, rows


class TestPropagateCommand:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "ts.csv"
        rc = main(["propagate", "--case", "A-I", "--drive", "rwa",
                   "--periods", "1", "--steps-per-period", STEPS,
                   "--out", str(out)])
        assert rc == EXIT_OK
        meta, rows = _read_csv(out)
        assert rows[0] == ("t,rho11,rho22,rho33,re_r12,im_r12,re_r13,"
                           "im_r13,re_r23,im_r23,drive,frame")
        assert len(rows) == 1 + int(STEPS) + 1  # header + steps+1 grid points
        assert any("rabi_c = 1.12" in line for line in meta)

    def test_round_trippable_floats(self, tmp_path):
        out = tmp_path / "ts.csv"
        main(["propagate", "--case", "A-I", "--drive", "rwa", "--periods",
              "1", "--steps-per-period", STEPS, "--out", str(out)])
        _, rows = _read_csv(out)
        first = rows[1].split(",")
        total = float(first[1]) + float(first[2]) + float(first[3])
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_order_4_is_recorded_and_used(self, tmp_path):
        args = ["propagate", "--case", "A-II", "--drive", "full",
                "--periods", "1", "--steps-per-period", STEPS]
        out4, out6 = tmp_path / "o4.csv", tmp_path / "o6.csv"
        assert main(args + ["--order", "4", "--out", str(out4)]) == EXIT_OK
        assert main(args + ["--out", str(out6)]) == EXIT_OK
        (meta4, rows4), (meta6, rows6) = _read_csv(out4), _read_csv(out6)
        assert "# order = 4" in meta4 and "# order = 6" in meta6
        assert rows4[0] == rows6[0] and rows4[-1] != rows6[-1]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["propagate", "--case", "B-I", "--drive", "full",
                "--periods", "1", "--steps-per-period", STEPS]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_both_drives_stacked(self, tmp_path):
        out = tmp_path / "ts.csv"
        main(["propagate", "--case", "A-I", "--periods", "1",
              "--steps-per-period", STEPS, "--out", str(out)])
        _, rows = _read_csv(out)
        drives = {row.rsplit(",", 2)[1] for row in rows[1:]}
        assert drives == {"full", "rwa"}


def _reference_trajectory_rows(traj, suffix):
    """The CSV rows of a trajectory, formatted cell by cell."""
    lines = []
    for t, rho in zip(traj.times, traj.states):
        cells = [t, rho[0, 0].real, rho[1, 1].real, rho[2, 2].real,
                 rho[0, 1].real, rho[0, 1].imag, rho[0, 2].real,
                 rho[0, 2].imag, rho[1, 2].real, rho[1, 2].imag]
        lines.append(",".join(f"{x:.17g}" for x in cells) + suffix + "\n")
    return "".join(lines)


def _reference_csv_body(case, frame, horizon, steps):
    """Header and rows of ``propagate --drive both``, formatted cell by
    cell from run_case."""
    return ",".join(PROPAGATE_HEADER) + "\n" + "".join(
        _reference_trajectory_rows(run_case(
            preset(case), horizon, drive=drive, frame=frame,
            steps_per_period=steps), f",{drive},{frame}")
        for drive in ("full", "rwa"))


def _reference_rows(block, suffix):
    """The CSV rows of a float block, formatted cell by cell."""
    return "".join(",".join("%.17g" % x for x in row) + suffix + "\n"
                   for row in block.tolist())


def _emitted(block, suffix=",full,rwf"):
    """The text of one block from a fresh formatter, as a string."""
    return FloatRows()(np.asarray(block, dtype=float),
                       suffix).tobytes().decode("ascii")


def _assert_same_text(got, want):
    """got == want for two texts (str or bytes) of any size.  A mismatch
    names the first line that differs and both line counts: explaining a
    failed == of two texts of megabytes does not finish."""
    __tracebackhide__ = True
    if got == want:
        return
    ours, theirs = got.splitlines(True), want.splitlines(True)
    i = next((i for i, pair in enumerate(zip(ours, theirs))
              if pair[0] != pair[1]), min(len(ours), len(theirs)))

    def line(lines):
        return repr(lines[i][:200]) if i < len(lines) else "no line"

    pytest.fail(f"the texts differ first at line {i + 1}: got {line(ours)}, "
                f"want {line(theirs)}; {len(ours)} lines against "
                f"{len(theirs)}")


class _RowReads(np.ndarray):
    """A float block that records, in ``rows``, every row read from it by
    an integer index (how FloatRows reads a row that falls back)."""

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            self.rows.append(int(key))
        return super().__getitem__(key)


def _as_rows(values, ncols=10):
    values = list(values) + [1.0] * (-len(values) % ncols)
    return np.array(values, dtype=float).reshape(-1, ncols)


def _decimal_ties():
    """Doubles whose exact decimal expansion has 18 significant digits and
    ends in 5, so that 17 digits sit exactly halfway: j / 2^m with j odd
    and j 5^m an 18-digit number."""
    ties = []
    for m in range(1, 80):
        lo, hi = -(-10 ** 17 // 5 ** m), min(10 ** 18 // 5 ** m, 2 ** 53)
        for j in {lo, (lo + hi) // 2, hi - 1}:
            j |= 1
            if lo <= j < hi:
                ties += [j / 2 ** m, -j / 2 ** m]
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return ties


class TestFloatText:
    """The vectorised emitter writes exactly the text of '%.17g' % x."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=10))
    def test_matches_percent_g(self, values, ncols):
        block = _as_rows(values, ncols)
        _assert_same_text(_emitted(block),
                          _reference_rows(block, ",full,rwf"))

    def test_edge_values(self):
        big = sys.float_info.max
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  big, -big, np.inf, -np.inf, np.nan]
        for k in range(-323, 309):
            p = 10.0 ** k
            values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf),
                       float(f"9.99999999999999995e{k}"), -p]
        values += _decimal_ties()
        block = _as_rows(values)
        _assert_same_text(_emitted(block),
                          _reference_rows(block, ",full,rwf"))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2 ** 63, 20000, dtype=np.int64)
        block = _as_rows(np.concatenate([
            bits.view(np.float64), -bits.view(np.float64),
            rng.standard_normal(20000) * 10.0 ** rng.integers(-20, 20, 20000),
            rng.random(20000)]))
        _assert_same_text(_emitted(block),
                          _reference_rows(block, ",full,rwf"))

    def test_every_layout_class(self):
        # d 10^(L-1) plus binary fractions puts the point at every byte
        # of the digit lanes (L = 2..16) with up to 17 digits, whose last
        # one carries into the exponent lane; dyadic values below 1 give
        # 0-3 zeros after '0.'; powers of two give exponents of 2 and 3
        # digits.  Every suffix length leaves a different tail padding,
        # and ncols = 1 makes every cell a last one.
        values = [0.0]
        for L in range(1, 18):
            for d in range(1, 10):
                base = d * 10.0 ** (L - 1)
                values += [base, base + 10.0 ** max(L - 3, 0), base + 1.0,
                           base + 2.0]
                values += [base + 2.0 ** -j
                           for j in (1, 2, 3, 7, 9, 11, 13, 20, 40)]
        values += [m * 2.0 ** -j * f for j in range(1, 17)
                   for m in (1, 3, 5, 7) for f in (1.0, 1.0 + 2.0 ** -40)]
        values += [1.5 * 2.0 ** e for e in range(-900, 900, 7)]
        # no decimal ties, which fall back: every row takes the tables
        values = [s * x for x in values for s in (1.0, -1.0)
                  if len(Decimal(x).as_tuple().digits) != 18]

        def layout(text):
            mantissa, _, expo = text.lstrip("-").partition("e")
            whole, _, frac = mantissa.partition(".")
            digits = (whole + frac).strip("0")
            if expo:
                return "e", expo[0], len(expo) - 1
            L = 0 if whole == "0" else len(whole)
            zeros = len(frac) - len(frac.lstrip("0")) if L == 0 else 0
            return L, len(digits), zeros

        texts = ["%.17g" % x for x in values]
        classes = {layout(t) for t in texts}
        for L in range(2, 18):
            assert {(L, 1, 0), (L, L, 0)} <= classes
            assert L == 17 or {(L, L + 1, 0), (L, 17, 0)} <= classes
        assert {(0, 17, z) for z in range(4)} <= classes
        assert {("e", s, n) for s in "+-" for n in (2, 3)} <= classes
        assert {t[:2] for t in texts} >= {f"{s}{d}" for s in ("", "-")
                                         for d in range(1, 10)} | {"-0"}
        for n in range(8):
            suffix = ",full,rwf"[:n]
            block = _as_rows(values, ncols=n + 1)
            _assert_same_text(_emitted(block, suffix),
                              _reference_rows(block, suffix))

    def test_fallback_rows_crowded_and_adjacent(self):
        # cells that fall back (NaN, +-inf, decimal ties, 1e-300) several
        # to a row, in adjacent rows and in the first and last column:
        # each such row is formatted once, from its block row, and written
        # as '%.17g' writes it, between rows that take the tables
        ties = _decimal_ties()
        odd = [np.nan, np.inf, -np.inf, ties[0], ties[1], 1e-300, -1e-300]
        block = np.random.default_rng(11).standard_normal((40, 10))
        cells = {0: (0, 9), 1: (0, 1, 2), 2: (9,), 3: (0, 4, 9),
                 4: range(10), 10: (5,), 11: (0,), 12: (9,), 38: (0, 3),
                 39: (9, 8, 0)}
        for row, cols in cells.items():
            for j, col in enumerate(cols):
                block[row, col] = odd[(row + j) % len(odd)]
        reads = block.view(_RowReads)
        reads.rows = []
        text = FloatRows()(reads, ",full,rwf").tobytes().decode("ascii")
        _assert_same_text(text, _reference_rows(block, ",full,rwf"))
        assert reads.rows == sorted(cells)

    def test_block_temporaries(self):
        # One ROW_BLOCK x 10 block: its 32-byte cells (0.6 MiB), their rows
        # and the joined bytes, not every intermediate column at once.
        rng = np.random.default_rng(3)
        block = rng.standard_normal((ROW_BLOCK, 10)) * 10.0 ** rng.integers(
            -8, 3, (ROW_BLOCK, 10))
        _emitted(block[:1], "")  # build the tables
        tracemalloc.start()
        try:
            text = _emitted(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_same_text(text, _reference_rows(block, ",full,rwf"))
        assert peak <= 4.1 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB peak"


def _random_trajectory(nrows, seed):
    """A trajectory of ``nrows`` random rows in ROW_BLOCK blocks,
    with signed zeros, a non-finite cell and a tie in its last row."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-8, 3, (nrows, 3, 3))
    states = (rng.standard_normal((nrows, 3, 3))
              + 1j * rng.standard_normal((nrows, 3, 3))) * scale
    states[0, 0] = [-0.0, complex(0.5, -0.0), 0.0]
    states[-1, 1, 2] = complex(np.nan, 1e300)
    states[-1, 2, 2] = 2.0 ** -25  # a tie
    times = np.cumsum(rng.random(nrows))
    return Trajectory(lambda: (
        (times[k:k + ROW_BLOCK], states[k:k + ROW_BLOCK])
        for k in range(0, nrows, ROW_BLOCK)), nrows)


class TestTwoFormatters:
    """_trajectory_blocks formats the even blocks on a worker thread and
    the odd ones on the caller's, and gives them out in order."""

    def test_each_fallback_row_is_read_once(self, monkeypatch):
        # the last row has three cells that fall back (NaN, 1e300 and a
        # tie): the formatter reads it from its block once, not per cell
        tables = []
        real = cli._propagate_columns

        def recorded(times, states):
            table = real(times, states).view(_RowReads)
            table.rows = []
            tables.append(table)
            return table

        monkeypatch.setattr(cli, "_propagate_columns", recorded)
        trajectory = _random_trajectory(ROW_BLOCK + 1, 17)
        b"".join(cli._trajectory_blocks({"full": trajectory}, "rwf"))
        assert len(tables) == 2 and 0 in tables[1].rows
        for table in tables:
            assert len(set(table.rows)) == len(table.rows), table.rows

    @pytest.mark.parametrize("sizes", [
        (1,), (ROW_BLOCK,), (ROW_BLOCK + 1,), (2 * ROW_BLOCK,),
        (3 * ROW_BLOCK,), (2 * ROW_BLOCK + 7,), (5, 2 * ROW_BLOCK + 1)],
        ids=lambda sizes: "+".join(map(str, sizes)))
    def test_blocks_in_order(self, monkeypatch, sizes):
        # One text per block, formatted as '%.17g' cells; with 5+4097 the
        # worker's first block has 5 rows, so its formatter grows for its
        # next one.
        on_main = {}  # a block's first time -> formatted on the main thread

        class Recording(FloatRows):
            def __call__(self, block, suffix):
                on_main[block[0, 0]] = (threading.current_thread()
                                        is threading.main_thread())
                return super().__call__(block, suffix)

        monkeypatch.setattr(_floattext, "FloatRows", Recording)
        trajs = {drive: _random_trajectory(n, n)
                 for drive, n in zip(("full", "rwa"), sizes)}
        texts = [bytes(text) for text in cli._trajectory_blocks(trajs, "rwf")]
        assert all(text.endswith(b",rwf\n") for text in texts)
        starts = [t[0] for traj in trajs.values() for t, _ in traj.blocks()]
        assert len(texts) == len(starts) == sum(-(-n // ROW_BLOCK)
                                                for n in sizes)
        assert [on_main[t] for t in starts] == [i % 2 == 1
                                               for i in range(len(starts))]
        want = "".join(_reference_trajectory_rows(traj, f",{drive},rwf")
                       for drive, traj in trajs.items())
        _assert_same_text(b"".join(texts), want.encode("ascii"))

    @pytest.mark.parametrize("failing", ["worker", "main"])
    def test_formatter_error_propagates(self, tmp_path, capsys, monkeypatch,
                                        failing):
        class Failing(FloatRows):
            def __call__(self, block, suffix):
                on_main = threading.current_thread() is threading.main_thread()
                if on_main == (failing == "main"):
                    raise MemoryError(f"no room on the {failing} thread")
                return super().__call__(block, suffix)

        monkeypatch.setattr(_floattext, "FloatRows", Failing)
        baseline = threading.active_count()
        rc = main(["propagate", "--case", "A-II", "--drive", "rwa",
                   "--periods", "1", "--out", str(tmp_path / "ts.csv")])
        assert rc == EXIT_NUMERICAL
        assert f"no room on the {failing} thread" in capsys.readouterr().err
        assert threading.active_count() == baseline

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that is always full")
    def test_write_error_stops_the_worker(self, capsys):
        baseline = threading.active_count()
        rc = main(["propagate", "--case", "A-II", "--drive", "rwa",
                   "--periods", "1", "--out", "/dev/full"])
        assert rc == EXIT_CONFIG
        assert "i/o error" in capsys.readouterr().err
        assert threading.active_count() == baseline


class TestPropagateBytes:
    # T = 2 pi for both presets: 2.5 stays inside the first period, 15.1
    # crosses two period boundaries and ends 0.4 T into the third.
    @pytest.mark.parametrize("case", ["A-I", "B-II"])
    @pytest.mark.parametrize("frame", ["lab", "rwf"])
    @pytest.mark.parametrize("horizon", ["2.5", "15.1"])
    def test_rows_equal_per_cell_reference(self, tmp_path, capsys, case,
                                           frame, horizon):
        argv = ["propagate", "--case", case, "--drive", "both", "--frame",
                frame, "--horizon", horizon, "--steps-per-period", STEPS]
        out = tmp_path / "ts.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        written = out.read_bytes()
        _assert_same_text(capsys.readouterr().out.encode("utf-8"), written)
        text = written.decode("utf-8")
        body = text[text.index("\nt,") + 1:]
        _assert_same_text(body, _reference_csv_body(
            case, frame, float(horizon), int(STEPS)))

    @pytest.mark.parametrize("command", ["propagate", "gap"])
    def test_text_only_stdout(self, tmp_path, command):
        # a stdout with no byte stream gets the same text as --out
        argv = [command, "--case", "A-I", *(
            ["--periods", "1", "--steps-per-period", STEPS]
            if command == "propagate" else [])]
        out = tmp_path / "ts.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(argv) == EXIT_OK
        assert text.getvalue() == out.read_text()

    def test_default_steps_cross_a_block(self, tmp_path, capsysbinary):
        # BASE_STEPS + 1 = 8192 rows per drive: more than one ROW_BLOCK
        # each, eight blocks on the two formatters, the same to stdout
        argv = ["propagate", "--case", "B-II", "--drive", "both",
                "--periods", "1", "--frame", "rwf"]
        out = tmp_path / "ts.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        capsysbinary.readouterr()
        assert main(argv) == EXIT_OK
        _assert_same_text(capsysbinary.readouterr().out, out.read_bytes())
        text = out.read_text()
        body = text[text.index("\nt,") + 1:]
        p = preset("B-II")
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        assert BASE_STEPS + 1 > ROW_BLOCK
        _assert_same_text(body, _reference_csv_body("B-II", "rwf", period,
                                                    BASE_STEPS))

    @pytest.mark.parametrize("drive", ["full", "rwa"])
    def test_memory_set_by_the_span(self, drive):
        # lamsim propagate --case A-II --frame rwf over 4 and 40 periods
        # (32,765 and 327,641 rows).  Rows are formed one block at a time
        # and formatted on two formatters, the main thread's and a
        # worker's, each holding its arrays (1.6 MiB for a full block)
        # from its first block on, and at most two blocks of text are in
        # flight, one from each; the longer horizon adds no more blocks at
        # a time, so it peaks within the shorter one's peak plus one
        # ROW_BLOCK of text (ten cells of at most 24 characters and a
        # comma, and the suffix, per row), the slack for which thread
        # holds a block when the peak is taken; its states (152 B a row,
        # 47 MiB) do not fit.  The full drive's peak is its
        # span in the generator's real coordinates, (N + 1, 9, 9) float64
        # (5.06 MiB), and the temporaries of one batch of CHUNK_STEPS
        # Magnus steps, within ten real (CHUNK_STEPS, 9, 9) stacks.
        def peak(periods):
            tracemalloc.start()
            try:
                assert main(["propagate", "--case", "A-II", "--frame", "rwf",
                             "--drive", drive, "--periods", str(periods),
                             "--out", os.devnull]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # builds the cached tables
        short, long = peak(4), peak(40)
        text = ROW_BLOCK * (10 * 25 + len(f",{drive},rwf\n"))
        assert long <= short + text, (
            f"{long / 2**20:.2f} MiB over 40 periods, "
            f"{short / 2**20:.2f} MiB over 4")
        if drive == "full":
            real = 9 * 9 * np.dtype(float).itemsize
            bound = (BASE_STEPS + 1) * real + 10 * CHUNK_STEPS * real
            assert short <= bound, (f"{short / 2**20:.2f} MiB, above "
                                    f"{bound / 2**20:.2f} MiB")

    def test_failed_drive_leaves_no_file(self, tmp_path, monkeypatch):
        real = cli.run_case

        def fail_rwa(p, horizon, **kwargs):
            if kwargs["drive"] == "rwa":
                raise FloatingPointError("overflow in the rwa drive")
            return real(p, horizon, **kwargs)

        monkeypatch.setattr(cli, "run_case", fail_rwa)
        out = tmp_path / "f.csv"
        rc = main(["propagate", "--case", "A-I", "--drive", "both",
                   "--periods", "1", "--steps-per-period", STEPS,
                   "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert not out.exists()


class TestDefaultSteps:
    # omega_p = 13/2 gives T = 4 pi (q = 2).  propagate's grid takes the
    # library's q * BASE_STEPS steps; gap and validate take the count
    # periodic.accurate_plan chooses for each drive.  Each records its
    # counts.
    ARGS = ["--case", "B-II", "--delta-omega-p", "0.5"]

    def test_q_times_base_steps(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["propagate", *self.ARGS, "--drive", "rwa",
                     "--out", str(out)]) == EXIT_OK
        meta, rows = _read_csv(out)
        assert f"# steps_per_period = {2 * BASE_STEPS}" in meta
        # header, then one row per grid time
        assert len(rows) == 1 + 2 * BASE_STEPS + 1

    @pytest.mark.parametrize("command", ["gap", "validate"])
    def test_one_accurate_count_per_drive(self, tmp_path, command):
        p = preset("B-II", delta_omega_p=0.5)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        counts = [accurate_plan(liouville_generator(p, rwa=rwa),
                                period)[0].steps_per_period
                  for rwa in (False, True)]
        assert counts == [2 * MIN_STEPS, 2 * MIN_STEPS]
        out = tmp_path / "x.csv"
        assert main([command, *self.ARGS, "--drive", "both",
                     "--out", str(out)]) == EXIT_OK
        meta, _ = _read_csv(out)
        assert "# steps_per_period = 512 512" in meta
        assert f"# period = {period!r}" in meta


class TestGapCommand:
    def test_timestamp_is_recorded_last(self, tmp_path):
        out = tmp_path / "gap.csv"
        assert main(["gap", "--case", "A-II", "--drive", "rwa", "--timestamp",
                     "--out", str(out)]) == EXIT_OK
        meta, _ = _read_csv(out)
        assert meta[-1].startswith("# generated = ")
        stamp = datetime.fromisoformat(meta[-1][len("# generated = "):])
        assert stamp.tzinfo is not None
        assert not any("generated" in line for line in meta[:-1])

    def test_eigen_logs_and_summary(self, tmp_path):
        out = tmp_path / "gap.csv"
        rc = main(["gap", "--case", "A-II", "--drive", "full",
                   "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        log_rows = [r for r in rows if ",log" in r]
        assert len(log_rows) == 9
        gap_row = next(r for r in rows if r.startswith("full,gap,"))
        assert float(gap_row.split(",")[2]) > 0.0

    def test_conjugate_pairs_are_exact(self, tmp_path):
        # U_T preserves Hermiticity, so its spectrum is closed under
        # conjugation: the two logs of a pair have equal decays and
        # opposite phases to the last digit
        out = tmp_path / "gap.csv"
        assert main(["gap", "--case", "A-II", "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        for drive in ("full", "rwa"):
            logs = [complex(float(re), float(im)) for re, im in
                    (r.split(",")[2:] for r in rows
                     if r.startswith(f"{drive},log"))]
            assert len(logs) == 9
            assert sum(z.imag != 0.0 for z in logs) >= 4
            assert Counter(logs) == Counter(z.conjugate() for z in logs)

    @pytest.mark.parametrize("case,delta_omega_p", [
        ("A-II", 0.0), ("B-II", 0.0), ("C-II", 0.0),
        ("A-II", 1.0 / 3.0)],  # q = 3: 768 steps, not a power of two
        ids=["A-II", "B-II", "C-II", "A-II-q3"])
    def test_gap_equals_the_steady_path(self, tmp_path, case, delta_omega_p):
        # one rule resolves U_T for both, so the gaps agree to the bit
        out = tmp_path / "gap.csv"
        assert main(["gap", "--case", case, "--drive", "both",
                     "--delta-omega-p", repr(delta_omega_p),
                     "--out", str(out)]) == EXIT_OK
        _, rows = _read_csv(out)
        gaps = [r.split(",")[2] for r in rows if ",gap," in r]
        p = preset(case, delta_omega_p=delta_omega_p)
        assert gaps == ["%.17g" % steady_state_summary(p, rwa)["gap"]
                        for rwa in (False, True)]
        assert "nan" not in gaps

    def test_memory_at_q_20(self, tmp_path):
        # T = 40 pi: the RWA drive resolves U_T at 20 * MIN_STEPS steps,
        # formed from its doubling powers alone, not from the (20 MIN_STEPS
        # + 1, 9, 9) complex stack (6.3 MiB)
        out = tmp_path / "gap.csv"
        tracemalloc.start()
        try:
            main(["gap", "--case", "A-II", "--delta-omega-p", "0.05",
                  "--drive", "rwa", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2 ** 20
        assert peak <= bound, (f"{peak / 2**20:.2f} MiB peak, above "
                               f"{bound / 2**20:.2f} MiB")

    def test_unresolved_gaps_exit_numerical(self, tmp_path, capsys):
        # q = 20: |lambda_2(U_T)| < 1e-14 for both drives
        out = tmp_path / "gap.csv"
        rc = main(["gap", "--case", "A-II", "--delta-omega-p", "0.05",
                   "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "gap: 2 of 2 spectral gaps unresolved (|lambda_2(U_T)| <= "
            "1e-12), written as nan\n")
        _, rows = _read_csv(out)
        for drive in ("full", "rwa"):
            assert f"{drive},gap,nan," in rows
            assert f"{drive},gap_per_time,nan," in rows
            # the steady log0 is a number; every other eigenvalue is
            # below LAMBDA2_FLOOR, so its log is written as nan
            logs = [r.split(",")[1:] for r in rows
                    if r.startswith(f"{drive},log")]
            assert [cells[0] for cells in logs] == [f"log{i}"
                                                    for i in range(9)]
            assert abs(float(logs[0][1])) < 1e-9
            assert np.isfinite(float(logs[0][2]))
            assert all(cells[1:] == ["nan", "nan"] for cells in logs[1:])


class TestValidateCommand:
    def test_magnus_period_map_is_cptp(self, tmp_path):
        out = tmp_path / "val.csv"
        rc = main(["validate", "--case", "A-II", "--drive", "full",
                   "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert all(row.endswith("pass") for row in rows[1:])

    def test_out_leaves_stdout_empty(self, tmp_path, capsys):
        argv = ["validate", "--case", "A-II"]
        out = tmp_path / "val.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert main(argv) == EXIT_OK
        assert out.read_text() == capsys.readouterr().out
        _, rows = _read_csv(out)
        assert len(rows) == 1 + 2 * 6  # header, six checks per drive

    def test_q_200_runs(self, tmp_path):
        # q * BASE_STEPS = 1,638,200 is above the cap; the RWA drive's
        # accurate count q * MIN_STEPS = 51,200 is not
        out = tmp_path / "val.csv"
        assert main(["validate", "--case", "B-II", "--delta-omega-p",
                     "0.005", "--drive", "rwa", "--out", str(out)]) \
            == EXIT_OK
        meta, rows = _read_csv(out)
        assert "# steps_per_period = 51200" in meta
        assert all(row.endswith("pass") for row in rows[1:])

    def test_memory_at_q_200(self, tmp_path):
        # U_T on 51,200 steps from its 16 doubling powers alone: not from
        # the (51,201, 9, 9) complex stack (63.3 MiB) whose last row it is
        out = tmp_path / "val.csv"
        assert main(["validate", "--case", "B-II", "--drive", "rwa",
                     "--out", str(out)]) == EXIT_OK  # builds cached tables
        tracemalloc.start()
        try:
            assert main(["validate", "--case", "B-II", "--delta-omega-p",
                         "0.005", "--drive", "rwa", "--out", str(out)]) \
                == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20, f"{peak / 2**20:.2f} MiB peak"


def _exit_in_a_worker(parent, spec, point):
    """sweep._eval_point's stand-in: ends any process but ``parent``."""
    if os.getpid() != parent:
        os._exit(9)
    return dict(point)


class TestSweepCommand:
    def test_missing_range_is_config_error(self, capsys):
        rc = main(["sweep", "--case", "A-II"])
        assert rc == EXIT_CONFIG
        assert "range" in capsys.readouterr().err

    def test_bad_range_syntax(self):
        assert main(["sweep", "--case", "A-II",
                     "--omega-p-range", "5:7"]) == EXIT_CONFIG

    def test_single_point_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--case", "B-II", "--drive", "rwa",
                   "--omega-p-range", "6:6:1",
                   "--observables", "populations", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        header = rows[0].split(",")
        values = dict(zip(header, rows[1].split(",")))
        assert float(values["rwa_rho22"]) < 1e-4

    def test_decoupled_level_row(self, tmp_path):
        # rabi_c = gamma_23 = 0 decouple |3>: U_T fixes |3><3| too (a
        # two-dimensional fixed space), and |1><1| goes to the driven
        # two-level state, in closed form for the RWA drive; neither drive
        # puts weight on |3>.
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--e2", "6", "--e3", "2", "--rabi-p", "0.2",
                   "--rabi-c", "0", "--gamma-12", "0.9", "--gamma-23", "0",
                   "--omega-p-range", "6:6:1", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        values = dict(zip(rows[0].split(","), rows[1].split(",")))
        rabi, gamma = 0.2, 0.9
        rho22 = (rabi ** 2 / 4) / (gamma ** 2 / 4 + rabi ** 2 / 2)
        assert abs(float(values["rwa_rho22"]) - rho22) <= 1e-12
        for drive in ("full", "rwa"):
            assert abs(float(values[f"{drive}_rho11"])
                       + float(values[f"{drive}_rho22"]) - 1.0) <= 1e-12
            for key in ("rho33", "re_r13", "im_r13", "re_r23", "im_r23"):
                assert abs(float(values[f"{drive}_{key}"])) <= 1e-12, key

    def test_point_above_the_fixed_count_cap_runs(self, tmp_path):
        # omega_p = 6.005 needs q = 200: q * BASE_STEPS is above the cap,
        # the RWA drive's estimated count q * MIN_STEPS is not.
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--case", "B-II", "--drive", "rwa",
                   "--omega-p-range", "6.005:6.005:1", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        values = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert "error" not in values
        assert int(values["rwa_steps"]) == 200 * periodic.MIN_STEPS == 51200

    def test_failed_points_exit_numerical(self, tmp_path, monkeypatch,
                                          capsys):
        # The CLI has no gamma_12 axis; swap in the non-dissipative one of
        # test_sweep.py::TestRunSweep::test_failure_isolation.
        real = cli.run_sweep

        def gamma_12_axis(spec):
            return real(dataclasses.replace(
                spec, base=spec.base.with_(gamma_23=0.0),
                axis1=SweepAxis("gamma_12", 0.0, 0.9, 0.9)))

        monkeypatch.setattr(cli, "run_sweep", gamma_12_axis)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--case", "B-II", "--drive", "rwa",
                   "--omega-p-range", "6:6:1",
                   "--observables", "populations", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        _, rows = _read_csv(out)
        assert len(rows) == 3  # header and both points
        header = rows[0].split(",")
        failed = dict(zip(header, rows[1].split(",")))
        ok = dict(zip(header, rows[2].split(",")))
        assert failed["error"].startswith("ValueError")
        assert ok["error"] == "" and float(ok["rwa_rho22"]) < 1e-4
        assert capsys.readouterr().err == (
            f"sweep: 1 of 2 points failed; first: {failed['error']}\n")


    def test_unresolved_gaps_exit_numerical(self, tmp_path, capsys):
        # omega_p = 6.05 (q = 20) has an unresolved gap, 6.0 (q = 1) not
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--case", "A-II", "--drive", "rwa",
                "--omega-p-range", "6.0:6.05:0.05", "--out", str(out)]
        rc = main([*args, "--observables", "spectral_gap"])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "sweep: 1 of 2 spectral gaps unresolved (|lambda_2(U_T)| <= "
            "1e-12), written as nan\n")
        _, rows = _read_csv(out)
        values = [dict(zip(rows[0].split(","), row.split(",")))
                  for row in rows[1:]]
        assert float(values[0]["rwa_gap"]) > 0.0
        assert values[1]["rwa_gap"] == values[1]["rwa_gap_per_time"] == "nan"
        assert main([*args, "--observables", "populations"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_steps_per_drive_match_gap(self, tmp_path):
        # At rabi_c = 20 the full drive resolves on 512 steps per period
        # and the RWA drive on 256: each row records both counts.
        point = ["--e2", "6", "--e3", "2", "--rabi-p", "1", "--rabi-c", "20",
                 "--gamma-12", "0.9", "--gamma-23", "1"]
        gap, swept = tmp_path / "gap.csv", tmp_path / "sweep.csv"
        assert main(["gap", *point, "--out", str(gap)]) == EXIT_OK
        assert main(["sweep", *point, "--omega-p-range", "6:6:1",
                     "--out", str(swept)]) == EXIT_OK
        assert "# steps_per_period = 512 256" in _read_csv(gap)[0]
        _, rows = _read_csv(swept)
        values = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert "steps" not in values
        assert (values["full_steps"], values["rwa_steps"]) == ("512", "256")

    def test_dead_worker_exits_numerical(self, tmp_path, monkeypatch,
                                         capsys):
        # A worker ended from outside (as an out-of-memory kill ends one)
        # breaks the pool: exit 3 and no file.  Only a forked worker exits,
        # so a serial fallback would return rows, not end pytest.
        monkeypatch.setattr(sweep, "_eval_point",
                            functools.partial(_exit_in_a_worker, os.getpid()))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--case", "A-II", "--omega-p-range", "6:6.5:0.5",
                   "--workers", "2", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith(
            "numerical error: a sweep worker died")
        assert not out.exists()

    @pytest.mark.parametrize("drive", ["full", "rwa"])
    def test_rwa_error_needs_both_drives(self, tmp_path, capsys, monkeypatch,
                                         drive):
        # refused before any grid point is solved
        def refuse(*args, **kwargs):
            raise AssertionError("sweep started")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--case", "A-II", "--omega-p-range", "6:6:1",
                   "--drive", drive, "--observables", "rwa_error",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "'rwa_error'" in capsys.readouterr().err
        assert not out.exists()


class TestErrorPaths:
    def test_magnus_overflow_exits_3(self, tmp_path, capsys):
        # q = 200 on 256 Magnus steps: each step map is finite, but their
        # product overflows; no row of inf or nan is written
        out = tmp_path / "x.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["propagate", "--case", "B-II", "--delta-omega-p",
                       "0.005", "--drive", "full", "--steps-per-period",
                       "256", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical error: the product of 256 Magnus steps is not "
            "finite\n")
        assert not out.exists()

    def test_unreadable_config(self):
        assert main(["propagate", "--config", "/nonexistent.cfg"]) == \
            EXIT_CONFIG

    def test_unwritable_output(self):
        rc = main(["propagate", "--case", "A-I", "--drive", "rwa",
                   "--periods", "1", "--steps-per-period", STEPS,
                   "--out", "/nonexistent-dir/x.csv"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("flag,value", [("--rabi-p", "nan"),
                                            ("--rabi-c", "inf"),
                                            ("--gamma-12", "nan")])
    def test_non_finite_parameter(self, flag, value):
        # the later flag wins, so each run has exactly one bad field
        rc = main(["propagate", "--e2", "6", "--e3", "2", "--rabi-p", "1",
                   "--rabi-c", "1", "--periods", "1", flag, value])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("flag,value", [("--steps-per-period", "0"),
                                            ("--steps-per-period", "-3"),
                                            ("--horizon", "-5"),
                                            ("--horizon", "0"),
                                            ("--horizon", "nan"),
                                            ("--horizon", "inf"),
                                            ("--periods", "0"),
                                            ("--periods", "-2")])
    def test_bad_steps_or_horizon(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        rc = main(["propagate", "--case", "A-I", "--drive", "rwa",
                   flag, value, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--eps-ss", "nan"),
                                            ("--eps-ss", "inf"),
                                            ("--eps-ss", "-1"),
                                            ("--eps-ss", "0"),
                                            ("--workers", "0"),
                                            ("--workers", "-1")])
    def test_bad_sweep_settings(self, tmp_path, capsys, monkeypatch, flag,
                                value):
        # refused before any grid point is solved or a process pool starts
        def refuse(*args, **kwargs):
            raise AssertionError("sweep started")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            refuse)
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--case", "B-II", "--omega-p-range", "6:6:1",
                   "--drive", "rwa", flag, value, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,axis", [("--omega-p-range", "omega_p"),
                                           ("--omega-c-range", "omega_c")])
    @pytest.mark.parametrize("bound", ["nan:6:1", "6:nan:1", "6:6:nan",
                                       "inf:6:1", "6:inf:1", "6:6:inf"])
    def test_non_finite_sweep_range(self, tmp_path, capsys, monkeypatch,
                                    flag, axis, bound):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep started")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        out = tmp_path / "x.csv"
        if axis == "omega_c":
            bound = bound.replace("6", "4")
        rc = main(["sweep", "--case", "B-II", "--drive", "rwa", flag, bound,
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert axis in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["gap", "--e2", "1", "--e3", "2", "--rabi-p", "1", "--rabi-c", "1",
          "--gamma-12", "0.9", "--gamma-23", "1"],
         "lambda ordering requires e2 > e1 and e2 > e3"),
        (["sweep", "--case", "A-II", "--omega-p-range", "5.9:6:0.05",
          "--observables", "bogus"],
         "unknown observable 'bogus'; allowed: ('populations', "
         "'coherences', 'rwa_error', 'convergence_time', 'spectral_gap')"),
        (["sweep", "--case", "A-II", "--omega-p-range", "5.9:6:0.05",
          "--observables", "rwa_error", "--drive", "full"],
         "observable 'rwa_error' compares both drives; it needs drive "
         "'both', got 'full'"),
        (["sweep", "--case", "A-II", "--omega-p-range", "6.1:6.0:0.05"],
         "axis start must be <= stop")],
        ids=["lambda-ordering", "unknown-observable", "rwa-error-one-drive",
             "reversed-axis"])
    def test_library_message_is_the_error_line(self, tmp_path, capsys, argv,
                                               message):
        # a ValueError from the library's own checks is the whole stderr
        # line, before any output is opened
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_steps_above_cap(self, tmp_path, capsys, monkeypatch):
        # the plan refuses the override before any (steps + 1, d, d)
        # propagator stack is allocated
        def refuse(*args, **kwargs):
            raise AssertionError("propagate called")

        monkeypatch.setattr(periodic, "propagate", refuse)
        monkeypatch.setattr(sweep, "propagate", refuse)
        out = tmp_path / "x.csv"
        rc = main(["propagate", "--case", "A-II", "--drive", "rwa",
                   "--steps-per-period", str(MAX_PLAN_STEPS + 1),
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "cap" in capsys.readouterr().err
        assert not out.exists()

    def test_commensurate_period_above_the_cap(self, capsys):
        # omega_p = 6.0001 needs q = 10^4: the floor q * MIN_STEPS is
        # above the cap before anything is propagated
        rc = main(["gap", "--case", "A-II", "--delta-omega-p", "0.0001"])
        assert rc == EXIT_CONFIG == 2
        err = capsys.readouterr().err
        assert "cap" in err and "q = 10000" in err
        assert "least common denominator of the drive frequencies" in err

    def test_steps_below_the_q_count_run(self, tmp_path):
        # q = 200, so q * BASE_STEPS is above the cap; 1000 steps are not
        out = tmp_path / "x.csv"
        rc = main(["propagate", "--case", "B-II", "--delta-omega-p", "0.005",
                   "--drive", "rwa", "--steps-per-period", "1000",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert "# steps_per_period = 1000" in out.read_text()

    def test_incommensurate_frequencies(self):
        rc = main(["propagate", "--e2", "6", "--e3", "2", "--rabi-p", "1",
                   "--rabi-c", "1", "--delta-omega-p", str(np.pi - 3.0),
                   "--periods", "1"])
        assert rc == EXIT_CONFIG
