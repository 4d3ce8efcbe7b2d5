import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavvlc.optimizer
from uavvlc.cli import (_FIG4_MAIN_KEYS, MAX_SWEEP_POINTS, MC_COLUMNS,
                        PER_USER_COLUMNS, SWEEP_COLUMNS, ConfigError, RunConfig,
                        _sweep_values, apply_config_file, main,
                        validate_config, workers_from_env)
from uavvlc.scenario import (SCHEMES, generate_scenario, run_monte_carlo,
                             solve_scenario)


def run_cli(*args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConfigFile:
    def test_overrides_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment setup\n"
            "seed = 9\n"
            "users = 8            # per scenario\n"
            "grid = 3x2\n"
            "heights = 8, 12\n"
            "schemes = proposed, sa2\n"
            "\n"
            "cth_sweep = 1.0:2.0:0.25\n")
        cfg = RunConfig()
        apply_config_file(cfg, str(path))
        assert cfg.seed == 9
        assert cfg.users == 8
        assert cfg.grid == (3, 2)
        assert cfg.heights == [8.0, 12.0]
        assert cfg.schemes == ["proposed", "sa2"]
        assert cfg.cth_sweep == (1.0, 2.0, 0.25)

    def test_unknown_key_names_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 1\nusrs = 8\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2.*usrs"):
            apply_config_file(RunConfig(), str(path))

    def test_bad_value_names_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("runs = many\n")
        with pytest.raises(ConfigError, match="runs"):
            apply_config_file(RunConfig(), str(path))

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ConfigError, match="key=value"):
            apply_config_file(RunConfig(), str(path))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            apply_config_file(RunConfig(), str(tmp_path / "absent.cfg"))

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\nusers = 4\n")
        out = tmp_path / "out"
        assert run_cli("--config", path, "--seed", 3, "--users", 6,
                       "--out", out, "--schemes", "sa1") == 0
        record = json.loads((out / "single_result.json").read_text())
        assert record["config"]["seed"] == 3
        assert record["config"]["users"] == 6


class TestValidateConfig:
    @pytest.mark.parametrize("field,value,needle", [
        ("mode", "sa3", "mode"),
        ("runs", 0, "runs"),
        ("users", -1, "users"),
        ("tx_semi_angle_deg", 90.0, "tx_semi_angle_deg"),
        ("fov_semi_angle_deg", 90.5, "fov_semi_angle_deg"),
        ("rate_threshold_bits", -0.5, "thresholds"),
        ("rel_tol", -1e-9, "rel_tol"),
        ("heights", [8.0, 0.0], "heights"),
        ("area_size", math.nan, "area_size"),
        ("illum_factor", math.inf, "illum_factor"),
        ("rate_threshold_bits", math.nan, "thresholds"),
        ("illum_threshold", math.inf, "thresholds"),
        ("rel_tol", math.nan, "rel_tol"),
        ("heights", [math.nan], "heights"),
        ("cth_sweep", (1.0, math.nan, 0.5), "cth_sweep"),
        ("cth_sweep", (1.0, 3.0, 0.0), "cth_sweep"),
        ("cth_sweep", (3.0, 1.0, 0.5), "cth_sweep"),
        ("cth_sweep", (-1.0, 2.0, 1.0), "cth_sweep"),
        # the power for the farthest reachable user overflows a float
        ("rate_threshold_bits", 600.0, "thresholds"),
        ("illum_threshold", 1e303, "thresholds"),
        ("heights", [8.0, 1e100], "thresholds"),
        # the gain overflows a float, and a served user's rate was NaN
        ("detector_area_m2", 1.7e308, "^detector_area_m2: .* channel gain"),
        # library fields the config spells differently, and ScenarioConfig's
        ("detector_area_m2", 0.0, "^detector_area_m2: "),
        ("noise_std_a", -1.0, "^noise_std_a: "),
        ("users", 0, "^users: "),
        ("max_iters", 0, "^max_iters: "),
        ("seed", -1, "^seed: "),
    ])
    def test_rejects_and_names_field(self, field, value, needle):
        cfg = RunConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError, match=needle):
            validate_config(cfg)

    @pytest.mark.parametrize("grid", [(0, 2), (3, 0)])
    def test_rejects_empty_grid(self, grid):
        with pytest.raises(ConfigError, match="^grid: "):
            validate_config(RunConfig(grid=grid))

    @pytest.mark.parametrize("sweep,illum", [
        ((1.0, 600.0, 599.0), 0.1),   # power at TO overflows
        ((0.0, 2.0, 1.0), 0.0),       # both thresholds 0 at FROM
    ])
    def test_sweep_rejected_in_sweep_mode_only(self, sweep, illum):
        cfg = RunConfig(cth_sweep=sweep, illum_threshold=illum)
        validate_config(cfg)
        cfg.mode = "sweep"
        with pytest.raises(ConfigError, match="cth_sweep"):
            validate_config(cfg)

    @pytest.mark.parametrize("mode,accepted", [
        ("single", False), ("fig4", False), ("montecarlo", True),
        ("sweep", True)])
    def test_several_heights_only_in_batch_modes(self, mode, accepted):
        cfg = RunConfig(mode=mode, heights=[8.0, 12.0])
        if accepted:
            validate_config(cfg)
        else:
            with pytest.raises(ConfigError, match="^heights: "):
                validate_config(cfg)

    def test_both_thresholds_zero(self):
        cfg = RunConfig()
        cfg.rate_threshold_bits = 0.0
        cfg.illum_threshold = 0.0
        with pytest.raises(ConfigError, match="thresholds"):
            validate_config(cfg)

    def test_default_is_valid(self):
        validate_config(RunConfig())


# Every numeric config key; keys with their own syntax embed the bad
# number in an otherwise valid value.
NUMERIC_KEYS = {
    "seed": "{}", "runs": "{}", "users": "{}", "area_size": "{}",
    "grid": "2x{}", "heights": "8,{}", "detector_area_m2": "{}",
    "refractive_index": "{}", "tx_semi_angle_deg": "{}",
    "fov_semi_angle_deg": "{}", "noise_std_a": "{}", "illum_factor": "{}",
    "rate_threshold_bits": "{}", "illum_threshold": "{}",
    "cth_sweep": "1.0:{}:0.5", "max_iters": "{}", "rel_tol": "{}",
}
# Flags that set a numeric key, and the key they set.
NUMERIC_FLAGS = {"--seed": "seed", "--runs": "runs", "--users": "users",
                 "--height": "heights", "--cth-sweep": "cth_sweep"}


class TestBadNumbers:
    """A bad number exits 1 with one error line that starts with its key."""

    @staticmethod
    def assert_config_error(code, capsys, key):
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: {key}: "), err

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
    @pytest.mark.parametrize("key", sorted(NUMERIC_KEYS))
    def test_config_file(self, tmp_path, capsys, key, bad):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {NUMERIC_KEYS[key].format(bad)}\n")
        code = run_cli("--config", path, "--out", tmp_path / "out")
        self.assert_config_error(code, capsys, key)

    @pytest.mark.parametrize("args,text,key", [
        ((), "rate_threshold_bits = 600", "thresholds"),
        ((), "illum_threshold = 1e303", "thresholds"),
        (("--mode", "sweep", "--cth-sweep", "1:600:599"), "", "cth_sweep"),
        # four finite cell powers, or unit powers, sum past the double range
        pytest.param((), "area_size = 1\nillum_threshold = 1.4e302", "thresholds",
                     id="total-power"),
        pytest.param(("--height", "1e77"), "", "heights", id="total-unit-power"),
    ])
    def test_overflowing_threshold(self, tmp_path, capsys, args, text, key):
        path = tmp_path / "big.cfg"
        path.write_text(text + "\n")
        code = run_cli("--config", path, *args, "--out", tmp_path / "out")
        self.assert_config_error(code, capsys, key)

    def test_empty_grid_in_config_file(self, tmp_path, capsys):
        path = tmp_path / "grid.cfg"
        path.write_text("grid = 2x0\n")
        code = run_cli("--config", path, "--out", tmp_path / "out")
        self.assert_config_error(code, capsys, "grid")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
    @pytest.mark.parametrize("flag", sorted(NUMERIC_FLAGS))
    def test_flag(self, tmp_path, capsys, flag, bad):
        key = NUMERIC_FLAGS[flag]
        code = run_cli(flag, NUMERIC_KEYS[key].format(bad),
                       "--out", tmp_path / "out")
        self.assert_config_error(code, capsys, key)


class TestOutOfRange:
    """Values that crashed a run with a traceback exit 1 with one line."""

    @pytest.mark.parametrize("text,key", [
        ("tx_semi_angle_deg = 1e-320", "tx_semi_angle_deg"),
        ("fov_semi_angle_deg = 1e-200", "fov_semi_angle_deg"),
        ("refractive_index = 1e200", "refractive_index"),
        ("refractive_index = 1e-320", "refractive_index"),
        # the link budget n_const underflows to 0, or overflows
        ("heights = 1e-300", "thresholds"),
        ("illum_factor = 1e-320", "thresholds"),
        ("illum_factor = 1.7e308", "thresholds"),
        # the gain underflows to 0 while xi * P overflows
        ("detector_area_m2 = 5e-324\nillum_factor = 1e200", "detector_area_m2"),
        # a sub-area centre overflows
        ("area_size = 1.7e308", "area_size"),
        # m is a finite 4.55e43, but the power law overflows
        ("tx_semi_angle_deg = 1e-20", "thresholds"),
    ])
    def test_exits_one(self, tmp_path, capsys, text, key):
        path = tmp_path / "edge.cfg"
        path.write_text(text + "\n")
        code = run_cli("--config", path, "--out", tmp_path / "out")
        TestBadNumbers.assert_config_error(code, capsys, key)
        assert not (tmp_path / "out").exists()

    def test_underflowing_budget_names_the_range(self, tmp_path, capsys):
        path = tmp_path / "edge.cfg"
        path.write_text("heights = 1e-300\n")
        assert run_cli("--config", path, "--out", tmp_path / "out") == 1
        assert "beyond floating-point range" in capsys.readouterr().err


class TestListForms:
    """A list key in the wrong form exits 1 with one line that names it."""

    @pytest.mark.parametrize("text,message", [
        ("grid = 2x2x2", "grid: expected KXxKY like 2x2, got '2x2x2'"),
        ("grid = 2", "grid: expected KXxKY like 2x2, got '2'"),
        ("heights = ,", "heights: empty list"),
        ("cth_sweep = 1:2", "cth_sweep: expected FROM:TO:STEP, got '1:2'"),
        ("schemes = ,", "schemes: empty list"),
        ("schemes = best",
         f"schemes: unknown scheme 'best'; expected from {SCHEMES}"),
    ])
    def test_exits_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "list.cfg"
        path.write_text(text + "\n")
        code = run_cli("--config", path, "--out", tmp_path / "out")
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_grid_case_and_blank_items(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("grid = 3X2\nheights = 8,,12,\nschemes = sa2,,sa1\n")
        cfg = RunConfig()
        apply_config_file(cfg, str(path))
        assert (cfg.grid, cfg.heights, cfg.schemes) == (
            (3, 2), [8.0, 12.0], ["sa2", "sa1"])



class TestRepeatedScheme:
    """A repeated scheme used to write a CSV row per listing but one JSON
    entry, and to solve it twice per run; the modes that read schemes exit
    1 with one line, and fig4, which does not, still runs."""

    @pytest.mark.parametrize("mode", ["single", "montecarlo", "sweep"])
    def test_flag_exits_one(self, tmp_path, capsys, mode):
        code = run_cli("--mode", mode, "--runs", 5, "--schemes",
                       "proposed,proposed,sa1", "--out", tmp_path / "out")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: schemes: scheme 'proposed' is repeated\n")
        assert not (tmp_path / "out").exists()

    def test_config_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("mode = montecarlo\nruns = 5\nschemes = sa2, uavoo, sa2\n")
        code = run_cli("--config", path, "--out", tmp_path / "out")
        TestBadNumbers.assert_config_error(code, capsys, "schemes")

    def test_fig4_runs(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--mode", "fig4", "--users", 6, "--schemes", "sa1,sa1",
                       "--out", out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "fig4_case1.csv", "fig4_case2.csv"]

class TestNegativeSeed:
    """random.Random(-k) seeds as Random(k) does, so a negative seed would
    repeat other seeds' scenarios; it exits 1 instead."""

    @pytest.mark.parametrize("args", [
        ("--seed", -4),
        ("--mode", "montecarlo", "--seed", -5, "--runs", 10)])
    def test_flag(self, tmp_path, capsys, args):
        code = run_cli(*args, "--out", tmp_path / "out")
        TestBadNumbers.assert_config_error(code, capsys, "seed")
        assert not (tmp_path / "out").exists()


# The numeric keys a single-mode run reads, other than users and grid,
# which the property draws from valid ranges; seed takes any integer >= 0 and
# cth_sweep is read in sweep mode only.
PROPERTY_KEYS = sorted(set(NUMERIC_KEYS)
                       - {"seed", "users", "grid", "cth_sweep"})
INTEGER_KEYS = {"runs", "max_iters"}
# at and past the edges of the double range and of the angle ranges
EXTREMES = [5e-324, 1e-320, 1e-300, 1e-30, 89.99999999999999, 90.0, 1e200,
            1.7e308, 0.0, -1.0]


# Sweeps whose point list had no end: FROM + STEP rounds to FROM, or the
# point count is beyond any run.
ENDLESS_SWEEPS = ["1e200:1e200:2", "0:1:1e-300", "9.5e-153:1.8e134:12"]


# Batch runs take runs from the property itself, so that no example asks
# for millions of runs; a huge max_iters ends where the rounds repeat.
BATCH_KEYS = sorted(set(PROPERTY_KEYS) - {"runs"})
# FROM:TO:STEP with 1 to 10 points
SMALL_SWEEPS = st.builds(
    lambda lo, n, step: f"{lo!r}:{lo + n * step!r}:{step!r}",
    st.floats(0.0, 4.0), st.integers(0, 9), st.floats(0.05, 1.0))


def _config_value(key, value):
    # an integral value of an integer key is written as an integer
    if key in INTEGER_KEYS and math.isfinite(value) and value.is_integer():
        return str(int(value))
    return repr(value)


class TestAnyConfig:
    @settings(max_examples=100, deadline=None)
    @given(users=st.integers(1, 8), grid=st.tuples(st.integers(1, 3),
                                                   st.integers(1, 3)),
           values=st.dictionaries(st.sampled_from(PROPERTY_KEYS),
                                  st.floats() | st.sampled_from(EXTREMES),
                                  min_size=1, max_size=4))
    def test_single_mode_exits_cleanly(self, users, grid, values):
        """main returns 0, 1 or 2 and never raises; 1 comes with exactly
        one error line."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.cfg"
            path.write_text(
                f"users = {users}\ngrid = {grid[0]}x{grid[1]}\n"
                + "".join(f"{key} = {_config_value(key, value)}\n"
                          for key, value in values.items()))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["--config", str(path), "--out", f"{tmp}/out"])
        assert code in (0, 1, 2)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines

    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from(["sweep", "montecarlo"]), runs=st.integers(1, 2),
           users=st.integers(1, 8), grid=st.tuples(st.integers(1, 3),
                                                   st.integers(1, 3)),
           sweep=SMALL_SWEEPS | st.sampled_from(ENDLESS_SWEEPS),
           values=st.dictionaries(st.sampled_from(BATCH_KEYS),
                                  st.floats() | st.sampled_from(EXTREMES),
                                  max_size=4))
    def test_batch_modes_exit_cleanly(self, mode, runs, users, grid, sweep,
                                      values):
        """The same in sweep and montecarlo modes, over 1-2 runs and sweeps
        of at most 10 points or without end."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.cfg"
            path.write_text(
                f"mode = {mode}\nruns = {runs}\nusers = {users}\n"
                f"grid = {grid[0]}x{grid[1]}\ncth_sweep = {sweep}\n"
                + "".join(f"{key} = {_config_value(key, value)}\n"
                          for key, value in values.items()))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["--config", str(path), "--out", f"{tmp}/out"])
        assert code in (0, 1, 2)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


# Case-file values of every RunConfig key, "{out}" standing for the main
# --out: "ok" parses (it may still fail validation or be infeasible), "bad"
# fails to parse, and "main" gives a key fig4 reads only from the main
# config a value other than the main config's.
CASE_VALUES = {
    "mode": {"ok": ["fig4"], "main": ["single", "montecarlo", "sweep", "x"]},
    "seed": {"ok": ["0", "3", "-1"], "bad": ["x", "1.5"]},
    "runs": {"ok": ["100"], "main": ["5", "0"], "bad": ["many"]},
    "users": {"ok": ["1", "4", "0"], "bad": ["four", "2.0"]},
    "area_size": {"ok": ["10", "3.5", "0", "-2"], "bad": ["nan", "ten"]},
    "grid": {"ok": ["2x2", "1x3", "3X1", "0x2"], "bad": ["2x", "2by2"]},
    "heights": {"ok": ["8", "2.0", "8,12", "0"], "bad": ["8,x", ""]},
    "detector_area_m2": {"ok": ["1e-4", "0"], "bad": ["inf", "a"]},
    "refractive_index": {"ok": ["1.5", "1.2"], "bad": ["-inf"]},
    "tx_semi_angle_deg": {"ok": ["60", "30", "90"], "bad": ["sixty"]},
    "fov_semi_angle_deg": {"ok": ["60", "10", "90"], "bad": ["w"]},
    "noise_std_a": {"ok": ["1e-10", "0.05", "0"], "bad": ["n"]},
    "illum_factor": {"ok": ["1", "0.5"], "bad": ["nan"]},
    "rate_threshold_bits": {"ok": ["1.2", "0", "600"], "bad": ["x"]},
    "illum_threshold": {"ok": ["0.1", "0", "1e303"], "bad": ["y"]},
    "cth_sweep": {"ok": ["1.0:3.0:0.5", "1:3:0.5"], "main": ["1:2:0.5"],
                  "bad": ["1:2"]},
    "schemes": {"ok": [",".join(SCHEMES)], "main": ["sa2", "sa2,sa2"],
                "bad": ["bogus", ""]},
    "out": {"ok": ["{out}"], "main": ["{out}/case"]},
    "max_iters": {"ok": ["1", "20", "0"], "bad": ["1.5"]},
    "rel_tol": {"ok": ["1e-9", "0", "1", "-1"], "bad": ["inf"]},
}
CASE_ENTRIES = st.lists(st.sampled_from(sorted(CASE_VALUES)), min_size=1,
                        max_size=4, unique=True).flatmap(
    lambda keys: st.tuples(*[st.sampled_from(
        [(key, kind, value) for kind, values in CASE_VALUES[key].items()
         for value in values]) for key in keys]))


class TestFig4CaseFileFuzz:
    def test_every_config_key_has_values(self):
        assert sorted(CASE_VALUES) == sorted(vars(RunConfig()))

    @settings(max_examples=50, deadline=None)
    @given(entries=CASE_ENTRIES)
    def test_case_file_exits_cleanly(self, entries):
        """main returns 0, 1 or 2 and never raises; 1 comes with exactly
        one error line, the first unparsable line's or else the first main
        key's, in _FIG4_MAIN_KEYS order."""
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = f"{tmp}/out"
            case = Path(tmp) / "case.cfg"
            case.write_text("".join(f"{key} = {value.format(out=out_dir)}\n"
                                    for key, _, value in entries))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["--mode", "fig4", "--users", "4",
                             "--case1", str(case), "--out", out_dir])
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        bad = [key for key, kind, _ in entries if kind == "bad"]
        main_keys = sorted((key for key, kind, _ in entries if kind == "main"),
                           key=_FIG4_MAIN_KEYS.index)
        if bad:
            assert code == 1 and lines[0].startswith(f"error: {bad[0]}: ")
        elif main_keys:
            key = main_keys[0]
            assert lines == [f"error: {key}: a fig4 case file cannot set {key}"]


class TestSweepValues:
    def test_inclusive_endpoint(self):
        assert _sweep_values((1.0, 3.0, 0.5)) == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_endpoint_with_float_noise(self):
        # 0.1 + 2 * 0.1 overshoots 0.3 by one ulp; still included
        values = _sweep_values((0.1, 0.3, 0.1))
        assert len(values) == 3

    def test_single_point(self):
        assert _sweep_values((2.0, 2.0, 1.0)) == [2.0]

    def test_step_beyond_range(self):
        assert _sweep_values((1.0, 1.5, 2.0)) == [1.0]

    def test_point_bound(self):
        top = float(MAX_SWEEP_POINTS - 1)
        assert _sweep_values((0.0, top, 1.0)) == [
            float(k) for k in range(MAX_SWEEP_POINTS)]
        with pytest.raises(ConfigError, match="^cth_sweep: "):
            _sweep_values((0.0, top + 1.0, 1.0))

    @pytest.mark.parametrize("sweep", ENDLESS_SWEEPS)
    def test_endless_sweep_exits_one(self, tmp_path, sweep):
        # FROM + STEP == FROM, or ~1e133 and 1e300 points: each of these
        # ran without end, so a regression times out here
        result = subprocess.run(
            [sys.executable, "-m", "uavvlc", "--mode", "sweep", "--cth-sweep",
             sweep, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith("error: cth_sweep: ")
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert not (tmp_path / "out").exists()


class TestWorkersEnv:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("UAVVLC_THREADS", raising=False)
        assert workers_from_env() == 1

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("UAVVLC_THREADS", "4")
        assert workers_from_env() == 4

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("UAVVLC_THREADS", "many")
        with pytest.raises(ConfigError, match="UAVVLC_THREADS"):
            workers_from_env()

    def test_rejects_nonpositive(self, monkeypatch):
        monkeypatch.setenv("UAVVLC_THREADS", "0")
        with pytest.raises(ConfigError, match="UAVVLC_THREADS"):
            workers_from_env()


class TestSingleMode:
    def test_outputs_and_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("--mode", "single", "--seed", 2, "--users", 8,
                       "--out", out) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            assert "total_power_w=" in line and "feasible=True" in line
        assert (out / "single_result.json").exists()
        for scheme in ("proposed", "uavoo", "sa1"):
            assert (out / f"per_user_{scheme}.csv").exists()
        assert not (out / "per_user_sa2.csv").exists()

    def test_per_user_csv_shape(self, tmp_path):
        out = tmp_path / "out"
        run_cli("--mode", "single", "--seed", 2, "--users", 8, "--out", out)
        header, rows = read_csv(out / "per_user_proposed.csv")
        assert header == PER_USER_COLUMNS
        assert len(rows) == 8
        assert sorted(int(r[0]) for r in rows) == list(range(8))
        for row in rows:
            assert float(row[4]) >= 2.0 - 1e-9       # achieved rate
            assert float(row[5]) >= 0.1 - 1e-12      # achieved illumination

    def test_reruns_are_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        args = ("--mode", "single", "--seed", 5, "--users", 8, "--out", out)
        run_cli(*args)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_cli(*args)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_json_matches_library_solution(self, tmp_path):
        out = tmp_path / "out"
        run_cli("--mode", "single", "--seed", 7, "--users", 10, "--out", out)
        record = json.loads((out / "single_result.json").read_text())
        scenario = generate_scenario(seed=7, num_users=10)
        for scheme in ("proposed", "sa1"):
            direct = solve_scenario(scenario, scheme)
            stored = record["schemes"][scheme]
            assert stored["total_power_w"] == direct.total_power
            assert stored["clusters"] == [list(c) for c in
                                          direct.association.clusters]

    def test_infeasible_height_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("--mode", "single", "--seed", 0, "--users", 8,
                       "--height", 2, "--out", out)
        assert code == 2
        record = json.loads((out / "single_result.json").read_text())
        assert record["schemes"]["sa2"]["feasible"] is False
        assert record["schemes"]["sa2"]["total_power_w"] is None  # inf


class TestMonteCarloMode:
    def test_csv_and_json_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("--mode", "montecarlo", "--runs", 5, "--users", 8,
                       "--height", 8, "--height", 12, "--out", out) == 0
        header, rows = read_csv(out / "montecarlo.csv")
        assert header == MC_COLUMNS
        assert len(rows) == 8    # 4 schemes x 2 heights
        payload = json.loads((out / "montecarlo.json").read_text())
        for height_key in ("8.0", "12.0"):
            reductions = payload["heights"][height_key]["reductions_percent"]
            assert set(reductions) == {"uavoo", "sa1", "sa2"}
            for pct in reductions.values():
                assert 0.0 < pct < 100.0
        printed = capsys.readouterr().out
        assert printed.count("proposed saves") == 6

    def test_infeasible_exits_two(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("--mode", "montecarlo", "--runs", 2, "--users", 4,
                       "--height", 2, "--schemes", "sa2", "--out", out)
        assert code == 2


class TestSweepMode:
    @pytest.fixture()
    def sweep_outputs(self, tmp_path):
        # noise high enough that the rate constraint sets the power, so
        # mean power must grow with the rate threshold
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("noise_std_a = 0.05\nruns = 3\nusers = 8\n")
        out = tmp_path / "out"
        code = run_cli("--config", cfg, "--mode", "sweep",
                       "--cth-sweep", "1.0:2.0:0.5",
                       "--height", 8, "--height", 12, "--out", out)
        assert code == 0
        return read_csv(out / "sweep.csv")

    def test_row_grid(self, sweep_outputs):
        header, rows = sweep_outputs
        assert header == SWEEP_COLUMNS
        assert len(rows) == 24    # 3 thresholds x 4 schemes x 2 heights
        assert {r[0] for r in rows} == {"rate_threshold_bits"}
        assert {float(r[1]) for r in rows} == {1.0, 1.5, 2.0}

    def test_power_grows_with_rate_threshold(self, sweep_outputs):
        _, rows = sweep_outputs
        series = {}
        for row in rows:
            series.setdefault((row[2], row[3]), []).append(
                (float(row[1]), float(row[4])))
        assert len(series) == 8
        for points in series.values():
            points.sort()
            means = [m for _, m in points]
            assert means == sorted(means)
            assert len(set(means)) == len(means)

    def test_scheme_ratios_independent_of_threshold(self, sweep_outputs):
        # the constraint prefactor multiplies every scheme equally, so
        # proposed/sa2 is a geometric constant along the sweep
        _, rows = sweep_outputs
        mean_at = {(r[2], r[3], r[1]): float(r[4]) for r in rows}
        for height in ("8.0", "12.0"):
            ratios = [mean_at[("proposed", height, cth)]
                      / mean_at[("sa2", height, cth)]
                      for cth in ("1.0", "1.5", "2.0")]
            for r in ratios[1:]:
                assert r == pytest.approx(ratios[0], rel=1e-9)


class TestSharedGeometry:
    """Families that differ only in the rate threshold share each run's
    geometry, and one worker pool serves the whole command."""

    SWEEP = ["--mode", "sweep", "--runs", 3, "--height", 2, "--height", 3,
             "--cth-sweep", "1.0:3.0:0.5"]

    @pytest.mark.parametrize("threads,pools", [("2", 1), ("1", 0)])
    def test_one_pool_per_command(self, monkeypatch, tmp_path, threads, pools):
        import concurrent.futures
        started = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        monkeypatch.setenv("UAVVLC_THREADS", threads)
        # sa2 is infeasible at 2 m
        assert run_cli(*self.SWEEP, "--out", tmp_path / "out") == 2
        assert len(started) == pools

    @pytest.mark.parametrize("mode", ["sweep", "montecarlo"])
    def test_repeated_height_rows_match_a_batch_per_family(self, tmp_path,
                                                           mode):
        out = tmp_path / "out"
        args = ["--mode", mode, "--runs", 4, "--users", 8, "--height", 3,
                "--height", 2, "--height", 3, "--cth-sweep", "1.0:2.0:0.5"]
        assert run_cli(*args, "--out", out) == 2
        cfg = RunConfig(mode=mode, runs=4, users=8, heights=[3.0, 2.0, 3.0],
                        cth_sweep=(1.0, 2.0, 0.5))
        expected = []
        for family in validate_config(cfg):
            summary = run_monte_carlo(family, 4)
            height = repr(family.params.uav_height)
            for scheme, st_ in summary.stats.items():
                if mode == "sweep":
                    expected.append(["rate_threshold_bits",
                                     repr(family.reqs.rate_threshold), scheme,
                                     height, repr(st_.mean), repr(st_.std), "4"])
                else:
                    expected.append([scheme, height, repr(st_.mean),
                                     repr(st_.std), "4",
                                     str(st_.infeasible_runs)])
        name = "sweep.csv" if mode == "sweep" else "montecarlo.csv"
        assert read_csv(out / name)[1] == expected

    @staticmethod
    def count_solves(monkeypatch, tmp_path, args, code, cfg):
        # The CLI run's greedy and SED calls, and the counts it should make:
        # per (seed, height) the greedy calls of the single solve that runs
        # the most rounds, not the sum over the rates; per seed the distinct
        # point lists that the single solves of every height pass to
        # smallest_enclosing_disk.  Also the SED calls of one-height runs,
        # which share no disk between heights, and all the singles' greedy
        # calls.
        calls = {"greedy": 0, "sed": 0}
        passed = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                if name == "sed":
                    passed.append(tuple(args[0]))
                return fn(*args, **kwargs)
            return counted

        for attr, name in (("greedy_min_size_clustering", "greedy"),
                           ("smallest_enclosing_disk", "sed")):
            monkeypatch.setattr(uavvlc.optimizer, attr,
                                counting(name, getattr(uavvlc.optimizer, attr)))
        monkeypatch.setenv("UAVVLC_THREADS", "1")
        assert run_cli(*args, "--out", tmp_path / "out") == code
        swept = dict(calls)

        families = validate_config(cfg)
        expected = {"greedy": 0, "sed": 0}
        apart = singles = 0
        for k in range(cfg.runs):
            both = set()
            for height in cfg.heights:
                most = 0
                passed.clear()
                for family in families:
                    if family.params.uav_height != height:
                        continue
                    calls["greedy"] = 0
                    scenario = family.scenario(k)
                    for scheme in SCHEMES:
                        solve_scenario(scenario, scheme)
                    singles += calls["greedy"]
                    most = max(most, calls["greedy"])
                expected["greedy"] += most
                apart += len(set(passed))
                both.update(passed)
            expected["sed"] += len(both)
        return swept, expected, apart, singles

    def test_sweep_solves_each_geometry_once(self, monkeypatch, tmp_path):
        cfg = RunConfig(mode="sweep", seed=7, runs=3, heights=[2.0, 3.0],
                        cth_sweep=(1.0, 3.0, 0.5))
        swept, expected, _, singles = self.count_solves(
            monkeypatch, tmp_path, [*self.SWEEP, "--seed", 7], 2, cfg)
        assert swept == expected
        # the counts go through the module attributes the tracer spans, so a
        # solve that routes around them would read 0 here, not pass at 0 == 0
        assert swept["sed"] > 0
        assert singles > swept["greedy"] > 0

    def test_montecarlo_shares_disks_between_heights(self, monkeypatch,
                                                     tmp_path):
        # the paper's two heights draw the same users, so their runs share
        # the geographic association's disks and any cluster both descents
        # reach: fewer SED calls than two one-height runs
        cfg = RunConfig(mode="montecarlo", seed=7, runs=5, heights=[8.0, 12.0])
        swept, expected, apart, _ = self.count_solves(
            monkeypatch, tmp_path,
            ["--mode", "montecarlo", "--runs", 5, "--height", 8, "--height", 12,
             "--seed", 7], 0, cfg)
        assert swept == expected
        assert 0 < swept["sed"] < apart
        assert swept["greedy"] > 0


class TestFig4Mode:
    def test_case_tables(self, tmp_path):
        cfg = tmp_path / "fig4.cfg"
        cfg.write_text("noise_std_a = 0.05\nusers = 12\nseed = 1\n")
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "--mode", "fig4", "--out", out) == 0

        # case 1: thresholds (1.2, 0.1); the rate constraint dominates
        header, rows = read_csv(out / "fig4_case1.csv")
        assert header == PER_USER_COLUMNS
        assert len(rows) == 12
        rate_slack = [float(r[4]) / 1.2 - 1.0 for r in rows]
        assert min(rate_slack) == pytest.approx(0.0, abs=1e-9)
        assert all(s >= -1e-9 for s in rate_slack)

        # case 2: thresholds (1.8, 0.6); illumination dominates
        _, rows = read_csv(out / "fig4_case2.csv")
        illum_slack = [float(r[5]) / 0.6 - 1.0 for r in rows]
        assert min(illum_slack) == pytest.approx(0.0, abs=1e-9)
        assert all(s >= -1e-9 for s in illum_slack)
        assert all(float(r[4]) >= 1.8 - 1e-9 for r in rows)

    def test_case_override_file(self, tmp_path):
        case1 = tmp_path / "case1.cfg"
        case1.write_text("rate_threshold_bits = 2.5\n")
        out = tmp_path / "out"
        assert run_cli("--mode", "fig4", "--users", 6,
                       "--case1", case1, "--out", out) == 0
        _, rows = read_csv(out / "fig4_case1.csv")
        assert all(row[6] == "2.5" for row in rows)

    def test_infeasible_cases_exit_two(self, tmp_path, capsys):
        # at 1 m a sub-area corner is outside the field of view in both cases
        out = tmp_path / "out"
        assert run_cli("--mode", "fig4", "--height", 1, "--out", out) == 2
        assert capsys.readouterr().out == ("case1: infeasible\n"
                                           "case2: infeasible\n")
        assert not list(out.glob("fig4_*.csv"))

    def test_main_thresholds_are_not_read(self, tmp_path, capsys):
        # each case sets both thresholds, so the main config's are not
        # checked in fig4 mode; single mode still rejects them
        path = tmp_path / "big.cfg"
        path.write_text("rate_threshold_bits = 1e300\n")
        out = tmp_path / "out"
        assert run_cli("--config", path, "--mode", "fig4", "--out", out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "fig4_case1.csv", "fig4_case2.csv"]
        capsys.readouterr()
        code = run_cli("--config", path, "--mode", "single",
                       "--out", tmp_path / "single")
        TestBadNumbers.assert_config_error(code, capsys, "thresholds")


class TestMainEntry:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "montecarlo" in capsys.readouterr().out

    def test_usage_error_exits_one(self, capsys):
        assert main(["--mode", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nope = 1\n")
        assert main(["--config", str(path)]) == 1
        assert "nope" in capsys.readouterr().err

    def test_extra_height_exits_one(self, tmp_path, capsys):
        # single and fig4 solve at one height; a second one is an error,
        # whether it comes from the flags or from a fig4 case file
        case = tmp_path / "case.cfg"
        case.write_text("heights = 8,12\n")
        for args in (("--mode", "single", "--height", 8, "--height", 12),
                     ("--mode", "fig4", "--case2", case)):
            out = tmp_path / "out"
            assert run_cli(*args, "--out", out) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1, err
            assert err.startswith("error: heights: "), err
            assert not list(out.glob("*"))

    def test_case_file_cannot_change_mode(self, tmp_path, capsys):
        # a montecarlo case would pass the batch-mode height check and
        # then be solved by fig4 at its first height only
        case = tmp_path / "case.cfg"
        case.write_text("mode = montecarlo\nheights = 8,12\n")
        out = tmp_path / "out"
        assert run_cli("--mode", "fig4", "--case1", case, "--out", out) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: mode: "), err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("key,value", [
        ("out", "{tmp}/case_out"), ("schemes", "sa2"), ("runs", "5"),
        ("cth_sweep", "1.0:2.0:0.5")], ids=["out", "schemes", "runs",
                                            "cth_sweep"])
    def test_case_file_cannot_set_main_keys(self, tmp_path, capsys, key,
                                            value):
        # fig4 reads these once, from the main config; a case file's
        # value used to be dropped without a word
        case = tmp_path / "case.cfg"
        case.write_text(f"{key} = {value.format(tmp=tmp_path)}\n")
        out = tmp_path / "out"
        assert run_cli("--mode", "fig4", "--case2", case, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {key}: a fig4 case file cannot set {key}\n"
        assert not list(tmp_path.glob("*out/*"))

    def test_unknown_flag_exits_one(self, capsys):
        # through _Parser.error, not argparse's exit status 2
        assert main(["--bogus", "1"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: ") and "--bogus" in err, err

    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "uavvlc", "--mode", "single",
             "--users", "4", "--seed", "1", "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "proposed" in result.stdout
