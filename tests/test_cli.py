import csv
import json
import math
import subprocess
import sys

import pytest

from uavvlc.cli import (MC_COLUMNS, PER_USER_COLUMNS, SWEEP_COLUMNS,
                        ConfigError, RunConfig, _sweep_values,
                        apply_config_file, main, validate_config,
                        workers_from_env)
from uavvlc.scenario import generate_scenario, solve_scenario


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
    ])
    def test_rejects_and_names_field(self, field, value, needle):
        cfg = RunConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError, match=needle):
            validate_config(cfg)

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
    ])
    def test_overflowing_threshold(self, tmp_path, capsys, args, text, key):
        path = tmp_path / "big.cfg"
        path.write_text(text + "\n")
        code = run_cli("--config", path, *args, "--out", tmp_path / "out")
        self.assert_config_error(code, capsys, key)

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
    @pytest.mark.parametrize("flag", sorted(NUMERIC_FLAGS))
    def test_flag(self, tmp_path, capsys, flag, bad):
        key = NUMERIC_FLAGS[flag]
        code = run_cli(flag, NUMERIC_KEYS[key].format(bad),
                       "--out", tmp_path / "out")
        self.assert_config_error(code, capsys, key)


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

    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "uavvlc", "--mode", "single",
             "--users", "4", "--seed", "1", "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "proposed" in result.stdout
