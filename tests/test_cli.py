"""Configuration parsing, run orchestration, persistence, exit codes."""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import vortexwave
from vortexwave import cli, validation
from vortexwave.config import _SECTIONS, load_config, load_config_file
from vortexwave.continuation import ContinuationEngine
from vortexwave.errors import (
    NonFiniteEntry,
    ParseError,
    SingularBorderedSystem,
    ValidationError,
)
from vortexwave.persistence import (
    SCHEMA,
    SUMMARY_SCHEMA,
    load_branch_table,
    load_snapshot,
)
from vortexwave.system import PhysicalParameters, WaveSystem

SMALL = """
[discretization]
n_modes = 16
m_vertical = 12

[continuation]
max_steps = 5
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_files(out_dir):
    return {
        name: (out_dir / name).read_bytes()
        for name in sorted(os.listdir(out_dir))
    }


#: a valid value, other than the default, for every configuration key
NON_DEFAULT = {
    "physical.rho_lower": 1.1,
    "physical.rho_upper": 0.8,
    "physical.gravity": 2.0,
    "physical.surface_tension": 0.2,
    "physical.depth": 1.5,
    "physical.half_period": 3.0,
    "physical.vortex_y": -0.6,
    "physical.phantom_y": 0.7,
    "discretization.n_modes": 16,
    "discretization.m_vertical": 12,
    "continuation.ds0": 1e-3,
    "continuation.ds_min": 1e-7,
    "continuation.ds_max": 1e-2,
    "continuation.newton_tol": 1e-9,
    "continuation.newton_max": 20,
    "continuation.max_steps": 7,
    "continuation.norm_cap": 500.0,
    "continuation.vortex_guard": 0.06,
    "continuation.gap_floor": 0.05,
    "continuation.target_strength": 2e-3,
    "output.directory": "elsewhere",
}


def configured(config, key):
    """The value in a RunConfig that one configuration key sets."""
    if key == "directory":
        return config.out_dir
    if key in ("vortex_y", "phantom_y"):
        pair = config.params.pair
        return (pair.lower if key == "vortex_y" else pair.upper)[1]
    for owner in (config.params, config.settings, config):
        if hasattr(owner, key):
            return getattr(owner, key)
    return None


class TestConfig:
    def test_empty_text_fills_defaults(self):
        config = load_config("")
        assert config.n_modes == 64
        assert config.m_vertical == 32
        assert config.settings.ds0 == 5e-4
        assert config.settings.max_steps == 200
        assert config.settings.target_strength == 1e-3
        assert config.out_dir == "out"
        assert config.params.pair.lower == (0.0, -0.5)
        assert config.params.pair.upper == (0.0, 0.5)

    def test_phantom_mirrors_vortex_by_default(self):
        config = load_config("[physical]\nvortex_y = -0.3\n")
        assert config.params.pair.upper == (0.0, 0.3)

    def test_hash_is_stable_and_keyed_to_content(self):
        base = load_config("")
        again = load_config("")
        moved = load_config("[continuation]\nds0 = 1e-3\n")
        assert base.config_hash() == again.config_hash()
        assert base.config_hash() != moved.config_hash()

    @pytest.mark.parametrize("text", [
        "[plotting]\nstyle = fancy\n",
        # configparser's default section would feed ds0 to every section
        "[DEFAULT]\nds0 = 0.5\n",
        "[DEFAULT]\nds0 = 0.5\n[physical]\ndepth = 1.0\n",
    ], ids=["plotting", "DEFAULT", "DEFAULT beside physical"])
    def test_unknown_section_rejected(self, text):
        with pytest.raises(ParseError, match="unknown section"):
            load_config(text)

    @pytest.mark.parametrize("text", [
        "ds0 = 0.5\n",
        "[physical]\ndepth = 1.0\ndepth = 2.0\n",
    ], ids=["no section header", "duplicate key"])
    def test_unparseable_text_exits_two(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, text)
        code = cli.main(["continue", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: unparseable configuration")

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key"):
            load_config("[physical]\nrho = 1.0\n")

    def test_density_ordering_names_the_invariant(self):
        with pytest.raises(ValidationError,
                           match=r"\(rho_upper - rho_lower\) \* gravity < 0"):
            load_config("[physical]\nrho_upper = 1.2\nrho_lower = 1.0\n")

    @pytest.mark.parametrize("value", ["-0.5", "0"])
    def test_nonpositive_upper_density_names_positivity(self, value):
        # below the lower density, so the ordering holds; the message names
        # the condition that fails
        with pytest.raises(ValidationError) as info:
            load_config(f"[physical]\nrho_upper = {value}\n")
        assert str(info.value) == "upper density must be positive"

    def test_odd_mode_count_rejected(self):
        with pytest.raises(ValidationError, match="even and at least 8"):
            load_config("[discretization]\nn_modes = 7\n")

    def test_small_vertical_resolution_rejected(self):
        with pytest.raises(ValidationError, match="m_vertical"):
            load_config("[discretization]\nm_vertical = 4\n")

    def test_vortex_above_interface_rejected(self):
        with pytest.raises(ValidationError, match="below the phantom"):
            load_config("[physical]\nvortex_y = 0.5\n")

    def test_non_numeric_value_names_section_and_key(self):
        with pytest.raises(ParseError, match=r"\[physical\] depth"):
            load_config("[physical]\ndepth = oops\n")

    def test_non_finite_target_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            load_config("[continuation]\ntarget_strength = nan\n")

    def test_canonical_names_every_key_but_the_output_directory(self):
        names = {line.split("=", 1)[0]
                 for line in load_config("").canonical().splitlines()}
        keys = {f"{section}.{key}"
                for section, section_keys in _SECTIONS.items()
                for key in section_keys}
        assert names == keys - {"output.directory"}

    def test_step_ordering_violation_is_config_error(self):
        with pytest.raises(ValidationError, match="ds_min"):
            load_config("[continuation]\nds0 = 1e-9\n")

    @pytest.mark.parametrize("section, key", [
        (section, key) for section in _SECTIONS for key in _SECTIONS[section]
    ])
    def test_every_key_reaches_what_it_configures(self, section, key):
        value = NON_DEFAULT[f"{section}.{key}"]
        base = load_config("")
        moved = load_config(f"[{section}]\n{key} = {value}\n")
        assert configured(moved, key) == value
        assert configured(base, key) != value
        if key == "directory":
            # where the files go is no part of what they hold
            assert moved.config_hash() == base.config_hash()
        else:
            assert moved.config_hash() != base.config_hash()


class TestContinueMode:
    def test_budget_run_exits_zero_with_origin_first(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        code = cli.main(["continue", "--config", cfg, "--out", str(out)])
        assert code == 0

        table = load_branch_table(str(out / "branch.csv"))
        assert table["step"].size == 6
        assert table["strength"][0] == 0.0
        assert table["speed"][0] == 0.0
        assert table["elevation_sup"][0] == 0.0
        assert np.all(np.diff(table["strength"]) > 0)

        snaps = sorted(p for p in os.listdir(out) if p.startswith("snapshot"))
        assert len(snaps) == 6

        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "continue"
        assert summary["termination"] == "max_steps_reached"
        assert summary["points"] == 6
        assert summary["exit_code"] == 0

    def test_minus_direction_mirrors_strengths(self, tmp_path):
        # a solve at the negated strength of the branch's last point lands
        # on the mirror image (elevation, -traces, -speed) of that point
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["continue", "--config", cfg, "--out", str(out)]) == 0
        table = load_branch_table(str(out / "branch.csv"))
        assert np.all(np.diff(table["strength"]) > 0)
        state, strength, _ = load_snapshot(str(out / "snapshot_0005.json"))
        assert strength == table["strength"][-1]

        neg_cfg = write_config(
            tmp_path, SMALL + f"target_strength = {-strength!r}\n",
            name="neg.ini",
        )
        neg = tmp_path / "neg"
        assert cli.main(["single-solve", "--config", neg_cfg,
                         "--out", str(neg)]) == 0
        mirror, neg_strength, _ = load_snapshot(str(neg / "snapshot_0000.json"))
        assert neg_strength == -strength
        assert abs(mirror.speed + state.speed) < 1e-10
        assert np.abs(mirror.elevation.coeffs
                      - state.elevation.coeffs).max() < 1e-10
        assert np.abs(mirror.trace_lower.coeffs
                      + state.trace_lower.coeffs).max() < 1e-10
        assert np.abs(mirror.trace_upper.coeffs
                      + state.trace_upper.coeffs).max() < 1e-10

    def test_max_steps_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        code = cli.main(["continue", "--config", cfg, "--out", str(out),
                         "--max-steps", "3"])
        assert code == 0
        assert load_branch_table(str(out / "branch.csv"))["step"].size == 4

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        first, second = tmp_path / "a", tmp_path / "b"
        assert cli.main(["continue", "--config", cfg, "--out", str(first)]) == 0
        assert cli.main(["continue", "--config", cfg, "--out", str(second)]) == 0
        assert read_files(first) == read_files(second)

    def test_rerun_with_fewer_points_keeps_one_snapshot_per_row(self,
                                                               tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        for steps in ("5", "2"):
            assert cli.main(["continue", "--config", cfg, "--out", str(out),
                             "--max-steps", steps]) == 0
        rows = load_branch_table(str(out / "branch.csv"))["step"].size
        snapshots = [name for name in os.listdir(out)
                     if name.startswith("snapshot_")]
        assert rows == 3
        assert sorted(snapshots) == [f"snapshot_{k:04d}.json"
                                     for k in range(rows)]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["points"] == rows

    def test_stale_record_that_cannot_be_removed_exits_two(
            self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_text("{}")

        def refuse(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(os, "remove", refuse)
        cfg = write_config(tmp_path, SMALL)
        assert cli.main(["continue", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot remove")
        assert "summary.json" in err and len(err.splitlines()) == 1

    def test_guard_termination_exits_four_with_valid_prefix(self, tmp_path):
        cfg = write_config(
            tmp_path,
            SMALL + "\n[physical]\nvortex_y = -0.1\n",
        )
        out = tmp_path / "out"
        code = cli.main(["continue", "--config", cfg, "--out", str(out),
                         "--max-steps", "200"])
        assert code == 4

        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "vortex_near_interface"
        assert summary["exit_code"] == 4

        table = load_branch_table(str(out / "branch.csv"))
        assert table["step"].size == summary["points"]
        assert np.all(table["vortex_distance"] >= 0.05)
        assert np.all(table["residual_norm"] <= 1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("budget", ["3", "40"])
    def test_failed_attempts_do_not_use_up_the_budget(self, tmp_path,
                                                      budget):
        # no step converges at this density; whatever the budget, the
        # halvings of ds end the run below ds_min as a Newton failure.  A
        # trial's residual is finite but its norm overflows, which is a
        # non-finite entry, raised without a warning
        cfg = write_config(tmp_path, """
[discretization]
n_modes = 8
m_vertical = 8

[physical]
rho_lower = 1e300
""")
        out = tmp_path / "out"
        code = cli.main(["continue", "--config", cfg, "--out", str(out),
                         "--max-steps", budget])
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "newton_failure"
        assert summary["points"] == 1  # the origin

    def test_failure_at_a_converged_point_ends_with_a_summary(
            self, tmp_path, monkeypatch):
        # the third tangent is that of the second step's converged point:
        # the branch ends at the point before it as a Newton failure
        real_tangent = ContinuationEngine.tangent
        calls = []

        def failing_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise SingularBorderedSystem("injected tangent failure")
            return real_tangent(*args, **kwargs)

        monkeypatch.setattr(ContinuationEngine, "tangent", failing_third)
        cfg = write_config(tmp_path, """
[discretization]
n_modes = 8
m_vertical = 8
""")
        out = tmp_path / "out"
        code = cli.main(["continue", "--config", cfg, "--out", str(out),
                         "--max-steps", "5"])
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "newton_failure"
        assert summary["exit_code"] == 3
        table = load_branch_table(str(out / "branch.csv"))
        assert summary["points"] == table["step"].size == 2

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = cli.main(["continue", "--config", str(tmp_path / "no.ini")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"\xff\xfe[physical]\n")
        for command in ("continue", "single-solve", "validate"):
            assert cli.main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: cannot read config "
                                  f"file {path}: ")
            assert err.count("\n") == 1

    def test_config_file_with_a_byte_order_mark_runs(self, tmp_path, capsys):
        # some Windows editors save UTF-8 with a leading byte-order mark
        text = "[physical]\nsurface_tension = 1000\n"
        plain = write_config(tmp_path, text)
        marked = tmp_path / "marked.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert cli.main(["validate", "--config", str(marked)]) == 0
        assert capsys.readouterr().err == ""
        assert (load_config_file(str(marked)).config_hash()
                == load_config_file(plain).config_hash())

    def test_invalid_config_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "[physical]\nrho_upper = 2.0\n")
        assert cli.main(["continue", "--config", cfg]) == 2

    @pytest.mark.parametrize("cap", ["nan", "inf", "-inf", "0", "-1"])
    def test_unusable_norm_cap_exits_two(self, tmp_path, capsys, cap):
        # nan compares False with everything and would switch the guard off
        cfg = write_config(tmp_path, f"{SMALL}norm_cap = {cap}\n")
        code = cli.main(["continue", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "norm_cap" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        # nan or a non-positive guard would switch it off silently
        ("continuation", "vortex_guard", "nan"),
        ("continuation", "vortex_guard", "-1"),
        ("continuation", "vortex_guard", "0"),
        ("continuation", "vortex_guard", "inf"),
        ("continuation", "gap_floor", "nan"),
        ("continuation", "gap_floor", "-1"),
        ("continuation", "gap_floor", "inf"),
        # below the layer solver's own 2% floor it would never fire
        ("continuation", "gap_floor", "0.01"),
        ("continuation", "gap_floor", "1.0"),  # the whole depth
        # an infinite tolerance accepts every predictor unconverged
        ("continuation", "newton_tol", "inf"),
        ("continuation", "newton_tol", "nan"),
        ("physical", "bernoulli_constant", "nan"),  # no longer a setting
        ("physical", "depth", "inf"),
        ("physical", "surface_tension", "inf"),
        ("physical", "rho_lower", "inf"),
        ("physical", "gravity", "inf"),
        ("physical", "half_period", "inf"),
        ("physical", "half_period", "1e-300"),  # the kernel overflows
        ("physical", "half_period", "1e-3"),
        ("physical", "vortex_y", "-1e-13"),  # the pair all but coincides
        ("physical", "kernel", "periodized"),  # no longer a setting
        ("discretization", "dealias", "true"),  # no longer a setting
    ])
    def test_unusable_setting_exits_two(self, tmp_path, capsys, section,
                                        key, value):
        header = "" if section == "discretization" else f"[{section}]\n"
        cfg = write_config(
            tmp_path,
            "[discretization]\nn_modes = 16\nm_vertical = 12\n"
            f"{header}{key} = {value}\n",
        )
        code = cli.main(["continue", "--config", cfg,
                         "--out", str(tmp_path / "out"), "--max-steps", "5"])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_bad_max_steps_flag_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        code = cli.main(["continue", "--config", cfg,
                         "--out", str(tmp_path / "out"), "--max-steps", "0"])
        assert code == 2

    def test_infinite_first_step_exits_two_at_once(self, tmp_path):
        # inf / 2 is inf: a failing step would be retried forever, so the
        # run goes in a child process that a regression cannot hang
        cfg = write_config(
            tmp_path,
            "[discretization]\nn_modes = 8\nm_vertical = 8\n"
            "[continuation]\nds0 = inf\nds_max = inf\n",
        )
        src = os.path.dirname(os.path.dirname(vortexwave.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "vortexwave.cli", "continue",
             "--config", cfg, "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=10,
        )
        assert done.returncode == 2
        assert "ds0" in done.stderr

    @pytest.mark.parametrize("output, out, name", [
        ("[output]\ndirectory =\n", [], ""),
        ("", ["--out", "file"], "file"),
        ("", ["--out", os.path.join("file", "out")],
         os.path.join("file", "out")),
        ("[output]\ndirectory = o\0x\n", [], "o\0x"),
    ], ids=["empty name", "a file", "under a file", "null byte"])
    def test_unusable_output_directory_exits_two(self, tmp_path, monkeypatch,
                                                 capsys, output, out, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        cfg = write_config(tmp_path, f"{SMALL}\n{output}")
        for command in ("continue", "single-solve"):
            assert cli.main([command, "--config", cfg, *out]) == 2
            assert capsys.readouterr().err.startswith(
                f"configuration error: cannot use output directory {name!r}")

    @pytest.mark.parametrize("command", ["continue", "single-solve"])
    @pytest.mark.parametrize("name, kept", [
        ("branch.csv", []),
        ("snapshot_0000.json", ["branch.csv"]),
        ("summary.json", ["branch.csv", "snapshot_0000.json"]),
    ])
    def test_unwritable_output_file_exits_two(self, tmp_path, capsys,
                                              command, name, kept):
        # the file exists as a directory, so it cannot be opened for writing
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = write_config(tmp_path, "[discretization]\nn_modes = 8\n"
                                     "m_vertical = 8\n")
        steps = ["--max-steps", "1"] if command == "continue" else []
        assert cli.main([command, "--config", cfg, "--out", str(out),
                         *steps]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and name in err
        assert len(err.splitlines()) == 1
        for written in kept:  # the files written so far stay
            assert (out / written).is_file()
        if kept:
            assert load_branch_table(str(out / "branch.csv"))["step"].size

    def test_snapshot_diagnostics_equal_the_table_row(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["continue", "--config", cfg, "--out", str(out),
                         "--max-steps", "3"]) == 0
        table = load_branch_table(str(out / "branch.csv"))
        for step in table["step"].astype(int):
            _, strength, record = load_snapshot(
                str(out / f"snapshot_{step:04d}.json")
            )
            assert strength == table["strength"][step]
            assert record["speed"] == table["speed"][step]
            assert record["diagnostics"]
            for name, value in record["diagnostics"].items():
                assert value == table[name][step], name


class TestSingleSolve:
    def test_solves_at_configured_strength(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        code = cli.main(["single-solve", "--config", cfg, "--out", str(out)])
        assert code == 0

        table = load_branch_table(str(out / "branch.csv"))
        assert table["step"].size == 1
        assert table["strength"][0] == 1e-3
        assert table["residual_norm"][0] <= 1e-10

        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "single_solve"
        assert summary["termination"] is None
        assert summary["points"] == 1

    def test_summary_echoes_the_config_as_json_values(self, tmp_path):
        # numbers as JSON numbers and an unset key as null, not as the
        # strings of their Python reprs; an infinite ds_max, which JSON
        # has no number for, as its repr
        cfg = write_config(tmp_path, SMALL + "ds_max = inf\n")
        out = tmp_path / "out"
        assert cli.main(["single-solve", "--config", cfg,
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == SUMMARY_SCHEMA == 2
        config = summary["config"]
        assert config == {key: "inf" if key == "continuation.ds_max"
                          else value
                          for key, value in load_config_file(cfg)
                          .resolved().items()}
        assert config["discretization.n_modes"] == 16
        assert config["continuation.ds0"] == 0.0005
        assert config["continuation.gap_floor"] is None

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        first, second = tmp_path / "a", tmp_path / "b"
        assert cli.main(["single-solve", "--config", cfg,
                         "--out", str(first)]) == 0
        assert cli.main(["single-solve", "--config", cfg,
                         "--out", str(second)]) == 0
        assert read_files(first) == read_files(second)

    def test_snapshot_feeds_residual_back(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["single-solve", "--config", cfg,
                         "--out", str(out)]) == 0
        state, strength, record = load_snapshot(str(out / "snapshot_0000.json"))
        system = WaveSystem(PhysicalParameters(), 16, 12)
        norm = float(np.linalg.norm(system.residual(state, strength)))
        assert abs(norm - record["diagnostics"]["residual_norm"]) < 1e-13

    @pytest.mark.parametrize("key, index", [("elevation", 2),
                                            ("speed", None)])
    def test_non_finite_snapshot_is_a_non_finite_entry(self, tmp_path, key,
                                                        index):
        record = {"schema": SCHEMA, "strength": 0.5, "speed": -0.1,
                  "elevation": [0.0, 0.01, 0.002],
                  "trace_upper": [0.0, 0.3, 0.1],
                  "trace_lower": [0.0, -0.3, -0.1]}
        if index is None:
            record[key] = float("nan")
        else:
            record[key][index] = float("nan")
        path = tmp_path / "snapshot_0000.json"
        path.write_text(json.dumps(record))  # NaN is written as NaN
        with pytest.raises(NonFiniteEntry, match=key):
            load_snapshot(str(path))

    @pytest.mark.parametrize("key", [
        "grid", "grid.n_modes", "speed", "strength", "elevation",
        "trace_upper", "trace_lower", "elevation=strings"])
    def test_missing_or_mistyped_entry_is_named(self, tmp_path, key):
        record = {"schema": SCHEMA, "strength": 0.5, "speed": -0.1,
                  "grid": {"n_modes": 2},
                  "elevation": [0.0, 0.01, 0.002],
                  "trace_upper": [0.0, 0.3, 0.1],
                  "trace_lower": [0.0, -0.3, -0.1]}
        path = tmp_path / "snapshot_0000.json"
        path.write_text(json.dumps(record))
        load_snapshot(str(path))  # the record as it stands loads
        if key == "elevation=strings":
            key = "elevation"
            record[key] = [str(c) for c in record[key]]
        elif key == "grid.n_modes":
            del record["grid"]["n_modes"]
        else:
            del record[key]
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match=key):
            load_snapshot(str(path))

    @pytest.mark.parametrize("text, message", [
        ("[0.0, 0.01, 0.002]", "not a JSON object"),
        (json.dumps({"schema": SCHEMA + 1, "strength": 0.5, "speed": -0.1,
                     "grid": {"n_modes": 2},
                     "elevation": [0.0, 0.01, 0.002],
                     "trace_upper": [0.0, 0.3, 0.1],
                     "trace_lower": [0.0, -0.3, -0.1]}),
         f"schema {SCHEMA + 1} is not {SCHEMA}"),
    ], ids=["list", "schema"])
    def test_a_record_of_another_kind_is_rejected(self, tmp_path, text,
                                                   message):
        path = tmp_path / "snapshot_0000.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_snapshot(str(path))

    def test_newton_cap_exits_three(self, tmp_path, capsys, monkeypatch):
        # one update cannot reach strength 3 from the origin predictor; the
        # corrector stops at the cap, before a second iteration builds the
        # analytic Jacobian
        cfg = write_config(
            tmp_path,
            "[discretization]\nn_modes = 16\nm_vertical = 8\n"
            "[continuation]\ntarget_strength = 3.0\nnewton_max = 1\n",
        )
        built = []
        analytic = WaveSystem.jacobian_prepared
        monkeypatch.setattr(
            WaveSystem, "jacobian_prepared",
            lambda self, *args: built.append(1) or analytic(self, *args))
        code = cli.main(["single-solve", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: NewtonFailure: no convergence in 1 "
            "iterations\n")
        assert built == []

    def test_cut_coefficient_list_is_rejected(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["single-solve", "--config", cfg,
                         "--out", str(out)]) == 0
        path = out / "snapshot_0000.json"
        record = json.loads(path.read_text())
        record["trace_upper"] = record["trace_upper"][:10]
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="trace_upper"):
            load_snapshot(str(path))

    @pytest.mark.parametrize("key, value, alternative", [
        ("gap_floor", 0.9, "interface_touches_boundary"),
        ("vortex_guard", 0.45, "vortex_near_interface"),
        ("norm_cap", 0.01, "unbounded"),
    ])
    def test_guard_on_the_solution_exits_four(self, tmp_path, capsys, key,
                                              value, alternative):
        # the flat state passes each guard; the 16x8 solution at strength
        # 3, sup eta 0.331 and vortex distance 0.177, trips it, and the
        # solve ends before any record is opened
        cfg = write_config(
            tmp_path,
            "[discretization]\nn_modes = 16\nm_vertical = 8\n"
            f"[continuation]\ntarget_strength = 3.0\n{key} = {value}\n",
        )
        out = tmp_path / "out"
        code = cli.main(["single-solve", "--config", cfg, "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err == f"terminated: {alternative}\n"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("failing, code", [("newton_max = 1", 3),
                                               ("gap_floor = 0.9", 4)],
                             ids=["newton cap", "wall guard"])
    def test_a_failed_rerun_leaves_no_earlier_records(self, tmp_path, failing,
                                                      code):
        # a 16x8 branch of three points, then a solve at strength 3 into the
        # same directory that stops at the Newton cap, or whose solution
        # trips the wall guard: the branch's table, snapshots and summary
        # are gone, so nothing there reads as this run's, and other files
        # stay
        grid = "[discretization]\nn_modes = 16\nm_vertical = 8\n"
        out = tmp_path / "out"
        assert cli.main(["continue", "--config", write_config(tmp_path, grid),
                         "--out", str(out), "--max-steps", "2"]) == 0
        assert len(os.listdir(out)) == 5
        (out / "notes.txt").write_text("not a record")
        cfg = write_config(tmp_path, grid + "[continuation]\n"
                           f"target_strength = 3.0\n{failing}\n", "solve.ini")
        assert cli.main(["single-solve", "--config", cfg,
                         "--out", str(out)]) == code
        assert os.listdir(out) == ["notes.txt"]

    def test_unreachable_strength_exits_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "[discretization]\nn_modes = 16\nm_vertical = 12\n"
            "[continuation]\ntarget_strength = 50.0\n",
        )
        code = cli.main(["single-solve", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("strength", ["1e200", "1e300"])
    def test_overflowing_residual_exits_three(self, tmp_path, capsys,
                                              strength):
        # the origin predictor is finite, but its squared trace velocities
        # overflow in the dynamic block
        cfg = write_config(
            tmp_path,
            "[discretization]\nn_modes = 8\nm_vertical = 8\n"
            f"[continuation]\ntarget_strength = {strength}\n",
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["single-solve", "--config", cfg,
                             "--out", str(tmp_path / "out")])
        assert code == 3
        assert "NonFiniteEntry" in capsys.readouterr().err


class TestLoadBranchTable:
    """A malformed table raises ValueError naming the problem, as a
    malformed snapshot does."""

    COMMENTS = "# schema = 1\n# config = 0123\n"

    def load(self, tmp_path, text):
        path = tmp_path / "branch.csv"
        path.write_text(text)
        return load_branch_table(str(path))

    def test_a_well_formed_table_loads(self, tmp_path):
        table = self.load(tmp_path, self.COMMENTS
                          + "step,strength\n0,0.0\n\n1,0.25\n")
        assert list(table) == ["step", "strength"]
        assert table["strength"].tolist() == [0.0, 0.25]
        empty = self.load(tmp_path, self.COMMENTS + "step,strength\n")
        assert empty["step"].shape == (0,)

    @pytest.mark.parametrize("text", ["", COMMENTS], ids=["empty", "comments"])
    def test_a_table_without_a_header_is_rejected(self, tmp_path, text):
        with pytest.raises(ValueError, match="no header"):
            self.load(tmp_path, text)

    def test_a_ragged_row_is_named(self, tmp_path):
        with pytest.raises(ValueError,
                           match="row 1 has 2 fields, not the header's 3"):
            self.load(tmp_path, self.COMMENTS
                      + "step,strength,speed\n0,0.0,0.0\n1,0.25\n")

    def test_a_field_that_is_not_a_number_is_named(self, tmp_path):
        with pytest.raises(ValueError,
                           match="row 1 column speed is not a number"):
            self.load(tmp_path, self.COMMENTS
                      + "step,strength,speed\n0,0.0,0.0\n1,0.25,fast\n")


class TestValidateMode:
    def test_suite_passes_and_prints_one_line_per_check(self, capsys):
        code = cli.main(["validate", "--seed", "1"])
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert code == 0
        assert len(lines) == 5
        assert all(ln.startswith("PASS") for ln in lines)

    def test_suite_passes_at_high_surface_tension(self, tmp_path, capsys):
        # at 1000 the flat linearization's entries reach 4.1e6, and the
        # origin Jacobian meets it to roundoff relative to them (3.1e-9
        # absolute); at 1e6 the residual's roundoff, which the strength
        # derivative's central difference divides by its step, read 5.9e-6
        # against the check's 1e-7 with a step of 1e-6
        for tension in ("1000", "1e6"):
            cfg = write_config(tmp_path,
                               f"[physical]\nsurface_tension = {tension}\n")
            assert cli.main(["validate", "--config", cfg]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 5
            assert all(ln.startswith("PASS") for ln in lines)

    def test_a_check_that_raises_fails_its_line(self, capsys, monkeypatch):
        def raising(params):
            raise RuntimeError("no layer today")

        for name in ("check_origin_linearization", "check_origin_tangent"):
            monkeypatch.setattr(validation, name,
                                lambda params: (True, "skipped"))
        for name in ("check_jacobian_referee", "check_strength_derivative"):
            monkeypatch.setattr(validation, name,
                                lambda params, seed: (True, "skipped"))
        monkeypatch.setattr(validation, "check_flat_dno", raising)
        assert cli.main(["validate"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "FAIL flat_dno_multipliers: raised RuntimeError: no layer today",
            "PASS origin_linearization: skipped",
            "PASS jacobian_fd_referee: skipped",
            "PASS strength_derivative_fd: skipped",
            "PASS origin_tangent_oracle: skipped",
        ]

    def test_package_runs_as_a_module(self):
        # `python -m vortexwave`, as from a checkout with src on the path
        src = os.path.dirname(os.path.dirname(vortexwave.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "vortexwave", "validate"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 5
        assert all(ln.startswith("PASS") for ln in lines)

    def test_negative_seed_is_a_usage_error(self, capsys):
        # numpy's generators reject it, which a check would report as FAIL
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--seed", "-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--seed" in err and "non-negative" in err


#: values each key is tried with: the non-finite, signed, tiny and huge
#: floats, small integers, booleans and text that is none of these
AWKWARD_VALUES = ("nan", "inf", "-inf", "0", "-1", "1", "2", "8", "10",
                  "0.5", "1e300", "-1e300", "1e-300", "-1e-300", "1e200",
                  "true", "oops", "")

#: the grid stays 8x8, so that every example runs in milliseconds
GRID_KEYS = {"n_modes": "8", "m_vertical": "8"}

#: (section, key, value) entries: every other known key, one unknown key
#: and one unknown section, each with an awkward, an ordinary or an
#: arbitrary value (at most three characters, so integers stay below 1000)
ENTRIES = st.tuples(
    st.sampled_from([(section, key) for section in sorted(_SECTIONS)
                     for key in _SECTIONS[section] if key not in GRID_KEYS]
                    + [("physical", "bogus"), ("plotting", "style")]),
    st.one_of(st.sampled_from(AWKWARD_VALUES),
              st.floats(-3.0, 3.0).map(repr),
              st.floats().map(repr),
              st.text("0123456789.-+eEinfa", max_size=3)),
).map(lambda entry: (*entry[0], entry[1]))


def config_text(entries):
    """INI text on the 8x8 grid; a later entry for a key replaces an earlier."""
    sections = {"discretization": dict(GRID_KEYS)}
    for section, key, value in entries:
        sections.setdefault(section, {})[key] = value
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        for section, items in sections.items()
    )


class TestExitCodes:
    """Any config text exits 0, 2, 3 or 4; never with a traceback."""

    @pytest.mark.parametrize("key", ["n_modes", "m_vertical"])
    def test_oversized_grid_exits_three(self, tmp_path, capsys, key):
        # a 6e6 x 6e6 float array is 262 TiB, past any address space, so
        # the allocation fails at once
        cfg = write_config(tmp_path, f"[discretization]\n{key} = 6000000\n")
        for command in ("continue", "single-solve"):
            assert cli.main([command, "--config", cfg,
                             "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert "numerical failure" in err and "MemoryError" in err
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("key", ["n_modes", "m_vertical"])
    def test_grid_past_numpy_array_sizes_exits_two(self, tmp_path, capsys,
                                                   key):
        # at 1e20 the layer operator's byte count, and even the grid's own
        # arrays, are past what numpy can index: it would raise ValueError,
        # not MemoryError, so the configuration is rejected before any
        # array is made
        cfg = write_config(tmp_path, f"[discretization]\n{key} = {10**20}\n")
        out = tmp_path / "out"
        for command in ("continue", "single-solve"):
            assert cli.main([command, "--config", cfg,
                             "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error") and key in err
            assert len(err.splitlines()) == 1
            assert not out.exists()

    @pytest.mark.parametrize("entry, code", [
        ("vortex_y = -0.01", 2),  # inside the 0.05 vortex guard
        ("surface_tension = 1e306", 3),  # the flat Jacobian overflows
        ("vortex_y = -1e-13", 2),  # the pair all but coincides
        ("bernoulli_constant = 0.01", 2),  # no longer a setting
    ])
    def test_flat_state_exits_before_the_first_row(self, tmp_path, capsys,
                                                    entry, code):
        cfg = write_config(tmp_path, "[discretization]\nn_modes = 16\n"
                                     f"m_vertical = 8\n[physical]\n{entry}\n")
        out = tmp_path / "out"
        prefix = "configuration error" if code == 2 else "numerical failure"
        for command in ("continue", "single-solve"):
            with np.errstate(over="ignore", invalid="ignore"):
                assert cli.main([command, "--config", cfg,
                                 "--out", str(out)]) == code
            err = capsys.readouterr().err
            assert err.startswith(prefix) and len(err.splitlines()) == 1
            if (out / "branch.csv").exists():
                table = load_branch_table(str(out / "branch.csv"))
                assert table["step"].size == 0

    @pytest.mark.parametrize("command", ["continue", "single-solve"])
    def test_overflow_prints_only_the_failure_line(self, tmp_path, command):
        # numpy warns on stderr, outside pytest's capture, only in a process
        # of its own: the overflowing flat Jacobian must print the one line
        cfg = write_config(tmp_path, "[discretization]\nn_modes = 16\n"
                                     "m_vertical = 8\n[physical]\n"
                                     "surface_tension = 1e306\n")
        src = os.path.dirname(os.path.dirname(vortexwave.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "vortexwave.cli", command,
             "--config", cfg, "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 3
        assert done.stderr.splitlines() == [
            "numerical failure: NonFiniteEntry: "
            "Jacobian assembly produced non-finite entries"]

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(entries=st.lists(ENTRIES, max_size=3))
    @example(entries=[("continuation", "target_strength", "1e200")])
    def test_any_config_text_exits_with_a_contract_code(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.ini")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(config_text(entries))
            for command in (["continue", "--max-steps", "3"],
                            ["single-solve"]):
                with np.errstate(all="ignore"):
                    code = cli.main([*command, "--config", path,
                                     "--out", os.path.join(tmp, "out")])
                assert code in (0, 2, 3, 4)
