import ast
import csv
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import starvlc
from starvlc import (
    DetectorScheme,
    OrientedPoint,
    Scenario,
    build_ris_grid,
    channel_set,
    max_min_optimize,
    mode_switching_optimize,
    spca_optimize,
    time_sharing_optimize,
)
from starvlc.cli import (
    MODES,
    OBJECT_KEYS,
    SCALAR_KEYS,
    ConfigError,
    SweepSpec,
    default_scenario,
    load_scenario,
    load_sweep_spec,
    main,
    no_ris_rate_ue1,
    parse_kv_file,
    run_sweep,
    scenario_at,
    scenario_entries,
    sweep_entries,
    sweep_values,
    write_kv_file,
)
from starvlc.spca import SpcaConfig
from util import reference_scenario


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_scenario(scenario, path):
    write_kv_file(scenario_entries(scenario), path)


class TestKvParsing:
    def test_basic_file(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("# comment\n\nue1.position = [3.0, 2.5, 1.0]\n"
                     "power.ue1 = 0.05\nsweep.scheme = sud\n")
        entries = parse_kv_file(p)
        assert entries["ue1.position"] == [3.0, 2.5, 1.0]
        assert entries["power.ue1"] == 0.05
        assert entries["sweep.scheme"] == "sud"

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("good = 1\nbad line without equals\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_kv_file(p)

    def test_empty_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text(" = 5\n")
        with pytest.raises(ConfigError):
            parse_kv_file(p)

    def test_key_given_twice_names_both_lines(self, tmp_path, capsys):
        """The second value is not silently kept: the file is rejected,
        naming the key and the two lines that give it."""
        p = tmp_path / "cfg.txt"
        p.write_text("power.ue1 = 0.1\n# comment\nris.rows = 4\npower.ue1 = 5.0\n")
        with pytest.raises(ConfigError, match=r"power\.ue1 given twice, on lines 1 and 4"):
            parse_kv_file(p)
        assert main(["solve", "--scenario", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "power.ue1" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestScenarioRoundTrip:
    def test_default_round_trip(self, tmp_path):
        sc = default_scenario()
        path = tmp_path / "scenario.txt"
        write_scenario(sc, path)
        assert load_scenario(path) == sc

    def test_modified_round_trip(self, tmp_path):
        sc = default_scenario()
        sc = replace(sc, p1=0.037,
                     ue1=OrientedPoint([3.1, 2.2, 1.0], [0.0, 0.0, 1.0]),
                     panel=replace(sc.panel, rows=4, cols=5, pitch=0.07))
        path = tmp_path / "scenario.txt"
        write_scenario(sc, path)
        assert load_scenario(path) == sc

    def test_partial_file_uses_defaults(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("power.ue1 = 0.02\n")
        sc = load_scenario(path)
        assert sc.p1 == 0.02
        assert sc.p2 == default_scenario().p2

    def test_invalid_scenario_is_config_error(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("power.ue1 = -1.0\n")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_key_tables_cover_every_scenario_field(self):
        """Each Scenario field is reached from exactly one key-table entry,
        so a new field cannot go missing from config files."""
        named = [*OBJECT_KEYS.values(), *SCALAR_KEYS.values()]
        assert sorted(named) == sorted(f.name for f in fields(Scenario))

    def test_entries_are_object_fields(self):
        sc = default_scenario()
        expected = [f"{prefix}.{f.name}" for prefix, name in OBJECT_KEYS.items()
                    for f in fields(getattr(sc, name))] + list(SCALAR_KEYS)
        assert list(scenario_entries(sc)) == expected


class TestSweepSpec:
    def test_load(self, tmp_path):
        path = tmp_path / "sweep.txt"
        path.write_text("sweep.parameter = ue1_x\nsweep.start = 3.0\n"
                        "sweep.stop = 4.5\nsweep.steps = 4\n"
                        "sweep.scheme = sud\nsweep.mode = ms\n")
        spec = load_sweep_spec(path)
        assert spec.parameter == "ue1_x"
        assert spec.steps == 4
        assert spec.scheme is DetectorScheme.SUD
        assert spec.mode == "ms"

    def test_missing_key(self, tmp_path):
        path = tmp_path / "sweep.txt"
        path.write_text("sweep.parameter = ue1_x\n")
        with pytest.raises(ConfigError):
            load_sweep_spec(path)

    def test_unknown_sweep_key(self, tmp_path):
        path = tmp_path / "sweep.txt"
        path.write_text("sweep.parameter = ue1_x\nsweep.start = 3.0\n"
                        "sweep.stop = 4.5\nsweep.steps = 4\nsweep.oracle_chek = True\n")
        with pytest.raises(ConfigError, match="sweep.oracle_check"):
            load_sweep_spec(path)

    @pytest.mark.parametrize("value", ["false", "0", "1", "'True'"])
    def test_oracle_check_takes_only_true_or_false(self, tmp_path, value):
        path = tmp_path / "sweep.txt"
        path.write_text("sweep.parameter = ue1_x\nsweep.start = 3.0\n"
                        f"sweep.stop = 4.5\nsweep.steps = 4\nsweep.oracle_check = {value}\n")
        with pytest.raises(ConfigError, match="sweep.oracle_check"):
            load_sweep_spec(path)

    @pytest.mark.parametrize("key, value", [
        ("ris.rows", "2.5"),
        ("ris.cols", "True"),
        ("sweep.steps", "2.9"),
        ("sweep.steps", "'4'"),
        ("sweep.start", "abc"),
        ("sweep.start", "True"),
        ("sweep.stop", "[4.5]"),
        ("sweep.stop", "1e400"),
        ("sweep.scheme", "sid"),
        ("sweep.objective", "best"),
        ("sweep.mode", "best"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, key, value):
        entries = {"sweep.parameter": "ue1_x", "sweep.start": "3.0",
                   "sweep.stop": "4.5", "sweep.steps": "4", key: value}
        path = tmp_path / "sweep.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_sweep_spec(path)

    def test_integral_float_is_an_integer(self, tmp_path):
        path = tmp_path / "sweep.txt"
        path.write_text("sweep.parameter = ue1_x\nsweep.start = 3.0\n"
                        "sweep.stop = 4.5\nsweep.steps = 4.0\nris.rows = 3.0\n")
        spec = load_sweep_spec(path)
        assert spec.steps == 4 and spec.scenario.panel.rows == 3

    def test_entries_round_trip(self, tmp_path):
        sc = replace(default_scenario(), p1=0.05)
        spec = SweepSpec(parameter="ap_x", start=4.0, stop=4.75, steps=4, scenario=sc,
                         scheme=DetectorScheme.SUD, mode="maxmin", oracle_check=True)
        path = tmp_path / "sweep.txt"
        write_kv_file({**scenario_entries(sc), **sweep_entries(spec)}, path)
        assert load_sweep_spec(path) == spec

    def test_validation(self):
        sc = default_scenario()
        with pytest.raises(ConfigError):
            SweepSpec(parameter="nope", start=0, stop=1, steps=3, scenario=sc)
        with pytest.raises(ConfigError):
            SweepSpec(parameter="ue1_x", start=2.0, stop=1.0, steps=3, scenario=sc)
        with pytest.raises(ConfigError):
            SweepSpec(parameter="ue1_x", start=0.0, stop=1.0, steps=1, scenario=sc)

    def test_element_count_snaps_to_cols(self):
        spec = SweepSpec(parameter="element_count", start=10, stop=80, steps=10,
                         scenario=default_scenario())
        values = sweep_values(spec)
        assert all(v % 8 == 0 for v in values)
        assert values == sorted(set(values))

    def test_scenario_at(self):
        sc = default_scenario()
        spec = SweepSpec(parameter="ue2_x", start=5.5, stop=9.0, steps=3, scenario=sc)
        moved = scenario_at(spec, 7.0)
        assert moved.ue2.position[0] == 7.0
        spec = SweepSpec(parameter="power_both", start=0.01, stop=0.1, steps=3, scenario=sc)
        powered = scenario_at(spec, 0.05)
        assert powered.p1 == powered.p2 == 0.05
        spec = SweepSpec(parameter="element_count", start=8, stop=80, steps=3, scenario=sc)
        resized = scenario_at(spec, 16)
        assert resized.panel.rows == 2 and resized.panel.cols == 8


def small_sweep_scenario():
    sc = default_scenario()
    return replace(sc, panel=replace(sc.panel, rows=2, cols=3))


class TestRunSweep:
    def test_position_sweep_outputs(self, tmp_path):
        spec = SweepSpec(parameter="ue1_x", start=3.0, stop=4.0, steps=3,
                         scenario=small_sweep_scenario(), oracle_check=True)
        ok = run_sweep(spec, tmp_path)
        assert ok
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == ["swept_value", "r1", "r2", "sum_rate", "ee", "iters",
                           "converged", "oracle_sum", "oracle_gap"]
        assert len(rows) == 4
        gaps = [abs(float(r[8])) for r in rows[1:]]
        assert max(gaps) < 1e-3
        baseline = read_csv(tmp_path / "no_ris.csv")
        assert baseline[0] == ["swept_value", "r1_no_ris"]
        assert len(baseline) == 4
        manifest = parse_kv_file(tmp_path / "manifest.txt")
        assert manifest["sweep.parameter"] == "ue1_x"
        assert manifest["tool.version"] == starvlc.__version__
        for name, value in asdict(SpcaConfig()).items():
            assert manifest[f"spca.{name}"] == value

    def test_oracle_check_past_24_elements(self, tmp_path):
        """Every point of an element-count sweep up to the default 80
        elements carries its exact optimum and the solver's gap to it."""
        spec = SweepSpec(parameter="element_count", start=8, stop=80, steps=4,
                         scenario=default_scenario(), oracle_check=True)
        assert run_sweep(spec, tmp_path)
        rows = read_csv(tmp_path / "sweep.csv")
        assert [int(float(r[0])) for r in rows[1:]] == [8, 32, 56, 80]
        for row in rows[1:]:
            assert float(row[7]) == pytest.approx(float(row[3]) + float(row[8]), abs=1e-12)
            assert abs(float(row[8])) <= 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        spec = SweepSpec(parameter="power_both", start=0.01, stop=0.05, steps=3,
                         scenario=small_sweep_scenario())
        run_sweep(spec, tmp_path / "a")
        run_sweep(spec, tmp_path / "b")
        a = (tmp_path / "a" / "sweep.csv").read_bytes()
        b = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("parameter, value", [("ue1_x", 3.0), ("power_both", 0.05)])
    def test_sweep_with_start_at_stop_runs_one_point(self, tmp_path, parameter, value):
        """A sweep whose start equals its stop runs its one value once: one
        row and one manifest point, whatever its step count."""
        spec = SweepSpec(parameter=parameter, start=value, stop=value, steps=3,
                         scenario=small_sweep_scenario())
        run_sweep(spec, tmp_path)
        rows = read_csv(tmp_path / "sweep.csv")
        assert [row[0] for row in rows[1:]] == [repr(value)]
        manifest = parse_kv_file(tmp_path / "manifest.txt")
        assert [key for key in manifest if key.startswith("point.")] == \
            [f"point.{value}.seconds", f"point.{value}.converged"]

    @pytest.mark.parametrize("start", [0.001, 0.0])
    def test_power_sweep_notes_zero_exclusion(self, tmp_path, start):
        spec = SweepSpec(parameter="power_both", start=start, stop=0.1, steps=2,
                         scenario=small_sweep_scenario())
        run_sweep(spec, tmp_path)
        manifest = parse_kv_file(tmp_path / "manifest.txt")
        if start > 0.0:
            assert "note" not in manifest
        else:
            assert "above 0 W" in manifest["note"]


class TestNoRisBaseline:
    def test_matches_manual_formula(self):
        from starvlc import channel_set, rate

        sc = small_sweep_scenario()
        bare = replace(sc, panel=replace(sc.panel, rows=0))
        ch = channel_set(bare)
        expected = rate((0.7 * ch.h_los * sc.p1) ** 2 / sc.noise_variance)
        assert no_ris_rate_ue1(sc) == pytest.approx(expected, rel=1e-14)


class TestDumpBeta:
    def test_matrix_shape_and_values(self, tmp_path):
        """`solve` writes beta as the panel's rows x cols matrix, row-major."""
        sc = small_sweep_scenario()
        cfg = tmp_path / "scenario.txt"
        write_scenario(sc, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(cfg), "--mode", "ms", "--scheme", "sic",
                     "--out", str(out)]) == 0
        rows = read_csv(out / "beta.csv")
        assert len(rows) == 2 and len(rows[0]) == 3
        parsed = np.array([[float(v) for v in row] for row in rows])
        beta = mode_switching_optimize(channel_set(sc), sc, DetectorScheme.SIC).beta
        np.testing.assert_array_equal(parsed, beta.reshape(2, 3))
        assert set(np.unique(parsed)) <= {0.0, 1.0}


SOLVERS = {"es": spca_optimize, "ms": mode_switching_optimize,
           "timeshare": time_sharing_optimize, "maxmin": max_min_optimize}


class TestModes:
    def test_modes_are_the_four_schemes(self):
        assert list(MODES) == list(SOLVERS)

    @pytest.mark.parametrize("mode", list(SOLVERS))
    def test_solve_runs_its_modes_solver(self, tmp_path, monkeypatch, mode):
        """`--mode` picks the solver by its name in `starvlc.cli` when the
        command runs, so a wrapper patched over that name (as the benchmark's
        tracing does) is the one called. Every mode writes `beta.csv`, the
        result's beta, and the manifest records the mode."""
        cfg = tmp_path / "scenario.txt"
        write_scenario(small_sweep_scenario(), cfg)
        results = []
        solver = SOLVERS[mode]
        monkeypatch.setattr(starvlc.cli, MODES[mode],
                            lambda *args: results.append(solver(*args)) or results[-1])
        out = tmp_path / "out"
        code = main(["solve", "--scenario", str(cfg), "--mode", mode, "--out", str(out)])
        assert code == (0 if results[0].converged else 2)
        assert len(results) == 1
        beta = np.array(read_csv(out / "beta.csv"), dtype=float)
        np.testing.assert_array_equal(beta.ravel(), results[0].beta)
        manifest = parse_kv_file(out / "manifest.txt")
        assert manifest["mode"] == mode
        assert "objective" not in manifest

    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    @pytest.mark.parametrize("p2, alpha", [(0.1, 0.0), (0.01, 1.0)])
    def test_timeshare_rows_report_the_served_rates(self, tmp_path, capsys, scheme, p2,
                                                    alpha):
        """A timeshare `solve` writes and prints the rates it serves. At
        alpha = 0 (the default scenario) that is r1 = 0.0 and sum_rate = r2
        where the rate pair at beta counts user 1's LOS rate too; at alpha = 1
        (user 2 at 10 mW) the row is the rate pair unchanged, whose r2 is 0."""
        sc = replace(default_scenario(), p2=p2)
        ch = channel_set(sc)
        result = time_sharing_optimize(ch, sc, scheme)
        assert result.alpha == alpha
        cfg = tmp_path / "scenario.txt"
        write_scenario(sc, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(cfg), "--scheme", scheme.value,
                     "--mode", "timeshare", "--out", str(out)]) == 0
        rates = result.rates
        r1, r2, total, ee = [float(v) for v in read_csv(out / "solution.csv")[1][:4]]
        if alpha == 0.0:
            assert rates.r1 > 0.0
            assert (r1, r2, total) == (0.0, rates.r2, rates.r2)
            assert ee == rates.r2 / (sc.p1 + sc.p2)
        else:
            assert rates.r2 == 0.0
            assert (r1, r2, total, ee) == (rates.r1, 0.0, rates.sum, rates.energy_efficiency)
        assert capsys.readouterr().out.startswith(f"r1={r1:.6f} r2={r2:.6f} sum={total:.6f} ")

    def test_timeshare_sweep_gap_is_from_the_served_sum(self, tmp_path):
        """A timeshare sweep's `oracle_gap` is the exact optimum minus the
        served sum its row writes; on the default scenario's power sweep
        time-sharing serves user 2 at every point."""
        spec_file = tmp_path / "sweep.txt"
        spec_file.write_text("sweep.parameter = power_both\nsweep.start = 0.01\n"
                             "sweep.stop = 0.05\nsweep.steps = 3\nsweep.mode = timeshare\n"
                             "sweep.oracle_check = True\n")
        out = tmp_path / "out"
        assert main(["sweep", str(spec_file), "--out", str(out)]) == 0
        header, *rows = read_csv(out / "sweep.csv")
        for row in rows:
            values = dict(zip(header, row))
            assert float(values["r1"]) == 0.0
            assert float(values["sum_rate"]) == float(values["r2"]) > 0.0
            assert float(values["oracle_gap"]) == \
                float(values["oracle_sum"]) - float(values["sum_rate"])

    def test_sweep_mode_flag_overrides_the_spec(self, tmp_path):
        spec_file = tmp_path / "sweep.txt"
        spec_file.write_text("sweep.parameter = power_both\nsweep.start = 0.01\n"
                             "sweep.stop = 0.05\nsweep.steps = 2\nsweep.mode = ms\n"
                             "ris.rows = 2\nris.cols = 3\n")
        out = tmp_path / "out"
        assert main(["sweep", str(spec_file), "--mode", "timeshare", "--out", str(out)]) == 0
        manifest = parse_kv_file(out / "manifest.txt")
        assert manifest["sweep.mode"] == "timeshare"
        assert not any(key.endswith("objective") for key in manifest)


class TestCliEntry:
    def test_solve_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.txt"
        write_scenario(small_sweep_scenario(), cfg)
        code = main(["solve", "--scenario", str(cfg), "--scheme", "sic",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "solution.csv").exists()
        assert (tmp_path / "out" / "beta.csv").exists()
        assert (tmp_path / "out" / "manifest.txt").exists()
        assert "sum=" in capsys.readouterr().out

    def test_oracle_command(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.txt"
        write_scenario(small_sweep_scenario(), cfg)
        code = main(["oracle", "--scenario", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        rows = read_csv(tmp_path / "out" / "oracle.csv")
        assert rows[0] == ["sum_rate", "r1", "r2", "evaluations", "runtime_s"]
        assert int(rows[1][3]) == 6 + 1  # N_live + 1 chain vertices
        assert "7 vertices" in capsys.readouterr().out

    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_oracle_on_the_default_panel(self, tmp_path, capsys, scheme):
        """No size cap: the default 80-element panel exits 0 with its 81
        chain vertices, and the ES solver reaches the exact optimum."""
        assert main(["oracle", "--scheme", scheme.value, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "oracle.csv")
        assert int(rows[1][3]) == 81
        sc = default_scenario()
        es = spca_optimize(channel_set(sc), sc, scheme)
        assert abs(float(rows[1][0]) - es.rates.sum) <= 1e-9

    def test_scan_command(self, tmp_path):
        cfg = tmp_path / "scenario.txt"
        write_scenario(small_sweep_scenario(), cfg)
        code = main(["scan", "--scenario", str(cfg), "--grid-points", "11",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        rows = read_csv(tmp_path / "out" / "scan.csv")
        assert len(rows) == 7  # header + 6 elements
        assert len(rows[0]) == 2 + 11

    def test_sweep_command(self, tmp_path):
        spec_file = tmp_path / "sweep.txt"
        spec_file.write_text("sweep.parameter = power_both\nsweep.start = 0.01\n"
                             "sweep.stop = 0.05\nsweep.steps = 2\n"
                             "ris.rows = 2\nris.cols = 3\n")
        code = main(["sweep", str(spec_file), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("power.ue1 = -5\n")
        code = main(["solve", "--scenario", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--scenario", str(tmp_path / "nope.txt")])
        assert code == 1

    def test_binary_file_exit_code(self, tmp_path, capsys):
        binary = tmp_path / "scenario.bin"
        binary.write_bytes(b"\xff\xfe\x00power")
        assert main(["solve", "--scenario", str(binary), "--out", str(tmp_path)]) == 1
        assert "not a text file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["solve", "--scheme", "bogus"], ["solve", "--nope"],
                                      ["sweep"], [], ["solve", "--objective", "maxmin"],
                                      ["sweep", "spec.txt", "--objective", "maxmin"],
                                      ["solve", "--mode", "sum"]])
    def test_usage_error_exit_code(self, argv, capsys):
        # Exit 2 means a run that did not converge, so a usage error is 1.
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exit_code(self, capsys):
        assert main(["--help"]) == 0
        assert main(["solve", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(starvlc.cli, "spca_optimize", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["solve", "--out", str(tmp_path)])

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--scenario", "no-such-scenario.txt"], "no-such-scenario.txt"),
        (["scan", "--grid-points", "2"], "--grid-points"),
    ])
    def test_input_errors_exit_1(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("depth, error", [(5000, RecursionError), (20000, MemoryError)])
    def test_deeply_nested_value_exit_code(self, tmp_path, capsys, depth, error):
        """A value nested too deep for `ast.literal_eval` stays a bare string,
        which the key's own parser rejects: `solve` exits 1 naming the key,
        with no traceback."""
        value = "-" * depth + "1"
        with pytest.raises(error):
            ast.literal_eval(value)
        cfg = tmp_path / "scenario.txt"
        cfg.write_text(f"ris.rows = {value}\n")
        assert main(["solve", "--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "ris.rows" in err and "Traceback" not in err

    def test_degenerate_geometry_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.txt"
        ap = default_scenario().ap.position.tolist()
        cfg.write_text(f"ue1.position = {ap}\n")
        assert main(["solve", "--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "degenerate geometry" in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["ue1", "ue2", "ap"])
    def test_point_on_a_ris_element_exit_code(self, tmp_path, capsys, point):
        """A UE or the AP exactly at a RIS element (element 4 of a 2 x 3
        panel) leaves a relayed path of length 0: `channel_set` rejects it,
        and `solve` on that scenario exits 1 with no traceback."""
        sc = default_scenario()
        sc = replace(sc, panel=replace(sc.panel, rows=2, cols=3))
        on_element = OrientedPoint(build_ris_grid(sc.panel)[4], getattr(sc, point).normal)
        sc = replace(sc, **{point: on_element})
        with pytest.raises(ValueError, match="degenerate geometry"):
            channel_set(sc)
        cfg = tmp_path / "scenario.txt"
        write_scenario(sc, cfg)
        assert main(["solve", "--scenario", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "invalid scenario geometry" in err and "degenerate geometry" in err
        assert "Traceback" not in err

    def test_sweep_through_the_wall_exit_code(self, tmp_path, capsys, monkeypatch):
        """Only the last point is through the wall; the sweep fails before
        solving any point and writes nothing."""
        calls = []
        solve = starvlc.cli.spca_optimize
        monkeypatch.setattr(starvlc.cli, "spca_optimize",
                            lambda *args: calls.append(args) or solve(*args))
        spec_file = tmp_path / "sweep.txt"
        spec_file.write_text("sweep.parameter = ue1_x\nsweep.start = 4.0\n"
                             "sweep.stop = 6.0\nsweep.steps = 3\n")
        assert main(["sweep", str(spec_file), "--out", str(tmp_path / "out")]) == 1
        assert "ue1_x = 6.0" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_element_count_sweep_on_zero_column_panel_exit_code(self, tmp_path, capsys):
        spec_file = tmp_path / "sweep.txt"
        spec_file.write_text("ris.cols = 0\nsweep.parameter = element_count\n"
                             "sweep.start = 0\nsweep.stop = 80\nsweep.steps = 3\n")
        assert main(["sweep", str(spec_file), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error: ris.cols:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        typo = tmp_path / "typo.txt"
        typo.write_text("ris.row = 2\n")
        code = main(["solve", "--scenario", str(typo), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "ris.rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "oracle", "scan"])
    def test_unknown_sweep_key_in_a_scenario_exit_code(self, tmp_path, capsys, command):
        """A scenario file's `sweep.*` keys are checked like its other keys."""
        typo = tmp_path / "typo.txt"
        typo.write_text("ris.rows = 2\nris.cols = 2\nsweep.oracle_chek = True\n")
        code = main([command, "--scenario", str(typo), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "sweep.oracle_check" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["ap.normal = [0, 0, 2]", "ris.rows = -1",
                                      "power.ue1 = -5", "ue1.position = [6.0, 2.5, 1.0]",
                                      "detector.fov_deg = 95.0", "ris.normal = [0, 0, 0]",
                                      "source.half_angle_deg = 90.0"])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(line + "\n")
        code = main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {line.split(' = ')[0]}:" in err
        assert "Traceback" not in err

    def test_range_error_names_only_its_objects_keys(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("power.ue2 = 0.2\nris.pitch = 0.05\nris.rows = -1\n")
        assert main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "error: ris.rows, ris.pitch: rows and cols" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["power.ue1 = abc", "noise.variance = None",
                                      "ris.pitch = [0.1]", "detector.gain = True",
                                      "ap.position = [1, 'a', 2]", "ris.center = None",
                                      "power.ue1 = 1e400", "ris.pitch = {[1]: 2}",
                                      "power.ue1 = 1e200\npower.ue2 = 1e200",
                                      "power.ue1 = 1e154\npower.ue2 = 1e154",
                                      "power.ue1 = 1e150\npower.ue2 = 1e150",
                                      "power.ue1 = 1e150\npower.ue2 = 0.05",
                                      "power.ue1 = 0.05\npower.ue2 = 2.3e151"])
    def test_non_numeric_scalar_exit_code(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(line + "\n")
        code = main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert line.split(" = ")[0] in err
        assert "Traceback" not in err

    def test_sud_power_overflow_exit_code(self, tmp_path, capsys):
        """Under SUD, theta_1 reaches g1 / sigma^2, whose square overflows
        at 1e150 W although both peak SNRs are finite."""
        bad = tmp_path / "bad.txt"
        bad.write_text("power.ue1 = 1e150\npower.ue2 = 0.05\n")
        code = main(["solve", "--scheme", "sud", "--scenario", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: power.ue1, power.ue2, noise.variance:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestVersion:
    def test_solve_manifest_records_package_version(self, tmp_path):
        assert main(["solve", "--out", str(tmp_path)]) == 0
        manifest = parse_kv_file(tmp_path / "manifest.txt")
        assert manifest["tool.version"] == starvlc.__version__

    def test_cli_import_skips_package_metadata(self):
        """The version comes from the package itself, not from installed
        metadata, so `importlib.metadata` (and what it imports) stays out
        of every CLI start-up."""
        src = str(Path(starvlc.__file__).resolve().parents[1])
        code = "import sys, starvlc.cli; print('importlib.metadata' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "False"
