import json
import math
import os

import numpy as np
import pytest

from magnonblockade.analytic import g2_analytic
from magnonblockade.cli import main as cli_main
from magnonblockade.dynamics import evolve, steady_state_periodic
from magnonblockade.model import MHZ, thermal_occupation
from magnonblockade.scenarios import (
    ConfigError,
    ScenarioConfig,
    SweepAxis,
    built_in_scenarios,
    convergence_check,
    emit_csv,
    get_scenario,
    parse_config,
    parse_csv,
    run_scenario,
)
from magnonblockade.observables import g2_zero
from magnonblockade.scenarios import _initial_state, _system_params


def small_fig3(num=5):
    return ScenarioConfig(
        name="fig3_small", mode="steady",
        params={"J_over_2pi_MHz": 20.0, "kappa_over_2pi_MHz": 1.0,
                "Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 5.0,
                "Delta_minus_over_Delta_plus": 0.0},
        axes=(SweepAxis.from_linspace("params.Delta_plus_over_J", 0.0, 2.0, num),),
    )


class TestConfigValidation:
    def test_unknown_parameter_key(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            ScenarioConfig(name="x", mode="steady", params={"J_MHz": 20.0})

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            ScenarioConfig(name="x", mode="magic", params={})

    def test_too_many_axes(self):
        ax = SweepAxis("params.Delta_plus_over_J", (1.0,))
        with pytest.raises(ConfigError, match="at most 2"):
            ScenarioConfig(name="x", mode="steady", params={}, axes=(ax, ax, ax))

    def test_axis_path_must_exist(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            SweepAxis("params.bogus", (1.0,))

    def test_paired_length_mismatch(self):
        with pytest.raises(ConfigError, match="paired"):
            SweepAxis("params.J_over_2pi_MHz", (14.0, 35.0),
                      paired={"params.Omega_m_over_2pi_MHz": (0.021,)})


class TestSystemParamsResolution:
    BASE = {"J_over_2pi_MHz": 20.0, "kappa_over_2pi_MHz": 1.0,
            "Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 3.0}

    def test_unit_conversion(self):
        p = _system_params(self.BASE, 6)
        assert p.J == pytest.approx(2 * math.pi * 20.0)
        assert p.kappa_m == p.kappa_q == pytest.approx(2 * math.pi)
        assert p.Omega_q == pytest.approx(3 * p.Omega_m)
        assert p.Delta_plus == pytest.approx(p.J)
        assert p.Delta_minus == 0.0

    def test_temperature_resolves_to_occupation(self):
        u = {**self.BASE, "T_mK": 5.3, "drive_freq_over_2pi_MHz": 1500.0,
             "Delta_plus_over_J": 0.0}
        p = _system_params(u, 6)
        assert p.m_th == pytest.approx(thermal_occupation(1500.0 * MHZ, 5.3e-3), rel=1e-12)

    def test_power_key(self):
        u = {**self.BASE, "Omega_m_power_uW": 0.037}
        del u["Omega_m_over_2pi_MHz"]
        p = _system_params(u, 6)
        assert p.Omega_m == pytest.approx(0.1 * MHZ, rel=3e-3)

    def test_direct_probe_frequency(self):
        u = {**self.BASE, "Omega_q_over_2pi_MHz": 0.5}
        p = _system_params(u, 6)
        assert p.Omega_q == pytest.approx(0.5 * MHZ)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="J_over_2pi_MHz"):
            _system_params({"kappa_over_2pi_MHz": 1.0}, 6)
        with pytest.raises(ConfigError, match="kappa"):
            _system_params({"J_over_2pi_MHz": 20.0}, 6)


class TestBuiltInScenarios:
    def test_catalog(self):
        names = [cfg.name for cfg in built_in_scenarios()]
        assert names == ["fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6a", "fig6b",
                         "fig7a", "fig7b", "fig8a", "fig8b", "fig9a", "fig9b",
                         "fig10", "fig11"]

    def test_fig7b_covers_optimal_decay(self):
        cfg = get_scenario("fig7b")
        values = cfg.axes[0].values
        assert min(values) < 0.5 < max(values)

    def test_fig8b_sweeps_temperature(self):
        cfg = get_scenario("fig8b")
        assert cfg.axes[0].key == "T_mK"

    def test_fig11_starts_from_single_magnon(self):
        cfg = get_scenario("fig11")
        assert cfg.options["initial_state"] == "g1"

    def test_grid_override_preserves_discrete_axes(self):
        cfg = get_scenario("fig3").with_grid(11)
        assert cfg.axes[0].values == (1.0, 2.0, 5.0, 10.0)
        assert len(cfg.axes[1].values) == 11


class TestRunScenario:
    def test_steady_sweep_records(self):
        result = run_scenario(small_fig3())
        assert len(result.rows) == 5
        i_err = result.columns.index("error")
        assert all(row[i_err] == "" for row in result.rows)
        # minimum of this drive ratio sits at the resonant coupling point
        logs = result.column("log10_g2")
        deltas = result.column("Delta_plus_over_J")
        assert deltas[int(np.argmin(logs))] == pytest.approx(1.0)

    def test_determinism(self):
        cfg = small_fig3()
        csv_a = emit_csv(run_scenario(cfg))
        csv_b = emit_csv(run_scenario(cfg))
        assert csv_a == csv_b

    def test_analytic_column_at_rounded_resonance(self):
        # linspace(0.1, 1.3, 5) puts the resonant point at 0.9999999999999999
        cfg = parse_config("""
scenario = rounded
mode = steady
fock_dim = 4
params.J_over_2pi_MHz = 20
params.kappa_over_2pi_MHz = 1
params.Omega_m_over_2pi_MHz = 0.1
params.Omega_q_over_Omega_m = 3
sweep.axis1.path = params.Delta_plus_over_J
sweep.axis1.linspace = 0.1 1.3 5
""")
        assert cfg.axes[0].values[3] != 1.0
        result = run_scenario(cfg)
        analytic = result.column("log10_g2_analytic")
        assert [v is not None for v in analytic] == [False, False, False, True, False]
        p = _system_params({**cfg.params, "Delta_plus_over_J": 1.0}, 4)
        expected = math.log10(g2_analytic(p.J, p.kappa_m, p.Omega_m, p.Omega_q)[1])
        assert analytic[3] == pytest.approx(expected, rel=1e-10)

    def test_failed_points_carry_error_tag(self):
        cfg = ScenarioConfig(
            name="broken", mode="steady",
            params={"J_over_2pi_MHz": 20.0, "Omega_m_over_2pi_MHz": 0.1,
                    "Omega_q_over_Omega_m": 1.0},
            axes=(SweepAxis("params.kappa_over_2pi_MHz", (0.0, 1.0)),),
        )
        result = run_scenario(cfg)
        i_err = result.columns.index("error")
        assert result.rows[0][i_err] != ""
        assert result.rows[1][i_err] == ""
        assert result.rows[0][result.columns.index("log10_g2")] is None

    def test_csv_round_trip(self):
        result = run_scenario(small_fig3())
        assert parse_csv(emit_csv(result)) == result

    def test_time_series_mode(self):
        cfg = ScenarioConfig(
            name="ts", mode="time_series",
            params={"J_over_2pi_MHz": 20.0, "kappa_over_2pi_MHz": 1.0,
                    "Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 1.0},
            options={"kappa_t_max": 5.0, "time_points": 11},
        )
        result = run_scenario(cfg)
        assert len(result.rows) == 11
        kts = result.column("kappa_t")
        assert kts[0] == 0.0
        assert kts[-1] == pytest.approx(5.0)
        # vacuum start: first sample has undefined correlation, recorded as gap
        assert result.rows[0][result.columns.index("log10_g2")] is None
        assert result.rows[0][result.columns.index("error")] == ""

    def test_roots_mode_consistency(self):
        cfg = get_scenario("fig10").with_grid(8)
        result = run_scenario(cfg)
        for row in result.rows:
            rec = dict(zip(result.columns, row))
            assert rec["error"] == ""
            assert abs(rec["l1"] - rec["l1_numeric"]) <= 1e-8
            assert abs(rec["l2"] - rec["l2_numeric"]) <= 1e-8
            # above the turning point the closed form tracks the master
            # equation at the global-minimum root
            dev = abs(rec["log10_g2_numeric_l1"] - rec["log10_g2_analytic_l1"])
            if rec["r_kappa_over_J"] >= 0.04:
                assert dev <= 0.1
        # below the turning point the closed form stops tracking
        first = dict(zip(result.columns, result.rows[0]))
        assert first["r_kappa_over_J"] == 0.005
        assert abs(first["log10_g2_numeric_l1"] - first["log10_g2_analytic_l1"]) > 0.1

    def test_three_level_truncation_leaves_upper_populations_empty(self):
        cfg = ScenarioConfig(
            name="n3", mode="steady", fock_dim=3,
            params={"J_over_2pi_MHz": 20.0, "kappa_over_2pi_MHz": 1.0,
                    "Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 3.0},
        )
        result = run_scenario(cfg)
        rec = dict(zip(result.columns, result.rows[0]))
        assert rec["error"] == ""
        assert rec["P2"] is not None
        assert rec["P3"] is None

    def test_analytic_column_only_where_applicable(self):
        result = run_scenario(small_fig3(num=3))
        # Delta_plus/J sweep: the closed form assumes the resonant condition
        col = result.column("log10_g2_analytic")
        deltas = result.column("Delta_plus_over_J")
        for d, v in zip(deltas, col):
            assert (v is not None) == (d == 1.0)


class TestBuiltInRegressions:
    """Figure-level checks on coarse grids (full resolution is CLI territory)."""

    def test_fig2b_minimum_at_symmetric_detuning(self):
        result = run_scenario(get_scenario("fig2b").with_grid(21))
        logs = result.column("log10_g2")
        locs = result.column("Delta_minus_over_Delta_plus")
        assert locs[int(np.argmin(logs))] == pytest.approx(0.0, abs=1e-12)

    def test_fig3_ratio5_minimum(self):
        result = run_scenario(get_scenario("fig3").with_grid(41))
        rows = [dict(zip(result.columns, row)) for row in result.rows]
        curve = [r for r in rows if r["Omega_q_over_Omega_m"] == 5.0]
        best = min(curve, key=lambda r: r["log10_g2"])
        assert best["Delta_plus_over_J"] == pytest.approx(1.0, abs=0.05)
        assert best["log10_g2"] == pytest.approx(-2.99, abs=0.1)

    def test_fig4_minima(self):
        result = run_scenario(get_scenario("fig4").with_grid(23))
        rows = [dict(zip(result.columns, row)) for row in result.rows]
        for j, ref in ((14.0, -4.44), (35.0, -6.03)):
            curve = [r for r in rows if r["J_over_2pi_MHz"] == j]
            best = min(curve, key=lambda r: r["log10_g2"])
            assert best["Omega_q_over_Omega_m"] == pytest.approx(3.0, abs=0.3)
            assert best["log10_g2"] == pytest.approx(ref, abs=0.15)

    def test_fig7b_locates_deep_blockade(self):
        # the sweep passes through the deep-blockade value at kappa/2pi = 0.5;
        # the converged model has no interior kappa-minimum (monotone decrease
        # toward small decay), so the quoted value is checked at its point
        result = run_scenario(get_scenario("fig7b").with_grid(27))
        rows = [dict(zip(result.columns, row)) for row in result.rows]
        at_half = [r for r in rows if r["kappa_over_2pi_MHz"] == 0.5]
        assert len(at_half) == 1
        assert at_half[0]["log10_g2"] == pytest.approx(-7.24, abs=0.15)

    def test_fig8b_crosses_classical_boundary(self):
        result = run_scenario(get_scenario("fig8b").with_grid(25))
        temps = result.column("T_mK")
        logs = result.column("log10_g2")
        crossings = [(t_lo, t_hi) for t_lo, t_hi, v_lo, v_hi
                     in zip(temps, temps[1:], logs, logs[1:])
                     if v_lo < 0.0 <= v_hi]
        assert len(crossings) == 1
        lo, hi = crossings[0]
        assert lo <= 17.2 + 1.0 and hi >= 17.2 - 1.0

    def test_fig5_records_agree_in_validated_regime(self):
        # per-record numeric/analytic agreement bands: tighter for the
        # stronger decay, looser where the weak-decay breakdown is documented
        result = run_scenario(get_scenario("fig5").with_grid(11))
        rows = [dict(zip(result.columns, row)) for row in result.rows]
        for r in rows:
            assert r["log10_g2_analytic"] is not None
            dev = abs(r["log10_g2"] - r["log10_g2_analytic"]) / abs(r["log10_g2_analytic"])
            band = 0.10 if r["kappa_over_2pi_MHz"] == 1.0 else 0.20
            assert dev <= band


class TestConvergence:
    def test_fig4_optimum_converges(self):
        cfg = ScenarioConfig(
            name="fig4_point", mode="steady",
            params={"J_over_2pi_MHz": 35.0, "kappa_over_2pi_MHz": 1.0,
                    "Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 3.0},
        )
        report = convergence_check(cfg, [4, 6, 8])
        assert report.passed
        assert report.max_rel_change < 1e-3

    def test_undriven_scenario_trivially_converged(self):
        cfg = ScenarioConfig(
            name="undriven", mode="steady",
            params={"J_over_2pi_MHz": 20.0, "kappa_over_2pi_MHz": 1.0},
        )
        report = convergence_check(cfg, [4, 6, 8])
        assert report.passed
        assert report.max_rel_change == 0.0

    def test_thermal_scenario_converges_by_six(self):
        cfg = ScenarioConfig(
            name="thermal_point", mode="steady",
            params={"J_over_2pi_MHz": 35.0, "kappa_over_2pi_MHz": 0.5,
                    "Omega_m_over_2pi_MHz": 0.033, "Omega_q_over_Omega_m": 3.0,
                    "m_th": 1e-6},
        )
        report = convergence_check(cfg, [6, 8])
        assert report.passed

    def test_roots_mode_rejected(self):
        with pytest.raises(ConfigError):
            convergence_check(get_scenario("fig10"), [4, 6])

    def test_periodic_mode_uses_the_period_averaged_state(self):
        user = {"J_over_2pi_MHz": 35.0, "kappa_over_2pi_MHz": 0.5,
                "Omega_m_over_2pi_MHz": 0.033, "Omega_q_over_Omega_m": 3.0,
                "drive_freq_over_2pi_MHz": 1500.0, "g_rp_over_J": 0.3}
        cfg = ScenarioConfig(name="periodic_point", mode="periodic", params=user,
                             options={"steps_per_period": 64})
        report = convergence_check(cfg, [3, 4])
        (values,) = report.point_values
        for n in (3, 4):
            rho = steady_state_periodic(_system_params(user, n), steps_per_period=64)
            assert values[n] == g2_zero(rho)

    def test_time_series_mode_uses_the_final_state(self):
        user = {"J_over_2pi_MHz": 20.0, "kappa_over_2pi_MHz": 1.0,
                "Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 1.0}
        cfg = ScenarioConfig(name="ts_point", mode="time_series", params=user,
                             options={"kappa_t_max": 2.0, "initial_state": "vacuum"})
        report = convergence_check(cfg, [3, 4])
        (values,) = report.point_values
        for n in (3, 4):
            p = _system_params(user, n)
            traj = evolve(_initial_state("vacuum", p), p, [0.0, 2.0 / p.kappa_m])
            assert values[n] == g2_zero(traj.states[-1])

    def test_time_series_without_magnon_decay_is_a_config_error(self):
        cfg = ScenarioConfig(
            name="ts_undamped", mode="time_series",
            params={"J_over_2pi_MHz": 20.0, "kappa_m_over_2pi_MHz": 0.0,
                    "kappa_q_over_2pi_MHz": 1.0, "Omega_m_over_2pi_MHz": 0.1},
            fock_dim=3,
        )
        with pytest.raises(ConfigError, match="kappa_m > 0"):
            convergence_check(cfg, [3, 4])
        result = run_scenario(cfg)
        (row,) = result.rows
        assert row[result.columns.index("error")] == (
            "ConfigError: time series scenarios require kappa_m > 0")


CONFIG_TEXT = """
# custom sweep
scenario = custom3
mode = steady
fock_dim = 5
params.J_over_2pi_MHz = 20
params.kappa_over_2pi_MHz = 1
params.Omega_m_over_2pi_MHz = 0.1
params.Omega_q_over_Omega_m = 5
sweep.axis1.path = params.Delta_plus_over_J
sweep.axis1.linspace = 0.5 1.5 3
"""


class TestConfigParsing:
    def test_parse_round_trip_fields(self):
        cfg = parse_config(CONFIG_TEXT)
        assert cfg.name == "custom3"
        assert cfg.fock_dim == 5
        assert cfg.params["Omega_q_over_Omega_m"] == 5.0
        assert len(cfg.axes) == 1
        assert cfg.axes[0].values == (0.5, 1.0, 1.5)

    def test_parse_values_axis_and_pairing(self):
        text = """
scenario = paired
mode = periodic
params.kappa_over_2pi_MHz = 0.5
params.Omega_q_over_Omega_m = 3
sweep.axis1.path = params.J_over_2pi_MHz
sweep.axis1.values = 14 35
sweep.axis1.paired.params.Omega_m_over_2pi_MHz = 0.021 0.033
"""
        cfg = parse_config(text)
        assert cfg.axes[0].paired["params.Omega_m_over_2pi_MHz"] == (0.021, 0.033)
        pts = cfg.grid_points()
        assert pts[0]["Omega_m_over_2pi_MHz"] == 0.021
        assert pts[1]["Omega_m_over_2pi_MHz"] == 0.033

    @pytest.mark.parametrize("bad", [
        "mode = steady\n",                          # missing scenario
        "scenario = x\nmode = steady\njunk\n",      # not key = value
        "scenario = x\nmode = steady\nwhat = 1\n",  # unknown top-level key
        "scenario = x\nmode = steady\nsweep.a.path = params.m_th\n",  # no values
        "scenario = x\nmode = steady\nparams.J_over_2pi_MHz = abc\n",
        "scenario = x\nmode = steady\nfock_dim = six\n",
        "scenario = x\nmode = steady\nsweep.a.path = params.m_th\nsweep.a.linspace = 1 2\n",
        "scenario = x\nmode = steady\nsweep.a.path = params.m_th\nsweep.a.values = 1 x\n",
        "scenario = x\nmode = time_series\noption.time_points = many\n",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_bad_value_names_its_line(self):
        with pytest.raises(ConfigError, match=r"line 4: .*'abc'.*params\.J_over_2pi_MHz"):
            parse_config("scenario = x\nmode = steady\n\nparams.J_over_2pi_MHz = abc\n")


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "fig11" in out

    def test_run_builtin_with_overrides(self, tmp_path):
        out = tmp_path / "fig2b.csv"
        code = cli_main(["run", "fig2b", "--grid", "3", "--fock-dim", "4",
                         "--out", str(out)])
        assert code == 0
        assert out.exists()
        parsed = parse_csv(out.read_text())
        assert len(parsed.rows) == 3
        sidecar = str(out) + ".diag.jsonl"
        assert os.path.exists(sidecar)
        with open(sidecar) as fh:
            lines = [json.loads(ln) for ln in fh if ln.strip()]
        assert len(lines) == 3
        assert all("wall_time_s" in ln for ln in lines)

    def test_run_config_file(self, tmp_path):
        cfg_path = tmp_path / "custom.cfg"
        cfg_path.write_text(CONFIG_TEXT)
        out = tmp_path / "custom.csv"
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 0
        assert parse_csv(out.read_text()).scenario == "custom3"

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = x\nmode = bogus\n")
        assert cli_main(["run", str(bad)]) == 1

    def test_bad_value_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = x\nmode = steady\nparams.J_over_2pi_MHz = abc\n")
        assert cli_main(["run", str(bad)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_strict_solver_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "fail.cfg"
        cfg.write_text("""
scenario = failing
mode = steady
params.J_over_2pi_MHz = 20
params.Omega_m_over_2pi_MHz = 0.1
params.Omega_q_over_Omega_m = 1
sweep.axis1.path = params.kappa_over_2pi_MHz
sweep.axis1.values = 0 1
""")
        out = tmp_path / "fail.csv"
        assert cli_main(["run", str(cfg), "--out", str(out), "--strict"]) == 2
        assert cli_main(["run", str(cfg), "--out", str(out)]) == 0

    def test_converge_command(self, capsys):
        code = cli_main(["converge", "fig2b", "--grid", "3", "--fock-dims", "4,6"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
