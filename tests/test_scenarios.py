import json
import math
import os
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from magnonblockade import cli
from magnonblockade.analytic import g2_analytic
from magnonblockade.cli import main as cli_main
from magnonblockade.dynamics import _chunk_size, _liouvillian_plan, evolve, steady_state_periodic
from magnonblockade.model import MHZ, _hamiltonian_terms, _mode_operators, thermal_occupation
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
from magnonblockade.observables import UndefinedCorrelationError, g2_zero, populations
from magnonblockade.scenarios import (
    _MODES,
    _POPULATIONS,
    _initial_state,
    _norm,
    _norm_array,
    _steady_rows,
    _system_params,
    _time_series_rows,
    _trajectory,
)


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

    @pytest.mark.parametrize("options", [
        {"time_points": 2.5},
        {"time_points": "5"},
        {"time_points": True},
        {"time_points": 1},
    ])
    def test_integer_options(self, options):
        with pytest.raises(ConfigError, match="integer"):
            ScenarioConfig(name="x", mode="time_series", params={}, options=options)

    @pytest.mark.parametrize("fock_dim", [6.0, "6", True, 2])
    def test_truncation_must_be_an_integer_of_at_least_three(self, fock_dim):
        with pytest.raises(ConfigError, match="fock_dim must be an integer >= 3"):
            replace(get_scenario("fig7b"), fock_dim=fock_dim)

    @pytest.mark.parametrize("fock_dims", [[4, 6.0], [4, "6"], [True, 4], [4, 4], [2, 4], [4]])
    def test_convergence_truncations_must_be_distinct_integers(self, fock_dims):
        with pytest.raises(ConfigError, match="distinct integer truncations >= 3"):
            convergence_check(get_scenario("fig7b"), fock_dims)

    @pytest.mark.parametrize("mode, options, match", [
        ("periodic", {"steps_per_period": 64}, "unknown option"),
        ("steady", {"kappa_t_max": 5.0}, "do not read"),
        ("periodic", {"initial_state": "g1"}, "do not read"),
        ("roots", {"time_points": 11}, "do not read"),
        ("time_series", {"kappa_t_max": 0.0}, "kappa_t_max must be"),
        ("time_series", {"kappa_t_max": -1.0}, "kappa_t_max must be"),
        ("time_series", {"kappa_t_max": math.nan}, "kappa_t_max must be"),
        ("time_series", {"kappa_t_max": "30"}, "kappa_t_max must be"),
        ("time_series", {"initial_state": "e0"}, "initial_state must be"),
    ])
    def test_option_errors(self, mode, options, match):
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig(name="x", mode=mode, params={}, options=options)

    # a missing quantity is refused when the config is built, not per grid point
    @pytest.mark.parametrize("mode, params, match", [
        ("steady", {"kappa_over_2pi_MHz": 1.0}, "J_over_2pi_MHz"),
        ("steady", {"J_over_2pi_MHz": 20.0}, "kappa"),
        ("roots", {"J_over_2pi_MHz": 35.0, "Omega_m_over_2pi_MHz": 0.033,
                   "Delta_plus_over_J": 1.0}, "r_kappa_over_J"),
    ])
    def test_missing_required_keys(self, mode, params, match):
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig(name="x", mode=mode, params=params)

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
        del u["Omega_q_over_Omega_m"]
        p = _system_params(u, 6)
        assert p.Omega_q == pytest.approx(0.5 * MHZ)

    @pytest.mark.parametrize("extra", [
        {"kappa_m_over_2pi_MHz": 2.0},
        {"kappa_q_over_2pi_MHz": 2.0},
        {"Omega_m_power_uW": 0.037},
        {"Omega_q_over_2pi_MHz": 0.5},
        {"m_th": 0.5, "T_mK": 1.0},
        {"r_kappa_over_J": 0.05},
    ])
    def test_a_second_key_for_one_quantity_is_left_over(self, extra):
        with pytest.raises(ConfigError, match="unused parameter keys"):
            _system_params({**self.BASE, **extra}, 6)


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

    def test_options_are_read_by_their_mode(self):
        for cfg in built_in_scenarios():
            assert set(cfg.options) <= _MODES[cfg.mode].options

    @pytest.mark.parametrize("name", ["fig2a", "fig11"])
    def test_grid_needs_a_linspace_axis(self, name):
        with pytest.raises(ConfigError, match=f"{name} has no linspace axis"):
            get_scenario(name).with_grid(5)

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

    def test_warm_caches_change_no_bytes(self):
        # Omega_q = 0 and m_th > 0 switch the nonzero pattern of the generator mid-sweep
        cfg = parse_config("""
scenario = warm
mode = steady
fock_dim = 4
params.J_over_2pi_MHz = 20
params.kappa_over_2pi_MHz = 1
params.Omega_m_over_2pi_MHz = 0.1
params.Delta_plus_over_J = 1
sweep.axis1.path = params.Omega_q_over_Omega_m
sweep.axis1.values = 0 1 3
sweep.axis2.path = params.m_th
sweep.axis2.values = 0 0.01 0.1
""")

        def clear():
            for cache in (_liouvillian_plan, _mode_operators, _hamiltonian_terms):
                cache.cache_clear()

        clear()
        cold = emit_csv(run_scenario(cfg))
        warm = emit_csv(run_scenario(cfg))
        clear()
        cleared = emit_csv(run_scenario(cfg))
        assert len(cold.splitlines()) == 2 + 9  # comment, header and the grid
        assert cold == warm == cleared

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

    def test_periodic_sweep_records(self):
        cfg = parse_config("""
scenario = periodic_small
mode = periodic
fock_dim = 4
params.J_over_2pi_MHz = 35
params.kappa_over_2pi_MHz = 0.5
params.Omega_m_over_2pi_MHz = 0.033
params.drive_freq_over_2pi_MHz = 1500
sweep.axis1.path = params.g_rp_over_J
sweep.axis1.values = 0.1 0.3
sweep.axis2.path = params.Omega_q_over_Omega_m
sweep.axis2.values = 2.5 3.5
""")
        result = run_scenario(cfg)
        assert len(result.rows) == 4
        assert all(err == "" for err in result.column("error"))
        assert all(v < -4.0 for v in result.column("log10_g2"))

        undamped = ScenarioConfig(
            name="periodic_undamped", mode="periodic", fock_dim=4,
            params={**{k: v for k, v in cfg.params.items() if k != "kappa_over_2pi_MHz"},
                    "kappa_m_over_2pi_MHz": 0.5, "kappa_q_over_2pi_MHz": 0.0,
                    "g_rp_over_J": 0.3, "Omega_q_over_Omega_m": 3.0},
        )
        (row,) = run_scenario(undamped).rows
        assert row[-1].startswith("ValueError:") and "requires dissipation" in row[-1]

    def test_periodic_sweep_never_runs_the_rk4_maps(self, monkeypatch):
        import magnonblockade.dynamics as dynamics_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a periodic sweep ran the RK4 one-period maps")

        monkeypatch.setattr(dynamics_mod, "_one_period_maps", refuse)
        cfg = ScenarioConfig(
            name="periodic_2x2", mode="periodic", fock_dim=4,
            params={"J_over_2pi_MHz": 35.0, "kappa_over_2pi_MHz": 0.5,
                    "Omega_m_over_2pi_MHz": 0.033, "drive_freq_over_2pi_MHz": 1500.0},
            axes=(SweepAxis("params.g_rp_over_J", (0.1, 0.3)),
                  SweepAxis("params.Omega_q_over_Omega_m", (2.5, 3.5))),
        )
        result = run_scenario(cfg)
        assert len(result.rows) == 4
        assert result.column("error") == [""] * 4

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


def kappa_sweep(kappas, omegas=None, fock_dim=6):
    """A steady sweep over kappa at the fig6a drive, with the drive strength
    paired to each kappa where ``omegas`` is given."""
    paired = {} if omegas is None else {"params.Omega_m_over_2pi_MHz": tuple(omegas)}
    params = {"J_over_2pi_MHz": 20.0, "Omega_q_over_Omega_m": 3.0, "Delta_plus_over_J": 1.0}
    if omegas is None:
        params["Omega_m_over_2pi_MHz"] = 0.1
    return ScenarioConfig(name="kappa_sweep", mode="steady", params=params, fock_dim=fock_dim,
                          axes=(SweepAxis("params.kappa_over_2pi_MHz", tuple(kappas),
                                          paired=paired),))


def cell_bits(value):
    return None if value is None else float(value).hex()


class TestChunkedSteadySweep:
    """Static sweeps solve their points in chunks by one stacked elimination;
    the rows must be those of the one-point solve, bit for bit."""

    def test_chunk_sizes(self):
        assert _chunk_size(6) == 10
        assert _chunk_size(10) == 2
        assert [_chunk_size(n) for n in (11, 12, 20)] == [1, 1, 1]
        assert _chunk_size(3) == 16

    def test_regular_grid_never_solves_a_point_alone(self, monkeypatch):
        import magnonblockade.dynamics as dynamics_mod
        import magnonblockade.scenarios as scenarios_mod

        def refuse(*args):
            raise AssertionError("a point of a regular grid was solved alone")

        monkeypatch.setattr(scenarios_mod, "steady_state", refuse)
        monkeypatch.setattr(dynamics_mod, "_kernel_state", refuse)
        result = run_scenario(small_fig3(num=12))  # chunks of 10 and 2
        assert result.column("error") == [""] * 12

    def test_short_last_chunk_matches_the_one_point_rows(self):
        cfg = ScenarioConfig(
            name="grid", mode="steady",
            params={"Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 3.0,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis.from_linspace("params.J_over_2pi_MHz", 5.0, 40.0, 5),
                  SweepAxis.from_linspace("params.kappa_over_2pi_MHz", 0.1, 1.2, 5)))
        assert len(cfg.grid_points()) % _chunk_size(cfg.fock_dim) != 0
        result = run_scenario(cfg)
        values = _MODES["steady"].columns
        for user, row in zip(cfg.grid_points(), result.rows):
            cells = dict(zip(result.columns, row))
            alone = {c: v[0] for c, v in _steady_rows(user, cfg.fock_dim, {}).items()}
            assert [cell_bits(cells[c]) for c in values] == [cell_bits(alone[c]) for c in values]
            assert cells["error"] == ""
            assert cells["residual_inf"] <= 1e-10

    def test_one_point_sweep_takes_the_residual_of_its_solve(self, monkeypatch):
        import magnonblockade.dynamics as dynamics_mod

        residuals = dynamics_mod._residuals
        stacks = []

        def counted(rows, x, n):
            stacks.append(len(x))
            return residuals(rows, x, n)

        monkeypatch.setattr(dynamics_mod, "_residuals", counted)
        kappas = [0.3, 0.7, 1.1]
        alone = run_scenario(kappa_sweep(kappas[1:2]))
        assert stacks == [1]
        chunked = run_scenario(kappa_sweep(kappas))
        assert stacks == [1, 3]
        assert [cell_bits(v) if not isinstance(v, str) else v for v in alone.rows[0]] == \
            [cell_bits(v) if not isinstance(v, str) else v for v in chunked.rows[1]]

    @pytest.mark.parametrize("svd_fails, error", [
        (False, "DegenerateKernelError: "), (True, "LinAlgError: SVD did not converge")])
    def test_failed_points_keep_their_errors_and_spare_their_neighbours(self, monkeypatch,
                                                                        svd_fails, error):
        # kappa = 0 makes the stacked elimination singular and sends its point to the
        # dense solve, whose SVD decides its error; Omega_m = 0 leaves g2 undefined
        clean = run_scenario(kappa_sweep([1.0, 0.7, 0.9], [0.1, 0.1, 0.1]))
        if svd_fails:
            def no_convergence(*args, **kwargs):
                raise np.linalg.LinAlgError("SVD did not converge")

            monkeypatch.setattr(np.linalg, "svd", no_convergence)
        mixed = run_scenario(kappa_sweep([1.0, 0.0, 0.7, 1.0, 0.9], [0.1, 0.1, 0.1, 0.0, 0.1]))
        errors = mixed.column("error")
        assert errors[1].startswith(error)
        assert errors[3].startswith("UndefinedCorrelationError: ")
        assert mixed.rows[1][1:-1] == mixed.rows[3][1:-1] == (None,) * (len(mixed.columns) - 2)
        assert [mixed.rows[i] for i in (0, 2, 4)] == clean.rows
        assert [[cell_bits(v) for v in mixed.rows[i][:-1]] for i in (0, 2, 4)] == \
            [[cell_bits(v) for v in row[:-1]] for row in clean.rows]

    def test_sidecar_names_the_points_that_share_a_wall_time(self, tmp_path):
        sidecar = tmp_path / "diag.jsonl"
        run_scenario(small_fig3(num=21), diagnostics_out=str(sidecar))
        lines = [json.loads(ln) for ln in sidecar.read_text().splitlines()]
        assert [ln["chunk"] for ln in lines] == [10] * 20 + [1]
        for first in (0, 10):
            assert len({ln["wall_time_s"] for ln in lines[first:first + 10]}) == 1
        series = tmp_path / "series.jsonl"
        cfg = replace(get_scenario("fig2a"), fock_dim=3,
                      options={"kappa_t_max": 5.0, "time_points": 11, "initial_state": "vacuum"})
        run_scenario(cfg, diagnostics_out=str(series))
        assert [json.loads(ln)["chunk"] for ln in series.read_text().splitlines()] == [1] * 5


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

    def test_undriven_scenario_fails(self):
        # g2 is undefined without magnon population, so nothing can converge
        cfg = ScenarioConfig(
            name="undriven", mode="steady",
            params={"J_over_2pi_MHz": 20.0, "kappa_over_2pi_MHz": 1.0},
        )
        report = convergence_check(cfg, [4, 6, 8])
        assert report.passed is False
        assert report.max_rel_change == math.inf
        assert all(math.isnan(g2) for g2 in report.point_values[0].values())

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
        cfg = ScenarioConfig(name="periodic_point", mode="periodic", params=user)
        report = convergence_check(cfg, [3, 4])
        (values,) = report.point_values
        for n in (3, 4):
            rho = steady_state_periodic(_system_params(user, n))
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

# a complete time_series config, valid as it stands
TIME_SERIES = ("scenario = x\nmode = time_series\nparams.J_over_2pi_MHz = 20\n"
               "params.kappa_over_2pi_MHz = 1\n")


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
        "scenario = x\nmode = time_series\noption.time_points = 2.5\n",
        "scenario = x\nmode = time_series\noption.time_points = 0\n",
        "scenario = x\nmode = periodic\noption.steps_per_period = 64\n",
        "scenario = x\nmode = steady\noption.time_points = 5\n",
        "scenario = x\nmode = time_series\noption.kappa_t_max = 0\n",
        "scenario = x\nmode = time_series\noption.initial_state = e0\n",
        # an axis with no values
        "scenario = x\nmode = steady\nsweep.a.path = params.m_th\nsweep.a.linspace = 0 1 0\n",
        "scenario = x\nmode = steady\nsweep.a.path = params.m_th\nsweep.a.linspace = 0 1 -3\n",
        "scenario = x\nmode = steady\nsweep.a.path = params.m_th\nsweep.a.values =\n",
        # one parameter swept twice
        "scenario = x\nmode = steady\nsweep.a.path = params.J_over_2pi_MHz\n"
        "sweep.a.values = 10 20\nsweep.b.path = params.J_over_2pi_MHz\nsweep.b.values = 30\n",
        "scenario = x\nmode = steady\nsweep.a.path = params.J_over_2pi_MHz\n"
        "sweep.a.values = 10 20\nsweep.a.paired.params.J_over_2pi_MHz = 30 40\n",
        "scenario = x\nmode = steady\nsweep.a.path = params.J_over_2pi_MHz\n"
        "sweep.a.values = 10 20\nsweep.a.paired.params.m_th = 0 1e-6\n"
        "sweep.b.path = params.m_th\nsweep.b.values = 0\n",
        # two keys that set one quantity, in params, on axes or paired paths
        "scenario = x\nmode = steady\nparams.kappa_over_2pi_MHz = 1\n"
        "params.kappa_m_over_2pi_MHz = 2\n",
        "scenario = x\nmode = steady\nparams.kappa_over_2pi_MHz = 1\n"
        "params.kappa_q_over_2pi_MHz = 2\n",
        "scenario = x\nmode = steady\nparams.Omega_m_over_2pi_MHz = 0.1\n"
        "params.Omega_m_power_uW = 0.037\n",
        "scenario = x\nmode = steady\nparams.Omega_q_over_Omega_m = 9\n"
        "params.Omega_q_over_2pi_MHz = 0.5\n",
        "scenario = x\nmode = steady\nparams.m_th = 0.5\nparams.T_mK = 1\n",
        "scenario = x\nmode = steady\nparams.m_th = 0.5\n"
        "sweep.a.path = params.T_mK\nsweep.a.values = 1 2\n",
        "scenario = x\nmode = steady\nsweep.a.path = params.J_over_2pi_MHz\n"
        "sweep.a.values = 10 20\nsweep.a.paired.params.kappa_m_over_2pi_MHz = 1 2\n"
        "sweep.b.path = params.kappa_over_2pi_MHz\nsweep.b.values = 1\n",
        # a params key that an axis sets again
        "scenario = x\nmode = steady\nparams.Delta_plus_over_J = 0.5\n"
        "sweep.a.path = params.Delta_plus_over_J\nsweep.a.values = 1\n",
        "scenario = x\nmode = periodic\nparams.Omega_m_over_2pi_MHz = 0.1\n"
        "sweep.a.path = params.J_over_2pi_MHz\nsweep.a.values = 14 35\n"
        "sweep.a.paired.params.Omega_m_over_2pi_MHz = 0.021 0.033\n",
        # a key the mode overwrites or does not read
        "scenario = x\nmode = roots\nparams.kappa_over_2pi_MHz = 7\n",
        "scenario = x\nmode = roots\nparams.Omega_q_over_Omega_m = 9\n",
        "scenario = x\nmode = roots\nparams.Omega_q_over_2pi_MHz = 0.5\n",
        "scenario = x\nmode = roots\nparams.kappa_m_over_2pi_MHz = 1\n",
        "scenario = x\nmode = steady\nparams.r_kappa_over_J = 0.05\n",
        "scenario = x\nmode = periodic\nsweep.a.path = params.r_kappa_over_J\n"
        "sweep.a.values = 0.05\n",
        "scenario = x\nmode = time_series\nparams.r_kappa_over_J = 0.05\n",
        "scenario = x\nmode = steady\nsweep.a.path = params.g_rp_over_J\n"
        "sweep.a.values = 0 0.3\n",
        "scenario = x\nmode = roots\nparams.g_rp_over_J = 0.3\n",
        # time series evolve a static generator: g_rp anywhere is an error
        TIME_SERIES + "params.g_rp_over_J = 0.3\n",
        TIME_SERIES + "sweep.a.path = params.g_rp_over_J\nsweep.a.values = 0 0.3\n",
        TIME_SERIES + "sweep.a.path = params.Omega_m_over_2pi_MHz\nsweep.a.values = 0.1 0.2\n"
        "sweep.a.paired.params.g_rp_over_J = 0 0.3\n",
        # non-finite values
        "scenario = x\nmode = steady\nparams.J_over_2pi_MHz = nan\n",
        "scenario = x\nmode = steady\nparams.m_th = inf\n",
        "scenario = x\nmode = steady\nsweep.a.path = params.m_th\nsweep.a.values = 0 nan\n",
        "scenario = x\nmode = steady\nsweep.a.path = params.m_th\nsweep.a.linspace = 0 inf 3\n",
        "scenario = x\nmode = steady\nsweep.a.path = params.J_over_2pi_MHz\n"
        "sweep.a.values = 10 20\nsweep.a.paired.params.m_th = 0 -inf\n",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ConfigError):
            parse_config(bad)

    @pytest.mark.parametrize("lines, message", [
        ("params.m_th = 0.5\nparams.T_mK = 1\n", "m_th is set by params.m_th and by params.T_mK"),
        ("params.Delta_plus_over_J = 0.5\nsweep.a.path = params.Delta_plus_over_J\n"
         "sweep.a.values = 1\n",
         "Delta_plus is set by params.Delta_plus_over_J and by axis params.Delta_plus_over_J"),
        ("sweep.a.path = params.J_over_2pi_MHz\nsweep.a.values = 10 20\n"
         "sweep.a.paired.params.J_over_2pi_MHz = 30 40\n",
         "J is set by axis params.J_over_2pi_MHz and by paired params.J_over_2pi_MHz"),
        ("params.r_kappa_over_J = 0.05\n", "steady scenarios do not read params.r_kappa_over_J"),
        ("params.g_rp_over_J = 0.3\n", "steady scenarios do not read params.g_rp_over_J"),
    ])
    def test_conflicting_settings_name_their_keys(self, lines, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config("scenario = x\nmode = steady\n" + lines)

    def test_non_finite_value_names_its_key(self):
        with pytest.raises(ConfigError, match=r"params\.kappa_over_2pi_MHz must be a finite"):
            parse_config("scenario = x\nmode = steady\nparams.kappa_over_2pi_MHz = nan\n")

    def test_bad_value_names_its_line(self):
        with pytest.raises(ConfigError, match=r"line 4: .*'abc'.*params\.J_over_2pi_MHz"):
            parse_config("scenario = x\nmode = steady\n\nparams.J_over_2pi_MHz = abc\n")


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "fig11" in out

    def test_pins_malloc_thresholds_at_glibc_ceilings(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert cli_main(["list"]) == 0
        # M_MMAP_THRESHOLD at DEFAULT_MMAP_THRESHOLD_MAX, M_TRIM_THRESHOLD at twice that
        assert calls == [(-3, 32 * 1024 * 1024), (-1, 64 * 1024 * 1024)]

    @pytest.mark.parametrize("libc", ["no library", "no mallopt", "refused"])
    def test_run_without_mallopt_writes_the_same_bytes(self, monkeypatch, tmp_path, libc):
        cfg_path = tmp_path / "periodic.cfg"
        cfg_path.write_text("scenario = p\nmode = periodic\nfock_dim = 4\n"
                            "params.J_over_2pi_MHz = 35\nparams.kappa_over_2pi_MHz = 0.5\n"
                            "params.Omega_m_over_2pi_MHz = 0.033\nparams.g_rp_over_J = 0.2\n"
                            "sweep.axis1.path = params.Omega_q_over_Omega_m\n"
                            "sweep.axis1.values = 2.8 3.2\n")
        pinned, plain = tmp_path / "pinned.csv", tmp_path / "plain.csv"
        assert cli_main(["run", str(cfg_path), "--out", str(pinned)]) == 0

        def cdll(name):
            if libc == "no library":
                raise OSError("no C library")
            return SimpleNamespace(**({} if libc == "no mallopt" else {"mallopt": lambda *a: 0}))

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli_main(["run", str(cfg_path), "--out", str(plain)]) == 0
        assert plain.read_bytes() == pinned.read_bytes()

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

    def test_run_ends_with_summary_line(self, tmp_path, capsys):
        # kappa = 0 has a degenerate kernel: one failed point, grouped by error type
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text("scenario = mixed\nmode = steady\nparams.J_over_2pi_MHz = 20\n"
                       "params.Omega_m_over_2pi_MHz = 0.1\nparams.Omega_q_over_Omega_m = 1\n"
                       "sweep.axis1.path = params.kappa_over_2pi_MHz\n"
                       "sweep.axis1.values = 0 1 2\n")
        out = tmp_path / "mixed.csv"
        assert cli_main(["run", str(cfg), "--out", str(out)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        worst = max(r for r in parse_csv(out.read_text()).column("residual_inf") if r is not None)
        match = re.fullmatch(r"3 points in (\S+) s \((\S+) points/s\); "
                             r"worst residual_inf (\S+); failures: 1 DegenerateKernelError", last)
        assert match, last
        assert float(match[2]) == pytest.approx(3 / float(match[1]), rel=1e-2)  # both rounded
        assert match[3] == f"{worst:.3e}"

    def test_summary_counts_points_not_rows(self, tmp_path, capsys):
        # a time series writes one row per sample and reports no residual
        out = tmp_path / "fig2a.csv"
        assert cli_main(["run", "fig2a", "--fock-dim", "3", "--out", str(out)]) == 0
        assert len(parse_csv(out.read_text()).rows) == 5 * 201
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"5 points in \S+ s \(\S+ points/s\); failures: none", last), last

    def test_converge_command(self, capsys):
        code = cli_main(["converge", "fig2b", "--grid", "3", "--fock-dims", "4,6"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["converge", "fig2b", "--grid", "3", "--fock-dims", "4,x"],
        ["converge", "fig2b", "--grid", "3", "--fock-dims", "2,4"],
        ["converge", "fig2b", "--grid", "3", "--fock-dims", "4,4"],
        ["converge", "fig2b", "--grid", "0"],
        ["run", "fig2b", "--grid", "0"],
        ["run", "fig2b", "--grid", "-3"],
        ["run", "fig11", "--grid", "5"],
        ["run", "fig2a", "--grid", "5"],
        ["converge", "fig11", "--grid", "5"],
    ])
    def test_bad_arguments_are_config_errors(self, argv, tmp_path, capsys):
        if argv[0] == "run":
            argv = [*argv, "--out", str(tmp_path / "out.csv")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err

    def test_converge_command_reports_a_failed_solve(self, tmp_path, capsys):
        cfg = tmp_path / "undamped.cfg"
        cfg.write_text("scenario = undamped\nmode = steady\n"
                       "params.J_over_2pi_MHz = 20\nparams.kappa_over_2pi_MHz = 0\n"
                       "params.Omega_m_over_2pi_MHz = 0.1\n")
        assert cli_main(["converge", str(cfg), "--fock-dims", "3,4"]) == 2
        err = capsys.readouterr().err
        assert "DegenerateKernelError" in err
        assert "Traceback" not in err

    def test_converge_command_fails_on_undefined_g2(self, tmp_path, capsys):
        cfg = tmp_path / "undriven.cfg"
        cfg.write_text("scenario = undriven\nmode = steady\n"
                       "params.J_over_2pi_MHz = 20\nparams.kappa_over_2pi_MHz = 1\n")
        assert cli_main(["converge", str(cfg), "--fock-dims", "4,6"]) == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "Traceback" not in captured.err


FIG2A_USER = {"J_over_2pi_MHz": 20.0, "kappa_over_2pi_MHz": 1.0, "Omega_m_over_2pi_MHz": 0.1,
              "Omega_q_over_Omega_m": 1.0, "Delta_minus_over_Delta_plus": 0.0,
              "Delta_plus_over_J": 1.04858}


def per_state_rows(user, fock_dim, options):
    """The time-series rows built one state at a time from populations,
    g2_zero and _norm."""
    p = _system_params(user, fock_dim)
    traj = _trajectory(p, options, options["time_points"])
    rows = []
    for t, state in zip(traj.times, traj.states):
        try:
            g2 = g2_zero(state)
            log10_g2 = _norm(math.log10(g2)) if g2 > 0.0 else None
        except UndefinedCorrelationError:
            log10_g2 = None
        pops = populations(state)
        row = {"kappa_t": _norm(p.kappa_m * float(t)), "log10_g2": log10_g2}
        row.update({col: _norm(float(pops[n])) if n < fock_dim else None
                    for n, col in enumerate(_POPULATIONS)})
        rows.append(row)
    return rows


class TestTimeSeriesRows:
    # (g1 at fock_dim 3 or 4 fails the positivity check of evolve at these parameters)
    @pytest.mark.parametrize("fock_dim, initial_state", [(3, "vacuum"), (6, "vacuum"), (6, "g1")])
    def test_columns_equal_per_state_rows(self, fock_dim, initial_state):
        options = {"kappa_t_max": 30.0, "time_points": 61, "initial_state": initial_state}
        cols = _time_series_rows(FIG2A_USER, fock_dim, options)
        rows = [dict(zip(cols, values)) for values in zip(*cols.values())]
        assert rows == per_state_rows(FIG2A_USER, fock_dim, options)
        assert all(isinstance(v, float) for col in cols.values() for v in col if v is not None)
        if fock_dim == 3:
            assert cols["P3"] == [None] * 61
        # g2 of the vacuum is undefined and that of |g, 1> is 0: no log10 either way
        assert cols["log10_g2"][0] is None
        assert all(v is not None for v in cols["log10_g2"][1:])

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the powered RK4 map pushes the g1 trajectory below the -1e-9 "
                              "eigenvalue floor at fock_dim 3 (ROADMAP item 1)")
    def test_g1_trajectory_at_three_levels_has_no_error_row(self):
        result = run_scenario(replace(get_scenario("fig11"), fock_dim=3))
        errors = {row[-1] for row in result.rows}
        assert errors == {""}

    def test_g1_trajectory_at_six_levels_has_no_error_row(self):
        # the assertion of the strict xfail above, which a successful row meets
        result = run_scenario(get_scenario("fig11"))
        assert {row[-1] for row in result.rows} == {""}

    def test_undriven_series_has_no_log10_g2(self):
        user = dict(FIG2A_USER, Omega_m_over_2pi_MHz=0.0)
        options = {"kappa_t_max": 5.0, "time_points": 11, "initial_state": "vacuum"}
        assert _time_series_rows(user, 4, options)["log10_g2"] == [None] * 11


def norm_bits(values):
    return np.array(values, dtype=float).view(np.int64)


class TestNormArray:
    """_norm_array rounds whole arrays to the CSV's 12 digits with the bits of _norm."""

    def test_random_magnitudes(self):
        rng = np.random.default_rng(7)
        x = rng.random(20000) * 10.0 ** rng.uniform(-40, 14, 20000) * rng.choice([-1, 1], 20000)
        assert np.array_equal(norm_bits(_norm_array(x)), norm_bits([_norm(v) for v in x]))

    def test_special_values_and_shape(self):
        x = np.array([[0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7e308],
                      [1e-33, 1e-34, 1e11, 1e12, 30.0, -1e-11]])
        out = _norm_array(x)
        assert len(out) == 2 and len(out[0]) == 6
        assert np.array_equal(norm_bits(out), norm_bits([[_norm(v) for v in row] for row in x]))
        assert math.isnan(_norm_array(np.array([np.nan]))[0])

