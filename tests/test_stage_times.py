import importlib
import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "stage_times.py")
_spec = importlib.util.spec_from_file_location("stage_times", _PATH)
stage_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_times)

CONFIG = """
scenario = tiny
mode = steady
fock_dim = 4
params.J_over_2pi_MHz = 20
params.kappa_over_2pi_MHz = 1
params.Omega_m_over_2pi_MHz = 0.1
params.Omega_q_over_Omega_m = 3
sweep.axis1.path = params.Delta_plus_over_J
sweep.axis1.values = 0.8 0.9 1 1.1 1.2
"""

PERIODIC = """
scenario = tiny_periodic
mode = periodic
fock_dim = 4
params.J_over_2pi_MHz = 35
params.kappa_over_2pi_MHz = 0.5
params.Omega_m_over_2pi_MHz = 0.033
params.Omega_q_over_Omega_m = 3
params.drive_freq_over_2pi_MHz = 1500
sweep.axis1.path = params.g_rp_over_J
sweep.axis1.values = 0.1 0.3
"""


def test_times_every_stage_of_a_static_sweep(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(CONFIG)
    report = stage_times.measure(str(config), os.path.join(stage_times.ROOT, "src"))
    assert report["points"] == 5
    assert list(report["stages"]) == list(stage_times.STAGES)
    assert all(seconds >= 0.0 for seconds in report["stages"].values())
    # every stage of a chunked static solve runs, so each takes some time
    assert all(report["stages"][stage] > 0.0 for stage in
               ("build", "rows", "elimination", "residual", "verdicts", "states", "columns",
                "record"))
    assert sum(report["stages"].values()) < 3 * report["wall"] + 0.05


def test_times_the_harmonic_recursion_and_elimination_of_a_periodic_sweep(tmp_path):
    # the kernel of the period-averaged G is the one-level block elimination
    config = tmp_path / "tiny_periodic.cfg"
    config.write_text(PERIODIC)
    report = stage_times.measure(str(config), os.path.join(stage_times.ROOT, "src"))
    assert report["points"] == 2
    assert all(report["stages"][stage] > 0.0 for stage in
               ("build", "harmonics", "elimination", "states", "columns"))
    assert report["stages"]["rows"] == report["stages"]["residual"] == 0.0


def test_prints_one_line_per_stage(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(CONFIG)
    assert stage_times.main([str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("5 points, 1 BLAS thread")
    assert [line.split()[0] for line in lines[1:]] == [*stage_times.STAGES, "total", "unwrapped"]
    assert all(float(line.split()[1]) >= 0.0 for line in lines[1:])


def test_every_stage_name_resolves_in_this_checkout():
    # the child skips a name it cannot find, so a stale name would time nothing
    for names in stage_times.STAGES.values():
        for name in names:
            module, attr = name.split(".")
            assert callable(getattr(importlib.import_module("magnonblockade." + module), attr, None)), name
