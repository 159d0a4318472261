import ctypes
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "cold_points.py")
_spec = importlib.util.spec_from_file_location("cold_points", _PATH)
cold_points = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_points)

CONFIG = """
scenario = tiny
mode = steady
fock_dim = 4
params.J_over_2pi_MHz = 20
params.kappa_over_2pi_MHz = 1
params.Omega_m_over_2pi_MHz = 0.1
params.Omega_q_over_Omega_m = 3
sweep.axis1.path = params.Delta_plus_over_J
sweep.axis1.values = 0.9 1 1.1
"""


def test_reports_each_point_of_a_fresh_sweep(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(CONFIG)
    report = cold_points.measure(str(config), os.path.join(cold_points.ROOT, "src"))
    assert report["status"] == 0
    assert report["wall_s"] > 0.0 and report["faults"] >= 0
    # the three points share one chunk, and so its wall time and faults
    assert [p["index"] for p in report["points"]] == [0, 1, 2]
    assert {p["chunk"] for p in report["points"]} == {3}
    assert len({p["faults"] for p in report["points"]}) == 1
    assert 0 <= report["points"][0]["faults"] <= report["faults"]
    assert all(p["wall_time_s"] > 0.0 for p in report["points"])


def test_prints_the_first_points(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(CONFIG)
    assert cold_points.main([str(config), "--first", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("sweep: 3 points in ")
    assert "minor faults, exit 0" in lines[0]
    assert lines[1].split() == ["index", "wall_time_s", "chunk", "solve_faults"]
    assert [line.split()[0] for line in lines[2:4]] == ["0", "1"]
    # the three points are one solve, so no solve comes after the first two
    assert lines[4:] == ["solves after the first 2: 0, minor faults largest 0, total 0"]


PERIODIC = """
scenario = tiny_periodic
mode = periodic
fock_dim = 6
params.J_over_2pi_MHz = 35
params.kappa_over_2pi_MHz = 0.5
params.Omega_m_over_2pi_MHz = 0.033
params.g_rp_over_J = 0.2
sweep.axis1.path = params.Omega_q_over_Omega_m
sweep.axis1.values = 2.6 2.9 3.1 3.4 3.8 4.0
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="C library has no mallopt")
def test_periodic_points_after_the_first_do_not_fault_their_heap_again(tmp_path):
    # under glibc's dynamic trim threshold each periodic point handed its heap
    # back to the kernel and faulted it in again, about 620 minor faults a point
    config = tmp_path / "periodic.cfg"
    config.write_text(PERIODIC)
    report = cold_points.measure(str(config), os.path.join(cold_points.ROOT, "src"))
    assert report["status"] == 0
    faults = [f for _, f in report["solves"]]
    assert len(faults) == 6
    assert max(faults[2:]) < 60, faults
