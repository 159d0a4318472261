import importlib.util
import math
import os
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "csv_harness.py")
_spec = importlib.util.spec_from_file_location("csv_harness", _PATH)
csv_harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_harness)

HEADER = "# scenario=s\nJ,log10_g2,P0,P1,residual_inf,error\n"
BASE = ["1.0,-3.0,0.9,0.1,1e-16,", "2.0,-4.0,0.8,0.2,2e-16,", "3.0,-5.0,0.7,0.3,3e-16,"]


def write(directory, name, rows):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(HEADER + "\n".join(rows) + "\n")


def test_identical_directories_compare_equal(tmp_path, capsys):
    write(tmp_path / "a", "s.csv", BASE)
    write(tmp_path / "b", "s.csv", BASE)
    assert csv_harness.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "3 rows, 0 changed, 0 outside residual_inf" in capsys.readouterr().out


def test_changes_are_counted_and_measured(tmp_path):
    changed = [BASE[0].replace("1e-16", "5e-16"),  # residual only
               "2.0,-4.00000000001,0.8,0.20000000002,2e-16,",
               BASE[2]]
    write(tmp_path / "a", "s.csv", BASE)
    write(tmp_path / "b", "s.csv", changed)
    report = csv_harness.compare_csv(str(tmp_path / "a" / "s.csv"), str(tmp_path / "b" / "s.csv"))
    assert report["rows"] == 3
    assert report["changed"] == 2
    assert report["changed_outside_residual"] == 1
    assert report["max_abs"]["log10_g2"] == pytest.approx(1e-11, rel=1e-3)
    assert report["max_abs"]["residual_inf"] == pytest.approx(4e-16, rel=1e-3)
    assert report["max_rel"] == {"P0": 0.0, "P1": pytest.approx(1e-10, rel=1e-3)}


def test_error_tag_and_missing_file_are_differences(tmp_path, capsys):
    write(tmp_path / "a", "s.csv", BASE)
    write(tmp_path / "b", "s.csv", [BASE[0], "2.0,,,,,SteadyStateError: x", BASE[2]])
    write(tmp_path / "a", "only.csv", BASE)
    assert not csv_harness.compare(str(tmp_path / "a"), str(tmp_path / "b"))
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "only: missing on one side"
    assert "1 changed, 1 outside residual_inf" in out[2]
    report = csv_harness.compare_csv(str(tmp_path / "a" / "s.csv"), str(tmp_path / "b" / "s.csv"))
    assert report["max_abs"]["log10_g2"] == math.inf


def test_row_count_mismatch_is_reported(tmp_path, capsys):
    write(tmp_path / "a", "s.csv", BASE)
    write(tmp_path / "b", "s.csv", BASE[:2])
    assert csv_harness.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "columns or row count differ" in capsys.readouterr().out


def test_thread_count_mismatch_is_a_difference(tmp_path, capsys):
    for side, threads in (("a", "1"), ("b", "default")):
        write(tmp_path / side, "s.csv", BASE)
        (tmp_path / side / "threads.txt").write_text(threads + "\n")
    assert csv_harness.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"OPENBLAS_NUM_THREADS: 1 in {tmp_path / 'a'}, default in {tmp_path / 'b'}"
    assert out[1].startswith("thread counts differ")
    assert "3 rows, 0 changed" in out[2]


def test_run_records_the_package_it_imported(tmp_path, monkeypatch):
    import magnonblockade
    import magnonblockade.scenarios

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(magnonblockade.scenarios, "built_in_scenarios", lambda: [])
    csv_harness.run(str(tmp_path / "out"), os.path.join(os.path.dirname(__file__), "..", "src"))
    assert (csv_harness.package(str(tmp_path / "out"))
            == os.path.dirname(os.path.abspath(magnonblockade.__file__)))
    assert csv_harness.threads(str(tmp_path / "out")) != "not recorded"


def test_run_writes_the_large_truncation_sweep(tmp_path, monkeypatch):
    import magnonblockade.scenarios

    fig7b = magnonblockade.scenarios.get_scenario("fig7b")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(magnonblockade.scenarios, "built_in_scenarios", lambda: [fig7b])
    csv_harness.run(str(tmp_path / "out"), os.path.join(os.path.dirname(__file__), "..", "src"))
    assert sorted(f for f in os.listdir(tmp_path / "out") if f.endswith(".csv")) == \
        ["fig7b.csv", "fig7b_n12.csv"]
    lines = (tmp_path / "out" / "fig7b_n12.csv").read_text().splitlines()
    assert len(lines) == 2 + 3


def test_one_package_on_both_sides_is_a_difference(tmp_path, capsys):
    for side in ("a", "b"):
        write(tmp_path / side, "s.csv", BASE)
        (tmp_path / side / "package.txt").write_text("/x/src/magnonblockade\n")
    assert csv_harness.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "3 rows, 0 changed" in out[1]
    assert out[2] == (f"magnonblockade: /x/src/magnonblockade in {tmp_path / 'a'}, "
                      f"/x/src/magnonblockade in {tmp_path / 'b'}")
    assert out[3].startswith("both sides ran one package")


def test_two_packages_compare_equal(tmp_path, capsys):
    for side in ("a", "b"):
        write(tmp_path / side, "s.csv", BASE)
        (tmp_path / side / "package.txt").write_text(f"/{side}/src/magnonblockade\n")
    assert csv_harness.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == (f"magnonblockade: /a/src/magnonblockade in {tmp_path / 'a'}, "
                       f"/b/src/magnonblockade in {tmp_path / 'b'}")
