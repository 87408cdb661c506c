import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layermig
from layermig.cli import main

FD_CONFIG = {
    "profile": "Face Detection",
    "virtualization": "container",
    "mode": "three_layer",
    "destination": {"has_base": True, "has_app": True},
    "seed": 11,
}


@pytest.fixture
def fd_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(FD_CONFIG), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# --- run -------------------------------------------------------------------


def test_run_writes_report_with_expected_stages(fd_config, tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "--scenario", str(fd_config), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [s["stage"] for s in report["stages"]] == [
        "clone_app_as_instance", "suspend_instance", "sync_instance_filesystem",
        "sync_instance_memory", "restore_instance", "other_tasks",
    ]
    assert report["total_seconds"] > 0


def test_run_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    assert "JSON" in capsys.readouterr().err


def test_run_unknown_field_exits_2(tmp_path, capsys):
    cfg = dict(FD_CONFIG)
    cfg["bandwith"] = 100  # typo must be rejected, not ignored
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert "unknown field" in capsys.readouterr().err


def test_run_twice_is_byte_identical(fd_config, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", "--scenario", str(fd_config), "--out", str(a)]) == 0
    assert main(["run", "--scenario", str(fd_config), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_with_missing_calibration_exits_4(fd_config, tmp_path):
    code = main(["run", "--scenario", str(fd_config), "--out", str(tmp_path / "r.json"),
                 "--calibration", str(tmp_path / "nope.json")])
    assert code == 4


def test_run_inconsistent_destination_exits_2(tmp_path):
    cfg = dict(FD_CONFIG)
    cfg["destination"] = {"has_base": False, "has_app": True}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.json")]) == 2


# --- sweep ------------------------------------------------------------------


def test_sweep_single_value(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "ram", "--values", "100", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["param_value", "total_time_s", "downtime_s", "wire_bytes"]
    assert len(rows) == 2


def test_ram_sweep_monotone_nondecreasing(tmp_path):
    out = tmp_path / "ram.csv"
    assert main(["sweep", "--param", "ram", "--values", "20,100,200,300,400,500,600",
                 "--out", str(out)]) == 0
    rows = read_csv(out)[1:]
    totals = [float(r[1]) for r in rows]
    assert totals == sorted(totals)


def test_bandwidth_sweep_saturates(tmp_path):
    out = tmp_path / "bw.csv"
    assert main(["sweep", "--param", "bandwidth", "--values", "1,2,5,10,20,50,100,1000",
                 "--out", str(out)]) == 0
    rows = read_csv(out)[1:]
    totals = [float(r[1]) for r in rows]
    assert all(a >= b for a, b in zip(totals, totals[1:]))
    assert totals[-1] == pytest.approx(totals[-3], rel=1e-9)  # flat above the cap


def test_sweep_empty_values_exits_2(tmp_path):
    assert main(["sweep", "--param", "ram", "--values", " ",
                 "--out", str(tmp_path / "x.csv")]) == 2


# --- reproduce ---------------------------------------------------------------


def test_reproduce_table1_grid(tmp_path):
    out_dir = tmp_path / "rep"
    assert main(["reproduce", "--target", "table1", "--out-dir", str(out_dir),
                 "--scale", "0.01"]) == 0
    rows = read_csv(out_dir / "table1.csv")
    # 2 kinds x 5 profiles x 3 configurations x 3 metrics
    assert len(rows) == 1 + 90
    meta = json.loads((out_dir / "metadata.json").read_text())
    assert meta["calibration"] == "packaged"


def test_reproduce_fig4_uses_reference_stage_labels(tmp_path):
    out_dir = tmp_path / "rep"
    assert main(["reproduce", "--target", "fig4", "--out-dir", str(out_dir),
                 "--scale", "0.01"]) == 0
    rows = read_csv(out_dir / "fig4.csv")
    labels = {r[3] for r in rows[1:] if r[0] == "container"}
    assert labels == {
        "Clone base as app", "rsync app filesystem", "Clone app as instance",
        "Suspend instance", "rsync instance filesystem",
        "rsync instance in-memory state", "Restore instance", "Other remaining tasks",
    }


def test_reproduce_fig5_emits_both_sweeps(tmp_path):
    out_dir = tmp_path / "rep"
    assert main(["reproduce", "--target", "fig5", "--out-dir", str(out_dir),
                 "--scale", "0.01"]) == 0
    ram = read_csv(out_dir / "fig5_ram.csv")
    bw = read_csv(out_dir / "fig5_bandwidth.csv")
    assert len(ram) == 1 + 7 + 6  # container and vm reference points
    assert len(bw) == 1 + 8 + 8


REFERENCE_SEEDS = """
from layermig.cli import _reference_scenario
from layermig.guest import Virtualization
from layermig.migrator import default_cost_model
from layermig.workloads import builtin_profiles
calibration = {kind: (default_cost_model(kind), 1e9) for kind in Virtualization}
print([_reference_scenario(Virtualization.CONTAINER, profile, "three_layer_app_found",
                           calibration, seed_base=7, scale=1.0).seed
       for profile in builtin_profiles()])
"""


def test_reference_scenario_seeds_ignore_hash_seed():
    # hash() of a str is salted per process by PYTHONHASHSEED; the seeds
    # of the reproduced scenarios must not be.
    src = str(Path(layermig.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", REFERENCE_SEEDS], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(set(json.loads(outputs[0]))) == len(layermig.builtin_profiles())


def test_reproduce_csvs_ignore_hash_seed(tmp_path):
    src = str(Path(layermig.__file__).resolve().parents[1])
    tables = []
    for hash_seed in ("1", "2"):
        out_dir = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "layermig.cli", "reproduce", "--target", "table1",
                        "--scale", "0.01", "--out-dir", str(out_dir)],
                       env=env, check=True, capture_output=True, timeout=300)
        tables.append({path.name: path.read_bytes() for path in sorted(out_dir.glob("*.csv"))})
    assert tables[0] and tables[0] == tables[1]


def test_reproduce_missing_calibration_exits_4(tmp_path):
    code = main(["reproduce", "--target", "table1", "--out-dir", str(tmp_path / "rep"),
                 "--calibration", str(tmp_path / "missing.json")])
    assert code == 4


def test_reproduce_with_default_model_flags_metadata(tmp_path):
    out_dir = tmp_path / "rep"
    assert main(["reproduce", "--target", "fig5", "--out-dir", str(out_dir),
                 "--scale", "0.01", "--calibration", "default"]) == 0
    meta = json.loads((out_dir / "metadata.json").read_text())
    assert meta["calibration"] == "default"


# --- calibrate -----------------------------------------------------------------


def test_calibrate_empty_reference_exits_5(tmp_path, capsys):
    ref = tmp_path / "empty.json"
    ref.write_text("{}", encoding="utf-8")
    assert main(["calibrate", "--reference", str(ref),
                 "--out", str(tmp_path / "cal.json")]) == 5


def test_calibrate_missing_reference_exits_4(tmp_path):
    assert main(["calibrate", "--reference", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "cal.json")]) == 4


def test_calibrate_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["calibrate", "--out", str(a)]) == 0
    assert main(["calibrate", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_packaged_calibration_matches_refit(tmp_path):
    from importlib import resources

    refit = tmp_path / "refit.json"
    assert main(["calibrate", "--out", str(refit)]) == 0
    packaged = resources.files("layermig").joinpath(
        "reference", "calibration_default.json").read_text()
    assert json.loads(refit.read_text()) == json.loads(packaged)


def test_calibrate_fit_quality(tmp_path):
    out = tmp_path / "cal.json"
    assert main(["calibrate", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["fitted"] is True
    # At least 80% of container stage cells must fit within 30%.
    assert payload["container"]["fit"]["stage_residuals_within_30pct"] >= 0.8
