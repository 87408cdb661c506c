"""The cells behind ``ref_err_*`` are the ``relative_error`` columns that
``layermig reproduce`` writes."""

import csv
import os
import subprocess
import sys

from helpers import SRC
import layermig
import suite
import worker


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.DictReader(fh) if row["relative_error"]]


def test_reference_cells_match_reproduce(tmp_path):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    for target in ("table1", "fig4", "fig5"):
        subprocess.run([sys.executable, "-m", "layermig.cli", "reproduce", "--target", target,
                        "--out-dir", str(tmp_path)], env=env, check=True,
                       capture_output=True, timeout=170)
    expected = {}
    for row in _read(tmp_path / "table1.csv"):
        key = ("table1", row["virtualization"], row["profile"], row["configuration"], row["metric"])
        expected[key] = row["relative_error"]
    for row in _read(tmp_path / "fig4.csv"):
        expected[("fig4", row["virtualization"], row["profile"], row["stage"])] = row["relative_error"]
    for row in _read(tmp_path / "fig5_ram.csv"):
        expected[("fig5_ram", row["virtualization"], int(row["ram_mb"]))] = row["relative_error"]
    for row in _read(tmp_path / "fig5_bandwidth.csv"):
        key = ("fig5_bandwidth", row["virtualization"], float(row["bandwidth_mbps"]))
        expected[key] = row["relative_error"]

    _, calibration, measurements = worker.setup()
    grid = suite.ReferenceGrid(0, suite.FULL, calibration, measurements)
    reports = {key: layermig.run_migration(scenario).report for key, scenario in grid.ops}
    cells = {key: f"{error:+.4f}" for key, error in grid.cells(reports)}
    assert len(cells) == 199
    assert cells == expected
