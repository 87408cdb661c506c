import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layermig
from layermig import cli
from layermig.cli import main
from layermig.config import build_scenario, read_reference
from layermig.migrator import CostModel, run_migration, simulate
from layermig.netsim import LinkSpec

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


INLINE_COST = {
    "clone_rate": 1e8, "suspend_fixed": 0.2, "suspend_per_byte": 1e-9, "restore_fixed": 0.3,
    "restore_per_byte": 2e-9, "scan_rate": 5e8, "stage_fixed_overhead": 0.4,
    "other_tasks_fixed": 1.0,
}


# Each case sets one field of one config block; the other fields of a
# cost model or profile come from INLINE_COST or a minimal profile.
BLOCK_BASES = {"link": {}, "guest": {}, "cost_model": INLINE_COST,
               "profile": {"name": "x", "install_bytes": 1}}


@pytest.mark.parametrize("block,field,value", [
    ("link", "latency_ms", math.inf),
    ("link", "bandwidth_mbps", math.inf),
    ("link", "jitter_ms", math.inf),
    ("link", "bandwidth_mbps", 1e305),  # finite, but infinite in bits/s
    ("link", "bandwidth_mbps", 5e-324),  # its reciprocal overflows
    ("link", "processing_cap_mbps", 5e-324),
    ("cost_model", "clone_rate", 5e-324),
    ("cost_model", "clone_rate", 10**400),  # no float can hold it
    ("cost_model", "scan_rate", math.inf),
    ("cost_model", "restore_fixed", -math.inf),
    ("guest", "fs_wire_ratio", math.inf),
    ("profile", "memory_wire_ratio", math.inf),
    ("profile", "memory_churn_rate", -math.inf),
])
def test_run_non_finite_value_exits_2(block, field, value, tmp_path, capsys):
    # json writes math.inf as Infinity, which json.load reads back.
    config = {**FD_CONFIG, block: {**BLOCK_BASES[block], field: value}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("overrides,named", [
    ({"suspend_fixed": 1e308, "restore_fixed": 1e308}, "the total time"),
    ({"restore_per_byte": 1e308}, "stage restore_instance"),
])
@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--param", "ram", "--values", "20,100"],
])
def test_overflowing_cost_model_exits_2(overrides, named, command, tmp_path, capsys):
    # Every value passes its own check; their sum or product does not fit a float.
    config = {**FD_CONFIG, "cost_model": {**INLINE_COST, **overrides}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = main([*command, "--scenario", str(path), "--out", str(out), "--scale", "0.01"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert command[0] == "run" or "--values 20:" in err
    assert not out.exists()


# The config key of each LinkSpec field; the link block takes Mbps and ms.
LINK_KEYS = {"bandwidth_bps": "bandwidth_mbps", "latency_s": "latency_ms",
             "jitter_s": "jitter_ms", "processing_cap_bps": "processing_cap_mbps",
             "seed": "seed"}
EDGE_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e308])
DRAWN_VALUES = EDGE_VALUES | st.floats(min_value=1e-3, max_value=1e3)


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(map(_all_finite, value.values()))
    if isinstance(value, list):
        return all(map(_all_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=300, deadline=None)
@given(link=st.dictionaries(st.sampled_from([LINK_KEYS[f.name] for f in fields(LinkSpec)]),
                            DRAWN_VALUES, max_size=2),
       cost=st.dictionaries(st.sampled_from([f.name for f in fields(CostModel)]),
                            DRAWN_VALUES, max_size=2),
       scale=st.floats(min_value=1e-4, max_value=0.01))
def test_run_exits_0_or_2_and_writes_only_finite_strict_json(link, cost, scale):
    # Edge values for up to two link and two cost-model fields, the rest
    # at working values: a run either refuses its config or reports a
    # finite, self-consistent migration.
    assert LINK_KEYS.keys() == {f.name for f in fields(LinkSpec)}
    config = {**FD_CONFIG, "link": link, "cost_model": {**INLINE_COST, **cost}}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "scenario.json"), Path(tmp, "report.json")
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["run", "--scenario", str(path), "--out", str(out), "--scale", str(scale)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
            return
        report = json.loads(out.read_text(encoding="utf-8"),
                            parse_constant=lambda name: pytest.fail(f"report holds {name}"))
    assert _all_finite(report)
    assert report["downtime_seconds"] <= report["total_seconds"]


def test_writers_refuse_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "r.json", {"total_seconds": math.inf})
    with pytest.raises(ValueError):
        cli._cell(math.nan, ".4f")
    assert cli._cell(2.5, ".4f") == f"{2.5:.4f}"


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


# A stale instance behind a jittery link: every sweep cell prices sync stages.
STALE_JITTER = {**FD_CONFIG, "destination": {"has_stale_instance": True},
                "link": {"latency_ms": 20, "jitter_ms": 5, "seed": 3}}
BANDWIDTHS = "1,2,5,10,20,50,100,1000"


@pytest.fixture
def stale_jitter_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(STALE_JITTER), encoding="utf-8")
    return path


@pytest.mark.parametrize("argv,simulations", [
    (["sweep", "--param", "bandwidth", "--values", "100"], 1),
    (["sweep", "--param", "bandwidth", "--values", BANDWIDTHS], 1),
    (["sweep", "--param", "ram", "--values", "20,100,200"], 3),
    # One per RAM cell, and one per kind for all its bandwidth cells.
    (["reproduce", "--target", "fig5"], 7 + 6 + 2),
], ids=["bandwidth-1", "bandwidth-8", "ram-3", "fig5"])
def test_simulations_per_command(argv, simulations, stale_jitter_config, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda scenario: calls.append(scenario) or simulate(scenario))
    out = (["--out-dir", str(tmp_path)] if argv[0] == "reproduce"
           else ["--scenario", str(stale_jitter_config), "--out", str(tmp_path / "out.csv")])
    assert main([*argv, *out, "--scale", "0.01"]) == 0
    assert len(calls) == simulations


def test_bandwidth_sweep_equals_whole_migrations(stale_jitter_config, tmp_path):
    out = tmp_path / "bw.csv"
    assert main(["sweep", "--param", "bandwidth", "--values", BANDWIDTHS, "--scale", "0.01",
                 "--scenario", str(stale_jitter_config), "--out", str(out)]) == 0
    scenario = build_scenario(STALE_JITTER, cli._resolve_calibration(None)[0], scale=0.01)
    expected = [["param_value", "total_time_s", "downtime_s", "wire_bytes"]]
    for value in map(float, BANDWIDTHS.split(",")):
        report = run_migration(cli._swept(scenario, "bandwidth", value)).report
        expected.append([f"{value:g}", f"{report.total_seconds:.6f}",
                         f"{report.downtime_seconds:.6f}", str(report.total_wire_bytes)])
    assert read_csv(out) == expected


def test_sweep_empty_values_exits_2(tmp_path):
    assert main(["sweep", "--param", "ram", "--values", " ",
                 "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("param,values", [
    ("bandwidth", "-1"), ("bandwidth", "0"), ("bandwidth", "nan"), ("bandwidth", "10,-1"),
    ("bandwidth", "abc"), ("ram", "-5"), ("ram", "nan"), ("ram", "inf"), ("bandwidth", "inf"),
])
def test_sweep_value_out_of_range_exits_2(param, values, tmp_path, capsys):
    # Each value meets the records' own checks before any migration runs.
    out = tmp_path / "x.csv"
    assert main(["sweep", "--param", param, f"--values={values}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


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


# SHA-256 of each reproduce CSV at scale 1.0 and seed 0 with the packaged
# calibration.  Pinned so that work on the tree layer, which every
# reference migration runs through, cannot move a reproduced cell.
REPRODUCE_DIGESTS = {
    "table1": {"table1.csv": "1211388127b614c8fcff22b409c921c6f95ed02d6c0cacde448ef9f5a1f445a5"},
    "fig4": {"fig4.csv": "346640d38af1d07b3d47aad835441f9a5712c32a72b3924230acc1c4c9d066a6"},
    "fig5": {
        "fig5_ram.csv": "21088ca57c6bc931e84329d4fe9d59dca3af4f640559eb01ab4e9cd6da4f77ca",
        "fig5_bandwidth.csv": "c4a405a8a41a01b9665052e6a64c781e9eb81e3f4b6a0fe7ca7e573f543aecac",
    },
}


@pytest.mark.parametrize("target", list(REPRODUCE_DIGESTS))
def test_reproduce_csvs_are_byte_identical_to_golden(target, tmp_path):
    assert main(["reproduce", "--target", target, "--out-dir", str(tmp_path),
                 "--scale", "1.0", "--seed", "0"]) == 0
    for name, digest in REPRODUCE_DIGESTS[target].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# The seeds of the scenarios that ``reproduce --target table1`` simulates.
def test_reproduce_writes_one_row_per_reference_record(tmp_path):
    records, labels = read_reference(cli._packaged_json("measurements.json"))
    figures = {"table1": 90, "fig4": 80, "fig5_ram": 13, "fig5_bandwidth": 16}
    assert Counter(record.figure for record in records) == figures
    for target in ("table1", "fig4", "fig5"):
        assert main(["reproduce", "--target", target, "--out-dir", str(tmp_path),
                     "--scale", "0.01"]) == 0
    for figure in figures:
        rows = read_csv(tmp_path / f"{figure}.csv")[1:]
        measured = [record for record in records if record.figure == figure]
        assert len(rows) == len(measured)
        for row, record in zip(rows, measured):
            if figure == "table1":
                keys = [record.profile, record.configuration, record.metric]
            elif figure == "fig4":
                keys = [record.profile, record.metric, labels[record.metric]]
            else:
                keys = [f"{record.x:g}"]
            assert row[:1 + len(keys)] == [record.kind.value, *keys]
            assert row[-2] == f"{record.value:.4f}"


REFERENCE_SEEDS = """
import sys, tempfile
from layermig import cli
seeds = []
simulate = cli.simulate
cli.simulate = lambda scenario: seeds.append(scenario.seed) or simulate(scenario)
with tempfile.TemporaryDirectory() as out_dir:
    assert cli.main(["reproduce", "--target", "table1", "--seed", "7", "--scale", "0.01",
                     "--out-dir", out_dir]) == 0
print(seeds, file=sys.stderr)
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
        outputs.append(done.stderr)
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


@pytest.mark.parametrize("virtualization,scale", [("container", "0.01"), ("vm", "0.002")])
def test_stale_instance_reports_ignore_hash_seed(virtualization, scale, tmp_path):
    # A stale instance is the path through the delta engine: two
    # processes with different hash salts must write the same bytes.
    config = {"profile": "RAM Simulation", "virtualization": virtualization,
              "mode": "three_layer", "seed": 5,
              "destination": {"has_base": True, "has_app": True, "has_stale_instance": True}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    src = str(Path(layermig.__file__).resolve().parents[1])
    reports = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"report-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "layermig.cli", "run", "--scenario", str(path),
                        "--out", str(out), "--scale", scale],
                       env=env, check=True, capture_output=True, timeout=300)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    stages = {s["stage"]: s for s in json.loads(reports[0])["stages"]}
    assert stages["sync_instance_memory"]["wire_bytes"] > 0


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


def edited_calibration(edit):
    """A fresh copy of the packaged calibration with ``edit`` applied."""
    data = cli._packaged_json("calibration_default.json")
    edit(data)
    return data


# A calibration file is input: each of these exits 2 with "error:" and
# the message, from every command that reads one.
BAD_CALIBRATIONS = {
    "not-json": ("{not json", "calibration file is not valid JSON"),
    "json-list": ([1, 2], "calibration file must be a JSON object"),
    "no-blocks": ({}, "calibration file holds no cost models"),
    "block-not-an-object": ({"container": [1]}, "calibration.container must be an object"),
    "cost-model-lacks-a-field": (
        edited_calibration(lambda d: d["container"]["cost_model"].pop("scan_rate")),
        "calibration.container.cost_model missing field(s): scan_rate"),
    "cost-model-unknown-field": (
        edited_calibration(lambda d: d["container"]["cost_model"].update(speed=1)),
        "unknown field(s) in calibration.container.cost_model: speed"),
    "negative-clone-rate": (
        edited_calibration(lambda d: d["container"]["cost_model"].update(clone_rate=-1)),
        "clone_rate must be positive"),
    "string-cap": (
        edited_calibration(lambda d: d["container"].update(processing_cap_bps="x")),
        "calibration.container.processing_cap_bps must be a number"),
    "zero-cap": (
        edited_calibration(lambda d: d["container"].update(processing_cap_bps=0)),
        "processing_cap_bps must be positive"),
    "no-block-for-the-kind": (edited_calibration(lambda d: d.pop("container")),
                              "calibration holds no cost model for 'container'"),
}


@pytest.mark.parametrize("content,message", BAD_CALIBRATIONS.values(),
                         ids=BAD_CALIBRATIONS.keys())
@pytest.mark.parametrize("command", ["run", "sweep", "reproduce"])
def test_a_bad_calibration_file_exits_2(content, message, command, fd_config, tmp_path, capsys):
    calibration = tmp_path / "cal.json"
    calibration.write_text(content if isinstance(content, str) else json.dumps(content),
                           encoding="utf-8")
    out = tmp_path / "out"
    args = {"run": ["run", "--scenario", str(fd_config), "--out", str(out)],
            "sweep": ["sweep", "--param", "ram", "--values", "20", "--out", str(out)],
            "reproduce": ["reproduce", "--target", "fig4", "--out-dir", str(out)]}[command]
    assert main([*args, "--calibration", str(calibration), "--scale", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_reproduce_with_a_one_kind_calibration_exits_2(tmp_path, capsys):
    # calibrate writes a one-kind file when the reference measures one kind.
    reference = cli._packaged_json("measurements.json")
    del reference["fig4_stages"]["vm"]
    ref_path, calibration = tmp_path / "ref.json", tmp_path / "cal.json"
    ref_path.write_text(json.dumps(reference), encoding="utf-8")
    assert main(["calibrate", "--reference", str(ref_path), "--out", str(calibration)]) == 0
    assert sorted(json.loads(calibration.read_text())) == ["container", "fitted", "schema"]
    capsys.readouterr()
    out_dir = tmp_path / "rep"
    assert main(["reproduce", "--target", "table1", "--out-dir", str(out_dir),
                 "--calibration", str(calibration), "--scale", "0.01"]) == 2
    assert capsys.readouterr().err == "error: calibration holds no cost model for 'vm'\n"
    assert not out_dir.exists()


# --- calibrate -----------------------------------------------------------------


def test_calibrate_empty_reference_exits_5(tmp_path, capsys):
    ref = tmp_path / "empty.json"
    ref.write_text("{}", encoding="utf-8")
    assert main(["calibrate", "--reference", str(ref),
                 "--out", str(tmp_path / "cal.json")]) == 5


def edited_reference(edit):
    """A fresh copy of the packaged measurements with ``edit`` applied."""
    data = cli._packaged_json("measurements.json")
    edit(data)
    return data


def renamed(block: dict, old: str, new: str) -> None:
    block[new] = block.pop(old)


def edited_stage(value):
    return edited_reference(
        lambda d: d["fig4_stages"]["container"]["Game Server"].update(other_tasks=value))


# A reference file is input too: each of these exits 2 with "error:" and
# the message, which names the path of the fault.
BAD_REFERENCES = {
    "not-json": ("{not json", "reference data is not valid JSON"),
    "json-list": ("[1, 2]", "reference data must be a JSON object"),
    "stage-profile-a-string": (
        edited_reference(lambda d: d["fig4_stages"]["vm"].update({"Game Server": "x"})),
        "reference.fig4_stages.vm.Game Server must be an object"),
    "stage-a-string": (
        edited_stage("x"),
        "reference.fig4_stages.container.Game Server.other_tasks must be a positive finite number"),
    "table1-cell-a-string": (
        edited_reference(lambda d: d["table1"]["vm"]["Face Detection"]["two_layer"].update(
            total_s="x")),
        "reference.table1.vm.Face Detection.two_layer.total_s must be a positive finite number"),
    "infinite-stage": (
        edited_stage(float("1e999")),
        "reference.fig4_stages.container.Game Server.other_tasks must be a positive finite number"),
    "negative-stage": (
        edited_stage(-2.0),
        "reference.fig4_stages.container.Game Server.other_tasks must be a positive finite number"),
    "zero-cell": (
        edited_reference(lambda d: d["table1"]["container"]["RAM Simulation"]["two_layer"].update(
            downtime_s=0)),
        "reference.table1.container.RAM Simulation.two_layer.downtime_s must be a positive"),
    "stages-a-list": (edited_reference(lambda d: d.update(fig4_stages=[1])),
                      "reference.fig4_stages must be an object"),
    "misspelt-stage": (
        edited_reference(lambda d: renamed(d["fig4_stages"]["container"]["Game Server"],
                                           "other_tasks", "other_taks")),
        "unknown field(s) in reference.fig4_stages.container.Game Server: other_taks"),
    "misspelt-configuration": (
        edited_reference(lambda d: renamed(d["table1"]["container"]["Game Server"],
                                           "two_layer", "two_layr")),
        "unknown field(s) in reference.table1.container.Game Server: two_layr"),
    "misspelt-profile": (
        edited_reference(lambda d: renamed(d["fig4_stages"]["container"],
                                           "Game Server", "Gaem Server")),
        "unknown field(s) in reference.fig4_stages.container: Gaem Server"),
    "fig5-point-not-a-pair": (
        edited_reference(lambda d: d["fig5_sweeps"]["ram"]["vm"].append([700])),
        "reference.fig5_sweeps.ram.vm[6] must be an [x, y] pair"),
}


@pytest.mark.parametrize("content,message", BAD_REFERENCES.values(), ids=BAD_REFERENCES.keys())
def test_a_bad_reference_file_exits_2(content, message, tmp_path, capsys):
    ref = tmp_path / "ref.json"
    ref.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    out = tmp_path / "cal.json"
    assert main(["calibrate", "--reference", str(ref), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_calibrate_missing_reference_exits_4(tmp_path):
    assert main(["calibrate", "--reference", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "cal.json")]) == 4


@pytest.mark.parametrize("flags", [
    ["--seed", "7", "--scale", "0.5", "--calibration", "nonexistent.json"],
    ["--seed", "7"], ["--scale", "0.5"], ["--calibration", "default"],
], ids=["all", "seed", "scale", "calibration"])
def test_calibrate_refuses_the_scenario_overrides(flags, tmp_path, capsys):
    # The fit takes no scenario, so an override it would ignore is an error.
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


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


def test_calibrate_prints_the_parameters_on_a_bound(tmp_path, capsys):
    assert main(["calibrate", "--out", str(tmp_path / "cal.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "  on a bound: scan_rate"  # container
    assert "  on a bound: none" in lines  # vm
