"""The four benchmark workloads.

Each workload builds its inputs from the workload seed when it is
created (never timed), then hands the runner one pass as a list of
named ops.  An op is a zero-argument callable that calls the public
``layermig`` API once; ``check`` validates its output outside the timed
region and returns a digest that must be identical in every pass, and
``quality`` turns one pass of outputs into the workload's deterministic
model metrics (``sim_bytes`` becomes ``sim_mb_per_s``).

Functions are looked up on the ``layermig`` package at call time, so a
traced run sees the wrappers that ``tracer`` installs there.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

import layermig
from layermig import calibrate, workloads as lm_workloads
from stats import percentile

MB = 1_000_000  # the repository's MB
FULL, TINY = "full", "tiny"
REFERENCE_BANDWIDTH_BPS = 100.0 * MB


def stable_index(*parts: object) -> int:
    """16-bit index from a blake2b digest; unlike ``hash()`` it does not
    change with ``PYTHONHASHSEED``."""
    material = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(material, digest_size=2).digest(), "big")


def scenario_seed(seed: int, *parts: object) -> int:
    return lm_workloads.derive_seed(seed, stable_index(*parts))


class CheckFailed(Exception):
    """An op's output failed a benchmark check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_report(key, report) -> str:
    """Finite values, downtime within total, non-negative wire bytes.
    Returns a digest of the whole simulated report."""
    values = [report.total_seconds, report.downtime_seconds]
    values += [s.seconds for s in report.stages]
    _require(all(math.isfinite(v) and v >= 0 for v in values), "non-finite or negative seconds")
    _require(report.downtime_seconds <= report.total_seconds, "downtime exceeds total")
    _require(all(s.wire_bytes >= 0 for s in report.stages), "negative stage wire bytes")
    _require(report.total_wire_bytes >= 0, "negative wire bytes")
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _scenario(kind, profile, config, calibration, *, seed, scale,
              bandwidth_bps=REFERENCE_BANDWIDTH_BPS, destination=None):
    mode, dest = calibrate.CONFIG_DESTS[config]
    cost_model, cap = calibration[kind]
    spec = layermig.container_spec() if kind is layermig.Virtualization.CONTAINER else layermig.vm_spec()
    return layermig.MigrationScenario(
        guest_spec=spec,
        profile=profile,
        mode=mode,
        destination=destination or dest,
        link=layermig.LinkSpec(bandwidth_bps=bandwidth_bps, processing_cap_bps=cap, seed=0),
        cost_model=cost_model,
        scale=scale,
        seed=seed,
    )


def _migration_op(scenario):
    return lambda: layermig.run_migration(scenario).report


class ReferenceGrid:
    """The paper's reference migrations, as ``layermig reproduce`` runs them.

    Table 1 (2 kinds x 5 profiles x 3 configurations; the
    ``three_layer_app_not_found`` runs also give the Fig. 4 stage cells)
    and both Fig. 5 sweeps, at scale 1.0 with the packaged calibration.
    """

    name = "reference-grid"
    nominal_pass_s = 0.7

    def __init__(self, seed: int, size: str, calibration: dict, measurements: dict):
        self.measurements = measurements
        self.ops: list[tuple[tuple, object]] = []
        kinds = list(layermig.Virtualization)
        profiles = layermig.builtin_profiles()
        ram_sim = layermig.profile_by_name("RAM Simulation")
        sweeps = measurements["fig5_sweeps"]
        for kind in kinds:
            for profile in profiles:
                pseed = scenario_seed(seed, profile.name)
                for config in calibrate.CONFIG_DESTS:
                    key = ("table1", kind.value, profile.name, config)
                    self.ops.append((key, _scenario(kind, profile, config, calibration,
                                                    seed=pseed, scale=1.0)))
            pseed = scenario_seed(seed, ram_sim.name)
            for ram_mb in sorted(int(x) for x, _ in sweeps["ram"][kind.value]):
                key = ("fig5_ram", kind.value, ram_mb)
                self.ops.append((key, _scenario(
                    kind, ram_sim.with_memory(ram_mb * MB), "three_layer_app_found",
                    calibration, seed=pseed, scale=1.0)))
            for bw in sorted(float(x) for x, _ in sweeps["bandwidth"][kind.value]):
                key = ("fig5_bandwidth", kind.value, bw)
                self.ops.append((key, _scenario(
                    kind, ram_sim, "three_layer_app_found", calibration,
                    seed=pseed, scale=1.0, bandwidth_bps=bw * MB)))
        if size == TINY:
            self.ops = [op for op in self.ops if op[0][0] == "table1"][:6]

    def pass_ops(self):
        return [(key, _migration_op(scenario)) for key, scenario in self.ops]

    check = staticmethod(check_report)

    def cells(self, reports: dict) -> list[tuple[tuple, float]]:
        """Relative model-versus-reference error of every cell that
        ``layermig reproduce`` writes a ``relative_error`` for."""
        ref = self.measurements
        out = []
        for key, report in reports.items():
            target, kind = key[0], key[1]
            if target == "table1":
                profile, config = key[2], key[3]
                refs = ref["table1"][kind][profile][config]
                for metric, model in (
                    ("total_s", report.total_seconds),
                    ("wire_mb", report.total_wire_bytes / MB),
                    ("downtime_s", report.downtime_seconds),
                ):
                    if refs[metric]:
                        out.append(((target, kind, profile, config, metric),
                                    (model - refs[metric]) / refs[metric]))
                if config == "three_layer_app_not_found":
                    stage_refs = ref["fig4_stages"][kind][profile]
                    for record in report.stages:
                        value = stage_refs.get(record.stage.value)
                        if value:
                            out.append((("fig4", kind, profile, record.stage.value),
                                        (record.seconds - value) / value))
            else:
                sweep = "ram" if target == "fig5_ram" else "bandwidth"
                refs = {float(x): y for x, y in ref["fig5_sweeps"][sweep][kind]}
                value = refs[float(key[2])]
                if value:
                    out.append(((target, kind, key[2]),
                                (report.total_seconds - value) / value))
        return out

    def quality(self, outputs: dict) -> dict:
        errors = sorted(abs(e) for _, e in self.cells(outputs))
        return {
            "sim_bytes": sum(s.scanned_bytes for r in outputs.values() for s in r.stages),
            "ref_err_p50": percentile(errors, 50)[0] if errors else None,
            "ref_err_p90": percentile(errors, 90)[0] if errors else None,
            "ref_cells": len(errors),
        }


class StaleInstance:
    """Migrations to a destination holding the same instance three
    epochs stale: the only program path that runs the delta engine, on
    page-aligned memory churn plus, for the VM, a disjoint save file."""

    name = "stale-instance"
    nominal_pass_s = 1.1
    # (kind, profile, scale); the VM scale sets the size of the single
    # disjoint vmstate.img file, which bounds peak memory.
    MIX = {
        FULL: [("container", "RAM Simulation", 0.01),
               ("container", "Face Detection", 0.05),
               ("vm", "RAM Simulation", 0.005)],
        TINY: [("container", "RAM Simulation", 0.001),
               ("container", "Face Detection", 0.005),
               ("vm", "RAM Simulation", 0.0005)],
    }

    def __init__(self, seed: int, size: str, calibration: dict, measurements: dict):
        stale = layermig.DestinationState(has_base=True, has_app=True, has_stale_instance=True)
        self.ops = []
        for kind_name, profile_name, scale in self.MIX[size]:
            kind = layermig.Virtualization(kind_name)
            scenario = _scenario(
                kind, layermig.profile_by_name(profile_name), "three_layer_app_found",
                calibration, seed=scenario_seed(seed, kind_name, profile_name, scale),
                scale=scale, destination=stale)
            self.ops.append(((kind_name, profile_name, scale), scenario))

    def pass_ops(self):
        return [(key, _migration_op(scenario)) for key, scenario in self.ops]

    check = staticmethod(check_report)

    def quality(self, outputs: dict) -> dict:
        scanned = sum(s.scanned_bytes for r in outputs.values() for s in r.stages)
        wire = sum(r.total_wire_bytes for r in outputs.values())
        return {"sim_bytes": scanned, "wire_ratio": wire / scanned if scanned else None}


@dataclasses.dataclass
class DeltaResult:
    stats: object
    ops: int
    rebuilt: bytes | None


class DeltaEdits:
    """Seeded basis/target byte pairs run through signature, delta and
    apply.  No program scenario reaches the rolling, unaligned match
    path; this workload does, and it keeps the aligned and disjoint
    cases apart."""

    name = "delta-edits"
    nominal_pass_s = 2.8
    SIZE = {FULL: 8 * 2**20, TINY: 64 * 2**10}
    PAGE = 4096
    PAGE_SHARE = 0.05
    EDITS = 50
    MAX_EDIT = 64

    def __init__(self, seed: int, size: str, calibration: dict, measurements: dict):
        n = self.SIZE[size]
        rng = np.random.Generator(np.random.PCG64(scenario_seed(seed, self.name)))
        self.pairs = {}
        basis = rng.bytes(n)
        self.pairs["identical"] = (basis, basis)

        basis = rng.bytes(n)
        target = bytearray(basis)
        pages = n // self.PAGE
        for page in rng.choice(pages, size=round(self.PAGE_SHARE * pages), replace=False):
            start = int(page) * self.PAGE
            target[start:start + self.PAGE] = rng.bytes(self.PAGE)
        self.pairs["pages-5pct"] = (basis, bytes(target))

        basis = rng.bytes(n)
        target = bytearray(basis)
        # Distinct offsets at least 2 * MAX_EDIT apart, applied from the end
        # so earlier offsets stay valid.
        slots = rng.choice(n // (2 * self.MAX_EDIT) - 1, size=self.EDITS, replace=False)
        for slot in sorted((int(s) for s in slots), reverse=True):
            pos = slot * 2 * self.MAX_EDIT + 1 + int(rng.integers(0, self.MAX_EDIT))
            length = int(rng.integers(1, self.MAX_EDIT + 1))
            if rng.integers(0, 2):
                target[pos:pos] = rng.bytes(length)
            else:
                del target[pos:pos + length]
        self.pairs["unaligned-edits"] = (basis, bytes(target))

        self.pairs["disjoint"] = (rng.bytes(n), rng.bytes(n))

    def pass_ops(self):
        return [(kind, self._op(basis, target)) for kind, (basis, target) in self.pairs.items()]

    @staticmethod
    def _op(basis: bytes, target: bytes):
        def run():
            sig = layermig.compute_signature(basis)
            delta, stats = layermig.compute_delta(sig, target)
            return DeltaResult(stats, len(delta.ops), layermig.apply_delta(basis, delta))
        return run

    def check(self, key, result: DeltaResult) -> str:
        _require(result.rebuilt == self.pairs[key][1], "apply_delta did not rebuild the target")
        result.rebuilt = None  # kept outputs must not hold a copy of the target
        s = result.stats
        _require(s.wire_bytes >= 0, "negative wire bytes")
        return f"{s.wire_bytes}:{s.literal_bytes}:{s.scanned_bytes}:{result.ops}"

    def quality(self, outputs: dict) -> dict:
        target = sum(len(self.pairs[key][1]) for key in outputs)
        wire = sum(r.stats.wire_bytes for r in outputs.values())
        return {"sim_bytes": target, "wire_ratio": wire / target if target else None}


class CalibrationFit:
    """``fit_cost_model`` per virtualization kind on the packaged
    measurements: the only workload that runs calibrate's search.  Its
    input is the packaged data, so the seed changes nothing here."""

    name = "calibration-fit"
    nominal_pass_s = 10.0
    TINY_PROFILES = ["Game Server"]

    def __init__(self, seed: int, size: str, calibration: dict, measurements: dict):
        self.measurements = measurements
        self.profiles = None
        if size == TINY:
            self.profiles = [layermig.profile_by_name(n) for n in self.TINY_PROFILES]

    def pass_ops(self):
        return [(kind.value, self._op(kind)) for kind in layermig.Virtualization]

    def _op(self, kind):
        return lambda: calibrate.fit_cost_model(self.measurements, kind, profiles=self.profiles)

    def check(self, key, result) -> str:
        params = dataclasses.asdict(result.cost_model)
        values = list(params.values()) + [result.processing_cap_bps, result.objective]
        values += [r["predicted_s"] for r in result.stage_residuals]
        _require(all(math.isfinite(v) for v in values), "non-finite fit value")
        _require(result.objective >= 0, "negative objective")
        _require(result.processing_cap_bps > 0, "non-positive processing cap")
        _require(0.0 <= result.within_30pct <= 1.0, "within_30pct outside [0, 1]")
        return repr((sorted(params.items()), result.processing_cap_bps, result.objective))

    def quality(self, outputs: dict) -> dict:
        objectives = [r.objective for r in outputs.values()]
        return {"fit_objective": sum(objectives) / len(objectives) if objectives else None}


WORKLOADS = {w.name: w for w in (ReferenceGrid, StaleInstance, DeltaEdits, CalibrationFit)}
