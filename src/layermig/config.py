"""Scenario configuration files: one walk from JSON to a checked scenario.

A config is a JSON object whose fields are all optional.  Unknown fields
are rejected everywhere, so typos fail loudly instead of silently
running a different experiment.  Each block's fields are those of the
dataclass it builds, and that dataclass's own checks decide which values
are in range:

``profile``
    A built-in profile name (default ``"No Application"``), or an inline
    object with the fields of :class:`AppProfile`.  ``name`` and
    ``install_bytes`` are required.  ``install_bytes`` and
    ``memory_wire_ratio`` take one number for both virtualization kinds
    or an object keyed by ``"container"`` and ``"vm"``.
``virtualization``
    ``"container"`` (default, :func:`container_spec`) or ``"vm"``
    (:func:`vm_spec`).
``mode``
    ``"three_layer"`` (default) or ``"two_layer"``, a :class:`MigrationMode`.
``destination``
    The fields of :class:`DestinationState`.  ``has_base`` defaults to
    true, ``has_app`` to true in three-layer mode and false in two-layer
    mode, ``has_stale_instance`` to false.
``link``
    ``bandwidth_mbps`` (default 100), ``latency_ms`` and ``jitter_ms``
    (default 0), ``processing_cap_mbps`` and ``seed`` (default 0), which
    build a :class:`LinkSpec` in bits/s and seconds.  A missing or
    ``null`` cap means the calibration's cap for the kind, or no cap with
    an inline cost model.
``guest``
    Overrides of the :class:`GuestSpec` fields other than
    ``virtualization``.
``cost_model``
    Every field of :class:`CostModel` (rates in bytes/s, fixed terms in
    seconds).  Default: the calibration's model for the kind.
``scale``, ``seed``, ``block_size``, ``chunk_size``, ``round_trips``, ``staleness_epochs``
    The scalar fields of :class:`MigrationScenario`, with its defaults.

An integer field takes an integral number (``2048.0`` reads as 2048).
Every problem, including a value a dataclass rejects, raises
:class:`ConfigError`.

A calibration file is input of the same kind: each virtualization's
block holds a ``cost_model``, walked as the config block of that name
is, and a ``processing_cap_bps`` number (see :func:`calibration_block`).

The reference file (``measurements.json``) is input too, and
:func:`read_reference` is its one reader.  Its blocks:

``table1``
    Keyed by virtualization, built-in profile name and configuration
    (a key of :data:`CONFIG_DESTS`): the measured ``total_s``,
    ``wire_mb`` and ``downtime_s``.  It may also hold ``description``
    and ``units``.
``fig4_stages``
    Keyed by virtualization and profile: each measured stage's seconds
    in the three-layer, app-not-found migration, keyed by the stages
    that migration runs.  ``stage_labels`` names those stages for the
    CSV; ``description`` and ``scenario`` are not read.
``fig5_sweeps``
    ``ram`` and ``bandwidth``, each keyed by virtualization: a list of
    ``[x, y]`` points, x the RAM in MB or the bandwidth in Mbps and y
    the RAM Simulation profile's total seconds, app found.  Each may
    hold ``units``, and the block a ``description``.
``schema``, ``description``, ``base_package``
    Not read.

Each measured number becomes one :class:`ReferenceRecord`: its figure
(the ``reproduce`` CSV it fills: ``table1``, ``fig4``, ``fig5_ram`` or
``fig5_bandwidth``), virtualization, profile name, configuration,
metric (``total_s``, ``wire_mb``, ``downtime_s`` or a stage name),
measured value and, for a Fig. 5 point, its x.  Records come in a fixed
order: figure, virtualization, :func:`builtin_profiles` order, then
configuration, metric or stage order, and Fig. 5 points by x.  A cell
that was not measured is left out of the file, so it yields no record.
The reader refuses, with a :class:`ConfigError` naming the path, an
unknown key at any level (so an unknown profile, configuration or
stage name), a value that is not a positive finite number (0 and
``null`` included), and a Fig. 5 point that is not an ``[x, y]`` pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields, replace
from typing import NamedTuple

from .guest import GuestSpec, Virtualization, container_spec, vm_spec
from .migrator import (
    DOWNTIME_STAGES,
    SCENARIO_SCALARS,
    CostModel,
    DestinationState,
    MigrationMode,
    MigrationScenario,
    plan,
)
from .netsim import MB, LinkSpec, require_rate
from .workloads import AppProfile, builtin_profiles, profile_by_name

_TOP_FIELDS = {"profile", "virtualization", "mode", "destination", "link", "guest", "cost_model",
               *SCENARIO_SCALARS}
_LINK_FIELDS = {"bandwidth_mbps", "latency_ms", "jitter_ms", "processing_cap_mbps", "seed"}
_PER_KIND = "Mapping[Virtualization, "
_KINDS = [kind.value for kind in Virtualization]

CONFIG_DESTS = {
    "two_layer": (MigrationMode.TWO_LAYER, DestinationState(has_base=True)),
    "three_layer_app_not_found": (MigrationMode.THREE_LAYER, DestinationState(has_base=True)),
    "three_layer_app_found": (
        MigrationMode.THREE_LAYER,
        DestinationState(has_base=True, has_app=True),
    ),
}
_PROFILE_NAMES = [profile.name for profile in builtin_profiles()]
_FIG4_STAGES = [stage.value for stage in plan(*CONFIG_DESTS["three_layer_app_not_found"])]
_TABLE1_METRICS = ("total_s", "wire_mb", "downtime_s")
_FIG5_MIGRATION = ("RAM Simulation", "three_layer_app_found")  # both sweeps' profile, configuration


class ConfigError(Exception):
    """A scenario config that does not follow the schema."""


def _reject_unknown(obj, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = obj.keys() - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")


def _value(value, kind: str, where: str):
    """``value`` checked against a dataclass field's type ``kind``."""
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be a boolean")
    elif kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string")
    elif kind.startswith(_PER_KIND):
        per_kind = value if isinstance(value, dict) else dict.fromkeys(_KINDS, value)
        _reject_unknown(per_kind, _KINDS, where)
        element = kind[len(_PER_KIND):-1]
        return {Virtualization(k): _value(v, element, f"{where}.{k}") for k, v in per_kind.items()}
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    elif kind == "int":
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{where} must be an integer")
        return int(value)
    return value


def _build(where: str, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
        raise ConfigError(f"{where}: {exc}") from exc


def _record(cls, obj, where: str, *, base=None, exclude=()):
    """``cls`` built from the config object ``obj``.  Absent fields come
    from ``base`` if given, else from the defaults of ``cls``; a field
    without a default is then required."""
    schema = {f.name: f for f in fields(cls) if f.name not in exclude}
    _reject_unknown(obj, schema, where)
    values = {key: _value(value, schema[key].type, f"{where}.{key}") for key, value in obj.items()}
    if base is not None:
        return _build(where, replace, base, **values)
    missing = sorted(name for name, f in schema.items() if name not in obj
                     and f.default is MISSING and f.default_factory is MISSING)
    if missing:
        raise ConfigError(f"{where} missing field(s): {', '.join(missing)}")
    return _build(where, cls, **values)


def _choice(cls, value, where: str):
    try:
        return cls(value)
    except ValueError:
        names = " or ".join(repr(member.value) for member in cls)
        raise ConfigError(f"{where} must be {names}") from None


def read_json(path, what: str):
    """The JSON value of the file at ``path``, the ``what`` of an error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_scenario_config(path) -> dict:
    """Read a config file and check it; needs no calibration."""
    data = read_json(path, "scenario config")
    build_scenario(data, None)
    return data


def calibration_block(block, where: str) -> tuple[CostModel, float]:
    """One virtualization's block of a calibration file: (its cost
    model, its processing cap in bits/s)."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    cost_model = _record(CostModel, block.get("cost_model"), f"{where}.cost_model")
    cap = _value(block.get("processing_cap_bps"), "float", f"{where}.processing_cap_bps")
    _build(where, require_rate, "processing_cap_bps", cap)  # infinite: no cap
    return cost_model, float(cap)


def calibrated(calibration: dict[Virtualization, tuple[CostModel, float]],
               kind: Virtualization) -> tuple[CostModel, float]:
    """``kind``'s (cost model, processing cap) in ``calibration``."""
    if kind not in calibration:
        raise ConfigError(f"calibration holds no cost model for {kind.value!r}")
    return calibration[kind]


def build_scenario(
    data: dict,
    calibration: dict[Virtualization, tuple[CostModel, float]] | None,
    *,
    seed: int | None = None,
    scale: float | None = None,
) -> MigrationScenario:
    """Config dict -> concrete scenario, in one walk that checks every field.

    The cost model and the default processing cap come from
    ``calibration`` unless the config carries an inline cost model.  With
    ``calibration=None`` the config is only checked, and a config without
    an inline cost model yields a scenario without one.
    """
    _reject_unknown(data, _TOP_FIELDS, "scenario")
    kind = _choice(Virtualization, data.get("virtualization", "container"),
                   "scenario.virtualization")
    mode = _choice(MigrationMode, data.get("mode", "three_layer"), "scenario.mode")
    spec = container_spec() if kind is Virtualization.CONTAINER else vm_spec()
    spec = _record(GuestSpec, data.get("guest", {}), "scenario.guest", base=spec,
                   exclude={"virtualization"})

    profile = data.get("profile", "No Application")
    if isinstance(profile, str):
        try:
            app = profile_by_name(profile)
        except KeyError as exc:
            raise ConfigError(f"scenario.profile: {exc.args[0]}") from None
    elif isinstance(profile, dict):
        app = _record(AppProfile, profile, "scenario.profile")
        for name in ("install_bytes", "memory_wire_ratio"):
            if kind not in getattr(app, name):
                raise ConfigError(f"scenario.profile.{name} has no {kind.value!r} entry")
    else:
        raise ConfigError("scenario.profile must be a name or an inline profile object")

    destination = _record(
        DestinationState, data.get("destination", {}), "scenario.destination",
        base=DestinationState(has_base=True, has_app=mode is MigrationMode.THREE_LAYER),
    )

    cap = float("inf")
    cost_model = None
    if data.get("cost_model") is not None:
        cost_model = _record(CostModel, data["cost_model"], "scenario.cost_model")
    elif calibration is not None:
        cost_model, cap = calibrated(calibration, kind)

    link = data.get("link", {})
    _reject_unknown(link, _LINK_FIELDS, "scenario.link")
    link = {key: _value(value, "int" if key == "seed" else "float", f"scenario.link.{key}")
            for key, value in link.items() if not (key == "processing_cap_mbps" and value is None)}
    if "processing_cap_mbps" in link:
        cap = link["processing_cap_mbps"] * MB
    link = _build(
        "scenario.link", LinkSpec,
        bandwidth_bps=link.get("bandwidth_mbps", 100.0) * MB,
        latency_s=link.get("latency_ms", 0.0) / 1e3,
        jitter_s=link.get("jitter_ms", 0.0) / 1e3,
        processing_cap_bps=cap,
        seed=link.get("seed", 0),
    )

    scalars = {key: _value(data[key], kind, f"scenario.{key}")
               for key, kind in SCENARIO_SCALARS.items() if key in data}
    if seed is not None:
        scalars["seed"] = seed
    if scale is not None:
        scalars["scale"] = scale
    return _build("scenario", MigrationScenario, guest_spec=spec, profile=app, mode=mode,
                  destination=destination, link=link, cost_model=cost_model, **scalars)


class ReferenceRecord(NamedTuple):
    """One measured number of the reference file.  A seconds metric
    names the stages whose seconds it sums (``summed_stages``)."""

    figure: str  # the reproduce CSV: "table1", "fig4", "fig5_ram" or "fig5_bandwidth"
    kind: Virtualization
    profile: str
    configuration: str  # a key of CONFIG_DESTS
    metric: str  # "total_s", "wire_mb", "downtime_s" or a Fig. 4 stage
    value: float
    x: float | None = None  # a Fig. 5 point's RAM in MB or bandwidth in Mbps

    def summed_stages(self, stages) -> list:
        """The stage records among ``stages`` that the metric sums, in
        their order: all of them for ``total_s``, the downtime stages for
        ``downtime_s``, else the one stage the metric names."""
        if self.metric == "total_s":
            return list(stages)
        if self.metric == "downtime_s":
            return [s for s in stages if s.stage in DOWNTIME_STAGES]
        return [s for s in stages if s.stage.value == self.metric]


def _walk(obj, keys, where: str, unread=()) -> list:
    """(key, value, path) for each of ``keys`` that the object ``obj``
    holds, in the order of ``keys``; any key but those and ``unread``
    is refused."""
    _reject_unknown(obj, (*keys, *unread), where)
    return [(key, obj[key], f"{where}.{key}") for key in keys if key in obj]


def _measured(value, where: str) -> float:
    if type(value) not in (int, float) or not 0 < value < math.inf:
        raise ConfigError(f"{where} must be a positive finite number")
    return float(value)


def _profiles(block, where: str, unread) -> list:
    """(kind, profile name, value, path) for each profile of a figure
    keyed by virtualization and profile name."""
    return [(Virtualization(kind), name, value, path)
            for kind, per_profile, kind_path in _walk(block, _KINDS, where, unread)
            for name, value, path in _walk(per_profile, _PROFILE_NAMES, kind_path)]


def _points(points, where: str) -> list[tuple[float, float]]:
    """A Fig. 5 sweep's (x, y) points."""
    if not isinstance(points, list):
        raise ConfigError(f"{where} must be a list of [x, y] points")
    for i, point in enumerate(points):
        if not (isinstance(point, list) and len(point) == 2):
            raise ConfigError(f"{where}[{i}] must be an [x, y] pair")
    return [(_measured(x, f"{where}[{i}][0]"), _measured(y, f"{where}[{i}][1]"))
            for i, (x, y) in enumerate(points)]


def read_reference(data) -> tuple[list[ReferenceRecord], dict[str, str]]:
    """The reference file's records, and its Fig. 4 stage labels."""
    if not isinstance(data, dict):
        raise ConfigError("reference data must be a JSON object")
    _reject_unknown(data, ("schema", "description", "table1", "fig4_stages", "fig5_sweeps",
                           "base_package"), "reference")
    records = []
    for kind, name, configs, where in _profiles(data.get("table1", {}), "reference.table1",
                                                ("description", "units")):
        for config, metrics, path in _walk(configs, CONFIG_DESTS, where):
            records += [ReferenceRecord("table1", kind, name, config, metric, _measured(v, w))
                        for metric, v, w in _walk(metrics, _TABLE1_METRICS, path)]
    fig4 = data.get("fig4_stages", {})
    for kind, name, stages, where in _profiles(fig4, "reference.fig4_stages",
                                               ("description", "scenario", "stage_labels")):
        records += [ReferenceRecord("fig4", kind, name, "three_layer_app_not_found", stage,
                                    _measured(v, w))
                    for stage, v, w in _walk(stages, _FIG4_STAGES, where)]
    labels = {stage: _value(label, "str", w) for stage, label, w in _walk(
        fig4.get("stage_labels", {}), _FIG4_STAGES, "reference.fig4_stages.stage_labels")}
    for sweep, per_kind, where in _walk(data.get("fig5_sweeps", {}), ("ram", "bandwidth"),
                                        "reference.fig5_sweeps", ("description",)):
        for kind, points, path in _walk(per_kind, _KINDS, where, ("units",)):
            records += [ReferenceRecord(f"fig5_{sweep}", Virtualization(kind), *_FIG5_MIGRATION,
                                        "total_s", y, x)
                        for x, y in sorted(_points(points, path))]
    return records, labels
