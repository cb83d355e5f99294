"""File formats: grid cases, partitions, measurement sets, run artifacts.

All structured documents are YAML.  Floats survive dump/load bit for bit:
the emitter writes shortest round-trip reprs and the loader parses them
back to the identical doubles, which the regression data relies on.
Run histories are CSV with one row per outer iteration, floats again as
exact reprs, so reruns with equal seeds produce byte-identical files.

The converter reads the classic whitespace bus/gen/branch tables (loads in
MW and MVAr on a stated system base) and produces a native per-unit case.
Shunt admittances and line charging fall outside the series-line model and
are dropped with a notice on stderr; transformer off-nominal ratios and
angle shifts are rejected outright because silently ignoring them would
change the network.
"""

from __future__ import annotations

import hashlib
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import grid
from . import measurements as measurements_mod
from .errors import EmptyRegion, ParseError, ValidationError

_BUS_FIELDS = ("id", "kind", "p_load", "q_load", "p_gen", "q_gen", "v_setpoint")
_LINE_FIELDS = ("from", "to", "r", "x")
# Common names of shunt-ish quantities people try to sneak into a case.
_SHUNT_FIELDS = ("g_shunt", "b_shunt", "gs", "bs", "shunt", "charging", "b_total")


def _load_yaml(path: str | Path):
    text = Path(path).read_text()
    if yaml.__with_libyaml__:
        # libyaml parses the same data several times faster but words its
        # errors differently, so a document it rejects is parsed again by
        # the pure-Python loader, whose error is the one reported.
        try:
            return yaml.load(text, Loader=yaml.CSafeLoader)
        except yaml.YAMLError:
            pass
    try:
        return yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        message = exc.problem or str(exc)
        if mark is not None:
            raise ParseError(message, line=mark.line + 1, column=mark.column + 1) from exc
        raise ParseError(message) from exc
    except yaml.YAMLError as exc:
        raise ParseError(str(exc)) from exc


def _dump_yaml(data, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(data, sort_keys=False))


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _require_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise ValidationError(f"{where} must be a list, got {type(obj).__name__}")
    return obj


def _number(entry: dict, field: str, where: str, default=None) -> float:
    if field not in entry:
        if default is None:
            raise ValidationError(f"{where}.{field} is required")
        return default
    return _as_number(entry[field], f"{where}.{field}")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return float(value)


def _number_list(entry: dict, field: str, where: str) -> list[float]:
    values = _require_list(entry.get(field), f"{where}.{field}")
    return [_as_number(value, f"{where}.{field}[{k}]") for k, value in enumerate(values)]


def _integer(entry: dict, field: str, where: str) -> int:
    if field not in entry:
        raise ValidationError(f"{where}.{field} is required")
    value = entry[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}.{field} must be an integer, got {value!r}")
    return value


def _reject_unknown(entry: dict, allowed, where: str) -> None:
    unknown = sorted(set(entry) - set(allowed))
    if not unknown:
        return
    shunts = [f for f in unknown if f in _SHUNT_FIELDS]
    if shunts:
        raise ValidationError(
            f"{where}.{shunts[0]}: shunt elements are outside the series-line model, "
            "remove them from the case"
        )
    raise ValidationError(f"{where}.{unknown[0]}: unknown field")


def case_from_mapping(data, where: str = "case") -> grid.GridCase:
    data = _require_mapping(data, where)
    _reject_unknown(data, ("name", "base_mva", "buses", "lines"), where)
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{where}.name must be a non-empty string")
    base_mva = _number(data, "base_mva", where)
    buses = []
    for i, entry in enumerate(_require_list(data.get("buses"), f"{where}.buses")):
        spot = f"{where}.buses[{i}]"
        entry = _require_mapping(entry, spot)
        _reject_unknown(entry, _BUS_FIELDS, spot)
        kind = entry.get("kind", "pq")
        if kind not in grid.BUS_KINDS:
            raise ValidationError(f"{spot}.kind must be one of {grid.BUS_KINDS}, got {kind!r}")
        buses.append(
            grid.Bus(
                id=_integer(entry, "id", spot),
                kind=kind,
                p_load=_number(entry, "p_load", spot, 0.0),
                q_load=_number(entry, "q_load", spot, 0.0),
                p_gen=_number(entry, "p_gen", spot, 0.0),
                q_gen=_number(entry, "q_gen", spot, 0.0),
                v_setpoint=_number(entry, "v_setpoint", spot, 1.0),
            )
        )
    lines = []
    for i, entry in enumerate(_require_list(data.get("lines"), f"{where}.lines")):
        spot = f"{where}.lines[{i}]"
        entry = _require_mapping(entry, spot)
        _reject_unknown(entry, _LINE_FIELDS, spot)
        lines.append(
            grid.Line(
                from_bus=_integer(entry, "from", spot),
                to_bus=_integer(entry, "to", spot),
                r=_number(entry, "r", spot),
                x=_number(entry, "x", spot),
            )
        )
    return grid.GridCase(name=name, base_mva=base_mva, buses=tuple(buses), lines=tuple(lines))


def load_case(path: str | Path) -> grid.GridCase:
    return case_from_mapping(_load_yaml(path), where=str(path))


def case_to_mapping(case: grid.GridCase) -> dict:
    # float() strips numpy scalars, which the YAML emitter refuses.
    return {
        "name": case.name,
        "base_mva": float(case.base_mva),
        "buses": [
            {
                "id": int(bus.id),
                "kind": bus.kind,
                "p_load": float(bus.p_load),
                "q_load": float(bus.q_load),
                "p_gen": float(bus.p_gen),
                "q_gen": float(bus.q_gen),
                "v_setpoint": float(bus.v_setpoint),
            }
            for bus in case.buses
        ],
        "lines": [
            {"from": int(line.from_bus), "to": int(line.to_bus), "r": float(line.r), "x": float(line.x)}
            for line in case.lines
        ],
    }


def dump_case(case: grid.GridCase, path: str | Path) -> None:
    _dump_yaml(case_to_mapping(case), path)


def load_partition_spec(path: str | Path) -> tuple[str, dict[int, str]]:
    """Read a region assignment: name plus bus id -> region label."""
    where = str(path)
    data = _require_mapping(_load_yaml(path), where)
    _reject_unknown(data, ("name", "regions"), where)
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{where}.name must be a non-empty string")
    regions = _require_mapping(data.get("regions"), f"{where}.regions")
    if not regions:
        raise EmptyRegion(f"{where}.regions is empty")
    assignment: dict[int, str] = {}
    # Labels are compared as text, so 1 and "1" would merge two regions.
    seen: dict[str, object] = {}
    for label, members in regions.items():
        if str(label) in seen:
            raise ValidationError(
                f"{where}.regions: labels {seen[str(label)]!r} and {label!r} name the same region"
            )
        seen[str(label)] = label
        label = str(label)
        members = _require_list(members, f"{where}.regions[{label}]")
        if not members:
            raise EmptyRegion(f"{where}.regions[{label}] assigns no buses")
        for bus_id in members:
            if isinstance(bus_id, bool) or not isinstance(bus_id, int):
                raise ValidationError(
                    f"{where}.regions[{label}] entries must be bus ids, got {bus_id!r}"
                )
            if bus_id in assignment:
                raise ValidationError(
                    f"{where}: bus {bus_id} appears in regions "
                    f"{assignment[bus_id]!r} and {label!r}"
                )
            assignment[bus_id] = label
    return name, assignment


def dump_partition_spec(name: str, assignment: dict[int, str], path: str | Path) -> None:
    regions: dict[str, list[int]] = {}
    for bus_id in sorted(assignment):
        regions.setdefault(str(assignment[bus_id]), []).append(bus_id)
    _dump_yaml({"name": name, "regions": regions}, path)


def save_measurements(
    mset: measurements_mod.MeasurementSet, path: str | Path, meta: dict | None = None
) -> None:
    data = {
        "meta": dict(meta or {}),
        "nodes": [
            {
                "id": int(bus_id),
                "values": [float(v) for v in mset.node_values[i]],
                "weights": [float(w) for w in mset.node_weights[i]],
            }
            for i, bus_id in enumerate(mset.node_ids)
        ],
        "lines": [
            {
                "from": int(k),
                "to": int(l),
                "values": [float(v) for v in mset.line_values[j]],
                "weights": [float(w) for w in mset.line_weights[j]],
            }
            for j, (k, l) in enumerate(mset.line_ends)
        ],
    }
    _dump_yaml(data, path)


def load_measurements(path: str | Path) -> tuple[measurements_mod.MeasurementSet, dict]:
    where = str(path)
    data = _require_mapping(_load_yaml(path), where)
    _reject_unknown(data, ("meta", "nodes", "lines"), where)
    meta = data.get("meta") or {}
    node_ids, node_values, node_weights = [], [], []
    for i, entry in enumerate(_require_list(data.get("nodes"), f"{where}.nodes")):
        spot = f"{where}.nodes[{i}]"
        entry = _require_mapping(entry, spot)
        _reject_unknown(entry, ("id", "values", "weights"), spot)
        node_ids.append(_integer(entry, "id", spot))
        values = _number_list(entry, "values", spot)
        weights = _number_list(entry, "weights", spot)
        if len(values) != 4 or len(weights) != 4:
            raise ValidationError(f"{spot}: values and weights must have 4 entries")
        node_values.append(values)
        node_weights.append(weights)
    line_ends, line_values, line_weights = [], [], []
    for j, entry in enumerate(_require_list(data.get("lines", []), f"{where}.lines")):
        spot = f"{where}.lines[{j}]"
        entry = _require_mapping(entry, spot)
        _reject_unknown(entry, ("from", "to", "values", "weights"), spot)
        line_ends.append((_integer(entry, "from", spot), _integer(entry, "to", spot)))
        values = _number_list(entry, "values", spot)
        weights = _number_list(entry, "weights", spot)
        if len(values) != 3 or len(weights) != 3:
            raise ValidationError(f"{spot}: values and weights must have 3 entries")
        line_values.append(values)
        line_weights.append(weights)
    mset = measurements_mod.MeasurementSet(
        node_ids=tuple(node_ids),
        node_values=np.array(node_values, dtype=float).reshape(len(node_ids), 4),
        node_weights=np.array(node_weights, dtype=float).reshape(len(node_ids), 4),
        line_ends=tuple(line_ends),
        line_values=np.array(line_values, dtype=float).reshape(len(line_ends), 3),
        line_weights=np.array(line_weights, dtype=float).reshape(len(line_ends), 3),
    )
    return mset, meta


def parse_tables(text: str) -> dict:
    """Split classic bus/gen/branch tables into numeric rows per section."""
    base_mva = None
    sections: dict[str, list[list[float]]] = {"bus": [], "gen": [], "branch": []}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in sections:
                raise ParseError(f"unknown section {current!r}", line=lineno)
            continue
        if line.lower().startswith("base_mva"):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("base_mva expects exactly one value", line=lineno)
            try:
                base_mva = float(parts[1])
            except ValueError:
                base_mva = math.nan
            if not 0.0 < base_mva < math.inf:
                raise ParseError(f"base_mva must be a finite number > 0, got {parts[1]!r}", line=lineno)
            continue
        if current is None:
            raise ParseError(f"data before any section header: {line!r}", line=lineno)
        try:
            sections[current].append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise ParseError(f"non-numeric table entry: {exc}", line=lineno) from exc
    if base_mva is None:
        raise ParseError("missing base_mva line")
    if not sections["bus"]:
        raise ParseError("missing [bus] section")
    return {"base_mva": base_mva, **sections}


_TYPE_TO_KIND = {3: "slack", 2: "pv", 1: "pq"}


def convert_tables(text: str, name: str) -> grid.GridCase:
    """Turn MW-scaled tables into a native per-unit series-line case."""
    tables = parse_tables(text)
    base = tables["base_mva"]
    dropped_shunts = []
    buses: dict[int, dict] = {}
    for row in tables["bus"]:
        if len(row) < 13:
            raise ParseError(f"bus row needs 13 columns, got {len(row)}")
        bus_id, bus_type = int(row[0]), int(row[1])
        if bus_type not in _TYPE_TO_KIND:
            raise ValidationError(f"bus {bus_id}: unsupported type {bus_type}")
        if row[4] != 0.0 or row[5] != 0.0:
            dropped_shunts.append(f"bus {bus_id} shunt Gs={row[4]} Bs={row[5]}")
        buses[bus_id] = {
            "kind": _TYPE_TO_KIND[bus_type],
            "p_load": row[2] / base,
            "q_load": row[3] / base,
            "p_gen": 0.0,
            "q_gen": 0.0,
            "v_setpoint": float(row[7]) if row[7] > 0.0 else 1.0,
        }
    for row in tables["gen"]:
        if len(row) < 8:
            raise ParseError(f"gen row needs at least 8 columns, got {len(row)}")
        bus_id, status = int(row[0]), int(row[7])
        if bus_id not in buses:
            raise ValidationError(f"generator references unknown bus {bus_id}")
        if status == 0:
            continue
        buses[bus_id]["p_gen"] += row[1] / base
        buses[bus_id]["q_gen"] += row[2] / base
        if row[5] > 0.0:
            buses[bus_id]["v_setpoint"] = float(row[5])
    dropped_charging = 0
    lines = []
    for row in tables["branch"]:
        if len(row) < 11:
            raise ParseError(f"branch row needs at least 11 columns, got {len(row)}")
        from_bus, to_bus = int(row[0]), int(row[1])
        if int(row[10]) == 0:
            continue
        if row[8] != 0.0 or row[9] != 0.0:
            raise ValidationError(
                f"branch {from_bus}-{to_bus}: off-nominal ratio or phase shift "
                "is not representable as a series line"
            )
        if row[4] != 0.0:
            dropped_charging += 1
        lines.append(grid.Line(from_bus=from_bus, to_bus=to_bus, r=row[2], x=row[3]))
    if dropped_shunts:
        print(
            f"note: dropped {len(dropped_shunts)} bus shunt(s) outside the series-line "
            f"model: {'; '.join(dropped_shunts)}",
            file=sys.stderr,
        )
    if dropped_charging:
        print(
            f"note: dropped line charging on {dropped_charging} branch(es)",
            file=sys.stderr,
        )
    return grid.GridCase(
        name=name,
        base_mva=base,
        buses=tuple(grid.Bus(id=b, **fields) for b, fields in buses.items()),
        lines=tuple(lines),
    )


def config_hash(config: dict) -> str:
    """Short stable digest of a config mapping, for run provenance."""
    canonical = yaml.safe_dump(config, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


HISTORY_COLUMNS = (
    "iteration",
    "consensus_violation",
    "step_norm",
    "objective",
    "state_error",
    "inner_iterations",
    "upload_floats",
    "download_floats",
    "regularized",
    "note",
)


def history_row(rec) -> str:
    """Serialize one iteration record as a CSV row (floats as exact reprs)."""
    return ",".join(
        [
            str(rec.iteration),
            repr(float(rec.consensus_violation)),
            repr(float(rec.step_norm)),
            repr(float(rec.objective)),
            repr(float(rec.state_error)),
            "|".join(str(int(n)) for n in rec.inner_iterations),
            str(rec.upload_floats),
            str(rec.download_floats),
            str(int(rec.regularized)),
            rec.note.replace(",", ";"),
        ]
    )


def meta_lines(meta: dict | None) -> list[str]:
    """The provenance header of a text output, one `# key: value` line per key, sorted."""
    return [f"# {key}: {value}" for key, value in sorted((meta or {}).items())]


def write_history_csv(path: str | Path, records, meta: dict | None = None) -> None:
    """One row per outer iteration, fully deterministic."""
    out = meta_lines(meta)
    out.append(",".join(HISTORY_COLUMNS))
    for rec in records:
        out.append(history_row(rec))
    Path(path).write_text("\n".join(out) + "\n")


def write_summary(path: str | Path, summary: dict) -> None:
    _dump_yaml(summary, path)


BUILTIN_CASES = {
    "ieee30": "ieee30_case.yaml",
    "six_bus": "six_bus_case.yaml",
    "twelve_bus": "twelve_bus_case.yaml",
}

BUILTIN_PARTITIONS = {
    "default4": "partition30_default4.yaml",
    "six2": "partition6_two.yaml",
    "twelve3": "partition12_three.yaml",
}


def _data_path(filename: str) -> Path:
    return Path(str(resources.files("gridest") / "data" / filename))


def builtin_case(name: str) -> grid.GridCase:
    if name not in BUILTIN_CASES:
        raise ValidationError(
            f"unknown builtin case {name!r}, available: {sorted(BUILTIN_CASES)}"
        )
    return load_case(_data_path(BUILTIN_CASES[name]))


def builtin_partition_spec(name: str) -> tuple[str, dict[int, str]]:
    if name not in BUILTIN_PARTITIONS:
        raise ValidationError(
            f"unknown builtin partition {name!r}, available: {sorted(BUILTIN_PARTITIONS)}"
        )
    return load_partition_spec(_data_path(BUILTIN_PARTITIONS[name]))
