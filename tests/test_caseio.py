from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
import yaml

from gridest import caseio, cli, grid, measurements
from gridest.errors import EmptyRegion, ParseError, ValidationError

MINI_TABLES = """\
base_mva 100.0
[bus]
# id type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin
1 3  0.0  0.0 0 0 1 1.02 0 132 1 1.06 0.94
2 1 21.7 12.7 0 0 1 1.00 0 132 1 1.06 0.94
3 1  5.0  2.0 0 0 1 1.00 0 132 1 1.06 0.94
[gen]
# bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin
1 30.0 5.0 50 -40 1.02 100 1 80 0
[branch]
# from to r x b rateA rateB rateC ratio angle status
1 2 0.02 0.06 0.03 130 130 130 0 0 1
2 3 0.05 0.19 0.0  130 130 130 0 0 1
"""


# ---------------------------------------------------------------------------
# case round trips

def test_case_yaml_roundtrip_is_bit_exact(case30, tmp_path):
    path = tmp_path / "case.yaml"
    caseio.dump_case(case30, path)
    back = caseio.load_case(path)
    assert back == case30
    for a, b in zip(back.buses, case30.buses):
        assert a.p_load == b.p_load and a.q_load == b.q_load
        assert a.p_gen == b.p_gen and a.v_setpoint == b.v_setpoint
    for a, b in zip(back.lines, case30.lines):
        assert a.r == b.r and a.x == b.x


def test_awkward_floats_survive_the_roundtrip(tmp_path):
    # Shortest-repr emission must reparse to the identical doubles.
    values = [0.1, 1 / 3, np.nextafter(1.0, 2.0), 1e-300, 123456.789012345]
    case = grid.GridCase(
        "awkward", 100.0,
        (grid.Bus(1, "slack"), grid.Bus(2, "pq", p_load=values[0], q_load=values[1])),
        (grid.Line(1, 2, values[2], values[3] + 0.1),),
    )
    path = tmp_path / "case.yaml"
    caseio.dump_case(case, path)
    back = caseio.load_case(path)
    assert back.bus(2).p_load == case.bus(2).p_load
    assert back.bus(2).q_load == case.bus(2).q_load
    assert back.lines[0].r == case.lines[0].r
    assert back.lines[0].x == case.lines[0].x


def test_builtin_registries():
    assert set(caseio.BUILTIN_CASES) == {"ieee30", "six_bus", "twelve_bus"}
    assert set(caseio.BUILTIN_PARTITIONS) == {"default4", "six2", "twelve3"}
    case = caseio.builtin_case("ieee30")
    assert case.n_bus == 30 and len(case.lines) == 41
    with pytest.raises(ValidationError):
        caseio.builtin_case("ieee118")
    with pytest.raises(ValidationError):
        caseio.builtin_partition_spec("nope")


def test_malformed_yaml_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("name: ok\nbuses:\n  - id: 1\n bad_indent: {\n")
    with pytest.raises(ParseError) as err:
        caseio.load_case(path)
    assert err.value.line is not None


# Bus 2 overrides a merged p_load, as YAML merge keys allow; bus 3 repeats one.
REPEATED_KEY_CASE = """\
name: repeats
base_mva: 100.0
load: &load {kind: pq, p_load: 0.5}
buses:
- {id: 1, kind: slack}
- {<<: *load, id: 2, p_load: 0.2}
- {id: 3, p_load: 0.5, p_load: 0.1}
lines:
- {from: 1, to: 2, r: 0.1, x: 0.2}
"""


@pytest.mark.parametrize("load, text, line", [
    (caseio.load_case, REPEATED_KEY_CASE, 7),
    (caseio.load_partition_spec, "name: p\nregions:\n  a: [1, 2]\n  b: [3]\n  a: [4]\n", 5),
    (caseio.load_measurements, "meta: {seed: 1}\nnodes: []\nlines: []\nmeta: {seed: 2}\n", 4),
], ids=["case", "partition", "measurements"])
def test_a_repeated_key_raises_parse_error_at_its_line(monkeypatch, tmp_path, load, text, line):
    path = tmp_path / "repeats.yaml"
    path.write_text(text)
    messages = []
    for with_libyaml in (yaml.__with_libyaml__, False):
        monkeypatch.setattr(yaml, "__with_libyaml__", with_libyaml)
        with pytest.raises(ParseError, match="repeated key") as err:
            load(path)
        assert err.value.line == line
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_the_pure_python_loader_reads_the_same_data_and_errors(monkeypatch, tmp_path):
    broken = tmp_path / "broken.yaml"
    broken.write_text("name: ok\nbuses: [1, 2\n  x: 3\n")
    results = []
    for with_libyaml in (yaml.__with_libyaml__, False):
        monkeypatch.setattr(yaml, "__with_libyaml__", with_libyaml)
        with pytest.raises(ParseError) as err:
            caseio.load_case(broken)
        results.append((caseio.builtin_case("ieee30"), caseio.builtin_partition_spec("default4"), str(err.value)))
    assert results[0] == results[1]


def test_shunt_fields_are_rejected_with_guidance(tmp_path):
    path = tmp_path / "shunty.yaml"
    path.write_text(
        "name: s\nbase_mva: 100.0\n"
        "buses:\n- id: 1\n  kind: slack\n- id: 2\n  b_shunt: 0.04\n"
        "lines:\n- {from: 1, to: 2, r: 0.1, x: 0.2}\n"
    )
    with pytest.raises(ValidationError, match="shunt"):
        caseio.load_case(path)


def test_unknown_fields_are_rejected(tmp_path):
    path = tmp_path / "odd.yaml"
    path.write_text(
        "name: s\nbase_mva: 100.0\n"
        "buses:\n- id: 1\n  kind: slack\n  color: red\n"
        "lines: []\n"
    )
    with pytest.raises(ValidationError, match="unknown field"):
        caseio.load_case(path)


# ---------------------------------------------------------------------------
# partition specs

def test_partition_spec_roundtrip(tmp_path):
    path = tmp_path / "part.yaml"
    assignment = {1: "a", 2: "a", 3: "b"}
    caseio.dump_partition_spec("demo", assignment, path)
    name, back = caseio.load_partition_spec(path)
    assert name == "demo"
    assert back == assignment


def test_partition_spec_errors(tmp_path):
    path = tmp_path / "p.yaml"
    path.write_text("name: p\nregions:\n  a: []\n")
    with pytest.raises(EmptyRegion):
        caseio.load_partition_spec(path)
    path.write_text("name: p\nregions: {}\n")
    with pytest.raises(EmptyRegion):
        caseio.load_partition_spec(path)
    path.write_text("name: p\nregions:\n  a: [1, 2]\n  b: [2]\n")
    with pytest.raises(ValidationError, match="appears in regions"):
        caseio.load_partition_spec(path)
    path.write_text("name: p\nregions:\n  a: [one]\n")
    with pytest.raises(ValidationError):
        caseio.load_partition_spec(path)


def test_partition_labels_that_read_alike_are_rejected(tmp_path):
    path = tmp_path / "p.yaml"
    path.write_text("name: p\nregions:\n  1: [1, 2]\n  '1': [3]\n")
    with pytest.raises(ValidationError, match="labels 1 and '1' name the same region"):
        caseio.load_partition_spec(path)


# ---------------------------------------------------------------------------
# measurements

def test_measurements_roundtrip_with_meta(case6, truth6, tmp_path):
    mset = measurements.simulate_measurements(case6, truth6, rng=11)
    path = tmp_path / "m.yaml"
    caseio.save_measurements(mset, path, meta={"seed": 11, "tool": "t 0"})
    back, meta = caseio.load_measurements(path)
    assert meta == {"seed": 11, "tool": "t 0"}
    assert back.node_ids == mset.node_ids
    assert np.array_equal(back.node_values, mset.node_values)
    assert np.array_equal(back.node_weights, mset.node_weights)
    assert back.line_ends == mset.line_ends
    assert np.array_equal(back.line_values, mset.line_values)


def test_measurements_loader_validates_shapes(tmp_path):
    path = tmp_path / "m.yaml"
    path.write_text(
        "meta: {}\nnodes:\n- id: 1\n  values: [0.0, 1.0]\n  weights: [1, 1, 1, 1]\n"
    )
    with pytest.raises(ValidationError, match="4 entries"):
        caseio.load_measurements(path)


@pytest.mark.parametrize("meta", ["[1, 2]", "hello"], ids=["list", "string"])
def test_measurements_loader_requires_a_meta_mapping(tmp_path, meta):
    path = tmp_path / "m.yaml"
    path.write_text(f"meta: {meta}\nnodes: []\n")
    with pytest.raises(ValidationError, match=re.escape("m.yaml.meta must be a mapping")):
        caseio.load_measurements(path)


@pytest.mark.parametrize("meta", ["", "meta: null\n"], ids=["missing", "null"])
def test_measurements_loader_reads_no_meta_as_empty(tmp_path, meta):
    path = tmp_path / "m.yaml"
    path.write_text(meta + "nodes: []\n")
    assert caseio.load_measurements(path)[1] == {}


@pytest.mark.parametrize("bad", ['"0.5"', "true"], ids=["string", "boolean"])
@pytest.mark.parametrize(
    "entry, spot",
    [
        ("nodes:\n- id: 1\n  values: [0.0, 1.0, {bad}, 0.0]\n  weights: [1, 1, 1, 1]\n", "nodes[0].values[2]"),
        ("nodes:\n- id: 1\n  values: [0.0, 1.0, 0.0, 0.0]\n  weights: [1, {bad}, 1, 1]\n", "nodes[0].weights[1]"),
        ("nodes: []\nlines:\n- from: 1\n  to: 2\n  values: [{bad}, 0.0, 0.0]\n  weights: [1, 1, 1]\n",
         "lines[0].values[0]"),
        ("nodes: []\nlines:\n- from: 1\n  to: 2\n  values: [0.0, 0.0, 0.0]\n  weights: [1, 1, {bad}]\n",
         "lines[0].weights[2]"),
    ],
    ids=["node-value", "node-weight", "line-value", "line-weight"],
)
def test_measurements_loader_rejects_non_numbers(tmp_path, entry, spot, bad):
    # Neither a string nor a YAML boolean may load as a measurement value.
    path = tmp_path / "m.yaml"
    path.write_text("meta: {}\n" + entry.format(bad=bad))
    with pytest.raises(ValidationError, match=re.escape(f"m.yaml.{spot} must be a number")):
        caseio.load_measurements(path)


@pytest.mark.parametrize("bad", [".nan", ".inf", "-.inf"])
def test_case_loader_rejects_non_finite_numbers(tmp_path, bad):
    path = tmp_path / "c.yaml"
    caseio.dump_case(caseio.builtin_case("six_bus"), path)
    path.write_text(path.read_text().replace("p_load: 0.25", f"p_load: {bad}", 1))
    with pytest.raises(ValidationError, match=re.escape("c.yaml.buses[1].p_load must be finite")):
        caseio.load_case(path)


# ---------------------------------------------------------------------------
# table converter

def test_convert_tables_scales_loads_to_per_unit(capsys):
    case = caseio.convert_tables(MINI_TABLES, "mini")
    assert case.n_bus == 3
    assert case.bus(1).kind == "slack"
    assert case.bus(2).p_load == pytest.approx(0.217)
    assert case.bus(2).q_load == pytest.approx(0.127)
    assert case.bus(1).p_gen == pytest.approx(0.30)
    assert case.bus(1).v_setpoint == pytest.approx(1.02)
    assert [line.key() for line in case.lines] == [(1, 2), (2, 3)]
    note = capsys.readouterr().err
    assert "charging on 1 branch" in note


def test_convert_tables_rejects_off_nominal_ratio():
    bad = MINI_TABLES.replace("1 2 0.02 0.06 0.03 130 130 130 0 0 1",
                              "1 2 0.02 0.06 0.03 130 130 130 0.978 0 1")
    with pytest.raises(ValidationError, match="ratio or phase shift"):
        caseio.convert_tables(bad, "mini")


def test_convert_tables_skips_out_of_service_branches():
    off = MINI_TABLES.replace("2 3 0.05 0.19 0.0  130 130 130 0 0 1",
                              "2 3 0.05 0.19 0.0  130 130 130 0 0 0")
    case = caseio.convert_tables(off, "mini")
    assert [line.key() for line in case.lines] == [(1, 2)]


NON_INTEGRAL_ENTRIES = [
    ("2 1 21.7", "2.5 1 21.7", "bus row 2, column 1", "2.5"),
    ("3 1  5.0", "3 1.5  5.0", "bus row 3, column 2", "1.5"),
    ("1 30.0 5.0", "1.5 30.0 5.0", "gen row 1, column 1", "1.5"),
    ("100 1 80 0", "100 0.5 80 0", "gen row 1, column 8", "0.5"),
    ("1 2 0.02", "1.5 2 0.02", "branch row 1, column 1", "1.5"),
    ("2 3 0.05", "2 3.5 0.05", "branch row 2, column 2", "3.5"),
    ("0.19 0.0  130 130 130 0 0 1", "0.19 0.0  130 130 130 0 0 0.5", "branch row 2, column 11", "0.5"),
]


@pytest.mark.parametrize("old, new, spot, value", NON_INTEGRAL_ENTRIES,
                         ids=["bus-id", "bus-type", "gen-bus", "gen-status", "branch-from", "branch-to",
                              "branch-status"])
def test_convert_tables_rejects_non_integral_ids_types_and_statuses(tmp_path, capsys, old, new, spot, value):
    assert MINI_TABLES.count(old) == 1
    bad = MINI_TABLES.replace(old, new)
    with pytest.raises(ParseError, match=re.escape(f"{spot}: expected an integer, got {value}")):
        caseio.convert_tables(bad, "mini")
    tables = tmp_path / "mini.txt"
    tables.write_text(bad)
    assert cli.main(["convert", str(tables), str(tmp_path / "mini.yaml")]) == 2
    assert spot in capsys.readouterr().err
    assert not (tmp_path / "mini.yaml").exists()


def test_convert_tables_rejects_a_duplicate_bus_id(tmp_path, capsys):
    # A second row for bus 2 used to replace the first, and its load with it.
    bad = MINI_TABLES.replace("3 1  5.0", "2 1  5.0")
    with pytest.raises(ValidationError, match="bus row 3: bus id 2 appears twice"):
        caseio.convert_tables(bad, "mini")
    tables = tmp_path / "mini.txt"
    tables.write_text(bad)
    assert cli.main(["convert", str(tables), str(tmp_path / "mini.yaml")]) == 2
    assert "bus id 2 appears twice" in capsys.readouterr().err
    assert not (tmp_path / "mini.yaml").exists()


@pytest.mark.parametrize("old, new, spot, line", [
    ("1 1.02 0 132", "1 nan 0 132", "bus table, column 8", 4),
    ("-40 1.02 100", "-40 nan 100", "gen table, column 6", 9),
    ("0.03 130", "inf 130", "branch table, column 5", 12),
    ("130 0 0 1\n2 3", "130 -inf 0 1\n2 3", "branch table, column 9", 12),
], ids=["bus-vm", "gen-vg", "branch-charging", "branch-ratio"])
def test_convert_tables_rejects_a_non_finite_entry_with_its_line(tmp_path, capsys, old, new, spot, line):
    """A NaN voltage magnitude or setpoint used to fail its > 0 test and
    leave the bus at v_setpoint 1.0."""
    assert MINI_TABLES.count(old) == 1
    bad = MINI_TABLES.replace(old, new)
    with pytest.raises(ParseError, match=f"{spot}: expected a finite number") as err:
        caseio.convert_tables(bad, "mini")
    assert err.value.line == line
    tables = tmp_path / "mini.txt"
    tables.write_text(bad)
    assert cli.main(["convert", str(tables), str(tmp_path / "mini.yaml")]) == 2
    assert f"(line {line})" in capsys.readouterr().err
    assert not (tmp_path / "mini.yaml").exists()


def test_convert_tables_accepts_integral_floats():
    written = MINI_TABLES.replace("1 2 0.02", "1.0 2.0 0.02").replace("130 0 0 1\n2 3", "130 0 0 1.0\n2 3")
    assert written != MINI_TABLES
    case = caseio.convert_tables(written, "mini")
    assert case == caseio.convert_tables(MINI_TABLES, "mini")


def test_convert_tables_parse_errors():
    with pytest.raises(ParseError, match="base_mva"):
        caseio.parse_tables("[bus]\n1 3 0 0 0 0 1 1 0 132 1 1.06 0.94\n")
    with pytest.raises(ParseError) as err:
        caseio.parse_tables("base_mva 100\n[bus]\n1 x 0\n")
    assert err.value.line == 3
    with pytest.raises(ParseError, match="before any section"):
        caseio.parse_tables("base_mva 100\n1 2 3\n")
    with pytest.raises(ParseError, match="unknown section"):
        caseio.parse_tables("base_mva 100\n[load]\n")
    for bad in ("abc", "0", "-100", "inf", "nan"):
        with pytest.raises(ParseError, match="base_mva must be a finite number > 0") as err:
            caseio.convert_tables(f"# tables\nbase_mva {bad}\n[bus]\n1 3 0 0 0 0 1 1 0 132 1 1.06 0.94\n", "t")
        assert err.value.line == 2


def test_converted_bundled_tables_match_the_bundled_case(case30):
    from importlib import resources

    text = (resources.files("gridest") / "data" / "ieee30_tables.txt").read_text()
    converted = caseio.convert_tables(text, "ieee30")
    assert converted.bus_ids == case30.bus_ids
    for a, b in zip(converted.buses, case30.buses):
        assert a.kind == b.kind
        assert a.p_load == pytest.approx(b.p_load, abs=1e-12)
        assert a.p_gen == pytest.approx(b.p_gen, abs=1e-12)
        assert a.v_setpoint == pytest.approx(b.v_setpoint, abs=1e-12)
    for a, b in zip(converted.lines, case30.lines):
        assert a.key() == b.key()
        assert a.r == pytest.approx(b.r, abs=1e-15)
        assert a.x == pytest.approx(b.x, abs=1e-15)


# ---------------------------------------------------------------------------
# run artifacts

def _records():
    rec = dataclasses.make_dataclass(
        "Rec",
        [
            "iteration", "consensus_violation", "step_norm", "objective",
            "state_error", "inner_iterations", "upload_floats",
            "download_floats", "regularized", "note",
        ],
    )
    return [
        rec(1, 0.25, 1.5, 100.0, 0.3, (5, 4), 800, 40, False, ""),
        rec(2, 1e-9 + 1e-17, 0.01, 99.5, 0.01, (3, 3), 800, 0, True, "ridge, retried"),
    ]


def test_history_csv_is_deterministic_and_escapes_commas(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    meta = {"seed": 7, "tool": "x 1.0"}
    caseio.write_history_csv(p1, _records(), meta)
    caseio.write_history_csv(p2, _records(), meta)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    lines = text.splitlines()
    assert lines[0] == "# seed: 7"
    assert lines[1] == "# tool: x 1.0"
    assert lines[2] == ",".join(caseio.HISTORY_COLUMNS)
    assert "ridge; retried" in lines[4]
    # Exact repr floats: parsing the cell back gives the identical double.
    cell = lines[4].split(",")[1]
    assert float(cell) == 1e-9 + 1e-17


def test_config_hash_is_stable_and_order_insensitive():
    a = caseio.config_hash({"rho": 1e4, "eps": 1e-4, "seed": 7})
    b = caseio.config_hash({"seed": 7, "eps": 1e-4, "rho": 1e4})
    assert a == b
    assert len(a) == 12 and all(c in "0123456789abcdef" for c in a)
    assert caseio.config_hash({"rho": 1e4}) != caseio.config_hash({"rho": 2e4})


def test_write_summary_roundtrip(tmp_path):
    import yaml

    path = tmp_path / "s.yaml"
    caseio.write_summary(path, {"converged": True, "final": 1e-7})
    data = yaml.safe_load(path.read_text())
    assert data == {"converged": True, "final": 1e-7}
