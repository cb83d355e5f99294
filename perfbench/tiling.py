"""Deterministic tiled grids built from copies of the bundled ieee30 case.

Tile t holds a copy of every ieee30 bus with id 30 t + k and a copy of every
line.  Only tile 0 keeps its slack bus; the slack bus of every other tile
becomes a PV bus with the same generation and setpoint.  Consecutive tiles
are joined by the three tie lines of TIES, so a chain of K tiles has
3 (K - 1) tie lines.  Each tile is one region, and the partition cuts
exactly the tie lines.

Run as a script to print the counts of a tiled grid:

    python3 perfbench/tiling.py 16
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gridest import caseio, grid, partition, powerflow  # noqa: E402

TILE_BUSES = 30
# (bus in tile t, bus in tile t + 1, r, x): PQ buses, so no setpoint is tied
# to another tile's, with an impedance of the order of ieee30's own lines.
TIES = ((10, 3, 0.05, 0.15), (19, 6, 0.05, 0.15), (30, 4, 0.05, 0.15))


def tiled_case(n_tiles: int) -> grid.GridCase:
    """n_tiles copies of ieee30 chained by TIES; one slack bus in all."""
    if n_tiles < 1:
        raise ValueError(f"need at least one tile, got {n_tiles}")
    base = caseio.builtin_case("ieee30")
    if base.n_bus != TILE_BUSES or base.bus_ids != tuple(range(1, TILE_BUSES + 1)):
        raise ValueError("ieee30 no longer has buses 1..30")
    buses = []
    lines = []
    for t in range(n_tiles):
        offset = TILE_BUSES * t
        for bus in base.buses:
            kind = "pv" if bus.kind == "slack" and t > 0 else bus.kind
            buses.append(dataclasses.replace(bus, id=bus.id + offset, kind=kind))
        for line in base.lines:
            lines.append(dataclasses.replace(
                line, from_bus=line.from_bus + offset, to_bus=line.to_bus + offset))
        if t + 1 < n_tiles:
            for low, high, r, x in TIES:
                lines.append(grid.Line(low + offset, high + offset + TILE_BUSES, r, x))
    return grid.GridCase(
        name=f"ieee30x{n_tiles}", base_mva=base.base_mva, buses=tuple(buses), lines=tuple(lines)
    )


def tile_assignment(case: grid.GridCase) -> dict[int, int]:
    """One region per tile."""
    return {bus_id: (bus_id - 1) // TILE_BUSES for bus_id in case.bus_ids}


def check_tiling(case: grid.GridCase, part: partition.Partition, n_tiles: int) -> None:
    """Raise ValueError unless the grid has the shape tiled_case promises."""
    n_slack = sum(bus.kind == "slack" for bus in case.buses)
    if n_slack != 1:
        raise ValueError(f"tiled grid has {n_slack} slack buses, expected 1")
    if part.n_regions != n_tiles:
        raise ValueError(f"partition has {part.n_regions} regions for {n_tiles} tiles")
    if part.n_pairs != len(TIES) * (n_tiles - 1):
        raise ValueError(f"partition has {part.n_pairs} auxiliary pairs, expected {len(TIES) * (n_tiles - 1)}")


def counts(part: partition.Partition) -> dict[str, int]:
    """Sizes that set the cost of the coordinator and the posterior."""
    n_nodes = sum(region.case.n_bus for region in part.regions)
    return {
        "buses": part.case.n_bus,
        "regions": part.n_regions,
        "aux_pairs": part.n_pairs,
        "coupling_rows": part.n_coupling_rows,
        "consensus_kkt_rows": 6 * n_nodes + part.n_coupling_rows,
    }


def main(argv: list[str]) -> int:
    n_tiles = int(argv[0]) if argv else 16
    case = tiled_case(n_tiles)
    part = partition.partition_grid(case, tile_assignment(case))
    check_tiling(case, part, n_tiles)
    flow = powerflow.solve_power_flow(case)
    print(" ".join(f"{k}={v}" for k, v in counts(part).items()),
          f"newton_iterations={flow.iterations}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
