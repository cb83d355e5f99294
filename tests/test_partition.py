from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest import grid, measurements, partition
from gridest.errors import DimensionMismatch, EmptyRegion, UnassignedBus, UnknownBusReference

from conftest import random_connected_assignment, random_states
import tiling


def test_default_thirty_bus_partition_shape(part30):
    assert part30.n_regions == 4
    assert part30.n_pairs == 8
    assert part30.n_coupling_rows == 32
    cut = {(p.low_bus, p.high_bus) for p in part30.aux_pairs}
    assert cut == {(4, 12), (6, 9), (6, 10), (16, 17), (19, 20), (22, 24), (23, 24), (27, 28)}
    for region, a in zip(part30.regions, part30.coupling):
        assert a.shape == (32, region.n_states)
    # Original buses are covered exactly once.
    covered = sorted(b for r in part30.regions for b in r.original_bus_ids)
    assert covered == list(part30.case.bus_ids)


def test_internal_lines_are_the_uncut_ones(part30, case30):
    keys = partition.internal_line_keys(part30)
    assert len(keys) == len(case30.lines) - part30.n_pairs == 33
    cut = {(p.low_bus, p.high_bus) for p in part30.aux_pairs}
    assert set(keys).isdisjoint(cut)
    assert set(keys) | cut == {line.key() for line in case30.lines}


def test_aux_pair_bookkeeping(part30):
    seen_aux = set()
    for pair in part30.aux_pairs:
        assert pair.low_region != pair.high_region
        assert pair.low_bus < pair.high_bus
        seen_aux.update((pair.low_aux, pair.high_aux))
        low_region = part30.regions[pair.low_region]
        high_region = part30.regions[pair.high_region]
        assert pair.low_aux in low_region.aux_bus_ids
        assert pair.high_aux in high_region.aux_bus_ids
    # Fresh ids, never colliding with physical buses.
    assert seen_aux.isdisjoint(part30.case.bus_ids)
    assert len(seen_aux) == 2 * part30.n_pairs


def test_half_lines_double_the_admittance(part30):
    for pair in part30.aux_pairs:
        for region_idx, aux in ((pair.low_region, pair.low_aux), (pair.high_region, pair.high_aux)):
            fragment = part30.regions[region_idx].case
            half = [l for l in fragment.lines if aux in (l.from_bus, l.to_bus)]
            assert len(half) == 1
            assert half[0].r == pytest.approx(pair.r / 2.0)
            assert half[0].x == pytest.approx(pair.x / 2.0)


def test_merge_check_accepts_the_builtin_partitions(part30, part6, part12):
    for part in (part30, part6, part12):
        assert partition.merge_check(part) <= 1e-12


def test_merge_check_catches_a_corrupted_half_line(part30):
    # Rebuild one fragment with a half line three times too strong.
    region = part30.regions[0]
    aux = region.aux_bus_ids[0]
    lines = []
    for line in region.case.lines:
        if aux in (line.from_bus, line.to_bus):
            line = grid.Line(line.from_bus, line.to_bus, line.r / 3.0, line.x / 3.0)
        lines.append(line)
    bad_case = grid.GridCase(region.case.name, region.case.base_mva, region.case.buses, tuple(lines))
    bad_region = dataclasses.replace(region, case=bad_case)
    bad_part = dataclasses.replace(part30, regions=(bad_region,) + part30.regions[1:])
    assert partition.merge_check(bad_part) > 1e-3


def test_extend_restrict_roundtrip(part30, truth30):
    zs = partition.extend_state(part30, truth30)
    back = partition.restrict_state(part30, zs)
    assert np.array_equal(back, truth30)


def test_extended_truth_is_feasible_per_fragment(part30, truth30):
    # The midpoint construction back-computes aux injections, so each
    # fragment state satisfies its own power flow equations.
    for region, z in zip(part30.regions, partition.extend_state(part30, truth30)):
        model = grid.PowerFlowModel(region.case)
        assert np.abs(model.eval(z)).max() <= 1e-10


def test_consensus_gap_vanishes_at_extended_states(part30, truth30):
    zs = partition.extend_state(part30, truth30)
    gap = partition.consensus_gap(part30, zs)
    assert gap.shape == (32,)
    assert np.abs(gap).max() == 0.0


def test_consensus_gap_reads_pair_disagreements(part30, truth30):
    """The stacked mismatch is exactly the aux-pair disagreements and
    midpoint imbalances: perturbing one copy moves only its four rows,
    perturbing anything in the kernel moves nothing."""
    rng = np.random.default_rng(8)
    zs = partition.extend_state(part30, truth30)
    for pair in rng.choice(part30.aux_pairs, size=4, replace=False):
        bumped = [z.copy() for z in zs]
        region = part30.regions[pair.low_region]
        pos = region.case.index[pair.low_aux]
        d_theta, d_v, d_p, d_q = rng.standard_normal(4)
        bumped[pair.low_region][4 * pos + grid.THETA] += d_theta
        bumped[pair.low_region][4 * pos + grid.V] += d_v
        bumped[pair.low_region][4 * pos + grid.P] += d_p
        bumped[pair.low_region][4 * pos + grid.Q] += d_q
        gap = partition.consensus_gap(part30, bumped)
        # +1 sits on the copy owned by the smaller region index; the
        # injection rows carry +1 on both copies.
        sign = 1.0 if pair.low_region < pair.high_region else -1.0
        expected = np.zeros(32)
        expected[4 * pair.index + grid.THETA] = sign * d_theta
        expected[4 * pair.index + grid.V] = sign * d_v
        expected[4 * pair.index + grid.P] = d_p
        expected[4 * pair.index + grid.Q] = d_q
        assert np.allclose(gap, expected, atol=1e-14)
    # Original nodes and opposite injection bumps of a pair's two copies
    # sit in the kernel of the coupling.
    bumped = [z.copy() for z in zs]
    for region, z in zip(part30.regions, bumped):
        for bus_id in region.original_bus_ids:
            z[4 * region.case.index[bus_id] : 4 * region.case.index[bus_id] + 4] += 0.1
    for pair in part30.aux_pairs:
        d_p, d_q = rng.standard_normal(2)
        for region_idx, aux, sign in (
            (pair.low_region, pair.low_aux, 1.0),
            (pair.high_region, pair.high_aux, -1.0),
        ):
            pos = part30.regions[region_idx].case.index[aux]
            bumped[region_idx][4 * pos + grid.P] += sign * d_p
            bumped[region_idx][4 * pos + grid.Q] += sign * d_q
    assert np.abs(partition.consensus_gap(part30, bumped)).max() == 0.0


def test_coupling_rows_have_one_plus_one_minus_entry(part30):
    stacked = np.hstack([a.toarray() for a in part30.coupling])
    for r, row in enumerate(stacked):
        nonzero = row[row != 0.0]
        if r % 4 in (grid.THETA, grid.V):
            assert sorted(nonzero) == [-1.0, 1.0]
        else:
            assert sorted(nonzero) == [1.0, 1.0]


def _assert_region_layout(part):
    """Each fragment lists its original buses in id order, then its auxiliary
    buses in pair order; A_i stores exactly the coupling entries of its copies."""
    for i, (region, a) in enumerate(zip(part.regions, part.coupling)):
        own = tuple(b for b in part.case.bus_ids if part.assignment[b] == i)
        assert region.original_bus_ids == own
        copies = [(p.index, aux) for p in part.aux_pairs
                  for aux, r in ((p.low_aux, p.low_region), (p.high_aux, p.high_region)) if r == i]
        assert region.aux_bus_ids == tuple(aux for _, aux in copies)
        assert region.case.bus_ids == own + region.aux_bus_ids
        assert np.array_equal(region.bus_pos, [part.case.index[b] for b in own])
        assert scipy.sparse.issparse(a) and a.shape == (4 * part.n_pairs, region.n_states)
        stored = a.tocoo()
        rows, cols, signs = stored.row, stored.col, stored.data
        assert len(rows) == len(cols) == len(signs) == 4 * len(copies)
        assert np.all(np.diff(rows) > 0)
        assert np.array_equal(rows // 4, np.repeat([t for t, _ in copies], 4))
        assert np.array_equal(cols % 4, rows % 4)
        assert np.array_equal(cols // 4, np.repeat([region.case.index[aux] for _, aux in copies], 4))
        expected = []
        for t, _ in copies:
            pair = part.aux_pairs[t]
            other = pair.high_region if pair.low_region == i else pair.low_region
            sign = 1.0 if i < other else -1.0
            expected += [sign, sign, 1.0, 1.0]
        assert np.array_equal(signs, expected)
        assert stored.nnz == len(rows)
        assert np.array_equal(stored.row, rows)
        assert np.array_equal(stored.col, cols)
        assert np.array_equal(stored.data, signs)


def test_region_layout_of_the_builtin_partitions(part30, part6, part12):
    for part in (part30, part6, part12):
        _assert_region_layout(part)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_region_layout_on_random_partitions(case30, truth30, n_regions, seed):
    part = partition.partition_grid(case30, random_connected_assignment(case30, n_regions, seed))
    _assert_region_layout(part)
    x = random_states(case30.n_bus, 1, seed)[0]
    assert np.array_equal(partition.restrict_state(part, partition.extend_state(part, x)), x)
    mset = measurements.simulate_measurements(
        case30, truth30, rng=seed, measured_lines=partition.internal_line_keys(part)
    )
    # Reversed, so that input order differs from id order.
    mset = measurements.MeasurementSet(
        mset.node_ids[::-1], mset.node_values[::-1], mset.node_weights[::-1],
        mset.line_ends[::-1], mset.line_values[::-1], mset.line_weights[::-1],
    )
    for i, region_set in enumerate(measurements.split_by_region(mset, part)):
        nodes = [j for j, b in enumerate(mset.node_ids) if part.assignment[b] == i]
        ends = [j for j, (k, l) in enumerate(mset.line_ends) if part.assignment[k] == part.assignment[l] == i]
        assert region_set.node_ids == tuple(mset.node_ids[j] for j in nodes)
        assert region_set.line_ends == tuple(mset.line_ends[j] for j in ends)
        assert np.array_equal(region_set.node_values, mset.node_values[nodes])
        assert np.array_equal(region_set.node_weights, mset.node_weights[nodes])
        assert np.array_equal(region_set.line_values, mset.line_values[ends])
        assert np.array_equal(region_set.line_weights, mset.line_weights[ends])


STATE_CUTS = [
    pytest.param(lambda zs: zs[:3], id="one-state-short"),
    pytest.param(lambda zs: zs + zs[:1], id="one-state-long"),
    pytest.param(lambda zs: [z[:-4] for z in zs], id="entries-short"),
    pytest.param(lambda zs: [z.reshape(-1, 4) for z in zs], id="entries-2d"),
]


@pytest.mark.parametrize("cut", STATE_CUTS)
def test_restrict_state_rejects_states_that_do_not_fit(part30, truth30, cut):
    with pytest.raises(DimensionMismatch):
        partition.restrict_state(part30, cut(partition.extend_state(part30, truth30)))


@pytest.mark.parametrize("cut", STATE_CUTS)
def test_consensus_gap_rejects_states_that_do_not_fit(part30, truth30, cut):
    # Unchecked, zipping three states with four couplings sums a partial gap.
    with pytest.raises(DimensionMismatch):
        partition.consensus_gap(part30, cut(partition.extend_state(part30, truth30)))


def test_partition_grid_allocates_little_on_a_960_bus_grid():
    # The coupling matrices store their nonzeros only: 744 on this grid,
    # where dense A_i would hold 1.7 million floats (13 MiB).
    case = tiling.tiled_case(32)
    assignment = tiling.tile_assignment(case)
    tracemalloc.start()
    try:
        partition.partition_grid(case, assignment)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_single_region_partition_is_trivial(case6, truth6):
    part = partition.partition_grid(case6, {b: "all" for b in case6.bus_ids})
    assert part.n_regions == 1
    assert part.n_pairs == 0
    assert part.coupling[0].shape == (0, 4 * case6.n_bus)
    zs = partition.extend_state(part, truth6)
    assert np.array_equal(zs[0], truth6)
    assert np.array_equal(partition.restrict_state(part, zs), truth6)


def test_assignment_errors(case6):
    full = {b: b % 2 for b in case6.bus_ids}
    with pytest.raises(UnassignedBus):
        partition.partition_grid(case6, {b: 0 for b in case6.bus_ids[:-1]})
    with pytest.raises(UnknownBusReference):
        partition.partition_grid(case6, {**full, 99: 0})
    empty_case = grid.GridCase("void", 100.0, (), ())
    with pytest.raises(EmptyRegion):
        partition.partition_grid(empty_case, {})
