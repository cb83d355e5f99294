"""Measurement simulation and weighted residual assembly.

Measured quantities are the full node state (theta, v, p, q) of original
buses and the directed line triple (f_p, f_q, f_i) of lines that stay whole
under the active partition.  Auxiliary buses are artifacts of the
decomposition, nothing measures them.

The noise model perturbs each true value with zero-mean Gaussian noise of
variance rel_var * max(value^2, floor^2): relative noise with an absolute
floor so near-zero channels (unloaded buses, small flows) are not measured
impossibly well.  Weights are fixed diagonal matrices chosen a priori, not
refitted per sample.

simulate_measurements perturbs all nodes with one (nodes, 4) draw and all
lines with one (lines, 3) draw, taking the true flows from grid.line_flows.
A Generator fills an array in C order, so the realization is the one a
loop drawing 4 values per node and then 3 per line would produce.
RegionResidual evaluates every measured line at once (grid.line_flows and
grid.line_flow_derivatives); the positions of its Jacobian entries are
fixed when it is built, and jacobian() returns them as CSR.  Both name
lines by endpoint pairs and get their index and admittance arrays from
grid.line_arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid
from .errors import DimensionMismatch, ValidationError


@dataclass(frozen=True)
class NoiseConfig:
    rel_var_theta: float = 1e-4
    rel_var_v: float = 1e-5
    rel_var_p: float = 1e-4
    rel_var_q: float = 1e-4
    rel_var_line: float = 1e-5
    floor: float = 1e-2

    def node_std(self, true_values: np.ndarray) -> np.ndarray:
        rel = np.array([self.rel_var_theta, self.rel_var_v, self.rel_var_p, self.rel_var_q])
        return np.sqrt(rel) * np.maximum(np.abs(true_values), self.floor)

    def line_std(self, true_values: np.ndarray) -> np.ndarray:
        return np.sqrt(self.rel_var_line) * np.maximum(np.abs(true_values), self.floor)


def default_node_weights() -> np.ndarray:
    """Diagonal of the nodal weight matrix, order (theta, v, p, q)."""
    return np.array([1e4, 1e5, 1e4, 1e4])


def default_line_weights() -> np.ndarray:
    """Diagonal of the line weight matrix, order (f_p, f_q, f_i)."""
    return np.array([1e4, 1e4, 1e4])


@dataclass(frozen=True)
class MeasurementSet:
    """Measured values and their weights for one scenario.

    node_values[i] holds the measured (theta, v, p, q) of node_ids[i];
    line_values[j] the measured (f_p, f_q, f_i) of the directed line
    line_ends[j] = (k, l) seen from the k side.  Weights are the diagonals
    of the corresponding weighting matrices.
    """

    node_ids: tuple[int, ...]
    node_values: np.ndarray
    node_weights: np.ndarray
    line_ends: tuple[tuple[int, int], ...]
    line_values: np.ndarray
    line_weights: np.ndarray

    def __post_init__(self):
        n, m = len(self.node_ids), len(self.line_ends)
        object.__setattr__(self, "node_values", np.asarray(self.node_values, dtype=float).reshape(n, 4))
        object.__setattr__(self, "node_weights", np.asarray(self.node_weights, dtype=float).reshape(n, 4))
        object.__setattr__(self, "line_values", np.asarray(self.line_values, dtype=float).reshape(m, 3))
        object.__setattr__(self, "line_weights", np.asarray(self.line_weights, dtype=float).reshape(m, 3))
        if len(set(self.node_ids)) != n:
            raise ValidationError("duplicate node ids in measurement set")
        if len(set(tuple(sorted(e)) for e in self.line_ends)) != m:
            raise ValidationError("duplicate lines in measurement set")
        if np.any(self.node_weights < 0.0) or np.any(self.line_weights < 0.0):
            raise ValidationError("weights must be non-negative")
        for name in ("node_values", "node_weights", "line_values", "line_weights"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"non-finite entries in {name}")

    @property
    def n_channels(self) -> int:
        return 4 * len(self.node_ids) + 3 * len(self.line_ends)


def simulate_measurements(
    case: grid.GridCase,
    truth: np.ndarray,
    noise: NoiseConfig | None = NoiseConfig(),
    rng: np.random.Generator | int | None = None,
    measured_lines=None,
    node_weights: np.ndarray | None = None,
    line_weights: np.ndarray | None = None,
) -> MeasurementSet:
    """Perturb a true state into one measurement realization.

    Every bus of the case is measured; measured_lines defaults to all case
    lines and is restricted (as endpoint pairs, in either order) by callers
    that work on a partitioned case, where cut lines carry no sensors.  A
    measured line is seen from the from_bus end of the case's line.
    noise=None turns the perturbation off entirely, giving exact values.
    rng accepts a seed or a Generator; None draws an unseeded Generator.
    truth is read as a float array; a wrong length raises DimensionMismatch
    and a non-finite entry ValidationError.
    """
    if noise is None:
        noise = NoiseConfig(rel_var_theta=0.0, rel_var_v=0.0, rel_var_p=0.0,
                            rel_var_q=0.0, rel_var_line=0.0)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    lines = case.lines if measured_lines is None else [case.line(a, b) for a, b in measured_lines]
    line_ends = tuple((line.from_bus, line.to_bus) for line in lines)
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (4 * case.n_bus,):
        raise DimensionMismatch(f"truth length {truth.shape} does not match case size {4 * case.n_bus}")
    if not np.all(np.isfinite(truth)):
        raise ValidationError("truth has non-finite entries")
    nw = default_node_weights() if node_weights is None else np.asarray(node_weights, dtype=float)
    lw = default_line_weights() if line_weights is None else np.asarray(line_weights, dtype=float)

    node_ids = case.bus_ids
    true_nodes = truth.reshape(-1, 4)
    node_values = true_nodes + rng.standard_normal(true_nodes.shape) * noise.node_std(true_nodes)
    true_lines = grid.line_flows(truth, *grid.line_arrays(case, line_ends))
    line_values = true_lines + rng.standard_normal(true_lines.shape) * noise.line_std(true_lines)

    return MeasurementSet(
        node_ids=node_ids,
        node_values=node_values,
        node_weights=np.tile(nw, (len(node_ids), 1)),
        line_ends=line_ends,
        line_values=line_values,
        line_weights=np.tile(lw, (len(line_ends), 1)),
    )


def split_by_region(mset: MeasurementSet, partition) -> list[MeasurementSet]:
    """Restrict a global measurement set to each region of a partition.

    Every measured node and line must fall inside exactly one region;
    a measured line spanning two regions violates the modeling contract
    and raises ValidationError.  Each region keeps its nodes and lines in
    input order.
    """
    region_of = partition.assignment
    node_region = np.array([region_of.get(node, -1) for node in mset.node_ids], dtype=int)
    stray_nodes = sorted(mset.node_ids[i] for i in np.flatnonzero(node_region < 0))
    if stray_nodes:
        raise ValidationError(f"measured nodes outside every region: {stray_nodes}")
    line_region = np.array(
        [region_of.get(k, -1) if region_of.get(k, -1) == region_of.get(l) else -1 for k, l in mset.line_ends],
        dtype=int,
    )
    stray_lines = sorted(mset.line_ends[j] for j in np.flatnonzero(line_region < 0))
    if stray_lines:
        raise ValidationError(
            f"measured lines must connect original nodes within one region, offending: {stray_lines}"
        )
    node_groups = _group_rows(node_region, partition.n_regions)
    line_groups = _group_rows(line_region, partition.n_regions)
    return [
        MeasurementSet(
            node_ids=tuple(mset.node_ids[i] for i in node_rows),
            node_values=mset.node_values[node_rows],
            node_weights=mset.node_weights[node_rows],
            line_ends=tuple(mset.line_ends[j] for j in line_rows),
            line_values=mset.line_values[line_rows],
            line_weights=mset.line_weights[line_rows],
        )
        for node_rows, line_rows in zip(node_groups, line_groups)
    ]


def _group_rows(region: np.ndarray, n_regions: int) -> list[np.ndarray]:
    """Row indices of each region 0..n_regions-1, each in ascending order."""
    return np.split(np.argsort(region, kind="stable"), np.cumsum(np.bincount(region, minlength=n_regions))[:-1])


class RegionResidual:
    """Weighted measurement residual F of one case (region fragment or whole grid).

    Stacks sqrt(Sigma_k) (x_k - measured_k) for every measured node in
    ascending id order, then sqrt(W_kl) (f(x_k, x_l) - measured_kl) for
    every measured line in ascending endpoint order.  Output length is
    4 * measured nodes + 3 * measured lines.
    """

    def __init__(self, case: grid.GridCase, mset: MeasurementSet):
        self.case = case
        unknown = [node for node in mset.node_ids if node not in case.index]
        if unknown:
            raise ValidationError(f"measured nodes missing from the case: {unknown}")
        node_order = sorted(range(len(mset.node_ids)), key=lambda i: case.index[mset.node_ids[i]])
        self.node_ids = tuple(mset.node_ids[i] for i in node_order)
        self.node_pos = np.array([case.index[n] for n in self.node_ids], dtype=int)
        self.node_values = mset.node_values[node_order].reshape(len(node_order), 4)
        self.node_sqrt_w = np.sqrt(mset.node_weights[node_order].reshape(len(node_order), 4))

        rows = sorted(range(len(mset.line_ends)), key=lambda j: mset.line_ends[j])
        self.line_ends = tuple(mset.line_ends[j] for j in rows)
        self.line_k, self.line_l, self.line_g, self.line_b = grid.line_arrays(case, self.line_ends)
        self.line_values = mset.line_values[rows].reshape(len(rows), 3)
        self.line_sqrt_w = np.sqrt(mset.line_weights[rows].reshape(len(rows), 3))

        # Jacobian entries: node row 4 i + c has one, in column 4 pos + c;
        # line row r of line j has four, in the theta and v columns of its
        # two ends (the order of grid.line_flow_derivatives).
        nn, nl = len(self.node_ids), len(self.line_ends)
        line_cols = np.stack([4 * self.line_k + grid.THETA, 4 * self.line_k + grid.V,
                              4 * self.line_l + grid.THETA, 4 * self.line_l + grid.V], axis=1)
        line_rows = 4 * nn + 3 * np.arange(nl)[:, None] + np.arange(3)
        self._pattern = grid.SparsityPattern(
            np.concatenate([np.arange(4 * nn), np.repeat(line_rows.ravel(), 4)]),
            np.concatenate([(4 * self.node_pos[:, None] + np.arange(4)).ravel(),
                            np.broadcast_to(line_cols[:, None, :], (nl, 3, 4)).ravel()]),
            (self.n_rows, self.n_states),
        )

    @property
    def n_rows(self) -> int:
        return 4 * len(self.node_ids) + 3 * len(self.line_ends)

    @property
    def n_states(self) -> int:
        return 4 * self.case.n_bus

    def eval(self, z: np.ndarray) -> np.ndarray:
        node = self.node_sqrt_w * (z.reshape(-1, 4)[self.node_pos] - self.node_values)
        flows = grid.line_flows(z, self.line_k, self.line_l, self.line_g, self.line_b)
        return np.concatenate([node.ravel(), (self.line_sqrt_w * (flows - self.line_values)).ravel()])

    def jacobian(self, z: np.ndarray):
        """Jacobian of eval at z, as scipy.sparse CSR."""
        lines = grid.line_flow_derivatives(z, self.line_k, self.line_l, self.line_g, self.line_b)
        values = np.concatenate([self.node_sqrt_w.ravel(), (self.line_sqrt_w[:, :, None] * lines).ravel()])
        return self._pattern.assemble(values)
