"""Network model, state conventions and AC power flow expressions.

Conventions used across the whole package:

* Node state is the 4-vector (theta_k, v_k, p_k, q_k): voltage angle in
  radians, voltage magnitude, net active and net reactive injection, all
  per-unit.  A network state vector stacks node states node-major, so it
  has length 4 N and component 4 i + c is component c of the i-th node in
  sorted-id order.
* A line is a series admittance y = g + j b obtained from its resistance
  and reactance as y = 1 / (r + j x), i.e. g = r / (r^2 + x^2) and
  b = -x / (r^2 + x^2).  There are no shunt elements anywhere: the bus
  admittance matrix Y = G + j B has exact zero row sums, with
  Y_kl = -(g_kl + j b_kl) off the diagonal and the negated sum of the
  off-diagonal entries on the diagonal.
* The power flow residual at node k is

      r_p,k = p_k - v_k sum_l v_l (G_kl cos th_kl + B_kl sin th_kl)
      r_q,k = q_k - v_k sum_l v_l (G_kl sin th_kl - B_kl cos th_kl)

  with th_kl = theta_k - theta_l.  Residuals stack node-major as
  (r_p,0, r_q,0, r_p,1, ...), giving a vector of length 2 N.  A state is
  physical when this vector is zero.
* Directed line quantities measured at the k end of line (k, l):

      f_p = v_k (v_k g - v_l g cos th_kl) - v_k v_l b sin th_kl
      f_q = -v_k (v_k b - v_l b cos th_kl) + v_k v_l g sin th_kl
      f_i = (f_p^2 + f_q^2) / v_k^2

  f_i is the squared current magnitude, which needs v_k > 0.

Y has one form: its pattern, built from the lines by PowerFlowModel.  The
residual, the injections and the power-flow derivatives are evaluated
entry by entry on it in O(nnz); no dense N x N matrix is formed anywhere.
Line quantities are evaluated for all lines at once, by line_flows and
line_flow_derivatives on the arrays that line_arrays builds from endpoint
pairs; _line_terms is the one place the formulas above are written out.
A SparsityPattern puts Jacobian values into a CSR array, the one form
every Jacobian of the package takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import (
    DuplicateLine,
    UnknownBusReference,
    ValidationError,
    ZeroVoltage,
)

# Offsets of the state components inside a node block.
THETA, V, P, Q = 0, 1, 2, 3

BUS_KINDS = ("slack", "pv", "pq")


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str = "pq"
    p_load: float = 0.0
    q_load: float = 0.0
    p_gen: float = 0.0
    q_gen: float = 0.0
    v_setpoint: float = 1.0

    def __post_init__(self):
        if self.kind not in BUS_KINDS:
            raise ValidationError(f"bus {self.id}: unknown kind {self.kind!r}, expected one of {BUS_KINDS}")
        if not all(map(math.isfinite, (self.p_load, self.q_load, self.p_gen, self.q_gen, self.v_setpoint))):
            raise ValidationError(f"bus {self.id}: loads, generation and voltage setpoint must be finite")
        if self.v_setpoint <= 0.0:
            raise ValidationError(f"bus {self.id}: voltage setpoint must be positive")

    @property
    def p_injection(self) -> float:
        return self.p_gen - self.p_load

    @property
    def q_injection(self) -> float:
        return self.q_gen - self.q_load


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    r: float
    x: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValidationError(f"line {self.from_bus}-{self.to_bus}: self loops are not allowed")
        if not (math.isfinite(self.r) and math.isfinite(self.x)):
            raise ValidationError(f"line {self.from_bus}-{self.to_bus}: r and x must be finite")
        if self.r * self.r + self.x * self.x <= 0.0:
            raise ValidationError(f"line {self.from_bus}-{self.to_bus}: r^2 + x^2 must be positive")

    @property
    def admittance(self) -> complex:
        return 1.0 / complex(self.r, self.x)

    @property
    def g(self) -> float:
        return self.admittance.real

    @property
    def b(self) -> float:
        return self.admittance.imag

    def key(self) -> tuple[int, int]:
        """Unordered endpoint pair, used to detect duplicates."""
        return (min(self.from_bus, self.to_bus), max(self.from_bus, self.to_bus))


@dataclass(frozen=True)
class GridCase:
    """An immutable shunt-free network: buses plus series lines."""

    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    index: dict[int, int] = field(init=False, repr=False, compare=False)
    _by_key: dict[tuple[int, int], Line] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.base_mva < math.inf:
            raise ValidationError(f"case {self.name}: base MVA must be positive and finite")
        ids = [bus.id for bus in self.buses]
        if len(set(ids)) != len(ids):
            seen, dupes = set(), set()
            for i in ids:
                (dupes if i in seen else seen).add(i)
            raise ValidationError(f"duplicate bus ids: {sorted(dupes)}")
        order = sorted(range(len(self.buses)), key=lambda i: self.buses[i].id)
        object.__setattr__(self, "buses", tuple(self.buses[i] for i in order))
        object.__setattr__(self, "index", {bus.id: i for i, bus in enumerate(self.buses)})
        by_key = {}
        for line in self.lines:
            if line.from_bus not in self.index or line.to_bus not in self.index:
                raise UnknownBusReference(
                    f"line {line.from_bus}-{line.to_bus} references a bus that is not in the case"
                )
            if line.key() in by_key:
                raise DuplicateLine(f"line {line.from_bus}-{line.to_bus} appears twice")
            by_key[line.key()] = line
        object.__setattr__(self, "_by_key", by_key)

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def bus_ids(self) -> tuple[int, ...]:
        return tuple(bus.id for bus in self.buses)

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.index[bus_id]]

    def line(self, a: int, b: int) -> Line:
        """The line between buses a and b, in either order."""
        try:
            return self._by_key[(min(a, b), max(a, b))]
        except KeyError:
            raise UnknownBusReference(f"line {a}-{b} is not a line of the case") from None


# ---------------------------------------------------------------------------
# state vector helpers

def flat_state(n_bus: int) -> np.ndarray:
    """Flat start: unit magnitudes, zero angles, zero injections."""
    x = np.zeros(4 * n_bus)
    x[V::4] = 1.0
    return x


def unpack_state(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Views (theta, v, p, q) into a node-major state vector."""
    return x[THETA::4], x[V::4], x[P::4], x[Q::4]


def pack_state(theta: np.ndarray, v: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    x = np.empty(4 * len(theta))
    x[THETA::4], x[V::4], x[P::4], x[Q::4] = theta, v, p, q
    return x


def complex_voltage(x: np.ndarray) -> np.ndarray:
    theta, v, _, _ = unpack_state(x)
    return v * np.exp(1j * theta)


# ---------------------------------------------------------------------------
# power flow equations

class SparsityPattern:
    """Fixed positions of a Jacobian's entries; values in, matrix out.

    rows and cols are set once, without repeated positions.  assemble()
    takes the values in the same order and puts them into a scipy.sparse
    CSR array with sorted indices; every position is stored, zeros
    included, so the pattern does not depend on the values.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
        self.shape = shape
        self._order = np.lexsort((cols, rows))
        self._indices = cols[self._order]
        self._indptr = np.searchsorted(rows[self._order], np.arange(shape[0] + 1))

    def assemble(self, values: np.ndarray) -> scipy.sparse.csr_array:
        return scipy.sparse.csr_array(
            (values[self._order], self._indices.copy(), self._indptr.copy()), shape=self.shape
        )


def _admittance_pattern(case: GridCase) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and complex values of the bus admittance matrix Y.

    The off-diagonal entries -y of the lines come first in row-major order,
    then the whole diagonal (stored even where it is zero), so the last N
    entries are Y_00, Y_11, ...  Each diagonal entry adds up the admittances
    of its lines in line order.
    """
    n = case.n_bus
    ends = np.array(
        [(case.index[line.from_bus], case.index[line.to_bus]) for line in case.lines], dtype=np.intp
    ).reshape(-1, 2)
    y = np.array([line.admittance for line in case.lines], dtype=complex)
    r, c = np.concatenate([ends, ends[:, ::-1]]).T
    order = np.lexsort((c, r))
    y_ends = np.repeat(y, 2)
    y_diag = np.bincount(ends.ravel(), y_ends.real, n) + 1j * np.bincount(ends.ravel(), y_ends.imag, n)
    diag = np.arange(n)
    # 0 - y rather than -y keeps zero parts at +0.0.
    off = 0.0 - np.tile(y, 2)[order]
    return np.concatenate([r[order], diag]), np.concatenate([c[order], diag]), np.concatenate([off, y_diag])


def _row_sums(rows: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """Complex terms on a pattern summed by row, in pattern order."""
    return np.bincount(rows, terms.real, n) + 1j * np.bincount(rows, terms.imag, n)


def _injection_voltage_jacobians(
    rows: np.ndarray, cols: np.ndarray, y: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """dS/dtheta and dS/dv of S = V conj(Y V) on the pattern of Y.

    rows, cols and y are as _admittance_pattern returns them.  Entry (k, l)
    of the two derivatives is

        dS_k/dtheta_l = -j V_k conj(Y_kl V_l)   [+ j V_k conj(I_k) if k = l]
        dS_k/dv_l     = V_k conj(Y_kl V_l / v_l) [+ conj(I_k) V_k / v_k if k = l]

    with I = Y V; both come back as complex values in pattern order.
    """
    vc = complex_voltage(x)
    n = len(vc)
    vnorm = vc / x[V::4]
    yv = y * vc[cols]
    ibus = _row_sums(rows, yv, n)
    ds_dva = -1j * vc[rows] * np.conj(yv)
    ds_dvm = vc[rows] * np.conj(y * vnorm[cols])
    ds_dva[-n:] += 1j * vc * np.conj(ibus)
    ds_dvm[-n:] += np.conj(ibus) * vnorm
    return ds_dva, ds_dvm


class PowerFlowModel:
    """Equality constraints H(x) = 0 of one network, with Jacobian.

    Holds Y on its pattern and the sparsity pattern of the Jacobian, so
    solvers can evaluate the physics without rebuilding them.  Constraint
    row r is p - P(theta, v) or q - Q(theta, v), so the Jacobian's column
    identity_columns[r] (that p or q) is the r-th unit vector.
    """

    def __init__(self, case: GridCase):
        self.case = case
        rows, cols, y = _admittance_pattern(case)
        self._rows, self._cols, self._y = rows, cols, y
        n = case.n_bus
        self._off = rows[:-n], cols[:-n], y[:-n]
        # Jacobian entries: four blocks on the pattern of Y (p and q rows
        # against theta and v columns), then the unit injection entries.
        node = np.arange(n)
        self.identity_columns = np.stack([4 * node + P, 4 * node + Q], axis=1).ravel()
        self._pattern = SparsityPattern(
            np.concatenate([2 * rows, 2 * rows, 2 * rows + 1, 2 * rows + 1, 2 * node, 2 * node + 1]),
            np.concatenate([4 * cols + THETA, 4 * cols + V, 4 * cols + THETA, 4 * cols + V, 4 * node + P, 4 * node + Q]),
            (2 * n, 4 * n),
        )

    @property
    def n_constraints(self) -> int:
        return 2 * self.case.n_bus

    @property
    def n_states(self) -> int:
        return 4 * self.case.n_bus

    @property
    def admittance(self) -> scipy.sparse.csr_array:
        """The bus admittance matrix Y, complex CSR (a fresh copy per call)."""
        n = self.case.n_bus
        return scipy.sparse.csr_array((self._y, (self._rows, self._cols)), shape=(n, n))

    def injections(self, x: np.ndarray) -> np.ndarray:
        """Complex injections S = V conj(I) implied by the voltages in x.

        Every row of Y sums to zero, so the bus currents are
        I_k = sum_{l != k} Y_kl (V_l - V_k), from the off-diagonal entries
        alone.  Summing Y_kk V_k with the rest of the row instead cancels
        large terms, and the rounding noise that leaves in the residual
        keeps Gauss-Newton solves stepping at their rounding floor.
        """
        vc = complex_voltage(x)
        rows, cols, y = self._off
        return vc * np.conj(_row_sums(rows, y * (vc[cols] - vc[rows]), len(vc)))

    def eval(self, x: np.ndarray) -> np.ndarray:
        """Power flow residual, length 2 N, node-major."""
        s = self.injections(x)
        out = np.empty(2 * len(s))
        out[0::2] = x[P::4] - s.real
        out[1::2] = x[Q::4] - s.imag
        return out

    def jacobian(self, x: np.ndarray):
        """Jacobian of eval at x, as scipy.sparse CSR."""
        ds_dva, ds_dvm = _injection_voltage_jacobians(self._rows, self._cols, self._y, x)
        values = np.concatenate([-ds_dva.real, -ds_dvm.real, -ds_dva.imag, -ds_dvm.imag, np.ones(len(x) // 2)])
        return self._pattern.assemble(values)


# ---------------------------------------------------------------------------
# directed line measurements

def line_arrays(case: GridCase, ends) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (k, l, g, b) of directed lines named by endpoint pairs.

    ends[j] = (k, l) names a line of the case in either order; the line is
    seen from its k end.  Returns the node positions of both ends and the
    series admittance parts, in the order of ends, as line_flows takes
    them.  Raises UnknownBusReference for a pair that is not a line.
    """
    lines = [case.line(a, b) for a, b in ends]
    k = np.array([case.index[a] for a, _ in ends], dtype=np.intp)
    l = np.array([case.index[b] for _, b in ends], dtype=np.intp)
    g = np.array([line.g for line in lines], dtype=float)
    b = np.array([line.b for line in lines], dtype=float)
    return k, l, g, b


def _line_terms(x: np.ndarray, k: np.ndarray, l: np.ndarray, g: np.ndarray, b: np.ndarray):
    vk, vl = x[4 * k + V], x[4 * l + V]
    if np.any(vk <= 0.0):
        raise ZeroVoltage("line measurement functions need v_k > 0", columns=4 * k[vk <= 0.0] + V)
    th = x[4 * k + THETA] - x[4 * l + THETA]
    cos, sin = np.cos(th), np.sin(th)
    f_p = vk * (vk * g - vl * g * cos) - vk * vl * b * sin
    f_q = -vk * (vk * b - vl * b * cos) + vk * vl * g * sin
    return vk, vl, cos, sin, f_p, f_q


def line_flows(x: np.ndarray, k: np.ndarray, l: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Directed line quantities (f_p, f_q, f_i) of many lines, shape (lines, 3).

    x is a network state; line j runs from node position k[j] to l[j] and
    has series admittance parts g[j], b[j].  Raises ZeroVoltage when any
    v_k <= 0, because f_i divides by v_k^2; its columns are the entries
    4 k[j] + V of x with v_k <= 0, one per such line.
    """
    vk, _, _, _, f_p, f_q = _line_terms(x, k, l, g, b)
    return np.stack([f_p, f_q, (f_p * f_p + f_q * f_q) / (vk * vk)], axis=1)


def line_flow_derivatives(x: np.ndarray, k: np.ndarray, l: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonzero columns of the Jacobian of line_flows, shape (lines, 3, 4).

    Arguments as for line_flows; the columns are theta_k, v_k, theta_l and
    v_l, the injection columns being zero.
    """
    vk, vl, cos, sin, f_p, f_q = _line_terms(x, k, l, g, b)
    jac = np.empty((len(vk), 3, 4))
    dfp_dth = vk * vl * (g * sin - b * cos)
    dfq_dth = vk * vl * (g * cos - b * sin)
    jac[:, 0, 0] = dfp_dth
    jac[:, 0, 2] = -dfp_dth
    jac[:, 0, 1] = 2.0 * vk * g - vl * (g * cos + b * sin)
    jac[:, 0, 3] = -vk * (g * cos + b * sin)
    jac[:, 1, 0] = dfq_dth
    jac[:, 1, 2] = -dfq_dth
    jac[:, 1, 1] = -2.0 * vk * b + vl * (b * cos + g * sin)
    jac[:, 1, 3] = vk * (b * cos + g * sin)
    inv_vk2 = 1.0 / (vk * vk)
    jac[:, 2, :] = (2.0 * f_p[:, None] * jac[:, 0, :] + 2.0 * f_q[:, None] * jac[:, 1, :]) * inv_vk2[:, None]
    jac[:, 2, 1] -= 2.0 * (f_p * f_p + f_q * f_q) / (vk * vk * vk)
    return jac

