"""Treatment cost functional, its time derivative and the reduced gradient.

The cost of a state trajectory (mu, phi, sigma), control u and treatment
time tau in [0, T] is

    J = b1/2 int_0^tau |phi - phi_q|^2 + b2/2 int |phi(tau) - phi_omega|^2
      + b3/2 int_0^tau |sigma - sigma_q|^2 + b4/2 int (1 + phi(tau))
      + b5 tau + b6/2 (tau - tau_star)^2 + b0/2 int_0^T |u|^2

with an optional relaxed terminal-nutrient term
gamma/(2 eps) int_{tau-eps}^{tau} |sigma - sigma_omega|^2, where sigma is
frozen at its initial value for negative times so the window always has
length eps.

The discrete cost has one implementation, :class:`TauProfile`: per-node
series of the state march, cached once, from which each term's value
and the tau-derivative are read in O(1). :func:`reduced_cost` is its
breakdown at one tau. Every cost may also be read from the first
frames of the march alone, which is how the optimizer's trial marches
stop early (see :class:`TauProfile`); a cost that cannot fall past
tau_star (:meth:`CostSpec.monotone_tail`) may also certify its time
minimizer from them. :meth:`CostSpec.trial_window` is the frame the
optimizer's first march stops at, and :meth:`TauProfile.least_window`
the least frame that certifies an iterate, near which its trials stop.

The three integrals of a state misfit (b1, b3 and the relaxed term) are
one table, :func:`integral_terms`: per active term its weight, the state
component it reads, that component's misfit to its target and its time
window. :class:`TauProfile` integrates the table's rows, and
:func:`chcontrol.adjoint.solve_adjoint` takes their derivative as its
sources, so both read the same weights and targets, checked once
(:meth:`CostSpec.check_shapes`). :func:`_terminal_phase_source` is the
derivative of the terminal terms (b2, b4) for the adjoint.

Discretization conventions, chosen so that the analytic formulas below
are exact derivatives of the discrete quantities:

* running integrals use the trapezoid rule on node values with an exact
  partial last interval, i.e. they integrate the piecewise-linear
  interpolant of the node integrand;
* fields at off-node times are interpolated linearly, and d_t phi(tau)
  is the backward difference on the interval containing tau (the slope
  of the interpolant there), so an interior node takes the left slope;
  at tau = 0 it is the forward difference on the first interval, the
  right derivative;
* the control energy uses trapezoid weights over the full horizon, and
  the same weighted inner product defines the Riesz representative
  returned by :func:`control_gradient` (zero-extended nutrient adjoint
  plus b0 u).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, TimeDomainError, check_number, check_shape
from .fields import Grid, TimeGrid, Trajectory, integrate
from .state import check_control_shape


@dataclass(frozen=True)
class Relaxation:
    """The relaxed window term of the cost. It stores ``gamma`` and ``eps``
    as :func:`~chcontrol.errors.check_number` returns them: ``gamma`` a
    finite number >= 0 and ``eps`` a finite positive number, else a
    :class:`ConfigError` headed ``cost.relaxation.gamma`` or
    ``cost.relaxation.eps``."""

    gamma: float
    eps: float
    sigma_omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", check_number("cost.relaxation.gamma",
                                                       self.gamma, 0))
        object.__setattr__(self, "eps", check_number("cost.relaxation.eps", self.eps, 0,
                                                     above=True))


@dataclass
class CostSpec:
    """Weights, targets and the target time of the treatment objective."""

    b0: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    b3: float = 0.0
    b4: float = 0.0
    b5: float = 0.0
    b6: float = 0.0
    phi_q: np.ndarray | None = None        # (nt+1, *grid.shape)
    sigma_q: np.ndarray | None = None      # (nt+1, *grid.shape)
    phi_omega: np.ndarray | None = None    # grid-shaped
    tau_star: float = 0.0
    relaxation: Relaxation | None = None

    def weights(self):
        return (self.b0, self.b1, self.b2, self.b3, self.b4, self.b5, self.b6)

    def monotone_tail(self) -> bool:
        """Whether J(u, .) cannot fall past tau_star (anywhere, if b6 = 0):
        the weights are nonnegative, so b1 and b3 integrate nonnegative
        misfits and b5 and b6 grow with tau there, and no terminal (b2,
        b4) or relaxed term is active."""
        relax = self.relaxation
        return (all(w >= 0 for w in self.weights()) and self.b2 == 0
                and self.b4 == 0 and (relax is None or relax.gamma == 0))

    def trial_window(self, tg: TimeGrid, tau: float) -> int:
        """The first window of an optimizer run at treatment time ``tau``,
        the last frame W its initial march needs, and whether windows
        apply at all. W is nt, and no march stops short, unless the cost
        has a monotone tail with a term that grows in tau (without one no
        partial march certifies, and every
        :meth:`TauProfile.least_window` is nt too); then W is the node of
        tau, or of tau_star if b6 > 0 and that lies later, plus two. The
        two margin nodes are the ones :meth:`TauProfile.minimize` asks of
        a partial march (a node minimizer at W-2 or below), so the time
        search's bracket and the adjoint's frames stay inside the window.
        The later windows follow each iterate's
        :meth:`TauProfile.least_window`."""
        if not (self.monotone_tail() and (self.b1 or self.b3 or self.b5 or self.b6)):
            return tg.steps
        node = tg.nearest_node(tau)[0]
        if self.b6 > 0:
            node = max(node, tg.nearest_node(self.tau_star)[0])
        return min(tg.steps, node + 2)

    def validate(self, grid: Grid, time_grid: TimeGrid) -> None:
        """Store each weight and ``tau_star`` as
        :func:`~chcontrol.errors.check_number` returns it, or raise its
        :class:`ConfigError` headed by the field: each of ``cost.b0`` ..
        ``cost.b6`` a finite number >= 0, ``cost.tau_star`` a finite
        number in [0, T]. A cost that is identically zero, b0..b6 all 0
        and no relaxation or one with gamma 0, is a ConfigError headed
        ``cost``. Then :meth:`check_shapes` for the grids."""
        for i in range(7):
            setattr(self, f"b{i}", check_number(f"cost.b{i}", getattr(self, f"b{i}"), 0))
        if not any(self.weights()) and (self.relaxation is None
                                        or self.relaxation.gamma == 0):
            raise ConfigError("cost: weights b0..b6 must not all be zero")
        self.tau_star = check_number("cost.tau_star", self.tau_star, 0, time_grid.horizon)
        self.check_shapes(time_grid.steps + 1, grid.shape)

    def check_shapes(self, nodes: int, grid_shape: tuple) -> None:
        """Raise :class:`GridMismatchError` (through
        :func:`~chcontrol.errors.check_shape`, headed by its field) for the
        first target whose shape does not fit ``nodes`` time nodes on a grid
        of shape ``grid_shape``."""
        nodes_shape = (nodes,) + grid_shape
        relax = self.relaxation
        for name, arr, expected in (
            ("cost.phi_q", self.phi_q, nodes_shape),
            ("cost.sigma_q", self.sigma_q, nodes_shape),
            ("cost.phi_omega", self.phi_omega, grid_shape),
            ("cost.relaxation.sigma_omega",
             None if relax is None else relax.sigma_omega, grid_shape),
        ):
            if arr is not None:
                check_shape(name, arr.shape, expected)


def constant_trajectory(grid: Grid, time_grid: TimeGrid, value: float) -> np.ndarray:
    return np.full((time_grid.steps + 1,) + grid.shape, float(value))


@dataclass
class CostBreakdown:
    tracking_q: float = 0.0
    tracking_omega: float = 0.0
    nutrient_q: float = 0.0
    tumour_mass: float = 0.0
    linear_time: float = 0.0
    quadratic_time: float = 0.0
    control_energy: float = 0.0
    relaxed_term: float = 0.0

    @property
    def total(self) -> float:
        # left to right in field order; the builtin sum of floats is
        # compensated from Python 3.12 and would round differently
        total, *rest = self.terms().values()
        for value in rest:
            total += value
        return total

    def terms(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# Time quadrature helpers
# ---------------------------------------------------------------------------


def time_weights(n_nodes: int, dt: float) -> np.ndarray:
    """Trapezoid weights for nodes 0..n_nodes-1 (dt/2 at both ends)."""
    w = np.full(n_nodes, dt)
    if n_nodes == 1:
        return np.zeros(1)
    w[0] = w[-1] = 0.5 * dt
    return w


def lerp_nodes(g: np.ndarray, tau: float, dt: float) -> float:
    """Piecewise-linear interpolation of scalar node values at time tau."""
    j = min(int(tau / dt), len(g) - 2)
    j = max(j, 0)
    s = tau / dt - j
    return float((1.0 - s) * g[j] + s * g[j + 1])


def window_weights(k_tau: int, dt: float, eps: float) -> np.ndarray:
    """Per-node quadrature weights of the window (tau - eps, tau] snapped
    at tau = t_{k_tau}; the weights sum to min(eps, tau) exactly (partial
    first cell weighted)."""
    w = np.zeros(k_tau + 1)
    t_hi = k_tau * dt
    a = max(0.0, t_hi - eps)
    if k_tau == 0 or a >= t_hi:
        return w
    j = min(int(a / dt), k_tau - 1)
    xi = a / dt - j
    w[j] += dt * (1.0 - xi) ** 2 / 2.0
    w[j + 1] += dt * (1.0 - xi**2) / 2.0
    # the whole cells (t_i, t_{i+1}), i = j+1..k_tau-1: dt/2 at each end
    w[j + 1:k_tau] += 0.5 * dt
    w[j + 2:] += 0.5 * dt
    return w


# ---------------------------------------------------------------------------
# Space-time inner products over node-indexed arrays
# ---------------------------------------------------------------------------


def space_time_inner(grid: Grid, dt: float, a: np.ndarray, b: np.ndarray,
                     weights: np.ndarray | None = None) -> float:
    """The L2(Q) pairing of node-indexed field arrays, ``b`` of the shape
    of ``a``: the midpoint rule in space (:func:`~chcontrol.fields.integrate`
    of a * b, one integral per node) under the time ``weights``, by
    default the trapezoid weights of :func:`time_weights`."""
    check_shape("b", b.shape, a.shape)
    if weights is None:
        weights = time_weights(a.shape[0], dt)
    return float(np.dot(weights, integrate(grid, a * b)))


def space_time_norm(grid: Grid, dt: float, a: np.ndarray) -> float:
    return float(np.sqrt(max(space_time_inner(grid, dt, a, a), 0.0)))


# ---------------------------------------------------------------------------
# The discrete cost
# ---------------------------------------------------------------------------


class IntegralTerm(NamedTuple):
    """One integral of a state misfit in the cost: weight/2 times the
    integral of |misfit|^2 over [0, tau] (``window`` None) or over
    (tau - window, tau]."""

    name: str               # its CostBreakdown field
    weight: float           # b1, b3 or gamma / eps
    component: str          # the state component it reads
    misfit: np.ndarray      # (frames, *grid.shape): the component minus its target
    window: float | None


def integral_terms(cost: CostSpec, state: Trajectory, frames: int) -> list:
    """The cost's active integral terms, one :class:`IntegralTerm` each, in
    the order tracking_q, nutrient_q, relaxed_term, their misfits on
    frames 0..frames-1 of ``state``. Checks the targets' shapes first
    (:meth:`CostSpec.check_shapes`)."""
    cost.check_shapes(state.time_grid.steps + 1, state.grid.shape)
    terms = [("tracking_q", cost.b1, "phi", cost.phi_q, None),
             ("nutrient_q", cost.b3, "sigma", cost.sigma_q, None)]
    relax = cost.relaxation
    if relax is not None and relax.gamma > 0:
        # sigma_omega, one field that every node reads
        terms.append(("relaxed_term", relax.gamma / relax.eps, "sigma",
                      relax.sigma_omega[None], relax.eps))
    rows = []
    for name, weight, component, target, window in terms:
        if weight > 0:
            f = state.component(component)[:frames]
            misfit = f if target is None else f - target[:frames]
            rows.append(IntegralTerm(name, weight, component, misfit, window))
    return rows


def _terminal_phase_source(cost: CostSpec, phi_tau, q):
    """q plus the terminal phase source b2 (phi(tau) - phi_omega) + b4/2,
    the derivative of the terminal terms in phi(tau)."""
    if cost.b2 > 0:
        diff = phi_tau if cost.phi_omega is None else phi_tau - cost.phi_omega
        q = q + cost.b2 * diff
    if cost.b4 > 0:
        q = q + 0.5 * cost.b4
    return q


# the share of the tail bound that a partial profile's node minimum must
# stay below; each term of the cost is a few roundings of nonnegative
# numbers, so the bound and the values it bounds differ by far less
TAIL_SLACK = 1e-12


class TauProfile:
    """The discrete cost tau -> J(u, tau) at a fixed state and control.

    This is the one implementation of the cost: :func:`reduced_cost`, the
    optimizer and the oracles read every value, breakdown and tau
    derivative from it. The node quantities are cached once
    (O(steps * cells)), so each evaluation costs O(1). Between nodes the
    derivative of the discrete cost is piecewise linear in tau, so the
    continuous minimizer can be located to roundoff with a short
    bisection.

    The integral terms (:func:`integral_terms`: b1/2 int_0^tau |phi -
    phi_q|^2, b3/2 int_0^tau |sigma - sigma_q|^2 and the relaxed term)
    are one rule and live in one table, ``running``: per active term its
    :class:`CostBreakdown` field, weight/2, the node series of the
    squared misfit, its cumulative trapezoid integral and its window
    (None for [0, tau]). :meth:`breakdown`, :meth:`derivative` and
    :meth:`_tail_bound` each read the table in one loop.

    Every cost may also be read from a partial march, frames 0..W (W >= 1)
    of the full one. Such a profile answers every tau with tau / dt < W,
    bitwise as the full profile would: there each formula reads frames
    0..W only. Its nodes are 0..W-1, and :meth:`minimize` returns None
    unless the cost has :meth:`CostSpec.monotone_tail` and the full
    profile's first node minimizer provably lies among nodes 0..W-2 (see
    there). :meth:`least_window` is the least such W for the profile's
    own first node minimizer, the frame that the optimizer's next trial
    marches stop near; both read one scan of the nodes.

    A member-stacked state (see :func:`~chcontrol.state.solve_state`),
    misshapen targets and a misshapen control raise
    :class:`GridMismatchError`, a ShapeMismatchError, through
    :func:`~chcontrol.errors.check_shape`, headed ``cost state``, the
    target's field or ``control``; a state of one frame, or a tau outside
    [0, T] or past a partial march, raises :class:`TimeDomainError`.
    """

    def __init__(self, state: Trajectory, u: np.ndarray, cost: CostSpec):
        grid, tg = state.grid, state.time_grid
        check_shape("cost state", state.data.shape[2:], grid.shape)
        frames = state.nframes
        self.partial = frames != tg.steps + 1
        if frames < 2:
            raise TimeDomainError("the cost needs two forward frames or more")
        terms = integral_terms(cost, state, frames)
        check_control_shape(grid, tg, u)
        self.tg = tg
        self.dt = tg.dt
        self.cost = cost
        # the nodes whose values this profile knows, and the frames' times
        self.times = tg.times[:frames - 1] if self.partial else tg.times
        self.frame_times = tg.times[:frames]

        # the integral terms weight/2 int |misfit|^2 (see the class docstring)
        self.running = []
        for t in terms:
            g = integrate(grid, t.misfit * t.misfit)
            self.running.append((t.name, 0.5 * t.weight, g, self._cumtrapz(g), t.window))

        if cost.b2 > 0:
            diff = state.phi if cost.phi_omega is None else state.phi - cost.phi_omega
            self.qn = integrate(grid, diff * diff)
            self.qx = integrate(grid, diff[:-1] * diff[1:])
            dphi = np.diff(state.phi, axis=0) / self.dt
            self.p_prev = integrate(grid, diff[:-1] * dphi)
            self.p_cur = integrate(grid, diff[1:] * dphi)
        if cost.b4 > 0:
            self.mass = integrate(grid, 1.0 + state.phi)
        self.control_energy = 0.0
        if cost.b0 > 0:
            self.control_energy = 0.5 * cost.b0 * space_time_inner(
                grid, self.dt, u, u)
        self._minimum = None

    def _cumtrapz(self, g):
        out = np.zeros(len(g))
        out[1:] = np.cumsum(0.5 * self.dt * (g[:-1] + g[1:]))
        return out

    def _quad(self, g, cum, tau):
        """Integral over [0, tau] of the piecewise-linear interpolant of
        the node values g (exact partial last interval)."""
        j = min(int(tau / self.dt), len(g) - 1)
        s = tau / self.dt - j
        total = cum[j]
        if s > 0 and j + 1 < len(g):
            total += self.dt * s * ((1.0 - 0.5 * s) * g[j] + 0.5 * s * g[j + 1])
        return float(total)

    def _bracket(self, tau):
        """Interval index for the backward-difference convention."""
        j_hi = int(np.searchsorted(self.frame_times, tau, side="left"))
        j_hi = min(max(j_hi, 1), len(self.frame_times) - 1)
        return j_hi, (tau - self.frame_times[j_hi - 1]) / self.dt

    def _clamp(self, tau):
        tau = self.tg.clamp(tau)
        if self.partial and tau / self.dt >= len(self.times):
            raise TimeDomainError(f"time {tau} past the first {len(self.times) + 1} "
                                  f"frames of the march")
        return tau

    def breakdown(self, tau: float) -> CostBreakdown:
        """Every term of the cost at tau."""
        tau = float(self._clamp(tau))
        c = self.cost
        out = CostBreakdown(linear_time=c.b5 * tau,
                            quadratic_time=0.5 * c.b6 * (tau - c.tau_star) ** 2,
                            control_energy=self.control_energy)
        for name, half, g, cum, eps in self.running:
            win = self._quad(g, cum, tau)
            if eps is not None:
                lo = tau - eps
                win -= self._quad(g, cum, max(lo, 0.0))
                if lo < 0:
                    win += (-lo) * float(g[0])  # sigma frozen at sigma(0)
            setattr(out, name, half * win)
        if c.b2 > 0:
            # |phi(tau) - phi_omega|^2 of the linear interpolant, expanded in
            # the node products
            j = min(int(tau / self.dt), len(self.qn) - 2)
            s = tau / self.dt - j
            out.tracking_omega = float(0.5 * c.b2 * ((1 - s) ** 2 * self.qn[j]
                                                     + 2 * s * (1 - s) * self.qx[j]
                                                     + s**2 * self.qn[j + 1]))
        if c.b4 > 0:
            out.tumour_mass = 0.5 * c.b4 * lerp_nodes(self.mass, tau, self.dt)
        return out

    def value(self, tau: float) -> float:
        return self.breakdown(tau).total

    def derivative(self, tau: float) -> float:
        """Derivative of the discrete cost with respect to tau.

        Exact away from the time nodes. At an interior node the d_t phi
        terms (b2, b4) take the left slope, the backward difference on
        the interval ending there. At tau = 0 they take the right slope,
        the forward difference on the first interval: the one-sided
        derivative that the boundary_low condition D_tau J >= 0 tests.
        """
        tau = self._clamp(tau)
        c = self.cost
        out = c.b5 + c.b6 * (tau - c.tau_star)
        for _, half, g, _, eps in self.running:
            slope = lerp_nodes(g, tau, self.dt)
            if eps is not None:  # sigma frozen at sigma(0) before t = 0
                slope -= g[0] if tau <= eps else lerp_nodes(g, tau - eps, self.dt)
            out += half * slope
        if c.b2 > 0 or c.b4 > 0:
            j_hi, s = self._bracket(tau)
            if c.b2 > 0:
                out += c.b2 * ((1 - s) * self.p_prev[j_hi - 1] + s * self.p_cur[j_hi - 1])
            if c.b4 > 0:
                out += 0.5 * c.b4 * (self.mass[j_hi] - self.mass[j_hi - 1]) / self.dt
        return float(out)

    def node_values(self) -> np.ndarray:
        return np.array([self.value(t) for t in self.times])

    def _node_minimum(self):
        """The first node minimizer k and J(t_k), from one scan of the
        nodes per profile, which :meth:`minimize` and
        :meth:`least_window` share."""
        if self._minimum is None:
            node_j = self.node_values()
            k = int(np.argmin(node_j))
            self._minimum = k, node_j[k]
        return self._minimum

    def _tail_bound(self, w: int) -> float:
        """A lower bound on J(u, t_j) at every node j >= w, from frames
        0..w of the march: the running terms as far as t_{w-1}, which
        every such node's integrals reach, and the time terms at t_w.
        Past tau_star every term grows with tau
        (:meth:`CostSpec.monotone_tail`), and before it the quadratic term
        is bounded by 0. The bound does not fall as w grows."""
        c = self.cost
        t_w = self.tg.times[w]
        past = max(t_w - c.tau_star, 0.0)
        bound = CostBreakdown(linear_time=c.b5 * t_w,
                              quadratic_time=0.5 * c.b6 * past**2,
                              control_energy=self.control_energy)
        for name, half, _, cum, _ in self.running:
            setattr(bound, name, half * float(cum[w - 1]))
        return bound.total

    def _certifies(self, w: int) -> bool:
        """Whether frames 0..w certify the first node minimizer k, for a
        cost with :meth:`CostSpec.monotone_tail`: k <= w-2 and J(t_k) below
        :meth:`_tail_bound` (w) by ``TAIL_SLACK`` of it."""
        k, j_min = self._node_minimum()
        return k <= w - 2 and j_min < (1.0 - TAIL_SLACK) * self._tail_bound(w)

    def least_window(self) -> int:
        """The least frame W whose partial march would certify this
        profile's first node minimizer k, as :meth:`minimize` asks: the
        smallest W >= k+2 among the frames it holds that
        :meth:`_certifies`; nt if none does or the cost has no monotone
        tail. It reads the node values that :meth:`minimize` reads,
        scanned once per profile."""
        if self.cost.monotone_tail():
            k, _ = self._node_minimum()
            for w in range(k + 2, len(self.frame_times)):
                if self._certifies(w):
                    return w
        return self.tg.steps

    def minimize(self) -> float | None:
        """Continuous minimizer of J(u, .) over [0, T], near the best node.

        A partial profile of frames 0..W finds the same minimizer from its
        own nodes when the cost has :meth:`CostSpec.monotone_tail` and
        they certify their first minimizer k (:meth:`_certifies`): k is at
        most W-2 and J(t_k) lies below :meth:`_tail_bound` (W) by
        ``TAIL_SLACK`` of it. The full profile's first node minimizer is
        then k as well, and the search reads [t_{k-1}, t_{k+1}] only.
        Otherwise it returns None.
        """
        k, _ = self._node_minimum()
        if self.partial and not (self.cost.monotone_tail()
                                 and self._certifies(len(self.times))):
            return None
        horizon = self.tg.horizon
        lo = max(self.times[k] - self.dt, 0.0)
        hi = min(self.times[k] + self.dt, horizon)
        d_lo, d_hi = self.derivative(lo), self.derivative(hi)
        if d_lo >= 0.0:
            tau = lo
        elif d_hi <= 0.0:
            tau = hi
        else:
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if self.derivative(mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-15 * horizon:
                    break
            tau = 0.5 * (lo + hi)
        candidates = [tau, self.times[k], max(self.times[k] - self.dt, 0.0),
                      min(self.times[k] + self.dt, horizon)]
        return min(candidates, key=self.value)


def reduced_cost(state: Trajectory, u: np.ndarray, tau: float,
                 cost: CostSpec) -> CostBreakdown:
    """The functional the optimizer minimizes, relaxed when configured."""
    return TauProfile(state, u, cost).breakdown(tau)


def adj_sigma_extended(adjoint: Trajectory, tg: TimeGrid) -> np.ndarray:
    """Zero extension of the nutrient adjoint to the full time grid."""
    out = np.zeros((tg.steps + 1,) + adjoint.grid.shape)
    out[: adjoint.nframes] = adjoint.component("adj_sigma")
    return out


def control_gradient(adjoint: Trajectory, u: np.ndarray, b0: float) -> np.ndarray:
    """Riesz representative of the reduced gradient in the
    trapezoid-weighted L2(Q) product: zero-extended nutrient adjoint plus
    b0 times the control."""
    adj = adj_sigma_extended(adjoint, adjoint.time_grid)
    check_shape("control", u.shape, adj.shape)
    return b0 * u + adj
