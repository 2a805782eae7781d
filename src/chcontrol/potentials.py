"""Double-well potentials and the proliferation nonlinearity.

A potential F is stored with its convex/smooth decomposition
F = B + S where B is convex (treated implicitly by the time scheme) and
S is a smooth perturbation (treated explicitly). Two variants:

* quartic: F(r) = (r^2 - 1)^2 / 4 on all of R, split as
  B(r) = r^4 / 4 (so B(0) = 0) and S(r) = 1/4 - r^2 / 2;
* logarithmic(lam): F(r) = (1-r)log(1-r) + (1+r)log(1+r) - lam r^2 on
  (-1, 1), split into the entropy part (convex) and -lam r^2.

:class:`Potential` has one method per derivative the scheme evaluates:
``dB`` (implicit in the step), ``d2B`` (the Newton matrix and the
linearization), ``dS`` (explicit in the step), ``d2S`` (the
linearization) and ``dF`` = B' + S' (the presets' mu0 = F'(phi0)).
``distance`` is the one formula of the domain rule: the least distance
of a field to the boundary of the domain of F, inf for the quartic. The
logarithmic ``dB`` and ``d2B`` raise :class:`PotentialDomainError` on a
value outside (-1, 1); a NaN passes, for the march to report.

The march holds phi in the window of the domain: the domain less
``margin``, 1e-6 of its width, at each end (all of R for the quartic).
``clip`` clips every Newton trial into it, and ``check_start`` refuses a
start outside it, which the march could not hold.

The proliferation function P must be nonnegative, bounded, with bounded
derivative; the smooth ramp P0 * (1 + tanh(r / s)) / 2 satisfies this for
any width s > 0, as does a constant. :class:`Proliferation` has ``P``
(frozen in the step) and ``dP`` (the linearization).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PotentialDomainError


@dataclass(frozen=True)
class Potential:
    """The double well of ``kind``, quartic or logarithmic; a logarithmic
    ``lam`` not finite and positive raises :class:`ConfigError` headed
    ``model.potential.lam``."""

    kind: str
    lam: float = 0.0

    @classmethod
    def quartic(cls) -> "Potential":
        return cls("quartic")

    @classmethod
    def logarithmic(cls, lam: float = 2.0) -> "Potential":
        return cls("logarithmic", float(lam))

    def __post_init__(self):
        if self.kind not in ("quartic", "logarithmic"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.singular and not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError("model.potential.lam: must be a finite positive number")

    @property
    def domain(self):
        if self.singular:
            return (-1.0, 1.0)
        return (-np.inf, np.inf)

    @property
    def singular(self) -> bool:
        return self.kind == "logarithmic"

    def distance(self, r) -> float:
        """Least distance of the values ``r`` to the boundary of the
        domain: positive inside, NaN if ``r`` holds a NaN."""
        if not self.singular:
            return np.inf
        lo, hi = self.domain
        r = np.asarray(r)
        return float(min((r - lo).min(), (hi - r).min()))

    @property
    def margin(self) -> float:
        """1e-6 of the domain's width, 0 for the quartic."""
        lo, hi = self.domain
        return 1e-6 * (hi - lo) if self.singular else 0.0

    @property
    def window(self):
        """The closed interval the march holds phi in: the domain less the
        margin at each end."""
        lo, hi = self.domain
        return lo + self.margin, hi - self.margin

    def clip(self, r) -> None:
        """Clip the array ``r`` into the window in place; a no-op for the
        quartic."""
        if self.singular:
            np.clip(r, *self.window, out=r)

    def check_start(self, phi, blame: str) -> None:
        """Raise :class:`ConfigError`, its message headed by ``blame`` (the
        field that gave ``phi`` and its value), unless every value of the
        start ``phi`` lies in the window: the march could not hold it."""
        lo, hi = self.window
        if not (np.all(lo <= phi) and np.all(phi <= hi)):
            raise ConfigError(f"{blame} puts phi0 outside [{lo}, {hi}], the window of "
                              f"the potential: it spans [{np.min(phi):.7g}, "
                              f"{np.max(phi):.7g}]")

    def _check_domain(self, r) -> None:
        if self.distance(r) <= 0:
            lo, hi = self.domain
            r = np.asarray(r)
            raise PotentialDomainError(np.ravel(r[(r <= lo) | (r >= hi)])[0], lo, hi)

    def dB(self, r):
        if not self.singular:
            return r**3
        self._check_domain(r)
        return np.log((1.0 + r) / (1.0 - r))

    def d2B(self, r):
        if not self.singular:
            return 3.0 * r**2
        self._check_domain(r)
        return 2.0 / (1.0 - r * r)

    def dS(self, r):
        if not self.singular:
            return -r
        return -2.0 * self.lam * r

    def d2S(self, r):
        if not self.singular:
            return -1.0 + 0.0 * r
        return -2.0 * self.lam + 0.0 * r

    def dF(self, r):
        return self.dB(r) + self.dS(r)


@dataclass(frozen=True)
class Proliferation:
    """Nonnegative bounded exchange-rate nonlinearity P. A ``p0`` not finite
    and nonnegative, or a ``width`` not finite and positive, raises
    :class:`ConfigError` headed ``model.proliferation.p0`` or
    ``model.proliferation.width``."""

    kind: str
    p0: float
    width: float = 0.5

    @classmethod
    def constant(cls, p0: float) -> "Proliferation":
        return cls("constant", float(p0))

    @classmethod
    def smooth_ramp(cls, p0: float, width: float = 0.5) -> "Proliferation":
        return cls("smooth_ramp", float(p0), float(width))

    def __post_init__(self):
        if self.kind not in ("constant", "smooth_ramp"):
            raise ValueError(f"unknown proliferation kind {self.kind!r}")
        if not (math.isfinite(self.p0) and self.p0 >= 0):
            raise ConfigError("model.proliferation.p0: must be finite and nonnegative")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ConfigError("model.proliferation.width: must be finite and positive")

    # the constant kind returns a field shaped like r: the step solver
    # ravels P
    def P(self, r):
        if self.kind == "constant":
            return np.full_like(r, self.p0)
        # on a subnormal width r / width overflows to +-inf, where tanh is
        # +-1 indeed
        with np.errstate(over="ignore"):
            return 0.5 * self.p0 * (1.0 + np.tanh(r / self.width))

    def dP(self, r):
        if self.kind == "constant":
            return np.zeros_like(r)
        # on a narrow ramp cosh overflows to inf away from r = 0, where dP
        # is 0 indeed; a subnormal width overflows 0.5 p0 / width as well,
        # and the largest float in its place keeps that 0 rather than inf / inf
        scale = min(0.5 * self.p0 / self.width, sys.float_info.max)
        with np.errstate(over="ignore"):
            return scale / np.cosh(r / self.width) ** 2
