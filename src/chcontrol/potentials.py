"""Double-well potentials and the proliferation nonlinearity.

A potential F is stored with its convex/smooth decomposition
F = B + S where B is convex (treated implicitly by the time scheme) and
S is a smooth perturbation (treated explicitly). Two variants:

* quartic: F(r) = (r^2 - 1)^2 / 4 on all of R, split as
  B(r) = r^4 / 4 (so B(0) = 0) and S(r) = 1/4 - r^2 / 2;
* logarithmic(lam): F(r) = (1-r)log(1-r) + (1+r)log(1+r) - lam r^2 on
  (-1, 1), split into the entropy part (convex) and -lam r^2.

The proliferation function P must be nonnegative, bounded, with bounded
derivative; the smooth ramp P0 * (1 + tanh(r / s)) / 2 satisfies this for
any width s > 0, as does a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PotentialDomainError

_CONVEX = "convex"
_SMOOTH = "smooth"


@dataclass(frozen=True)
class Potential:
    kind: str
    lam: float = 0.0

    @classmethod
    def quartic(cls) -> "Potential":
        return cls("quartic")

    @classmethod
    def logarithmic(cls, lam: float = 2.0) -> "Potential":
        if lam <= 0:
            raise ValueError("logarithmic potential needs lam > 0")
        return cls("logarithmic", float(lam))

    @property
    def domain(self):
        if self.kind == "logarithmic":
            return (-1.0, 1.0)
        return (-np.inf, np.inf)

    @property
    def singular(self) -> bool:
        return self.kind == "logarithmic"

    def check_domain(self, r) -> None:
        if not self.singular:
            return
        r = np.asarray(r)
        lo, hi = self.domain
        if np.any(r <= lo) or np.any(r >= hi):
            bad = r[(r <= lo) | (r >= hi)]
            raise PotentialDomainError(np.ravel(bad)[0], lo, hi)


def _quartic_convex(r, order):
    if order == 0:
        return 0.25 * r**4
    if order == 1:
        return r**3
    return 3.0 * r**2


def _quartic_smooth(r, order):
    if order == 0:
        return 0.25 - 0.5 * r**2
    if order == 1:
        return -r
    return -1.0 + 0.0 * r


def _log_convex(r, lam, order):
    if order == 0:
        return (1.0 - r) * np.log(1.0 - r) + (1.0 + r) * np.log(1.0 + r)
    if order == 1:
        return np.log((1.0 + r) / (1.0 - r))
    return 2.0 / (1.0 - r * r)


def _log_smooth(r, lam, order):
    if order == 0:
        return -lam * r**2
    if order == 1:
        return -2.0 * lam * r
    return -2.0 * lam + 0.0 * r


def potential_split_eval(pot: Potential, r, part: str, order: int = 0):
    """Derivative of order 0..2 of the convex or smooth part of F."""
    if part not in (_CONVEX, _SMOOTH):
        raise ValueError(f"part must be 'convex' or 'smooth', got {part!r}")
    if not 0 <= order <= 2:
        raise ValueError("split derivatives are available up to order 2")
    r = np.asarray(r, dtype=float)
    pot.check_domain(r)
    if pot.kind == "quartic":
        out = _quartic_convex(r, order) if part == _CONVEX else _quartic_smooth(r, order)
    else:
        fn = _log_convex if part == _CONVEX else _log_smooth
        out = fn(r, pot.lam, order)
    return out if np.ndim(out) else float(out)


def potential_eval(pot: Potential, r, order: int = 0):
    """Derivative of order 0..3 of the full potential F = B + S."""
    if not 0 <= order <= 3:
        raise ValueError("potential derivatives are available up to order 3")
    r = np.asarray(r, dtype=float)
    pot.check_domain(r)
    if order <= 2:
        out = potential_split_eval(pot, r, _CONVEX, order) + potential_split_eval(
            pot, r, _SMOOTH, order
        )
        return out
    if pot.kind == "quartic":
        out = 6.0 * r
    else:
        out = 4.0 * r / (1.0 - r * r) ** 2
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class Proliferation:
    """Nonnegative bounded exchange-rate nonlinearity P."""

    kind: str
    p0: float
    width: float = 0.5

    @classmethod
    def constant(cls, p0: float) -> "Proliferation":
        return cls("constant", float(p0))

    @classmethod
    def smooth_ramp(cls, p0: float, width: float = 0.5) -> "Proliferation":
        if width <= 0:
            raise ValueError("ramp width must be positive")
        return cls("smooth_ramp", float(p0), float(width))

    def __post_init__(self):
        if self.p0 < 0:
            raise ValueError("proliferation magnitude must be nonnegative")


def proliferation_eval(p: Proliferation, r, order: int = 0):
    """P, P' or P''. The constant kind returns (p0, 0, 0)."""
    if not 0 <= order <= 2:
        raise ValueError("proliferation derivatives are available up to order 2")
    r = np.asarray(r, dtype=float)
    if p.kind == "constant":
        out = np.full_like(r, p.p0) if order == 0 else np.zeros_like(r)
    else:
        z = r / p.width
        if order == 0:
            out = 0.5 * p.p0 * (1.0 + np.tanh(z))
        elif order == 1:
            out = 0.5 * p.p0 / p.width / np.cosh(z) ** 2
        else:
            out = -p.p0 / p.width**2 * np.tanh(z) / np.cosh(z) ** 2
    return out if np.ndim(out) else float(out)
