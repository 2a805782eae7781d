"""The derivatives of the potential and the proliferation rate.

Each method is pinned bit for bit to the expression the scheme's
artifacts were recorded with, on random 1D and 2D fields; the
derivatives are then checked against each other by central differences.
"""

import numpy as np
import pytest

import chcontrol as ch
from chcontrol.errors import ConfigError, PotentialDomainError

QUARTIC = ch.Potential.quartic()
LOG = ch.Potential.logarithmic(2.0)


def _fields(seed, lo, hi):
    """One random 1D and one random 2D field with values in (lo, hi)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, 64), rng.uniform(lo, hi, (12, 9))


def test_quartic_values():
    # F'(r) = r^3 - r
    assert QUARTIC.dF(1.0) == 0.0
    assert QUARTIC.dF(0.0) == 0.0
    assert QUARTIC.dF(2.0) == 6.0
    assert QUARTIC.dB(1.0) == 1.0
    assert QUARTIC.dS(1.0) == -1.0
    assert QUARTIC.d2B(0.0) == 0.0
    assert QUARTIC.d2S(0.5) == -1.0


def test_logarithmic_values():
    assert LOG.dF(0.0) == 0.0
    # F''(r) = 2/(1 - r^2) - 2 lam
    assert LOG.d2B(0.0) + LOG.d2S(0.0) == pytest.approx(-2.0, abs=1e-15)
    assert LOG.dS(0.3) == pytest.approx(-1.2)


def test_quartic_split():
    for r in _fields(1, -2.0, 2.0):
        assert np.array_equal(QUARTIC.dB(r), r**3)
        assert np.array_equal(QUARTIC.d2B(r), 3.0 * r**2)
        assert np.array_equal(QUARTIC.dS(r), -r)
        assert np.array_equal(QUARTIC.d2S(r), -1.0 + 0.0 * r)
        assert np.array_equal(QUARTIC.dF(r), QUARTIC.dB(r) + QUARTIC.dS(r))


def test_logarithmic_split():
    lam = 1.7
    pot = ch.Potential.logarithmic(lam)
    for r in _fields(2, -0.999, 0.999):
        assert np.array_equal(pot.dB(r), np.log((1.0 + r) / (1.0 - r)))
        assert np.array_equal(pot.d2B(r), 2.0 / (1.0 - r * r))
        assert np.array_equal(pot.dS(r), -2.0 * lam * r)
        assert np.array_equal(pot.d2S(r), -2.0 * lam + 0.0 * r)
        assert np.array_equal(pot.dF(r), pot.dB(r) + pot.dS(r))


def test_convexity_of_convex_part():
    # B'' >= 0 and B' nondecreasing
    rng = np.random.default_rng(3)
    for pot, lo, hi in ((QUARTIC, -3.0, 3.0), (LOG, -0.999, 0.999)):
        r = np.sort(rng.uniform(lo, hi, 200))
        assert np.all(pot.d2B(r) >= 0)
        assert np.all(np.diff(pot.dB(r)) >= 0)


def test_derivatives_match_finite_differences():
    step = 1e-5
    rng = np.random.default_rng(4)
    for pot, lo, hi in ((QUARTIC, -1.5, 1.5), (LOG, -0.9, 0.9)):
        r = rng.uniform(lo, hi, 50)
        for d1, d2 in ((pot.dB, pot.d2B), (pot.dS, pot.d2S)):
            fd = (d1(r + step) - d1(r - step)) / (2 * step)
            an = d2(r)
            assert np.all(np.abs(fd - an) <= 1e-6 * np.maximum(np.abs(an), 1.0))


def test_logarithmic_domain_errors():
    for bad in (1.0, -1.0, 1.5, -2.0):
        for method in (LOG.dB, LOG.d2B, LOG.dF):
            with pytest.raises(PotentialDomainError) as err:
                method(bad)
            assert err.value.r == bad
    for bad, first in ((np.array([0.0, 0.5, 1.0, 2.0]), 1.0),
                       (np.array([[0.2, 0.3], [-1.0, 1.5]]), -1.0)):
        for method in (LOG.dB, LOG.d2B):
            with pytest.raises(PotentialDomainError) as err:
                method(bad)
            assert err.value.r == first
    # the smooth part is a polynomial, with no domain guard
    assert LOG.dS(1.5) == -6.0
    assert LOG.d2S(-2.0) == -4.0
    # never returns NaN inside the domain
    vals = LOG.dB(np.array([-0.999999, 0.999999]))
    assert np.all(np.isfinite(vals))


def test_nan_passes_the_domain_guard():
    # a NaN is the march's to report (NanDetectedError), not the guard's
    r = np.array([0.1, np.nan])
    for method in (LOG.dB, LOG.d2B):
        out = method(r)
        assert np.isfinite(out[0]) and np.isnan(out[1])


def test_distance_matches_separation_formula():
    lo, hi = LOG.domain
    phi = np.random.default_rng(7).uniform(-0.99, 0.99, (6, 12, 9))
    phi[2, 3, 4] = 0.999999
    expected = np.minimum((phi - lo).min(axis=(1, 2)), (hi - phi).min(axis=(1, 2)))
    assert [LOG.distance(f) for f in phi] == list(expected)
    assert LOG.distance(0.25) == 0.75
    assert LOG.distance(np.array([0.5, 1.0])) == 0.0
    assert LOG.distance(np.array([-1.5, 0.5])) == -0.5
    assert np.isnan(LOG.distance(np.array([0.1, np.nan])))
    assert QUARTIC.distance(phi) == np.inf


def test_window_clip_and_start_check():
    # the march holds phi in the domain less 1e-6 of its width at each end;
    # the quartic's window is all of R
    assert LOG.margin == 1e-6 * 2.0 and QUARTIC.margin == 0.0
    lo, hi = -1.0 + LOG.margin, 1.0 - LOG.margin
    r = np.array([-1.5, -0.9999995, 0.3, 0.9999999, np.nan])
    LOG.clip(r)
    assert r[:4].tolist() == [lo, lo, 0.3, hi] and np.isnan(r[4])
    q = np.array([-5.0, 5.0, np.inf])
    QUARTIC.clip(q)
    assert q.tolist() == [-5.0, 5.0, np.inf]
    LOG.check_start(np.array([lo, hi]), "f: 1")
    QUARTIC.check_start(np.array([-5.0, 5.0]), "f: 1")
    for bad in ([0.0, 1.0 - 1e-6], [-1.0, 0.0], [0.0, np.nan]):
        with pytest.raises(ConfigError, match=r"^f: 1 puts phi0 outside "):
            LOG.check_start(np.array(bad), "f: 1")


def test_constructor_value_errors():
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError, match="lam"):
            ch.Potential.logarithmic(lam)
    for width in (0.0, -0.1):
        with pytest.raises(ValueError, match="width"):
            ch.Proliferation.smooth_ramp(1.0, width)
    with pytest.raises(ValueError, match="nonnegative"):
        ch.Proliferation.constant(-0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        ch.Proliferation.smooth_ramp(-1.0, 0.5)


def test_logarithmic_derivative_diverges_at_edges():
    seq = [LOG.dF(r) for r in (0.9, 0.99, 0.999, 0.9999)]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    assert seq[-1] > 1e3 * 0.001  # grows without bound
    seq_lo = [LOG.dF(-r) for r in (0.9, 0.99, 0.999, 0.9999)]
    assert all(b < a for a, b in zip(seq_lo, seq_lo[1:]))


def test_proliferation_constant():
    p = ch.Proliferation.constant(0.5)
    assert p.P(3.0) == 0.5
    assert p.dP(-1.0) == 0.0
    # grid-shaped, as the step solver ravels P
    for r in _fields(5, -2.0, 2.0):
        assert p.P(r).shape == r.shape and np.all(p.P(r) == 0.5)
        assert p.dP(r).shape == r.shape and np.all(p.dP(r) == 0.0)


def test_proliferation_ramp_expressions():
    p0, width = 0.7, 0.3
    p = ch.Proliferation.smooth_ramp(p0, width)
    for r in _fields(6, -2.0, 2.0):
        z = r / width
        assert np.array_equal(p.P(r), 0.5 * p0 * (1.0 + np.tanh(z)))
        assert np.array_equal(p.dP(r), 0.5 * p0 / width / np.cosh(z) ** 2)


def test_proliferation_ramp_limits():
    p = ch.Proliferation.smooth_ramp(1.0, 0.2)
    assert p.P(10.0) == pytest.approx(1.0, abs=1e-12)
    assert p.P(-10.0) == pytest.approx(0.0, abs=1e-12)


def test_proliferation_bounds_sampled():
    p = ch.Proliferation.smooth_ramp(0.7, 0.5)
    r = np.linspace(-2, 2, 201)
    vals = p.P(r)
    assert np.all(vals >= 0) and np.all(vals <= 0.7 + 1e-15)
    slopes = p.dP(r)
    assert np.all(slopes >= 0) and np.all(slopes <= 0.7 / 0.5 / 2 + 1e-15)


def test_proliferation_ramp_derivative_fd():
    p = ch.Proliferation.smooth_ramp(1.0, 0.2)
    step = 1e-6
    r = np.random.default_rng(6).uniform(-1, 1, 10)
    fd = (p.P(r + step) - p.P(r - step)) / (2 * step)
    assert np.all(np.abs(fd - p.dP(r)) <= 1e-6)
