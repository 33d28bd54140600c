"""Shared oracles and reference constants for the test suite.

The brute-force integral oracle goes through mpmath on the half-angle
substituted integrand with scale-aware interval splits, entirely
independent of the package's own quadrature.  Per-pair constants were
frozen from 30+ digit runs of the same oracle (and exact closed forms
where those exist).
"""

import math

import mpmath as mp
import numpy as np
import pytest

mp.mp.dps = 30

# (d, m) triples used throughout: one per regime.
CASE_I = (2, 0.5)
CASE_II = (3, 0.25)
CASE_III = (5, 0.3)
REFERENCE_PAIRS = (CASE_I, CASE_II, CASE_III)

# frozen 30-digit oracle values, rounded to double
KAPPA1 = {CASE_I: 5.317361552716548, CASE_II: 9.364774102985361, CASE_III: 19.919903846977856}
KAPPA2 = {CASE_II: 14.056326244543644, (4, 0.2): 12.693723280976954, CASE_III: 17.862301872611239}
KAPPA3_5_03 = 15.808760848420849
ALPHA_BAR_5_03 = 0.3137254901960784  # = 0.32 / 1.02
KAPPA_C_5_03 = 17.127508229913257
H_AT_ONE_3_025 = 0.07114234420876357
E_UNIFORM_ZERO_KAPPA_2_05 = -7.089815403622064  # -2 sqrt(4 pi)
I0_ETA1_Q43_D3 = 8.674295834969992  # 2^(2/3) * B(1/6, 3/2)
I1_ETA1_Q43_D3 = 6.939436667975993
LGAMMA_ONE_SIXTH = 1.7167334350782405
ALPHA_AT_100K2_3_025 = 0.9983993167866583


def mp_theta_integral(eta: float, q: float, p: int, d: int) -> float:
    """High-precision oracle for int_0^pi (eta - cos x)^q sin^(d-1)x cos^p x dx.

    Half-angle substitution x = 2t keeps eta - cos x = (eta - 1) + 2 sin^2 t
    exact near the singular end, and the split points track the spike scale
    sqrt(eta - 1) so the tanh-sinh backend never misses it.  The factor eta^q
    is taken out of the integrand: mpmath's convergence test is absolute, so
    at eta = 1e6 and q = -5 it would accept an integral of size 1e-30 at once.
    """
    e = mp.mpf(eta)
    qm = mp.mpf(q)

    def f(t):
        s2 = 2 * mp.sin(t) ** 2
        val = (((e - 1) + s2) / e) ** qm * (2 * mp.sin(t) * mp.cos(t)) ** (d - 1)
        if p == 1:
            val *= 1 - s2
        return 2 * val

    pts = [mp.mpf(0)]
    eps = e - 1
    if eps > 0:
        spike = mp.sqrt(eps)
        for k in ("1e-3", "0.1", "1", "10", "1000"):
            x = spike * mp.mpf(k)
            if 0 < x < mp.pi / 8:
                pts.append(x)
    pts += [mp.pi / 8, mp.pi / 4, mp.pi / 2]
    return float(e**qm * mp.quad(f, sorted(set(pts))))


def sphere_average(f, d: int, nodes: int = 400) -> float:
    """int_{S^d} f(theta) dS by Gauss-Legendre in theta (smooth f only)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * (x + 1.0)
    area_sdm1 = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
    vals = np.array([f(float(t)) for t in theta])
    return area_sdm1 * 0.5 * math.pi * float(np.sum(w * vals * np.sin(theta) ** (d - 1)))


@pytest.fixture(scope="session")
def reference_pairs():
    return REFERENCE_PAIRS
