"""Shared draw helpers and an independent single-well reference solver."""

import mpmath as mp
import numpy as np
from scipy.optimize import brentq

from bilayer1d import DoubleLayerSpec, SqueezeFamily, cancellation_gap, oracle, realize
from bilayer1d.core import EV_TO_INV_NM2 as EV


def random_spec(rng, v_lo=-3.0, v_hi=3.0, l_lo=0.0, l_hi=2.0, r_lo=0.0, r_hi=2.0):
    """A random two-layer structure; widths may be zero."""
    v1, v2 = rng.uniform(v_lo, v_hi, 2)
    l1, l2 = rng.uniform(l_lo, l_hi, 2)
    r = rng.uniform(r_lo, r_hi)
    return DoubleLayerSpec.make(v1, l1, v2, l2, r)


# hard inputs for a level search, as (v1, l1, v2, l2, r): near-degenerate
# doublets of two wells behind a gap, and a level 1e-5 sqrt|V| below
# threshold; then squeezed families whose one level sits in a thin well
GAPPED_DOUBLET = (-10475.535340231465, 1.0009482984339129, -2631.446628040983,
                  0.14540619918341677, 0.4187274250603946)
NEAR_THRESHOLD = (-20.315715440261613, 0.971119090728971, -91.41118178888185,
                  2.5309755436057078, 0.0)
# draws 93, 107, 162 and 167 of 200 gapped double wells from default_rng(5):
# v1 = -U(1, 3000), v2 = +-U(1, 3000), l1, l2 = U(0.1, 2), r = U(0, 1)
GAPPED_DRAWS = {
    93: (-1147.8823257333381, 1.2668926305450725, -1547.5287796087364,
         0.8570124209312847, 0.6842002650927205),
    107: (-2500.2765918161554, 1.2388269478571292, -1462.9410773524487,
          1.358653621702649, 0.2052769890490146),
    162: (-1384.041153683431, 1.3304001020129947, -1676.671866254717,
          0.9546094151543338, 0.7312074895267059),
    167: (-2426.858382633865, 0.6031592499814092, -2341.3196962345355,
          0.7892901823430108, 0.9983540036182748),
}
BARRIER_WELL = SqueezeFamily(2.0, 2.0, 2.0, 0.5 * EV, -0.5 * EV, 1.0121526769027671, 0.6, 2.0)
THIN_FAMILY = SqueezeFamily(1.5, 1.5, 1.5, 0.5 * EV, -0.5 * EV, 1.0, 1.0, 2.0)
THIN_EPS = (1e-7, 1e-8, 1e-9)


def fault_specs():
    """The inputs above by name, with the families realized at small eps."""
    specs = {"doublet-miss-3": DoubleLayerSpec.make(*GAPPED_DOUBLET),
             "threshold-loss-0": DoubleLayerSpec.make(*NEAR_THRESHOLD),
             "barrier-well": realize(BARRIER_WELL, 10.0**-5.5)}
    specs.update({f"gapped-draw-{d}": DoubleLayerSpec.make(*s) for d, s in GAPPED_DRAWS.items()})
    specs.update({f"thin-{eps:g}": realize(THIN_FAMILY, eps) for eps in THIN_EPS})
    return specs


# one exponent triple (mu, nu, tau) per region label, and two outside
REGION_EXAMPLES = {
    (2.0, 2.0, 1.0): "P1",
    (2.0, 2.0, 2.0): "P2",
    (2.0, 2.0, 1.5): "N1",
    (2.0, 2.0, 3.0): "N2",
    (1.5, 1.0, 0.5): "K1",
    (1.5, 1.0, 1.0): "K2",
    (1.5, 1.0, 0.75): "Q1",
    (1.5, 1.0, 1.5): "Q2",
    (2.0, 3.0, 1.0): "L1",
    (2.0, 3.0, 2.0): "L2",
    (2.0, 3.0, 1.5): "O1",
    (2.0, 3.0, 3.0): "O2",
    (1.5, 1.5, 0.5): "S1",
    (1.5, 1.5, 1.0): "S2",
    (1.5, 1.5, 0.75): "I1",
    (1.5, 1.5, 1.5): "I2",
    (3.0, 2.0, 1.0): "outside",
    (0.5, 0.5, 0.5): "outside",
}


def random_wavenumbers(rng, n):
    return rng.uniform(0.15, 3.0, n)


def single_well_kappas(depth, width):
    """Bound decay constants of one square well, from the textbook
    even/odd half-well conditions, written in product form so the
    residuals stay continuous through the tangent poles.

    depth > 0 is the well depth (potential -depth), width its length.
    """
    vmax = np.sqrt(depth)

    def even_res(kappa):
        q = np.sqrt(max(depth - kappa * kappa, 0.0))
        half = q * width / 2.0
        return q * np.sin(half) - kappa * np.cos(half)

    def odd_res(kappa):
        q = np.sqrt(max(depth - kappa * kappa, 0.0))
        half = q * width / 2.0
        return q * np.cos(half) + kappa * np.sin(half)

    kappas = []
    grid = np.linspace(vmax * (1.0 - 1e-12), 1e-12, 4096)
    for res in (even_res, odd_res):
        vals = np.array([res(k) for k in grid])
        sign = vals[:-1] * vals[1:] < 0.0
        for i in np.flatnonzero(sign):
            kappas.append(brentq(res, grid[i + 1], grid[i], xtol=1e-13))
    return np.sort(np.array(kappas))


def draw_cancelling_spec(rng):
    """Two wells plus the gap width that cancels the leading divergence
    at a random probe wavenumber; returns (spec, k).

    Draws are filtered so the internal cosines stay away from zero and
    the computed gap width is a usable positive length.
    """
    while True:
        v1 = -rng.uniform(0.2, 3.0)
        v2 = -rng.uniform(0.2, 3.0)
        l1 = rng.uniform(0.2, 2.0)
        l2 = rng.uniform(0.2, 2.0)
        k = rng.uniform(0.15, 3.0)
        k1 = np.sqrt(k * k - v1)
        k2 = np.sqrt(k * k - v2)
        if min(abs(np.cos(k1 * l1)), abs(np.cos(k2 * l2))) < 0.15:
            continue
        if min(abs(np.sin(k1 * l1)), abs(np.sin(k2 * l2))) < 0.15:
            continue
        trial = DoubleLayerSpec.make(v1, l1, v2, l2, 1.0)
        r_star = cancellation_gap(trial, k)
        if not np.isfinite(r_star) or not 0.05 < r_star < 5.0:
            continue
        return DoubleLayerSpec.make(v1, l1, v2, l2, r_star), k


def array_certificate(spec, kappas):
    """The certificate of verify_ladder written over arrays, as (ok,
    residuals, missed): the direct level condition through the tanc_sqrt
    kernel, and the count windows through np.sort, np.diff and np.minimum.
    A reference for the plain-float version in bound.py, which must give
    the same flags and missed levels."""
    from bilayer1d import bound
    from bilayer1d.kernels import tanc_sqrt

    kappas = np.asarray(kappas, dtype=float)
    k2 = -kappas * kappas
    q1, q2 = k2 - spec.v1, k2 - spec.v2
    t1 = spec.l1 * tanc_sqrt(q1 * spec.l1 * spec.l1)  # tan(k1 l1)/k1
    t2 = spec.l2 * tanc_sqrt(q2 * spec.l2 * spec.l2)
    t0 = np.tanh(kappas * spec.r)
    with np.errstate(all="ignore"):
        right, r1, r2 = 1.0 + t0, q1 / kappas, q2 / kappas
        pole1, pole2 = t1 * right, t2 * right
        terms = (2.0 * right, (kappas - r1) * pole1, (kappas - r2) * pole2,
                 t1 * t2 * (kappas * kappas + r1 * r2) * t0, -t1 * t2 * (q1 + q2))
        scale = (terms[0] + np.abs(terms[3]) + np.abs(terms[4])
                 + (kappas + np.abs(r1)) * np.abs(pole1) + (kappas + np.abs(r2)) * np.abs(pole2))
        residuals = np.abs(sum(terms)) / np.maximum(scale, 1.0)
        levels = np.sort(kappas)
        gaps = np.diff(levels, prepend=-np.inf, append=np.inf)
        half = np.minimum(5e-9 * levels, np.minimum(gaps[:-1], gaps[1:]) / 3.0)
    p = bound._params(spec)

    def count(k):
        return bound._count(k, bound._phase(p, k))

    complete = count(0.0) == levels.size and all(
        count(k - h) - count(k + h) == 1 for k, h in zip(levels.tolist(), half.tolist()))
    missed = np.array([])
    if not complete:
        found = bound._levels(p, 0.0, np.sqrt(max(-spec.v1, -spec.v2, 0.0)))
        missed = np.array([k for k in found
                           if not np.any(np.abs(kappas - k) <= 1e-8 * max(1.0, k))])
    ok = complete and bool(not residuals.size or residuals.max() < 1e-8)
    return ok, residuals, missed


def fixed_digit_amplitudes(spec, k, dps):
    """(log|a|, arg a, b/a) of the oracle's slab product at a fixed precision."""
    with mp.workdps(dps):
        return oracle._amplitudes_at(oracle._pieces(spec), k)[0]
