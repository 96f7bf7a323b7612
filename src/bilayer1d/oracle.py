"""Slow, independent integrators that cross-check the closed forms.

Everything here walks the stationary wave equation numerically, by the
method that oracle_entries and scatter_grid take:
"rk4" (the default) steps the fundamental matrix by RK4 at a step that
resolves the narrowest piece, "exact" multiplies per-piece propagators
built from complex square roots and hyperbolic functions.  Neither path
shares code with the branch-free kernels used by the fast routines, so
a bug cannot cancel between the two.  The bound levels come from a
level count in mpmath, bisected to the float spacing; mpmath is imported
only when it runs, so importing the library does not load it, and the
oracle needs no scipy.
"""

import math

import numpy as np
from numpy.lib import scimath


def _pieces(spec):
    out = []
    if spec.l1 > 0.0:
        out.append((spec.l1, spec.v1))
    if spec.r > 0.0:
        out.append((spec.r, 0.0))
    if spec.l2 > 0.0:
        out.append((spec.l2, spec.v2))
    return out


def _auto_step(pieces, k2):
    """Step that keeps the local phase advance per step around 0.015."""
    vmax = max(abs(v) for _, v in pieces)
    qmax = math.sqrt(vmax + float(np.max(np.abs(k2))))
    min_piece = min(length for length, _ in pieces)
    return min(min_piece / 16.0, 0.015 / max(qmax, 1e-6))


def _rk4_matrix(spec, k2, step):
    n = k2.shape[0]
    m = np.zeros((2, 2, n))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    for length, v in _pieces(spec):
        q = v - k2
        steps = max(1, int(math.ceil(length / step)))
        h = length / steps

        def deriv(y):
            return np.stack([y[1], q * y[0]])

        for _ in range(steps):
            k1 = deriv(m)
            k2_ = deriv(m + 0.5 * h * k1)
            k3 = deriv(m + 0.5 * h * k2_)
            k4 = deriv(m + h * k3)
            m = m + (h / 6.0) * (k1 + 2.0 * k2_ + 2.0 * k3 + k4)
    return m


def _exact_matrix(spec, k2):
    n = k2.shape[0]
    m = np.zeros((2, 2, n), dtype=complex)
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    for length, v in _pieces(spec):
        q = v - k2
        kloc = scimath.sqrt(q.astype(complex))
        z = kloc * length
        # sinh(z)/kloc tends to length as kloc -> 0; kloc*sinh(z) is exact there
        zero = kloc == 0.0
        sh = np.sinh(z)
        p11 = np.cosh(z)
        p12 = np.where(zero, length, sh / np.where(zero, 1.0, kloc))
        p21 = kloc * sh
        m = np.stack(
            [
                np.stack([p11 * m[0, 0] + p12 * m[1, 0], p11 * m[0, 1] + p12 * m[1, 1]]),
                np.stack([p21 * m[0, 0] + p11 * m[1, 0], p21 * m[0, 1] + p11 * m[1, 1]]),
            ]
        )
    return m


def oracle_entries(spec, k2, method="rk4"):
    """Fundamental-matrix entries across the structure, by integration.

    k2 may be any real array (negative values reach the bound sector),
    method "rk4" or "exact".  Returns four real arrays (l11, l12, l21, l22).
    """
    k2 = np.atleast_1d(np.asarray(k2, dtype=float))
    pieces = _pieces(spec)
    if not pieces:
        one = np.ones_like(k2)
        zero = np.zeros_like(k2)
        return one, zero, zero, one.copy()
    if method == "rk4":
        m = _rk4_matrix(spec, k2, _auto_step(pieces, k2))
        return m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    if method == "exact":
        m = _exact_matrix(spec, k2)
        scale = np.max(np.abs(m))
        drift = np.max(np.abs(m.imag))
        if drift > 1e-9 * max(1.0, scale):
            raise ArithmeticError(
                f"propagator entries drifted off the real axis by {drift:g}"
            )
        mr = m.real
        return mr[0, 0], mr[0, 1], mr[1, 0], mr[1, 1]
    raise ValueError(f"unknown oracle method {method!r}")


def _amplitudes(l11, l12, l21, l22, k, extent):
    d = (l11 + l22) - 1j * (k * l12 - l21 / k)
    a = 0.5 * d * np.exp(1j * k * extent)
    b = 0.5 * ((l11 - l22) - 1j * (k * l12 + l21 / k)) * np.exp(-1j * k * extent)
    return a, b


def scatter_grid(spec, ks, method="rk4"):
    """Amplitude pair (a, b) on a real-k grid, by numerical integration."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    if np.any(ks <= 0.0):
        raise ValueError("scattering oracle needs k > 0")
    l11, l12, l21, l22 = oracle_entries(spec, ks * ks, method)
    return _amplitudes(l11, l12, l21, l22, ks, spec.extent)


def integrate_bound(spec):
    """Bound levels kappa (ascending), located by the Sturm count alone.

    (0, kmax) is bisected with level_count: an interval (lo, hi] holds
    N(lo) - N(hi) levels, so each level is first bracketed alone, which
    separates close doublets, and then narrowed until its bracket is
    under 4e-16 relative or no float midpoint is left.  Each level is
    returned at the upper end of its bracket, once per level it holds.
    """
    vmin = min(spec.v1, spec.v2, 0.0)
    if vmin >= 0.0:
        return np.array([])
    kmax = math.sqrt(-vmin) * (1.0 - 1e-12)
    levels = []
    # (lo, hi, N(lo), N(hi)): the interval (lo, hi] holds N(lo) - N(hi) levels
    stack = [(0.0, kmax, level_count(spec, 0.0), level_count(spec, kmax))]
    while stack:
        lo, hi, n_lo, n_hi = stack.pop()
        mid = 0.5 * (lo + hi)
        if n_lo == n_hi:
            continue
        if hi - lo <= 4e-16 * hi or not lo < mid < hi:
            levels.extend([hi] * (n_lo - n_hi))
        else:
            n_mid = level_count(spec, mid)
            stack += [(lo, mid, n_lo, n_mid), (mid, hi, n_mid, n_hi)]
    return np.sort(np.array(levels))


def level_count(spec, kappa):
    """Number of bound levels with decay rate above kappa >= 0, in mpmath.

    By Sturm's oscillation theorem this is the number of zeros of the
    solution that decays on the left, e^{kappa x} for x < 0.  It is
    followed in 40-digit arithmetic through each piece with unscaled
    trigonometric and hyperbolic propagators.  A piece where it
    oscillates adds the zeros its Pruefer angle passes, a piece where it
    does not adds one zero when the sign changes, and the tail to the
    right adds one zero when its decaying part outweighs a growing part of
    the other sign.
    """
    import mpmath as mp

    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    with mp.workdps(40):
        kappa = mp.mpf(kappa)
        psi, dpsi = mp.mpf(1), kappa
        zeros = 0
        for length, v in _pieces(spec):
            length = mp.mpf(length)
            q = mp.mpf(v) + kappa * kappa
            if q < 0:
                w = mp.sqrt(-q)
                angle = mp.atan2(psi, dpsi / w)
                zeros += int(mp.floor((angle + w * length) / mp.pi) - mp.floor(angle / mp.pi))
                c, s = mp.cos(w * length), mp.sin(w * length)
                psi, dpsi = psi * c + dpsi * s / w, dpsi * c - psi * w * s
                continue
            if q > 0:
                w = mp.sqrt(q)
                c, s = mp.cosh(w * length), mp.sinh(w * length)
                new = psi * c + dpsi * s / w, dpsi * c + psi * w * s
            else:
                new = psi + dpsi * length, dpsi
            zeros += new[0] * psi < 0
            psi, dpsi = new
        if kappa == 0:
            return zeros + int(psi * dpsi < 0)
        grow, decay = psi * kappa + dpsi, psi * kappa - dpsi
        return zeros + int(grow * decay < 0 and abs(decay) > abs(grow))


def squeezed_matrix(family, j):
    """Zero-energy transfer matrix of a squeeze family at eps = 10**-j.

    The product M2 G M1 of the exact slab matrices
    [[cosh(k l), sinh(k l)/k], [k sinh(k l), cosh(k l)]], k = sqrt(v),
    and the gap [[1, r], [0, 1]], with v, l and r realized from the
    family's exponents in mpmath.  M21 is a difference of terms that grow
    like eps**(1 - mu), so the working precision grows with j: 40 + 4j
    digits.  As j grows, the result tends to the limiting connection
    matrix [[theta, 0], [alpha, 1/theta]], or grows where there is none.
    Returns a real 2x2 float array.
    """
    import mpmath as mp

    with mp.workdps(40 + 4 * j):
        eps = mp.mpf(10) ** -j

        def slab(h, d, p_v, p_l):
            v = mp.mpf(h) * eps ** -mp.mpf(p_v)
            length = mp.mpf(d) * eps ** mp.mpf(p_l)
            kl = mp.sqrt(mp.mpc(v)) * length
            shc = mp.sinh(kl) / kl if kl != 0 else mp.mpf(1)
            return mp.matrix(
                [[mp.cosh(kl), length * shc], [v * length * shc, mp.cosh(kl)]]
            )

        mu, nu = family.mu, family.nu
        gap = mp.matrix([[1, mp.mpf(family.c) * eps ** mp.mpf(family.tau)], [0, 1]])
        m = (slab(family.h2, family.d2, nu, 1.0 - mu + nu) * gap
             * slab(family.h1, family.d1, mu, 1.0))
        return np.array([[float(mp.re(m[i, k])) for k in (0, 1)] for i in (0, 1)])
