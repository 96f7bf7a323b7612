"""Slow, independent checks of the closed forms.

oracle_entries and scatter_grid step the wave equation by RK4 in floats.
The rest runs in mpmath through one exact slab propagator and one product
step: exact_amplitudes, level_count (a Sturm count, which integrate_bound
bisects to the float spacing) and squeezed_matrix.  None of it shares code
with the branch-free kernels of the fast routines, so a bug cannot cancel
between the two.  mpmath is imported only when it runs, so importing the
library does not load it, and the oracle needs no scipy.
"""

import math

import numpy as np


def _pieces(spec):
    """(length, v) of each piece of nonzero width, left to right."""
    return [p for p in ((spec.l1, spec.v1), (spec.r, 0.0), (spec.l2, spec.v2)) if p[0] > 0.0]


# the most RK4 steps taken across a structure: the tests, demos and reference
# figures take at most 53 242 (criterion 03, 50 k points), and 4.4e5 steps
# on 50 k points take about 16 s on a 2-vCPU VM
_MAX_STEPS = 1_000_000


def _auto_step(pieces, k2):
    """Step that keeps the local phase advance per step around 0.015."""
    vmax = max(abs(v) for _, v in pieces)
    qmax = math.sqrt(vmax + float(np.max(np.abs(k2))))
    min_piece = min(length for length, _ in pieces)
    return min(min_piece / 16.0, 0.015 / max(qmax, 1e-6))


def _rk4_matrix(spec, k2, step):
    m = np.repeat(np.eye(2)[:, :, None], k2.shape[0], axis=2)
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


def oracle_entries(spec, k2):
    """Fundamental-matrix entries across the structure, by RK4 stepping.

    k2 may be any finite real array (negative values reach the bound sector).
    Returns four real arrays (l11, l12, l21, l22).
    """
    k2 = np.atleast_1d(np.asarray(k2, dtype=float))
    if not np.all(np.isfinite(k2)):
        raise ValueError("RK4 oracle needs finite k2")
    pieces = _pieces(spec)
    if not pieces or not k2.size:
        return np.ones_like(k2), np.zeros_like(k2), np.zeros_like(k2), np.ones_like(k2)
    step = _auto_step(pieces, k2)
    # counted in floats; a step of 0, where v + k2 overflows, counts as inf
    steps = math.fsum(length for length, _ in pieces) / step if step > 0.0 else math.inf
    if not steps <= _MAX_STEPS:
        raise ValueError(f"RK4 oracle would take {steps:.3g} steps at max k2 = "
                         f"{float(np.max(np.abs(k2))):.3g}, more than {_MAX_STEPS}")
    m = _rk4_matrix(spec, k2, step)
    return m[0, 0], m[0, 1], m[1, 0], m[1, 1]


def _wavenumbers(ks):
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    if not np.all(np.isfinite(ks) & (ks > 0.0)):
        raise ValueError("scattering oracle needs k > 0")
    return ks


def _combinations(l11, l12, l21, l22, k):
    """2a and 2b from the entries, without their phases exp(+-i k extent)."""
    return (l11 + l22) - 1j * (k * l12 - l21 / k), (l11 - l22) - 1j * (k * l12 + l21 / k)


def scatter_grid(spec, ks):
    """Amplitude pair (a, b) on a real-k grid, by RK4 integration."""
    ks = _wavenumbers(ks)
    d, e = _combinations(*oracle_entries(spec, ks * ks), ks)
    return 0.5 * d * np.exp(1j * ks * spec.extent), 0.5 * e * np.exp(-1j * ks * spec.extent)


def _slab(length, q):
    """(c, s) of the exact slab propagator [[c, s], [q s, c]] of psi'' = q psi."""
    import mpmath as mp

    if q > 0:
        w = mp.sqrt(q)
        return mp.cosh(w * length), mp.sinh(w * length) / w
    if q < 0:
        w = mp.sqrt(-q)
        return mp.cos(w * length), mp.sin(w * length) / w
    return mp.mpf(1), length


def _step(c, s, q, psi, dpsi):
    """The slab [[c, s], [q s, c]] applied to the column (psi, psi')."""
    return c * psi + s * dpsi, q * s * psi + c * dpsi


def _product(pieces, k2):
    """Columns ((l11, l21), (l12, l22)) of the propagator across the pieces
    (length, v) at k2 in the working mpmath precision, and the same product
    of the entries' magnitudes, which bounds every term they sum."""
    import mpmath as mp

    cols = mags = [(mp.mpf(1), mp.mpf(0)), (mp.mpf(0), mp.mpf(1))]
    for length, v in pieces:
        q = mp.mpf(v) - k2
        c, s = _slab(mp.mpf(length), q)
        cols = [_step(c, s, q, *col) for col in cols]
        mags = [_step(abs(c), abs(s), abs(q), *col) for col in mags]
    return cols, mags


def exact_amplitudes(spec, ks):
    """a and b on a real-k grid in mpmath, as arrays (log|a|, arg a, b/a).

    These stay finite where a overflows a float.  Each k is first taken at
    30 digits.  Where the terms that 2a sums, bounded by the product of
    the entries' magnitudes, cancel to 10**-L of their size, it is taken
    again at 30 + L digits, so that a and b/a keep about 30 digits.
    """
    import mpmath as mp

    pieces, points = _pieces(spec), []
    for k in _wavenumbers(ks):
        dps, lost = 0, 0
        while dps < 30 + lost:
            dps = 30 + lost
            with mp.workdps(dps):
                point, lost = _amplitudes_at(pieces, k)
        points.append(point)
    return tuple(np.array([p[i] for p in points], dtype=t)
                 for i, t in enumerate((float, float, complex)))


def _amplitudes_at(pieces, k):
    """(log|a|, arg a, b/a) at the working mpmath precision, and the number
    of digits L lost where the terms of 2a cancel to 10**-L of their size."""
    import mpmath as mp

    k = mp.mpf(k)
    cols, ((m11, m21), (m12, m22)) = _product(pieces, k * k)
    d, e = _combinations(cols[0][0], cols[1][0], cols[0][1], cols[1][1], k)
    phase = mp.expj(k * mp.fsum(length for length, _ in pieces))
    lost = int(mp.ceil(mp.log10((m11 + m22 + k * m12 + m21 / k) / abs(d))))
    return (float(mp.log(abs(d) / 2)), float(mp.arg(d * phase)), complex(e / (d * phase**2))), lost


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
    followed in 40-digit arithmetic through each piece by the exact slab
    propagator.  A piece where it oscillates adds the zeros its Pruefer
    angle passes, a piece where it does not adds one zero when the sign
    changes, and the tail to the right adds one zero when its decaying
    part outweighs a growing part of the other sign.
    """
    import mpmath as mp

    if not kappa >= 0:
        raise ValueError("kappa must be >= 0")
    with mp.workdps(40):
        kappa = mp.mpf(kappa)
        psi, dpsi = mp.mpf(1), kappa
        zeros = 0
        for length, v in _pieces(spec):
            q = mp.mpf(v) + kappa * kappa
            new = _step(*_slab(length, q), q, psi, dpsi)
            if q < 0:
                w = mp.sqrt(-q)
                angle = mp.atan2(psi, dpsi / w)
                zeros += int(mp.floor((angle + w * length) / mp.pi) - mp.floor(angle / mp.pi))
            else:
                zeros += new[0] * psi < 0
            psi, dpsi = new
        if kappa == 0:
            return zeros + int(psi * dpsi < 0)
        grow, decay = psi * kappa + dpsi, psi * kappa - dpsi
        return zeros + int(grow * decay < 0 and abs(decay) > abs(grow))


def squeezed_matrix(family, j):
    """Zero-energy transfer matrix of a squeeze family at eps = 10**-j.

    The product of the exact slab propagators of layer 1, the gap and
    layer 2, with v, l and r realized from the family's exponents in
    mpmath.  M21 is a difference of terms that grow like eps**(1 - mu),
    so the working precision grows with j: 40 + 4j digits.  As j grows,
    the result tends to the limiting connection matrix
    [[theta, 0], [alpha, 1/theta]], or grows where there is none.
    Returns a real 2x2 float array.
    """
    import mpmath as mp

    f = family
    with mp.workdps(40 + 4 * j):
        eps = mp.mpf(10) ** -j
        pieces = [(f.d1 * eps, f.h1 * eps**-f.mu), (f.c * eps**f.tau, 0),
                  (f.d2 * eps ** (1.0 - f.mu + f.nu), f.h2 * eps**-f.nu)]
        (m11, m21), (m12, m22) = _product(pieces, 0)[0]
        return np.array([[float(m11), float(m12)], [float(m21), float(m22)]])
