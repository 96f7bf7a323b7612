"""Independent references for the benchmark's correctness checks.

Nothing here imports bilayer1d.  Every routine works in mpmath at DPS
decimal digits and uses a different formulation from the library:

* amplitudes come from complex plane waves A e^{iKx} + B e^{-iKx},
  re-based at every interface, instead of real (psi, psi') propagators
  built from branch-free kernels;
* the number of bound levels is a Sturm count: the zeros of the
  zero-energy solution that is constant on the left half line;
* each reported level is confirmed by a sign change of the decaying-match
  function kappa*psi(L) + psi'(L), evaluated through the same plane waves
  at k = i*kappa, on a narrow bracket around it;
* pairings are integrated with mpmath quadrature of the probe formulas,
  or exactly for a piecewise-cubic table.

A structure is the tuple (v1, l1, v2, l2, r) in the library's units.
"""

import math

import mpmath as mp

DPS = 50


def _pieces(s):
    v1, l1, v2, l2, r = s
    out = []
    for v, l in ((v1, l1), (0.0, r), (v2, l2)):
        if l > 0.0:
            out.append((mp.mpf(v), mp.mpf(l)))
    return out


def _step(psi, dpsi, kl, d):
    """Advance (psi, psi') by d through constant local wavenumber kl,
    re-basing onto the plane waves e^{+-i kl x}."""
    if kl == 0:
        return psi + dpsi * d, dpsi
    a = (psi + dpsi / (1j * kl)) / 2
    b = (psi - dpsi / (1j * kl)) / 2
    e = mp.exp(1j * kl * d)
    return a * e + b / e, 1j * kl * (a * e - b / e)


def _regions(s, kc):
    """(left edge, local wavenumber, psi, psi') for each piece and for
    the right half line, starting from psi = e^{-i kc x} on x < 0."""
    psi, dpsi, x0 = mp.mpc(1), -1j * kc, mp.mpf(0)
    out = []
    for v, l in _pieces(s):
        kl = mp.sqrt(kc * kc - v)
        out.append((x0, kl, psi, dpsi))
        psi, dpsi = _step(psi, dpsi, kl, l)
        x0 += l
    out.append((x0, kc, psi, dpsi))
    return out


def amplitudes(s, k):
    """a(k), b(k) with psi = a e^{-ikx} + b e^{ikx} right of the structure."""
    with mp.workdps(DPS):
        k = mp.mpf(k)
        ext, _, psi, dpsi = _regions(s, mp.mpc(k))[-1]
        ratio = dpsi / (1j * k)
        a = (psi - ratio) * mp.exp(1j * k * ext) / 2
        b = (psi + ratio) * mp.exp(-1j * k * ext) / 2
        return complex(a), complex(b)


def wave(s, k, xs, bound=False):
    """psi(x) at the points xs: the unit wave e^{-ikx} on the left, or,
    when bound is true and k is kappa, the solution e^{kappa x} there."""
    with mp.workdps(DPS):
        kc = mp.mpc(0, k) if bound else mp.mpc(k)
        regions = _regions(s, kc)
        out = []
        for x in xs:
            x = mp.mpf(x)
            if x < 0:
                out.append(complex(mp.exp(-1j * kc * x)))
                continue
            x0, kl, psi, dpsi = next(r for r in reversed(regions) if x >= r[0])
            out.append(complex(_step(psi, dpsi, kl, x - x0)[0]))
        return out


def level_count(s, kappa=0.0):
    """Number of bound levels deeper than -kappa^2, by Sturm's theorem.

    The solution at energy -kappa^2 that decays on x < 0 (a constant for
    kappa = 0) is followed across each piece; its zeros are counted
    exactly: Pruefer phase where it oscillates, at most one zero where it
    does not, and one more beyond the structure when the tail changes sign.
    """
    with mp.workdps(DPS):
        kappa = mp.mpf(kappa)
        psi, dpsi = mp.mpf(1), kappa
        zeros = 0
        for v, l in _pieces(s):
            q = v + kappa * kappa
            if q < 0:
                w = mp.sqrt(-q)
                theta = mp.atan2(psi, dpsi / w)
                zeros += int(mp.floor((theta + w * l) / mp.pi) - mp.floor(theta / mp.pi))
                c, sn = mp.cos(w * l), mp.sin(w * l)
                psi, dpsi = psi * c + dpsi * sn / w, -w * sn * psi + c * dpsi
                continue
            if q > 0:
                w = mp.sqrt(q)
                c, sh = mp.cosh(w * l), mp.sinh(w * l)
                new = (psi * c + dpsi * sh / w, w * sh * psi + c * dpsi)
            else:
                new = (psi + dpsi * l, dpsi)
            if psi * new[0] < 0:
                zeros += 1
            psi, dpsi = new
        if kappa == 0:
            zeros += psi * dpsi < 0
        else:
            # tail A e^{kappa t} + B e^{-kappa t} vanishes at some t > 0
            grow, decay = psi + dpsi / kappa, psi - dpsi / kappa
            zeros += grow * decay < 0 and abs(decay) > abs(grow)
        return int(zeros)


def level(s, index):
    """kappa of the index-th level counted from threshold (index 1 is the
    shallowest), by bisection of level_count."""
    kmax = math.sqrt(max(-s[0], -s[2], 0.0))
    deeper = level_count(s) - index  # levels deeper than the one sought
    lo, hi = 0.0, kmax
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if level_count(s, mid) > deeper:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def match(s, kappa):
    """kappa*psi(L) + psi'(L) for psi = e^{kappa x} on the left; zero at
    a bound level.  Returned as an mpf at DPS digits."""
    with mp.workdps(DPS):
        _, _, psi, dpsi = _regions(s, mp.mpc(0, kappa))[-1]
        return (mp.mpf(kappa) * psi + dpsi).real


def brackets_level(s, kappa, rel):
    """True when match() changes sign on kappa * (1 -+ rel)."""
    lo = match(s, kappa * (1.0 - rel))
    hi = match(s, kappa * (1.0 + rel))
    return lo * hi < 0


def pairing(s, f, support):
    """v1 * int_0^l1 f + v2 * int_{l1+r}^{L} f for an mpmath function f
    that vanishes outside support, with the sum of the terms' moduli."""
    v1, l1, v2, l2, r = s
    lo, hi = support
    with mp.workdps(30):
        terms = []
        for v, a, b in ((v1, 0.0, l1), (v2, l1 + r, l1 + r + l2)):
            a2, b2 = max(a, lo), min(b, hi)
            if b2 > a2:
                terms.append(mp.mpf(v) * mp.quad(f, [a2, b2]))
        return float(sum(terms)), float(sum(abs(t) for t in terms))


# ---------------------------------------------------------------------------
# mpmath probe formulas (the library's probes are scalar Python closures)


def mp_bump(width, center=0.0):
    w, c = mp.mpf(width), mp.mpf(center)

    def f(x):
        u = (x - c) / w
        if abs(u) >= 1:
            return mp.mpf(0)
        return mp.exp(-1 / (1 - u * u))

    return f, (center - width, center + width)


def mp_gaussian_bump(sigma, width, center=0.0):
    window, support = mp_bump(width, center)
    s2, c = mp.mpf(sigma) ** 2, mp.mpf(center)
    return (lambda x: mp.exp(-((x - c) ** 2) / (2 * s2)) * window(x)), support


def mp_gaussian(sigma, center=0.0):
    s, c = mp.mpf(sigma), mp.mpf(center)
    return (lambda x: mp.exp(-((x - c) ** 2) / (2 * s * s))), (
        center - 8.0 * sigma,
        center + 8.0 * sigma,
    )


def spline_pairing(s, spline):
    """pairing() against a scipy CubicSpline that vanishes outside its
    knots; piecewise cubic, so its antiderivative is exact."""
    v1, l1, v2, l2, r = s
    lo, hi = float(spline.x[0]), float(spline.x[-1])
    terms = []
    for v, a, b in ((v1, 0.0, l1), (v2, l1 + r, l1 + r + l2)):
        a2, b2 = max(a, lo), min(b, hi)
        if b2 > a2:
            terms.append(v * float(spline.integrate(a2, b2)))
    return sum(terms), sum(abs(t) for t in terms)


# ---------------------------------------------------------------------------
# self-tests against textbook closed forms


def _barrier_transmission(v, l, k):
    """Textbook T(k) of one rectangular barrier (or well) of height v."""
    with mp.workdps(DPS):
        v, l, k = mp.mpf(v), mp.mpf(l), mp.mpf(k)
        if k * k < v:
            q = mp.sqrt(v - k * k)
            return float(1 / (1 + v * v * mp.sinh(q * l) ** 2 / (4 * k * k * q * q)))
        q = mp.sqrt(k * k - v)
        return float(1 / (1 + v * v * mp.sin(q * l) ** 2 / (4 * k * k * q * q)))


def _square_well_levels(depth, width):
    """Textbook levels of one well: q tan(q a/2) = kappa (even) and
    -q cot(q a/2) = kappa (odd), solved by bisection in mpmath."""
    with mp.workdps(DPS):
        depth, width = mp.mpf(depth), mp.mpf(width)
        kmax = mp.sqrt(depth)

        def even(kap):
            q = mp.sqrt(depth - kap * kap)
            return q * mp.sin(q * width / 2) - kap * mp.cos(q * width / 2)

        def odd(kap):
            q = mp.sqrt(depth - kap * kap)
            return q * mp.cos(q * width / 2) + kap * mp.sin(q * width / 2)

        out = []
        n = 600
        grid = [kmax * (i + mp.mpf(0.5)) / n for i in range(n)]
        for fn in (even, odd):
            vals = [fn(x) for x in grid]
            for i in range(n - 1):
                if vals[i] * vals[i + 1] < 0:
                    out.append(float(mp.findroot(fn, (grid[i], grid[i + 1]), solver="anderson")))
        return sorted(out)


def self_test():
    """Raise AssertionError if a reference disagrees with a closed form."""
    for v, l in ((3.0, 1.2), (-2.5, 0.7), (40.0, 2.0)):
        for k in (0.3, 1.1, 2.9):
            want = _barrier_transmission(v, l, k)
            for s in ((v, l, 0.0, 0.0, 0.0), (0.0, 0.0, v, l, 0.7),
                      (v, l / 2, v, l / 2, 0.0)):
                a, _ = amplitudes(s, k)
                got = 1.0 / abs(a) ** 2
                assert abs(got - want) <= 1e-12 * want, (s, k, got, want)
            a, b = amplitudes((v, l, -v, 0.4 * l, 0.3), k)
            assert abs(abs(a) ** 2 - abs(b) ** 2 - 1.0) <= 1e-12 * abs(a) ** 2
    for depth, width in ((5.0, 2.0), (30.0, 1.5), (200.0, 3.0)):
        levels = _square_well_levels(depth, width)
        want = math.ceil(math.sqrt(depth) * width / math.pi)
        assert len(levels) == want, (depth, width, levels)
        for s in ((-depth, width, 0.0, 0.0, 0.0), (0.0, 0.0, -depth, width, 1.0),
                  (-depth, width / 3, -depth, 2 * width / 3, 0.0)):
            assert level_count(s) == want, (s, level_count(s), want)
            for i in (0, want - 1):
                assert abs(level(s, i + 1) - levels[i]) <= 1e-12 * levels[i], (s, i)
            for i, kap in enumerate(levels):
                assert level_count(s, kap * (1 - 1e-9)) == want - i, (s, kap)
                assert level_count(s, kap * (1 + 1e-9)) == want - i - 1, (s, kap)
                assert brackets_level(s, kap, 1e-10), (s, kap)
                assert not brackets_level(s, kap * (1 + 1e-3), 1e-5), (s, kap)
