"""Propagation matrices, scattering amplitudes and piecewise wavefunctions.

The two-layer structure is handled with real 2x2 interval propagators
acting on (psi, psi').  Each slab's propagator is built from the kernels
module, so entries stay real both for travelling waves (local momentum
squared positive) and under barriers or on the bound half line (negative).

The propagator of the whole structure exists once: matrix_entries carries
the two columns of the identity across the three pieces with one slab
step, which PiecewiseWave walks too.  Its entries are checked against the
independent integrators of the oracle module.  The amplitudes a, b have
two routes, read off the propagator entries or evaluated from their
expanded closed form, and tests hold the two against each other.  At
real k flux conservation gives |a|^2 = 1 + |b|^2, so 1/a and b/a always
exist; a wavenumber off both axes, or one whose square under- or
overflows, is refused with ValueError.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_wavenumber
from .kernels import cos_sqrt, sinc_sqrt


class NotAnEigenvalueError(ValueError):
    """Raised when a wavefunction at k = i*kappa is requested off eigenvalue."""


def _layer_parts(v, l, k2):
    """cos, sin/k_loc and k_loc*sin for one slab, all real.

    k_loc^2 = k2 - v may have either sign; the kernels absorb the switch
    between oscillating and evanescent behaviour.
    """
    q = k2 - v
    w = q * l * l
    c = cos_sqrt(w)
    sl = l * sinc_sqrt(w)  # sin(k_loc*l)/k_loc
    ks = q * sl  # k_loc*sin(k_loc*l)
    return c, sl, ks


def _step(parts, psi, dpsi):
    """(psi, psi') carried across a slab, given its _layer_parts."""
    c, sl, ks = parts
    return psi * c + dpsi * sl, -ks * psi + c * dpsi


def matrix_entries(spec, k2):
    """Entries l11, l12, l21, l22 of the total propagator at energies k2.

    The product of the three slab propagators, layer 1 -> gap -> layer 2,
    formed by carrying both columns of the identity across each piece.
    Vectorized over k2 (an array of energies is fine).
    """
    col1, col2 = (1.0, 0.0), (0.0, 1.0)
    for v, l in ((spec.v1, spec.l1), (0.0, spec.r), (spec.v2, spec.l2)):
        parts = _layer_parts(v, l, k2)
        col1, col2 = _step(parts, *col1), _step(parts, *col2)
    (l11, l21), (l12, l22) = col1, col2
    return l11, l12, l21, l22


@dataclass(frozen=True)
class ScatteringData:
    """Right-incidence amplitudes: transmitted 1/a, reflected b/a."""

    a: complex
    b: complex

    def unitarity_defect(self):
        """| |a|^2 - |b|^2 - 1 | / |a|^2, zero for real k by flux conservation."""
        a2 = abs(self.a) ** 2
        return abs(a2 - abs(self.b) ** 2 - 1.0) / a2


def _amplitudes(spec, kc, k2, method):
    """a, b at wavenumbers kc (real, or i*kappa) with k2 = kc^2 real.

    method="closed" evaluates the expanded amplitude formulas;
    method="matrix" reads a, b off the entries of the total propagator.
    Elementwise over arrays.
    """
    phase = np.exp(1j * kc * spec.extent)
    if method == "matrix":
        l11, l12, l21, l22 = matrix_entries(spec, k2)
        d = l11 + l22 - 1j * (kc * l12 - l21 / kc)
        p = l11 - l22
        q = kc * l12 + l21 / kc
        return 0.5 * d * phase, 0.5 * (p - 1j * q) / phase
    if method != "closed":
        raise ValueError(f"unknown method {method!r}")

    c1, sl1, ks1 = _layer_parts(spec.v1, spec.l1, k2)
    c2, sl2, ks2 = _layer_parts(spec.v2, spec.l2, k2)
    eikr = np.exp(1j * kc * spec.r)
    emikr = 1.0 / eikr
    sin_kr = np.sin(kc * spec.r)
    cos_kr = np.cos(kc * spec.r)
    # sin(kr)/k^2 first: ks1*ks2/k^2 alone overflows at small k
    sin_kr_k2 = sin_kr / k2
    a = (
        c1 * c2 * emikr
        - 0.5j
        * ((kc * sl1 + ks1 / kc) * c2 + (kc * sl2 + ks2 / kc) * c1)
        * emikr
        + 0.5
        * (
            1j * (k2 * sl1 * sl2 * sin_kr + ks1 * ks2 * sin_kr_k2)
            - (ks1 * sl2 + sl1 * ks2) * cos_kr
        )
    ) * phase
    b = (
        0.5j
        * (
            (ks1 / kc - kc * sl1) * c2 * eikr
            + (ks2 / kc - kc * sl2) * c1 * emikr
            + (
                k2 * sl1 * sl2 * sin_kr - ks1 * ks2 * sin_kr_k2
                + 1j * (ks1 * sl2 - sl1 * ks2) * cos_kr
            )
        )
        / phase
    )
    return a, b


def scattering_data(spec, k, method="closed"):
    """Amplitudes a(k), b(k) of the structure.

    method="closed" uses the expanded amplitude formulas in which every
    1/cos factor has been multiplied out, so they hold at all k where
    the amplitudes themselves are finite.  method="matrix" derives the
    amplitudes from the total propagator.  Agreement of the two routes
    is a library invariant (tested to 1e-10 relative).
    """
    wn = as_wavenumber(k)
    a, b = _amplitudes(spec, wn.k, wn.k2, method)
    return ScatteringData(complex(a), complex(b))


def amplitude_grid(spec, ks, method="closed"):
    """Amplitudes over an array of real wavenumbers, as (a, b) arrays.

    Vectorized counterpart of scattering_data with the same two routes;
    the first k that Wavenumber refuses is refused by its rule and message.
    """
    kc = np.asarray(ks, dtype=float)
    with np.errstate(over="ignore"):
        k2 = kc * kc
    bad = ~((kc > 0.0) & (k2 > 0.0) & (k2 < np.inf))
    if np.any(bad):
        as_wavenumber(kc[bad][0])  # raises the ValueError of the Wavenumber rule
    return _amplitudes(spec, kc, k2, method)


@dataclass(frozen=True)
class RTCoefficients:
    """Reflection/transmission amplitudes for both incidence sides."""

    r_right: complex
    t: complex
    r_left: complex


def reflection_transmission(spec, k):
    """R and T amplitudes at real k, where |a|^2 = 1 + |b|^2 >= 1; |t|^2 = 1/|a|^2."""
    wn = as_wavenumber(k)
    if not wn.is_real:
        raise ValueError("reflection/transmission requires real k")
    sd = scattering_data(spec, wn)
    return RTCoefficients(
        r_right=sd.b / sd.a,
        t=1.0 / sd.a,
        r_left=-np.conj(sd.b) / sd.a,
    )


# ---------------------------------------------------------------------------
# piecewise wavefunction


class PiecewiseWave:
    """Wavefunction of the structure, evaluable on all five regions.

    Real k gives the scattering state, a unit wave incident from the right
    (exp(-ikx) on the left half line); k = i*kappa gives the decaying
    eigenfunction, normalised to psi(0) = 1.
    """

    def __init__(self, spec, k):
        self.spec = spec
        self.wavenumber = wn = as_wavenumber(k)
        self.data = scattering_data(spec, wn)
        self.breaks = [0.0, spec.l1, spec.l1 + spec.r, spec.extent]
        # per interior region: (left edge, potential, boundary value,
        # boundary slope)
        psi = 1.0 + 0.0j
        dpsi = -1j * wn.k
        self._regions = []
        for x0, x1, v in zip(self.breaks, self.breaks[1:], (spec.v1, 0.0, spec.v2)):
            self._regions.append((x0, v, psi, dpsi))
            psi, dpsi = _step(_layer_parts(v, x1 - x0, wn.k2), psi, dpsi)
        self._end = (psi, dpsi)

    def _right_wave(self, x):
        """psi and psi' on the right half line x >= extent."""
        kc = self.wavenumber.k
        a, b = self.data.a, self.data.b
        up = np.exp(1j * kc * x)
        if not self.wavenumber.is_real:
            # only the decaying piece survives; a(i*kappa) ~ 0
            return b * up, 1j * kc * b * up
        down = np.exp(-1j * kc * x)
        return a * down + b * up, -1j * kc * a * down + 1j * kc * b * up

    def _eval(self, x, want_derivative):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        kc, k2 = self.wavenumber.k, self.wavenumber.k2
        pick = 1 if want_derivative else 0
        left = x < 0.0
        right = x >= self.breaks[3]
        incoming = np.exp(-1j * kc * x[left])
        out[left] = -1j * kc * incoming if want_derivative else incoming
        out[right] = self._right_wave(x[right])[pick]
        for (x0, v, psi0, dpsi0), x1 in zip(self._regions, self.breaks[1:]):
            mask = (x >= x0) & (x < x1)
            if np.any(mask):
                out[mask] = _step(_layer_parts(v, x[mask] - x0, k2), psi0, dpsi0)[pick]
        return out if out.ndim else complex(out)

    def __call__(self, x):
        return self._eval(x, want_derivative=False)

    def derivative(self, x):
        return self._eval(x, want_derivative=True)

    def continuity_defect(self):
        """Relative mismatch of psi and psi' at the right edge.

        The interior seams match by construction; the right edge measures
        the consistency of a, b with the propagated interior solution (at
        k = i*kappa it is the eigenvalue residual |a|).  NaN amplitudes
        give NaN.
        """
        scale = max(1.0, abs(self.data.a), abs(self.data.b))
        dscale = scale * max(1.0, abs(self.wavenumber.k))
        (psi, dpsi), (pr, dpr) = self._end, self._right_wave(self.breaks[3])
        return max(abs(psi - pr) / scale, abs(dpsi - dpr) / dscale)


# largest |a(i*kappa)|, relative to max(1, |b|), of a bound-state wavefunction
EIGEN_TOL = 1e-6


def scattering_wavefunction(spec, k):
    """The piecewise wavefunction at k: real k scatters, i*kappa binds.

    At k = i*kappa |a| must be below EIGEN_TOL (relative to the
    connection coefficient b), otherwise there is no decaying solution at
    this kappa and NotAnEigenvalueError is raised.
    """
    wave = PiecewiseWave(spec, k)
    if not wave.wavenumber.is_real:
        a, b = wave.data.a, wave.data.b
        if abs(a) > EIGEN_TOL * max(1.0, abs(b)):
            raise NotAnEigenvalueError(
                f"kappa={wave.wavenumber.kappa!r} is not a bound level: "
                f"|a| = {abs(a):.3e}"
            )
    return wave


# ---------------------------------------------------------------------------
# finite-structure resonance helpers


def _layer_tangents(spec, k):
    """k_j tan(k_j l_j) of both layers, defined away from cos zeros."""
    wn = as_wavenumber(k)
    c1, _, ks1 = _layer_parts(spec.v1, spec.l1, wn.k2)
    c2, _, ks2 = _layer_parts(spec.v2, spec.l2, wn.k2)
    return ks1 / c1, ks2 / c2


def divergence_residual(spec, k):
    """k1 tan(k1 l1) + k2 tan(k2 l2) - k1 tan(k1 l1) k2 tan(k2 l2) r.

    This combination controls which terms of the amplitudes survive when
    the structure is squeezed; its zeros define the gap width at which
    the leading divergence cancels.  Finite only away from cos zeros.
    """
    kt1, kt2 = _layer_tangents(spec, k)
    return kt1 + kt2 - kt1 * kt2 * spec.r


def cancellation_gap(spec, k):
    """Gap width r* at which divergence_residual vanishes for this k."""
    kt1, kt2 = _layer_tangents(spec, k)
    return (kt1 + kt2) / (kt1 * kt2)


def amplitude_ratio_expressions(spec, k):
    """Equivalent forms of the boundary amplitude ratio, plus its inverse.

    When divergence_residual(spec, k) = 0 the four returned expressions
    coincide, and the fifth value equals their reciprocal.  Used as an
    algebraic cross-check of the cancellation identities.
    """
    wn = as_wavenumber(k)
    c1, sl1, ks1 = _layer_parts(spec.v1, spec.l1, wn.k2)
    c2, sl2, ks2 = _layer_parts(spec.v2, spec.l2, wn.k2)
    r = spec.r
    e1 = c1 * c2 - ks1 * r * c2 - ks1 * sl2
    e2 = -ks1 / ks2
    e3 = (c1 - ks1 * r) / c2
    e4 = c1 / (c2 - ks2 * r)
    inverse = c1 * c2 - ks2 * r * c1 - ks2 * sl1
    return np.array([e1, e2, e3, e4]), inverse
