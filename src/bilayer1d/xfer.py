"""Propagation matrices, scattering amplitudes and piecewise wavefunctions.

The two-layer structure is handled with real 2x2 interval propagators
acting on (psi, psi').  Each propagator entry is built from the kernels
module, so entries stay real both for travelling waves (local momentum
squared positive) and under barriers or on the bound half line (negative).

Two independent evaluation routes are kept on purpose:

* a product of the three interval propagators,
* the fully expanded entry formulas of that product,

and likewise for the amplitudes a, b (read off the propagator entries
versus the directly expanded closed form).  Tests hold the routes against
each other.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_wavenumber
from .kernels import cos_sqrt, sinc_sqrt


class ScatteringPoleError(ArithmeticError):
    """Raised when a = 0, i.e. 1/a and b/a are not defined.

    For real k this cannot happen (|a| >= 1); hitting it signals a
    bound-state condition probed through the scattering formulas.
    """


class NotAnEigenvalueError(ValueError):
    """Raised when a bound-mode wavefunction is requested off eigenvalue."""


@dataclass(frozen=True)
class TransferMatrix:
    """Real propagator for (psi, psi') across an interval; det = 1."""

    l11: float
    l12: float
    l21: float
    l22: float

    @property
    def mat(self):
        return np.array([[self.l11, self.l12], [self.l21, self.l22]])

    @property
    def det(self):
        return self.l11 * self.l22 - self.l12 * self.l21

    def det_defect(self):
        scale = max(1.0, abs(self.l11 * self.l22), abs(self.l12 * self.l21))
        return abs(self.det - 1.0) / scale

    def __matmul__(self, other):
        return TransferMatrix(
            self.l11 * other.l11 + self.l12 * other.l21,
            self.l11 * other.l12 + self.l12 * other.l22,
            self.l21 * other.l11 + self.l22 * other.l21,
            self.l21 * other.l12 + self.l22 * other.l22,
        )


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


def layer_matrix(v, l, k):
    """Propagator across a single slab of height v and width l."""
    wn = as_wavenumber(k)
    c, sl, ks = _layer_parts(v, l, wn.k2)
    return TransferMatrix(c, sl, -ks, c)


def matrix_entries(spec, k2):
    """Expanded entries of the total propagator as functions of k^2.

    Vectorized over k2 (an array of energies is fine); used both by the
    scalar total_matrix and by the level condition on the bound half line.
    """
    c1, sl1, ks1 = _layer_parts(spec.v1, spec.l1, k2)
    c2, sl2, ks2 = _layer_parts(spec.v2, spec.l2, k2)
    c0, sl0, ks0 = _layer_parts(0.0, spec.r, k2)

    l11 = (c1 * c2 - ks1 * sl2) * c0 - ks1 * c2 * sl0 - ks0 * c1 * sl2
    l12 = (sl1 * c2 + c1 * sl2) * c0 + c1 * c2 * sl0 - ks0 * sl1 * sl2
    l21 = -(ks1 * c2 + c1 * ks2) * c0 - ks0 * c1 * c2 + ks1 * ks2 * sl0
    l22 = (c1 * c2 - sl1 * ks2) * c0 - ks0 * sl1 * c2 - ks2 * c1 * sl0
    return l11, l12, l21, l22


def total_matrix(spec, k, method="explicit"):
    """Propagator across the whole structure, layer 1 -> gap -> layer 2.

    method="explicit" evaluates the expanded entry formulas directly;
    method="product" multiplies the three interval propagators.  Both
    agree to roundoff and are kept as mutual checks.
    """
    wn = as_wavenumber(k)
    if method == "product":
        m1 = layer_matrix(spec.v1, spec.l1, wn)
        m0 = layer_matrix(0.0, spec.r, wn)
        m2 = layer_matrix(spec.v2, spec.l2, wn)
        return m2 @ (m0 @ m1)
    if method != "explicit":
        raise ValueError(f"unknown method {method!r}")
    return TransferMatrix(*matrix_entries(spec, wn.k2))


@dataclass(frozen=True)
class ScatteringData:
    """Right-incidence amplitudes: transmitted 1/a, reflected b/a."""

    a: complex
    b: complex

    def unitarity_defect(self):
        """| |a|^2 - |b|^2 - 1 |, zero for real k by flux conservation."""
        return abs(abs(self.a) ** 2 - abs(self.b) ** 2 - 1.0)


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
    a = (
        c1 * c2 * emikr
        - 0.5j
        * ((kc * sl1 + ks1 / kc) * c2 + (kc * sl2 + ks2 / kc) * c1)
        * emikr
        + 0.5
        * (
            1j * (k2 * sl1 * sl2 + ks1 * ks2 / k2) * sin_kr
            - (ks1 * sl2 + sl1 * ks2) * cos_kr
        )
    ) * phase
    b = (
        0.5j
        * (
            (ks1 / kc - kc * sl1) * c2 * eikr
            + (ks2 / kc - kc * sl2) * c1 * emikr
            + (
                (k2 * sl1 * sl2 - ks1 * ks2 / k2) * sin_kr
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

    Vectorized counterpart of scattering_data with the same two routes,
    evaluated elementwise over the whole k-grid.
    """
    kc = np.asarray(ks, dtype=float)
    if kc.size and not np.all(kc > 0.0):
        raise ValueError("amplitude_grid expects positive real wavenumbers")
    return _amplitudes(spec, kc, kc * kc, method)


@dataclass(frozen=True)
class RTCoefficients:
    """Reflection/transmission amplitudes for both incidence sides."""

    r_right: complex
    t: complex
    r_left: complex


def reflection_transmission(spec, k):
    """R and T amplitudes at real k; transmission is |t|^2 = 1/|a|^2."""
    wn = as_wavenumber(k)
    if not wn.is_real:
        raise ValueError("reflection/transmission requires real k")
    sd = scattering_data(spec, wn)
    if abs(sd.a) < 1e-12 * (1.0 + abs(sd.b)):
        raise ScatteringPoleError(
            "a(k) vanished at real k; amplitudes 1/a, b/a undefined"
        )
    return RTCoefficients(
        r_right=sd.b / sd.a,
        t=1.0 / sd.a,
        r_left=-np.conj(sd.b) / sd.a,
    )


def bound_state_residual(spec, kappa):
    """Real function of kappa > 0 whose zeros are the bound levels.

    Returns l11 + l22 + kappa*l12 + l21/kappa of the total propagator
    at k = i*kappa as a float; identical in zero set to a(i*kappa) = 0
    and free of poles on kappa > 0.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    kappa = as_wavenumber(1j * kappa).kappa
    l11, l12, l21, l22 = matrix_entries(spec, -kappa * kappa)
    return float(l11 + l22 + kappa * l12 + l21 / kappa)


# ---------------------------------------------------------------------------
# piecewise wavefunction


def _advance(q, dx, psi, dpsi):
    """(psi, psi') carried a distance dx at local momentum squared q."""
    c, s, qs = _layer_parts(0.0, dx, q)
    return psi * c + dpsi * s, -qs * psi + c * dpsi


class PiecewiseWave:
    """Wavefunction of the structure, evaluable on all five regions.

    Scattering mode describes a unit wave incident from the right
    (exp(-ikx) on the left half line); bound mode describes the decaying
    eigenfunction, normalised to psi(0) = 1.
    """

    def __init__(self, spec, k, mode="scatter"):
        wn = as_wavenumber(k)
        if mode == "scatter" and not wn.is_real:
            raise ValueError("scatter mode requires real k")
        if mode == "bound" and wn.is_real:
            raise ValueError("bound mode requires k = i*kappa")
        self.spec = spec
        self.wavenumber = wn
        self.mode = mode
        self.data = scattering_data(spec, wn)
        self.breaks = [0.0, spec.l1, spec.l1 + spec.r, spec.extent]
        # per interior region: (left edge, local momentum squared,
        # boundary value, boundary slope)
        psi = 1.0 + 0.0j
        dpsi = -1j * wn.k
        self._regions = []
        for x0, x1, v in zip(self.breaks, self.breaks[1:], (spec.v1, 0.0, spec.v2)):
            q = wn.k2 - v
            self._regions.append((x0, q, psi, dpsi))
            psi, dpsi = _advance(q, x1 - x0, psi, dpsi)
        self._end = (psi, dpsi)

    def _right_wave(self, x):
        """psi and psi' on the right half line x >= extent."""
        kc = self.wavenumber.k
        a, b = self.data.a, self.data.b
        up = np.exp(1j * kc * x)
        if self.mode == "bound":
            # only the decaying piece survives; a(i*kappa) ~ 0
            return b * up, 1j * kc * b * up
        down = np.exp(-1j * kc * x)
        return a * down + b * up, -1j * kc * a * down + 1j * kc * b * up

    def _eval(self, x, want_derivative):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        kc = self.wavenumber.k
        pick = 1 if want_derivative else 0
        left = x < 0.0
        right = x >= self.breaks[3]
        incoming = np.exp(-1j * kc * x[left])
        out[left] = -1j * kc * incoming if want_derivative else incoming
        out[right] = self._right_wave(x[right])[pick]
        for (x0, q, psi0, dpsi0), x1 in zip(self._regions, self.breaks[1:]):
            mask = (x >= x0) & (x < x1)
            if np.any(mask):
                out[mask] = _advance(q, x[mask] - x0, psi0, dpsi0)[pick]
        return out if out.ndim else complex(out)

    def __call__(self, x):
        return self._eval(x, want_derivative=False)

    def derivative(self, x):
        return self._eval(x, want_derivative=True)

    def continuity_defect(self):
        """Relative mismatch of psi and psi' at the right edge.

        The interior seams match by construction; the right edge measures
        the consistency of a, b with the propagated interior solution (in
        bound mode it is the eigenvalue residual |a|).  NaN amplitudes
        give NaN.
        """
        scale = max(1.0, abs(self.data.a), abs(self.data.b))
        dscale = scale * max(1.0, abs(self.wavenumber.k))
        (psi, dpsi), (pr, dpr) = self._end, self._right_wave(self.breaks[3])
        return max(abs(psi - pr) / scale, abs(dpsi - dpr) / dscale)


# largest |a(i*kappa)|, relative to max(1, |b|), of a bound-mode wavefunction
EIGEN_TOL = 1e-6


def scattering_wavefunction(spec, k, mode="scatter"):
    """Build the piecewise wavefunction; bound mode checks the eigenvalue.

    In bound mode |a(i*kappa)| must be below EIGEN_TOL (relative to the
    connection coefficient b), otherwise there is no decaying solution at
    this kappa and NotAnEigenvalueError is raised.
    """
    wave = PiecewiseWave(spec, k, mode=mode)
    if mode == "bound":
        a, b = wave.data.a, wave.data.b
        if abs(a) > EIGEN_TOL * max(1.0, abs(b)):
            raise NotAnEigenvalueError(
                f"kappa={as_wavenumber(k).kappa!r} is not a bound level: "
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
