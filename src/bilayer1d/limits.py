"""Zero-width limit of the two-layer structure: one eps-expansion of the
zero-energy propagator, and the point interaction it leaves.

At zero energy a slab of potential v and width l carries (psi, psi') by

    [[C, l S], [v l S, C]],   C = cos_sqrt(-v l^2),  S = sinc_sqrt(-v l^2),

and a gap of width r by [[1, r], [0, 1]].  Along a squeezing family v, l
and r are constants times powers of eps, so every entry of the product
M = M2 G M1 is a finite sum of terms c * eps**p up to any order.  A thick
slab, whose v l^2 does not depend on eps, keeps C and S exactly; a thin
one, whose v l^2 = w tends to 0, enters through the series
C = sum w**n / (2n)! and S = sum w**n / (2n + 1)!.  Collected by power,
the entries decide the limit, at powers that the caller works out from
the family's exponents:

* the coefficient of the most negative power of M21 is the resonance
  residual; off resonance M21 diverges and the limit is two separated
  (Dirichlet) half lines;
* on resonance, theta = M11 and alpha = M21 at eps**0 connect psi and
  psi' across the point by [[theta, 0], [alpha, 1/theta]], which carries
  the bound level kappa = -alpha / (theta + 1/theta) when it is positive;
* any other negative power that survives on resonance leaves no finite
  limit.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_wavenumber
from .kernels import cos_sqrt, sinc_sqrt

#: tolerance used when comparing exponents against the critical surfaces,
#: and eps powers against each other
EQUALITY_TOL = 1e-12
#: most terms of a thin-slab series, which needs about 2(mu - 1)/q terms
#: for a slab whose v l^2 goes like eps**q
MAX_TERMS = 400
#: entry indices of a collected M, row-major
M11, M12, M21, M22 = range(4)


class DivergentLimitError(ValueError):
    """The requested squeezing limit is not finite.

    characteristic names what diverges: a characteristic of the paper for
    exponents off both routes, or the eps power that M keeps on resonance.
    """

    def __init__(self, message, characteristic=None):
        super().__init__(message)
        self.characteristic = characteristic


def slab_series(h, d, p_v, p_l, q, cut):
    """Zero-energy propagator of a slab with v = h eps**-p_v, l = d eps**p_l.

    Returns (powers, coefficients) of eps, two arrays of shape (2, 2, n)
    that hold n terms of each entry.  q is the slab's edge power, the
    power of v l^2 = h d^2 eps**q: a thick slab (q within EQUALITY_TOL of
    0) keeps C and S exactly, a thin one (q > 0) gets the terms of their
    series up to power cut in the entry v l S, whose leading power
    p_l - p_v is the lowest.
    """
    w = h * d * d
    if abs(q) <= EQUALITY_TOL:
        q, even, odd = 0.0, np.array([cos_sqrt(-w)]), np.array([sinc_sqrt(-w)])
    else:
        count = int((cut - p_l + p_v) / q) + 1
        if count > MAX_TERMS:
            raise ValueError(
                f"a thin slab with v l^2 ~ eps**{q:g} needs {count} series "
                f"terms, more than {MAX_TERMS}"
            )
        n = np.arange(1, count)
        even = np.cumprod(np.concatenate(([1.0], w / ((2 * n - 1) * (2 * n)))))
        odd = np.cumprod(np.concatenate(([1.0], w / ((2 * n) * (2 * n + 1)))))
    series = q * np.arange(even.size)
    powers = np.array([[series, series + p_l], [series + p_l - p_v, series]])
    return powers, np.array([[even, d * odd], [h * d * odd, even]])


def propagator_series(slab1, slab2, c, tau):
    """M = M2 G M1 collected by eps power, G the gap c * eps**tau.

    M_ij = M2_i1 M1_1j + M2_i2 M1_2j + c eps**tau M2_i1 M1_2j.  Returns
    three arrays (entry, power, coefficient), one row per power <= 0 of an
    entry (M11, M12, M21 or M22), ascending; powers equal to EQUALITY_TOL
    are merged, and higher powers, which vanish in the limit, dropped.
    """
    (p1, k1), (p2, k2) = slab1, slab2
    powers, coefs = [], []
    # (column of M2, row of M1, eps power, factor) of the three products
    for a, b, shift, scale in ((0, 0, 0.0, 1.0), (1, 1, 0.0, 1.0), (0, 1, tau, c)):
        # axes (i, j, term of M2_ia, term of M1_bj), then (entry, term)
        power = p2[:, a, None, :, None] + p1[None, b, :, None, :] + shift
        coef = k2[:, a, None, :, None] * k1[None, b, :, None, :] * scale
        powers.append(power.reshape(4, -1))
        coefs.append(coef.reshape(4, -1))
    powers = np.concatenate(powers, axis=1)
    entry = np.repeat(np.arange(4), powers.shape[1])
    powers, coefs = powers.ravel(), np.concatenate(coefs, axis=1).ravel()
    keep = powers <= EQUALITY_TOL
    order = np.lexsort((powers[keep], entry[keep]))
    entry, powers, coefs = entry[keep][order], powers[keep][order], coefs[keep][order]
    starts = np.flatnonzero(
        (np.diff(entry, prepend=-1) != 0)
        | (np.diff(powers, prepend=-np.inf) > EQUALITY_TOL)
    )
    return entry[starts], powers[starts], np.add.reduceat(coefs, starts)


def coefficient(m, entry, power):
    """Coefficient of eps**power in an entry of a collected M (0 if absent)."""
    entries, powers, coefs = m
    at = (entries == entry) & (np.abs(powers - power) <= EQUALITY_TOL)
    return float(coefs[at].sum())


def divergent_term(m, residual_power, tol):
    """(entry name, power, coefficient) of the most negative power of M,
    other than the residual's in M21, whose coefficient exceeds tol; or
    None."""
    entries, powers, coefs = m
    residual = (entries == M21) & (np.abs(powers - residual_power) <= EQUALITY_TOL)
    hits = np.flatnonzero(
        (powers < -EQUALITY_TOL) & (np.abs(coefs) > tol) & ~residual
    )
    if not hits.size:
        return None
    k = hits[np.argmin(powers[hits])]
    return ("M11", "M12", "M21", "M22")[entries[k]], float(powers[k]), float(coefs[k])


@dataclass(frozen=True)
class SqueezedInteraction:
    """Point interaction obtained in the squeezing limit.

    kind is "X" (first route), "Y" (second route) or "separated" (off
    resonance, two Dirichlet half lines).  Both routes connect
    (psi, psi') by [[theta, 0], [alpha, 1/theta]].
    """

    kind: str
    theta: float = None
    alpha: float = None

    def amplitudes(self, k):
        """Limit amplitudes a(k), b(k) of the point interaction."""
        if self.kind == "separated":
            raise ValueError("separated limit has no finite amplitudes")
        th = self.theta
        shift = 0.5j * self.alpha / as_wavenumber(k).k
        return 0.5 * (th + 1.0 / th) + shift, 0.5 * (th - 1.0 / th) - shift

    def transmission(self, k):
        if self.kind == "separated":
            return 0.0
        a, _ = self.amplitudes(k)
        return 1.0 / abs(a) ** 2

    def connection_matrix(self):
        """2x2 real map (psi, psi')(-0) -> (psi, psi')(+0)."""
        if self.kind == "separated":
            raise ValueError(
                "separated limit: psi(+0) = psi(-0) = 0, no finite "
                "connection matrix exists"
            )
        return np.array([[self.theta, 0.0], [self.alpha, 1.0 / self.theta]])

    def bound_level(self):
        """kappa = -alpha / (theta + 1/theta), or None when that is not
        positive (no bound state) or the limit is separated."""
        if self.kind == "separated":
            return None
        kappa = -self.alpha / (self.theta + 1.0 / self.theta)
        return kappa if kappa > 0.0 else None
