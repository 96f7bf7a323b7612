"""Zero-width limit of the two-layer structure: resonance data and the
resulting point interaction.

When the structure is squeezed, finitely many characteristics survive:
the layer phases sigma_j (real for wells, imaginary for barriers) and
one scaling coefficient per layer.  Two distinct cancellation routes
lead to a nontrivial limit:

* the "first" route balances the gap against the layers; the limit is a
  k-independent connection (psi and psi' each rescale),
* the "second" route balances the two layers against each other; the
  connection picks up an extra psi term with coefficient alpha, and can
  carry a single bound level.  alpha is the limit of the zero-energy
  entry M21.  When both layers are thin (label G00), alpha holds the gap
  term beta1*beta2 plus alpha_thin, the second-order term from inside
  each layer whose eps power is zero.  A negative power leaves no
  finite alpha on resonance, and theta_alpha refuses it there.

Off resonance the limit is a pair of separated half lines (Dirichlet).

All cosine and sine factors are evaluated through the squared-argument
kernels so that the barrier case (imaginary sigma) stays in real
arithmetic: coef * sin(sigma) = (coef * sigma) * sinc_sqrt(sigma^2).
"""

from dataclasses import dataclass

import numpy as np

from .core import as_wavenumber
from .kernels import cos_sqrt, sinc_sqrt

LABELS = ("G11", "G01", "G10", "G00")


class OffResonanceError(ValueError):
    """Raised when allegedly equivalent limit expressions disagree."""

    def __init__(self, message, spread):
        super().__init__(message)
        self.spread = spread


class DivergentLimitError(ValueError):
    """The requested squeezing limit has no finite characteristics."""

    def __init__(self, message, characteristic=None):
        super().__init__(message)
        self.characteristic = characteristic


@dataclass(frozen=True)
class LimitChars:
    """Surviving characteristics of a squeezed family.

    label records which layer phases are nonzero ("G11": both, "G01":
    only sigma2, "G10": only sigma1, "G00": neither).  First-route
    coefficients are f (with sigma != 0) or eta (with sigma = 0); the
    second route uses g respectively beta.  Only the fields of the
    route in use need to be populated.  alpha_thin is the part of alpha
    that comes from inside two thin layers; the second route needs it
    for G00, where alpha = beta1*beta2 + alpha_thin.  divergent names a
    thin-layer term with a negative eps power ("layer1" or "layer2"), if
    any.  Off resonance it does not matter, as the limit is separated;
    on resonance theta_alpha raises DivergentLimitError for it.
    """

    label: str
    sigma1: complex = 0.0
    sigma2: complex = 0.0
    f1: complex = None
    f2: complex = None
    eta1: float = None
    eta2: float = None
    g1: complex = None
    g2: complex = None
    beta1: float = None
    beta2: float = None
    alpha_thin: float = None
    divergent: str = None

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        for j, sigma in ((1, self.sigma1), (2, self.sigma2)):
            s = complex(sigma)
            if abs(s.real) > 0 and abs(s.imag) > 0:
                raise ValueError(
                    f"sigma{j} must be real or purely imaginary, got {s!r}"
                )
            expect_zero = self.label[j] == "0"
            if expect_zero != (s == 0):
                raise ValueError(
                    f"label {self.label} inconsistent with sigma{j} = {s!r}"
                )


def _real_product(a, b, name):
    """Product of two (possibly imaginary) factors that must be real."""
    p = complex(a) * complex(b)
    if abs(p.imag) > 1e-12 * max(1.0, abs(p.real)):
        raise ValueError(f"{name} came out non-real: {p!r}")
    return p.real


def _sin_term(coef, sigma, name):
    """coef * sin(sigma) as a real number."""
    w = (complex(sigma) ** 2).real
    return _real_product(coef, sigma, name) * sinc_sqrt(w)


def _need(value, name):
    if value is None:
        raise ValueError(f"characteristic {name} is required but absent")
    return value


@dataclass(frozen=True)
class ThetaAlpha:
    """Connection strength theta (and alpha on the second route), with
    the relative spread of the equivalent defining expressions."""

    theta: float
    alpha: float
    way: str
    spread: float


def _candidates_first(chars):
    w1 = (complex(chars.sigma1) ** 2).real
    w2 = (complex(chars.sigma2) ** 2).real
    cos1, cos2 = cos_sqrt(w1), cos_sqrt(w2)
    out = []
    if chars.label == "G11":
        fs1 = _sin_term(chars.f1, chars.sigma1, "f1*sigma1")
        fs2 = _sin_term(chars.f2, chars.sigma2, "f2*sigma2")
        out = [(cos1 - fs1, cos2), (cos1, cos2 - fs2), (-fs1, fs2)]
    elif chars.label == "G01":
        fs2 = _sin_term(chars.f2, chars.sigma2, "f2*sigma2")
        eta1 = _need(chars.eta1, "eta1")
        out = [(1.0 - eta1, cos2), (1.0, cos2 - fs2), (-eta1, fs2)]
    elif chars.label == "G10":
        fs1 = _sin_term(chars.f1, chars.sigma1, "f1*sigma1")
        eta2 = _need(chars.eta2, "eta2")
        out = [(cos1 - fs1, 1.0), (cos1, 1.0 - eta2), (-fs1, eta2)]
    else:
        eta1 = _need(chars.eta1, "eta1")
        eta2 = _need(chars.eta2, "eta2")
        out = [(1.0 - eta1, 1.0), (1.0, 1.0 - eta2), (-eta1, eta2)]
    return out


def _candidates_second(chars):
    w1 = (complex(chars.sigma1) ** 2).real
    w2 = (complex(chars.sigma2) ** 2).real
    cos1, cos2 = cos_sqrt(w1), cos_sqrt(w2)
    if chars.label == "G11":
        gs1 = _sin_term(chars.g1, chars.sigma1, "g1*sigma1")
        gs2 = _sin_term(chars.g2, chars.sigma2, "g2*sigma2")
        return [(cos1, cos2), (-gs1, gs2)], gs1 * gs2
    if chars.label == "G01":
        gs2 = _sin_term(chars.g2, chars.sigma2, "g2*sigma2")
        beta1 = _need(chars.beta1, "beta1")
        return [(1.0, cos2), (-beta1, gs2)], beta1 * gs2
    if chars.label == "G10":
        gs1 = _sin_term(chars.g1, chars.sigma1, "g1*sigma1")
        beta2 = _need(chars.beta2, "beta2")
        return [(cos1, 1.0), (-gs1, beta2)], gs1 * beta2
    beta1 = _need(chars.beta1, "beta1")
    beta2 = _need(chars.beta2, "beta2")
    alpha_thin = _need(chars.alpha_thin, "alpha_thin")
    return [(1.0, 1.0), (-beta1, beta2)], beta1 * beta2 + alpha_thin


def theta_alpha(chars, way, spread_tol=1e-9):
    """Evaluate the connection strength from the surviving characteristics.

    Every equivalent expression with a nonzero denominator is evaluated;
    their mean is returned and the relative spread must stay below
    spread_tol (raise OffResonanceError otherwise).  On the second route
    the extra coefficient alpha is returned as well, else alpha is 0.
    Once the expressions agree, a divergent characteristic of chars
    raises DivergentLimitError.
    """
    if way == "first":
        pairs = _candidates_first(chars)
        alpha = 0.0
    elif way == "second":
        pairs, alpha = _candidates_second(chars)
    else:
        raise ValueError(f"way must be 'first' or 'second', got {way!r}")
    values = [num / den for num, den in pairs if den != 0.0]
    if not values:
        raise ValueError("all defining expressions are degenerate (0/0)")
    mean = float(np.mean(values))
    spread = max(abs(v - mean) for v in values) / max(abs(mean), 1e-300)
    if spread > spread_tol:
        raise OffResonanceError(
            f"limit expressions disagree (relative spread {spread:.3e}); "
            "the family is off resonance at this tolerance",
            spread,
        )
    if mean == 0.0:
        raise ValueError("connection strength came out zero")
    if chars.divergent is not None:
        raise DivergentLimitError(
            f"on resonance the {chars.divergent} term of alpha diverges, "
            "so the squeezing limit has no finite alpha",
            chars.divergent,
        )
    return ThetaAlpha(mean, alpha, way, spread)


@dataclass(frozen=True)
class SqueezedInteraction:
    """Point interaction obtained in the squeezing limit.

    kind is "X" (first route, k-independent amplitudes), "Y" (second
    route) or "separated" (off resonance, two Dirichlet half lines).
    """

    kind: str
    theta: float = None
    alpha: float = None

    @classmethod
    def separated(cls):
        return cls("separated")

    def amplitudes(self, k):
        """Limit amplitudes a(k), b(k) of the point interaction."""
        if self.kind == "separated":
            raise ValueError("separated limit has no finite amplitudes")
        th = self.theta
        even = 0.5 * (th + 1.0 / th)
        odd = 0.5 * (th - 1.0 / th)
        if self.kind == "X":
            return complex(even), complex(odd)
        kc = as_wavenumber(k).k
        shift = 0.5j * self.alpha / kc
        return even + shift, odd - shift

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
        alpha = self.alpha if self.kind == "Y" else 0.0
        return np.array(
            [[self.theta, 0.0], [alpha, 1.0 / self.theta]]
        )


def squeezed_bound_level(ta):
    """Bound level of the second-route interaction.

    kappa = -alpha / (theta + 1/theta), with alpha including any thin-
    layer term of the characteristics; returns None when that is not
    positive (no bound state).  First-route input is rejected: that
    interaction carries no bound level.
    """
    if ta.way != "second":
        raise ValueError("bound level exists only on the second route")
    denom = ta.theta + 1.0 / ta.theta
    if abs(denom) < 1e-300:
        raise ValueError("degenerate connection: theta + 1/theta = 0")
    kappa = -ta.alpha / denom
    return kappa if kappa > 0.0 else None
