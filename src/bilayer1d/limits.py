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

Each layer enters through one pair (c_j, s_j): (cos sigma_j,
coef_j * sin sigma_j) for a thick layer and (1, eta_j or beta_j) for a
thin one; each route forms its expressions from the two pairs.  Off
resonance the limit is a pair of separated half lines (Dirichlet).

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


def _layer_pairs(chars, way):
    """One (c_j, s_j) pair per layer: (cos sigma, coef * sin sigma) for a
    thick layer, with coef f_j (first route) or g_j (second), and
    (1, eta_j or beta_j) for a thin one."""
    coef, thin = ("f", "eta") if way == "first" else ("g", "beta")
    pairs = []
    for j, sigma in ((1, chars.sigma1), (2, chars.sigma2)):
        if chars.label[j] == "1":
            w = (complex(sigma) ** 2).real
            # coef * sigma must be real: both factors real or both imaginary
            p = complex(getattr(chars, f"{coef}{j}")) * complex(sigma)
            if abs(p.imag) > 1e-12 * max(1.0, abs(p.real)):
                raise ValueError(f"{coef}{j}*sigma{j} came out non-real: {p!r}")
            pairs.append((cos_sqrt(w), p.real * sinc_sqrt(w)))
        else:
            pairs.append((1.0, _need(getattr(chars, f"{thin}{j}"), f"{thin}{j}")))
    return pairs


def theta_alpha(chars, way, spread_tol=1e-9):
    """Evaluate the connection strength from the surviving characteristics.

    With the layer pairs (c_j, s_j) of _layer_pairs, theta is
    (c1 - s1)/c2 = c1/(c2 - s2) = -s1/s2 on the first route and
    c1/c2 = -s1/s2 on the second, where alpha = s1*s2 (plus alpha_thin
    for two thin layers, label G00); alpha is 0 on the first route.
    Every expression with a nonzero denominator is evaluated; their mean
    is returned and the relative spread must stay below spread_tol
    (raise OffResonanceError otherwise).  Once the expressions agree, a
    divergent characteristic of chars raises DivergentLimitError.
    """
    if way not in ("first", "second"):
        raise ValueError(f"way must be 'first' or 'second', got {way!r}")
    (c1, s1), (c2, s2) = _layer_pairs(chars, way)
    if way == "first":
        pairs = [(c1 - s1, c2), (c1, c2 - s2), (-s1, s2)]
        alpha = 0.0
    else:
        pairs = [(c1, c2), (-s1, s2)]
        alpha = s1 * s2
        if chars.label == "G00":
            alpha += _need(chars.alpha_thin, "alpha_thin")
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
