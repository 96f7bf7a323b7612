"""Squeezing limits of a two-layer structure.

A three-exponent family shrinks the layer widths and the gap while the
potentials grow, keeping the products that control the zero-width limit
finite.  With squeeze parameter eps in (0, 1]:

    v1 = eps**-mu * h1          l1 = eps * d1
    v2 = eps**-nu * h2          l2 = eps**(1 - mu + nu) * d2
    gap r = eps**tau * c

(h in nm^-2, d and c in nm).  Depending on where (mu, nu, tau) sits
relative to two critical surfaces, the limit is a point interaction, a
pure jump, or no interaction at all.  This module classifies the
exponents, extracts the finite characteristics, evaluates the resonance
conditions, follows bound ladders along eps sweeps, and computes the
distributional pairing with its derivative-jump strength.
"""

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bound import build_chi_problem, find_roots
from .core import DoubleLayerSpec, convert_energy
from .kernels import cos_sqrt, sinc_sqrt, tanc_sqrt
from .limits import (
    DivergentLimitError,
    LimitChars,
    OffResonanceError,
    SqueezedInteraction,
    squeezed_bound_level,
    theta_alpha,
)

#: tolerance used when comparing exponents against the critical surfaces
EQUALITY_TOL = 1e-12

FIRST_ANGLE = ("P1", "K1", "L1", "N1", "Q1", "O1", "S1", "I1")
#: first-angle labels lying on the surface where the first-route limit exists
X_PLANE = ("P1", "K1", "L1", "S1")

_LABEL_OF_FIRST = {"P1": "G11", "K1": "G01", "L1": "G10", "S1": "G00"}
_LABEL_OF_SECOND = {
    "P2": "G11",
    "N2": "G11",
    "K2": "G01",
    "Q2": "G01",
    "L2": "G10",
    "O2": "G10",
    "S2": "G00",
    "I2": "G00",
}


@dataclass(frozen=True)
class SqueezeFamily:
    """Exponents and finite prefactors of a squeezing family.

    mu, nu govern the potential growth of the two layers, tau the gap
    shrink rate; h1, h2 (nm^-2) set the potential scale and d1, d2, c
    (nm) the geometric scale at eps = 1.
    """

    mu: float
    nu: float
    tau: float
    h1: float
    h2: float
    d1: float
    d2: float
    c: float

    def __post_init__(self):
        for name in ("mu", "nu", "tau"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"exponent {name} must be positive")
        for name in ("d1", "d2", "c"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"length prefactor {name} must be positive")
        if not 1.0 - self.mu + self.nu > 0.0:
            raise ValueError(
                "need 1 - mu + nu > 0 so the second layer width shrinks"
            )

    @classmethod
    def from_ev(cls, mu, nu, tau, h1_ev, h2_ev, d1, d2, c, units=None):
        """Build a family with the potential prefactors given in eV."""
        return cls(
            mu,
            nu,
            tau,
            convert_energy(h1_ev, units),
            convert_energy(h2_ev, units),
            d1,
            d2,
            c,
        )

    @property
    def region(self):
        return classify_region(self.mu, self.nu, self.tau)


def realize(family, eps):
    """Concrete double-layer geometry of the family at squeeze value eps."""
    e = float(eps)
    if not 0.0 < e <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    spec = DoubleLayerSpec.make(
        e ** (-family.mu) * family.h1,
        e * family.d1,
        e ** (-family.nu) * family.h2,
        e ** (1.0 - family.mu + family.nu) * family.d2,
        e**family.tau * family.c,
    )
    fields = (spec.v1, spec.l1, spec.v2, spec.l2, spec.r)
    if not all(math.isfinite(f) for f in fields):
        raise ValueError(f"eps = {eps!r} overflows the realized potential")
    return spec


# ---------------------------------------------------------------------------
# Exponent classification
# ---------------------------------------------------------------------------


#: per angle: the tau edge in units of mu - 1, then the labels at mu = 2
#: and for 1 < mu < 2, indexed [nu above its edge][tau above its edge]
_ANGLES = {
    "first": (1.0, (("P1", "N1"), ("L1", "O1")), (("K1", "Q1"), ("S1", "I1"))),
    "second": (2.0, (("P2", "N2"), ("L2", "O2")), (("K2", "Q2"), ("S2", "I2"))),
}


def _classify_angle(angle, mu, nu, tau, tol):
    """Label of (mu, nu, tau) in one angle, or None outside it.

    The angle needs mu in (1, 2], nu >= 2(mu - 1) and tau at or above its
    edge; the labels tell the boundary planes (on an edge) from the
    interior (above both).
    """
    tau_scale, at_two, inside = _ANGLES[angle]
    if abs(mu - 2.0) <= tol:
        excess, labels = 1.0, at_two
    elif 1.0 < mu < 2.0:
        excess, labels = mu - 1.0, inside
    else:
        return None
    sides = []
    for value, edge in ((nu, 2.0 * excess), (tau, tau_scale * excess)):
        if abs(value - edge) <= tol:
            sides.append(0)
        elif value > edge:
            sides.append(1)
        else:
            return None
    return labels[sides[0]][sides[1]]


def classify_first_angle(mu, nu, tau, tol=EQUALITY_TOL):
    """Label within the derivative-jump (first) angle, or None outside.

    The angle needs mu in (1, 2], nu >= 2(mu-1) and tau >= mu - 1; the
    eight labels distinguish boundary planes from the interior I1.
    """
    return _classify_angle("first", mu, nu, tau, tol)


def classify_second_angle(mu, nu, tau, tol=EQUALITY_TOL):
    """Label within the point-interaction (second) angle, or None outside.

    Same (mu, nu) footprint as the first angle but the tau threshold is
    doubled: tau >= 2(mu - 1)."""
    return _classify_angle("second", mu, nu, tau, tol)


def classify_region(mu, nu, tau, tol=EQUALITY_TOL):
    """Mutually exclusive exponent label; second angle takes priority.

    Points of the first angle below the second-angle threshold keep
    their first-angle label; everything else is "outside"."""
    label = classify_second_angle(mu, nu, tau, tol)
    if label is not None:
        return label
    label = classify_first_angle(mu, nu, tau, tol)
    if label is not None:
        return label
    return "outside"


# ---------------------------------------------------------------------------
# Surviving characteristics
# ---------------------------------------------------------------------------


def _blocking_characteristic(mu, nu, tau, tol):
    """Name the first characteristic that blows up for these exponents."""
    if 1.0 - mu / 2.0 < -tol:
        return "sigma1"
    if 1.0 - mu + nu / 2.0 < -tol:
        return "sigma2"
    sigma1_on = abs(1.0 - mu / 2.0) <= tol
    if tau < mu - 1.0 - tol:
        return "f1" if sigma1_on else "eta1"
    return "g1" if sigma1_on else "beta1"


def _power_value(power, value, name, tol):
    """Value of a characteristic with the given eps power (0 if positive)."""
    if power < -tol:
        raise DivergentLimitError(
            f"characteristic {name} diverges like eps**({power:g})", name
        )
    if power <= tol:
        return value
    return value * 0.0


def _thin_layer_alpha(family, tol):
    """Second-order terms of two thin layers in the zero-energy entry M21.

    With s_j = v_j l_j, a thin layer propagates (psi, psi') by
    [[1 + s l/2, l], [s + s**2 l/6, 1 + s l/2]] + o(1), so besides the
    gap term s1 s2 r the product carries, for layer j with partner i,
    s_j l_j (s_j/6 + s_i/2).  In the family's variables these are
    d1 h1 d1 (h1 d1 + 3 h2 d2)/6 * eps**(3 - 2 mu) and
    d2 h2 d2 (h2 d2 + 3 h1 d1)/6 * eps**(3 - 3 mu + nu).  Returns
    (alpha_thin, divergent): the sum of the terms with power zero, and
    "layer1" or "layer2" for the first term with a negative power (None
    if there is none).
    """
    p1 = family.h1 * family.d1
    p2 = family.h2 * family.d2
    terms = (
        ("layer1", 3.0 - 2.0 * family.mu, family.d1 * p1 * (p1 + 3.0 * p2) / 6.0),
        (
            "layer2",
            3.0 - 3.0 * family.mu + family.nu,
            family.d2 * p2 * (p2 + 3.0 * p1) / 6.0,
        ),
    )
    alpha_thin = 0.0
    divergent = None
    for name, power, value in terms:
        if power < -tol:
            divergent = divergent or name
        elif power <= tol:
            alpha_thin += value
    return alpha_thin, divergent


def limit_chars_of(family, tol=EQUALITY_TOL):
    """Surviving characteristics and the route they belong to.

    Returns (way, LimitChars) with way "second" inside the second angle
    and "first" on the tau = mu - 1 surface of the first angle; raises
    DivergentLimitError elsewhere, naming the offending characteristic.

    With both layers thin on the second route (labels S2 and I2, LimitChars
    label G00), alpha gets, besides the gap term beta1*beta2, the second-
    order term of each thin layer (see _thin_layer_alpha), kept in
    alpha_thin.  The layer-1 term survives at mu = 3/2, the layer-2 term
    at nu = 3(mu - 1).  For mu > 3/2 or nu < 3(mu - 1) the term diverges:
    LimitChars.divergent then names "layer1" or "layer2", and theta_alpha
    refuses the family on resonance.  Off resonance the net strength
    (h1 d1 + h2 d2) eps**(1 - mu) outgrows that term, so the limit stays
    separated.
    """
    mu, nu, tau = family.mu, family.nu, family.tau
    second = classify_second_angle(mu, nu, tau, tol)
    first = classify_first_angle(mu, nu, tau, tol)

    if second is not None:
        label = _LABEL_OF_SECOND[second]
        way = "second"
    elif first in X_PLANE:
        label = _LABEL_OF_FIRST[first]
        way = "first"
    else:
        name = _blocking_characteristic(mu, nu, tau, tol)
        raise DivergentLimitError(
            "no finite squeezing limit for exponents "
            f"(mu, nu, tau) = ({mu:g}, {nu:g}, {tau:g}): "
            f"characteristic {name} has no finite limit",
            name,
        )

    sigma1 = cmath.sqrt(complex(-family.h1)) * family.d1 if label[1] == "1" else 0.0
    sigma2 = cmath.sqrt(complex(-family.h2)) * family.d2 if label[2] == "1" else 0.0
    kwargs = {}
    if way == "first":
        kwargs["eta1"] = -family.h1 * family.d1 * family.c
        kwargs["eta2"] = -family.h2 * family.d2 * family.c
        if label[1] == "1":
            kwargs["f1"] = _power_value(
                tau - mu / 2.0, cmath.sqrt(complex(-family.h1)) * family.c, "f1", tol
            )
        if label[2] == "1":
            kwargs["f2"] = _power_value(
                tau - nu / 2.0, cmath.sqrt(complex(-family.h2)) * family.c, "f2", tol
            )
    else:
        root_c = math.sqrt(family.c)
        if label[1] == "1":
            kwargs["g1"] = _power_value(
                (tau - mu) / 2.0,
                cmath.sqrt(complex(-family.h1 * family.c)),
                "g1",
                tol,
            )
        else:
            kwargs["beta1"] = _power_value(
                1.0 - mu + tau / 2.0, -family.h1 * family.d1 * root_c, "beta1", tol
            )
        if label[2] == "1":
            kwargs["g2"] = _power_value(
                (tau - nu) / 2.0,
                cmath.sqrt(complex(-family.h2 * family.c)),
                "g2",
                tol,
            )
        else:
            kwargs["beta2"] = _power_value(
                1.0 - mu + tau / 2.0, -family.h2 * family.d2 * root_c, "beta2", tol
            )
        if label == "G00":
            kwargs["alpha_thin"], kwargs["divergent"] = _thin_layer_alpha(
                family, tol
            )
    return way, LimitChars(label, sigma1, sigma2, **kwargs)


# ---------------------------------------------------------------------------
# Resonance conditions on the critical surfaces
# ---------------------------------------------------------------------------


def resonance_residual_of(family, tol=EQUALITY_TOL):
    """Residual of the exact resonance condition for the family.

    Inside the second angle the condition couples h_j d_j tan-type
    factors (residual in nm^-1); on the tau = mu - 1 surface of the
    first angle it couples the inverse products and the gap prefactor
    (residual in nm).  Zero residual means the squeezed limit supports a
    nontrivial interaction.
    """
    mu, nu, tau = family.mu, family.nu, family.tau
    second = classify_second_angle(mu, nu, tau, tol)
    first = classify_first_angle(mu, nu, tau, tol)
    w1 = -family.h1 * family.d1**2
    w2 = -family.h2 * family.d2**2

    if second is not None:
        label = _LABEL_OF_SECOND[second]
        t1 = (
            -family.h1 * family.d1 * tanc_sqrt(w1)
            if label[1] == "1"
            else family.h1 * family.d1
        )
        t2 = (
            -family.h2 * family.d2 * tanc_sqrt(w2)
            if label[2] == "1"
            else family.h2 * family.d2
        )
        return t1 + t2
    if first in X_PLANE:
        label = _LABEL_OF_FIRST[first]
        if label[1] == "1":
            u1 = cos_sqrt(w1) / (family.h1 * family.d1 * sinc_sqrt(w1))
        else:
            u1 = 1.0 / (family.h1 * family.d1)
        if label[2] == "1":
            u2 = cos_sqrt(w2) / (family.h2 * family.d2 * sinc_sqrt(w2))
        else:
            u2 = 1.0 / (family.h2 * family.d2)
        return -u1 - u2 - family.c
    raise ValueError(
        "no resonance condition away from the two critical surfaces "
        f"(exponents ({mu:g}, {nu:g}, {tau:g}))"
    )


@dataclass(frozen=True)
class InteractionReport:
    """Outcome of the squeezing-limit analysis for one family."""

    family: SqueezeFamily
    region: str
    way: str
    residual: float
    verdict: str
    spread: float
    theta: float
    alpha: float
    kappa_limit: float
    interaction: SqueezedInteraction

    @property
    def on_resonance(self):
        return self.verdict != "separated"


def interaction_limit(family, res_tol=1e-9, spread_tol=1e-9):
    """Classify the squeezed limit of a family as X, Y or separated.

    res_tol is an absolute bound on the resonance residual; spread_tol
    bounds the relative disagreement of the equivalent connection-
    strength expressions.  Off resonance the verdict is "separated"
    (perfectly reflecting limit).  When both layers are thin on the
    second route (S2, I2), alpha and kappa_limit include each thin
    layer's second-order term.  Where such a term diverges (mu > 3/2 or
    nu < 3(mu - 1)) a family on resonance raises DivergentLimitError
    naming "layer1" or "layer2"; off resonance it is "separated".
    """
    region = classify_region(family.mu, family.nu, family.tau)
    way, chars = limit_chars_of(family)
    residual = resonance_residual_of(family)

    verdict = "separated"
    spread = math.inf
    theta = math.nan
    alpha = math.nan
    kappa_limit = None
    interaction = SqueezedInteraction.separated()

    if abs(residual) <= res_tol:
        try:
            ta = theta_alpha(chars, way, spread_tol=spread_tol)
        except OffResonanceError as err:
            spread = err.spread
        else:
            spread = ta.spread
            theta = ta.theta
            alpha = ta.alpha
            verdict = "X" if way == "first" else "Y"
            interaction = SqueezedInteraction(verdict, ta.theta, ta.alpha)
            if way == "second":
                kappa_limit = squeezed_bound_level(ta)
    return InteractionReport(
        family,
        region,
        way,
        residual,
        verdict,
        spread,
        theta,
        alpha,
        kappa_limit,
        interaction,
    )


# ---------------------------------------------------------------------------
# Bound-ladder sweeps
# ---------------------------------------------------------------------------


def eps_log_grid(start=1.0, stop=1e-3, per_decade=8, floor=1e-8):
    """Logarithmically spaced squeeze values from start down to stop."""
    if not 0.0 < stop < start <= 1.0:
        raise ValueError("need 0 < stop < start <= 1")
    if stop < floor:
        raise ValueError(
            f"stop = {stop:g} lies below the floor {floor:g} guarding "
            "against overflow of the realized potentials"
        )
    n = int(math.ceil(math.log10(start / stop) * per_decade)) + 1
    return np.geomspace(start, stop, max(n, 2))


def forced_branch(family):
    """Reference-well branch to use for a whole sweep.

    The well whose realized depth grows fastest (largest exponent, then
    deepest prefactor) anchors the ladder; using one branch for every
    eps keeps level trajectories comparable across the sweep.
    """
    well1 = family.h1 < 0.0
    well2 = family.h2 < 0.0
    if well1 and not well2:
        return 1
    if well2 and not well1:
        return 2
    if well1 and well2:
        if family.mu > family.nu:
            return 1
        if family.nu > family.mu:
            return 2
        return 1 if family.h1 <= family.h2 else 2
    raise ValueError("neither layer is attractive; there is no bound ladder")


@dataclass(frozen=True)
class SweepResult:
    """Bound ladders of a family along a squeeze sweep."""

    family: SqueezeFamily
    branch: int
    eps: np.ndarray
    ladders: tuple
    scenario: str
    kappa_limit: float
    report: InteractionReport
    survivor: np.ndarray
    counts: np.ndarray


def _survivor_value(ladder, scenario):
    if ladder.n == 0:
        return math.nan
    if scenario == "shallowest_survives":
        return ladder.kappas[0]
    if scenario == "deepest_survives":
        return ladder.kappas[-1]
    return math.nan


def sweep_ladder(
    family,
    eps_grid=None,
    *,
    tol=1e-9,
    samples=None,
    workers=None,
):
    """Follow the bound ladder of a family along a squeeze sweep.

    tol is used both as the absolute resonance-residual bound and as the
    relative spread bound when extracting the limiting interaction.  The
    scenario records what the ladder does as eps -> 0:

    - "shallowest_survives": the lowest level converges to the limiting
      interaction level, the rest escape (reference-depth exponent 0);
    - "deepest_survives": the top level converges, driven by the
      deepening reference well;
    - "levels_dissolve": first-route limit, no bound level survives;
    - "separated": off resonance, every level escapes to infinity.
    """
    if eps_grid is None:
        eps_grid = eps_log_grid()
    eps = np.asarray(eps_grid, dtype=float)
    if eps.ndim != 1 or eps.size == 0:
        raise ValueError("eps_grid must be a nonempty 1-d sequence")

    branch = forced_branch(family)
    report = interaction_limit(family, res_tol=tol, spread_tol=tol)

    if report.verdict == "Y":
        if branch == 1:
            depth_exp = 1.0 - family.mu / 2.0
        else:
            depth_exp = 1.0 - family.mu + family.nu / 2.0
        if depth_exp > EQUALITY_TOL:
            scenario = "deepest_survives"
        else:
            scenario = "shallowest_survives"
    elif report.verdict == "X":
        scenario = "levels_dissolve"
    else:
        scenario = "separated"

    def ladder_at(e):
        spec = realize(family, e)
        problem = build_chi_problem(spec, branch)
        return find_roots(problem, samples=samples)

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            ladders = tuple(pool.map(ladder_at, eps))
    else:
        ladders = tuple(ladder_at(e) for e in eps)

    survivor = np.array([_survivor_value(lad, scenario) for lad in ladders])
    counts = np.array([lad.n for lad in ladders], dtype=int)
    return SweepResult(
        family,
        branch,
        eps,
        ladders,
        scenario,
        report.kappa_limit,
        report,
        survivor,
        counts,
    )


def stable_level_index(result):
    """Index (in the smallest-eps ladder) of the level that stabilizes.

    With an analytic limiting level available the nearest ladder level
    is chosen; otherwise the level with the smallest relative drift
    between the two smallest eps values.  None if the ladder is empty.
    """
    order = np.argsort(result.eps)
    last = result.ladders[order[0]]
    if last.n == 0:
        return None
    kappas = np.asarray(last.kappas)
    if result.kappa_limit is not None:
        return int(np.argmin(np.abs(kappas - result.kappa_limit)))
    if len(order) < 2:
        return None
    prev = result.ladders[order[1]]
    if prev.n == 0:
        return None
    prev_k = np.asarray(prev.kappas)
    drift = np.array(
        [np.min(np.abs(k - prev_k)) / max(abs(k), 1e-300) for k in kappas]
    )
    return int(np.argmin(drift))


# ---------------------------------------------------------------------------
# Distributional pairing and the derivative-jump strength
# ---------------------------------------------------------------------------

_GAMMA_FACTORS = {
    "P1": ("d1", "d2", "c2"),
    "K1": ("d2", "c2"),
    "L1": ("d1", "c2"),
    "N1": ("d1", "d2"),
    "Q1": ("d2",),
    "O1": ("d1",),
    "S1": ("c2",),
}


def gamma_strength(family, region=None, balance_tol=1e-9):
    """Derivative-jump strength of the distributional limit.

    Defined on the first angle when the zero-mean balance
    h1*d1 + h2*d2 = 0 holds; in the interior I1 the strength is absent
    (None) because the pairing itself vanishes.
    """
    if region is None:
        region = classify_first_angle(family.mu, family.nu, family.tau)
    if region is None:
        raise ValueError(
            "gamma is defined only on the first angle of exponents"
        )
    if region not in FIRST_ANGLE:
        raise ValueError(f"unknown first-angle label {region!r}")
    if region == "I1":
        return None
    balance = family.h1 * family.d1 + family.h2 * family.d2
    scale = abs(family.h1 * family.d1) + abs(family.h2 * family.d2)
    if abs(balance) > balance_tol * scale:
        raise ValueError(
            "the derivative-jump strength needs the zero-mean balance "
            f"h1*d1 + h2*d2 = 0 (got {balance:g})"
        )
    parts = {"d1": family.d1, "d2": family.d2, "c2": 2.0 * family.c}
    total = sum(parts[name] for name in _GAMMA_FACTORS[region])
    return 0.5 * family.h1 * family.d1 * total


@dataclass(frozen=True)
class PairingResult:
    """Distributional pairing of a realized family against a probe."""

    eps: float
    value: float
    companion: float
    gamma: float
    divergence_power: float
    note: str = ""


def delta_prime_pairing(family, eps, probe, balance_tol=1e-9):
    """Pair the realized potential against a smooth probe function.

    value is the exact integral of v(x) * probe(x) at this eps.  When
    the zero-mean balance holds and the exponents lie in the first
    angle, companion is the limiting value -gamma * probe'(0) (0 in the
    interior I1).  Otherwise companion is None and divergence_power
    gives the eps power with which the pairing blows up (negative), or
    None when the limit is finite but uncharted.
    """
    from scipy.integrate import quad

    spec = realize(family, eps)
    lo, hi = probe.support

    def segment(a, b):
        a2, b2 = max(a, lo), min(b, hi)
        if b2 <= a2:
            return 0.0
        val, _ = quad(probe.f, a2, b2, epsabs=1e-14, epsrel=1e-12, limit=200)
        return val

    value = spec.v1 * segment(0.0, spec.l1) + spec.v2 * segment(
        spec.l1 + spec.r, spec.extent
    )

    mu, nu, tau = family.mu, family.nu, family.tau
    balance = family.h1 * family.d1 + family.h2 * family.d2
    scale = abs(family.h1 * family.d1) + abs(family.h2 * family.d2)
    balanced = abs(balance) <= balance_tol * scale

    if not balanced:
        power = 1.0 - mu
        return PairingResult(
            eps,
            value,
            None,
            None,
            power if power < -EQUALITY_TOL else None,
            "zero-mean balance violated; the pairing scales like "
            f"eps**({power:g}) times probe(0)",
        )

    region = classify_first_angle(mu, nu, tau)
    if region == "I1":
        return PairingResult(
            eps,
            value,
            0.0,
            None,
            None,
            "interior exponents: the pairing vanishes in the limit",
        )
    if region is not None:
        gamma = gamma_strength(family, region, balance_tol)
        return PairingResult(eps, value, -gamma * probe.df(0.0), gamma, None, "")

    # Balanced but off the first angle: the subleading terms decide.
    power = min(2.0 - mu, 1.0 + tau - mu, 2.0 - 2.0 * mu + nu)
    if power < -EQUALITY_TOL:
        return PairingResult(
            eps,
            value,
            None,
            None,
            power,
            "balanced pairing still diverges like "
            f"eps**({power:g}) for these exponents",
        )
    return PairingResult(
        eps,
        value,
        None,
        None,
        None,
        "exponents outside the mapped first angle; no limit value tabulated",
    )
