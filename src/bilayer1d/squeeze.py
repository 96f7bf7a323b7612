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
exponents, computes the limit from the eps-expansion of the zero-energy
propagator (see limits), follows bound ladders along eps sweeps, and
computes the distributional pairing with its derivative-jump strength.

Both angles need mu in (1, 2] and nu >= 2(mu - 1); the first needs
tau >= mu - 1, the second tau >= 2(mu - 1).  All of this reads three edge
powers: q1 = 2 - mu and q2 = nu - 2(mu - 1), the eps powers of v l^2 of
the two layers, and t = tau - angle * (mu - 1).  An angle holds where mu > 1
and no power is negative; a power at 0 sets an edge flag, and one letter table
of the flags (P for all three, then N L O K Q S, and I for none) gives
the letter, and the angle digit follows.  A finite limit needs a route:
the second angle, or t = 0 on the first.  There a layer is thick, v l^2
not depending on eps, when its power is 0, and thin otherwise.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bound import build_chi_problem, find_roots
from .core import DoubleLayerSpec
from .limits import (
    EQUALITY_TOL,
    M11,
    M21,
    M22,
    DivergentLimitError,
    SqueezedInteraction,
    coefficient,
    divergent_term,
    propagator_series,
    slab_series,
)

#: relative tolerance of the zero-mean balance h1*d1 + h2*d2 = 0
BALANCE_TOL = 1e-9


@dataclass(frozen=True)
class SqueezeFamily:
    """Exponents and finite prefactors of a squeezing family.

    mu, nu govern the potential growth of the two layers, tau the gap
    shrink rate; h1, h2 (nm^-2) set the potential scale and d1, d2, c
    (nm) the geometric scale at eps = 1.  Every field must be finite, the
    exponents and lengths positive and 1 - mu + nu positive; construction
    raises ValueError naming the offending field, so every family is valid.
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
        for name in ("mu", "nu", "tau", "h1", "h2", "d1", "d2", "c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"family field {name} is not finite: {value!r}")
            if value <= 0.0 and name not in ("h1", "h2"):
                raise ValueError(f"family field {name} must be positive, got {value!r}")
        if not 1.0 - self.mu + self.nu > 0.0:
            raise ValueError(
                "need 1 - mu + nu > 0 so the second layer width shrinks"
            )


def realize(family, eps):
    """Concrete double-layer geometry of the family at squeeze value eps."""
    e = float(eps)
    if not 0.0 < e <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    try:
        return DoubleLayerSpec(
            e ** (-family.mu) * family.h1,
            e * family.d1,
            e ** (-family.nu) * family.h2,
            e ** (1.0 - family.mu + family.nu) * family.d2,
            e**family.tau * family.c,
        )
    except (OverflowError, ValueError) as exc:
        # eps**-mu overflows, or its product with h1 or h2 is infinite
        raise ValueError(f"eps = {eps!r} overflows the realized potential") from exc


# ---------------------------------------------------------------------------
# Exponent classification
# ---------------------------------------------------------------------------


#: region letter by the edge flags (q1, q2 and t at 0): P for all three set,
#: then N L O K Q S, and I for none
_LETTERS = dict(zip(itertools.product((True, False), repeat=3), "PNLOKQSI"))


def _edge_powers(angle, mu, nu, tau):
    """Edge powers (q1, q2, t) of the exponents against angle 1 or 2, and
    whether the exponents lie in that angle.

    q1 = 2 - mu is the eps power of v1 l1^2, q2 = nu - 2(mu - 1) that of
    v2 l2^2, and t = tau - angle * (mu - 1) the gap's excess over the
    angle's edge; mu within EQUALITY_TOL of 2 counts as 2.  The angle
    needs mu > 1 and no power below -EQUALITY_TOL.  A power within
    EQUALITY_TOL of 0 sets its edge flag: a thick layer, or tau on the
    edge.  Every decision on where the exponents sit reads these powers.
    """
    if abs(mu - 2.0) <= EQUALITY_TOL:
        mu = 2.0
    excess = mu - 1.0
    powers = (2.0 - mu, nu - 2.0 * excess, tau - angle * excess)
    return powers, excess > 0.0 and all(p >= -EQUALITY_TOL for p in powers)


def _flags(powers):
    """Edge flags: which powers are 0 to EQUALITY_TOL."""
    return tuple(abs(p) <= EQUALITY_TOL for p in powers)


def _label(angle, mu, nu, tau):
    """Region label in angle 1 or 2 (None outside it) and the edge powers."""
    powers, inside = _edge_powers(angle, mu, nu, tau)
    return (_LETTERS[_flags(powers)] + str(angle) if inside else None), powers


def _place(mu, nu, tau):
    """Region label, route and edge powers of the exponents.

    The second angle takes priority and is the "second" route.  The
    "first" route needs the first angle with t = 0; elsewhere the route is
    None and the powers are the first angle's.
    """
    label, powers = _label(2, mu, nu, tau)
    if label is not None:
        return label, "second", powers
    label, powers = _label(1, mu, nu, tau)
    route = "first" if label is not None and _flags(powers)[2] else None
    return label or "outside", route, powers


def classify_first_angle(mu, nu, tau):
    """Label within the derivative-jump (first) angle, or None outside.

    The angle needs mu in (1, 2], nu >= 2(mu-1) and tau >= mu - 1; the
    eight labels distinguish boundary planes from the interior I1.
    """
    return _label(1, mu, nu, tau)[0]


def classify_region(mu, nu, tau):
    """Mutually exclusive exponent label; second angle takes priority.

    Points of the first angle below the second-angle threshold keep
    their first-angle label; everything else is "outside"."""
    return _place(mu, nu, tau)[0]


# ---------------------------------------------------------------------------
# The limit from the eps-expansion
# ---------------------------------------------------------------------------


def _blocking_characteristic(powers):
    """Name the first characteristic that blows up, from the first-angle
    edge powers (q1, q2, t) of exponents off both routes.

    The names are the paper's: the layer phases sigma_j, and the
    coefficients f_1 or eta_1 of the first route and g_1 or beta_1 of the
    second, for a thick or a thin layer 1.
    """
    q1, q2, t = powers
    if q1 < -EQUALITY_TOL:
        return "sigma1"
    if q2 < -EQUALITY_TOL:
        return "sigma2"
    thick = _flags(powers)[0]
    if t < -EQUALITY_TOL:
        return "f1" if thick else "eta1"
    return "g1" if thick else "beta1"


def _expansion(family):
    """Region label, route and the entries of the zero-energy M = M2 G M1
    at eps powers <= 0 (see limits).  Layer 1 has v = h1 eps**-mu and
    l = d1 eps, layer 2 v = h2 eps**-nu and l = d2 eps**(1 - mu + nu).
    Both series are cut at power mu - 1: the rest of any product term is
    at least eps**(1 - mu), so no higher term reaches eps**0.  Raises
    DivergentLimitError off the two routes, naming the first
    characteristic that blows up; OverflowError if a term overflows.
    """
    mu, nu, tau = family.mu, family.nu, family.tau
    region, way, powers = _place(mu, nu, tau)
    if way is None:
        name = _blocking_characteristic(powers)
        raise DivergentLimitError(
            "no finite squeezing limit for exponents "
            f"(mu, nu, tau) = ({mu:g}, {nu:g}, {tau:g}): "
            f"characteristic {name} has no finite limit",
            name,
        )
    q1, q2, _ = powers
    cut = mu - 1.0
    slab1 = slab_series(family.h1, family.d1, mu, 1.0, q1, cut)
    slab2 = slab_series(family.h2, family.d2, nu, 1.0 - mu + nu, q2, cut)
    m = propagator_series(slab1, slab2, family.c, tau)
    if not np.isfinite(m[2]).all():
        raise OverflowError("the eps-expansion of M overflows the float range")
    return region, way, m


def resonance_residual_of(family):
    """Resonance residual of the family: the coefficient of eps**(1 - mu),
    the most negative power, in the zero-energy entry M21 (nm^-1 on both
    routes).  Zero residual means the squeezed limit supports a
    nontrivial interaction.
    """
    _, _, m = _expansion(family)
    return coefficient(m, M21, 1.0 - family.mu)


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


def interaction_limit(family, res_tol=1e-9, spread_tol=1e-9):
    """Classify the squeezed limit of a family as X, Y or separated.

    The verdict names the route on resonance, X for the first and Y for
    the second; off resonance it is "separated" (perfectly reflecting
    limit).  res_tol is an absolute bound on the resonance residual
    (resonance_residual_of).  On resonance theta and alpha are the eps**0
    coefficients of M11 and M21, and spread = |theta * M22 - 1| at
    eps**0, the defect of det M = 1, must stay within spread_tol.  A
    family on resonance whose M keeps another negative power with a
    coefficient above res_tol raises DivergentLimitError naming that
    power.  Both tolerances must be >= 0; otherwise ValueError.
    """
    if not (res_tol >= 0.0 and spread_tol >= 0.0):
        raise ValueError(f"tolerances must be >= 0, got res_tol={res_tol!r}, "
                         f"spread_tol={spread_tol!r}")
    region, way, m = _expansion(family)
    residual_power = 1.0 - family.mu
    residual = coefficient(m, M21, residual_power)

    verdict = "separated"
    spread = math.inf
    theta = math.nan
    alpha = math.nan
    interaction = SqueezedInteraction("separated")

    if abs(residual) <= res_tol:
        term = divergent_term(m, residual_power, res_tol)
        if term is not None:
            name, power, coef = term
            raise DivergentLimitError(
                f"on resonance {name} keeps the term {coef:.6g} * "
                f"eps**({power:g}), so the squeezing limit is not finite",
                f"eps**({power:g})",
            )
        m11 = coefficient(m, M11, 0.0)
        spread = abs(m11 * coefficient(m, M22, 0.0) - 1.0)
        if spread <= spread_tol:
            theta = m11
            alpha = coefficient(m, M21, 0.0)
            verdict = "X" if way == "first" else "Y"
            interaction = SqueezedInteraction(verdict, theta, alpha)
    return InteractionReport(
        family,
        region,
        way,
        residual,
        verdict,
        spread,
        theta,
        alpha,
        interaction.bound_level(),
        interaction,
    )


# ---------------------------------------------------------------------------
# Bound-ladder sweeps
# ---------------------------------------------------------------------------


#: the lowest eps that eps_log_grid reaches; a listed eps grid may go lower
EPS_FLOOR = 1e-8


def eps_log_grid(start=1.0, stop=1e-3, per_decade=8):
    """Logarithmically spaced squeeze values from start down to stop, which
    may not lie below EPS_FLOOR."""
    if not 0.0 < stop < start <= 1.0:
        raise ValueError("need 0 < stop < start <= 1")
    if stop < EPS_FLOOR:
        raise ValueError(f"stop = {stop:g} lies below {EPS_FLOOR:g}, the lowest eps "
                         "a generated grid reaches")
    if per_decade < 1:
        raise ValueError(f"per_decade must be at least 1, got {per_decade!r}")
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
    workers=None,
):
    """Follow the bound ladder of a family along a squeeze sweep.

    tol is used both as the absolute resonance-residual bound and as the
    relative spread bound when extracting the limiting interaction.  The
    scenario records what the ladder does as eps -> 0:

    - "shallowest_survives": the lowest level converges to the limiting
      interaction level, the rest escape (reference-depth exponent 0, or
      the first route, whose gap shrinks like the inverse strength of a
      thin layer, so that the pair's other levels escape);
    - "deepest_survives": on the second route, the top level converges,
      driven by the deepening reference well;
    - "levels_dissolve": a finite limit without a bound level, so no
      level survives;
    - "separated": off resonance, every level escapes to infinity.
    """
    if eps_grid is None:
        eps_grid = eps_log_grid()
    eps = np.asarray(eps_grid, dtype=float)
    if eps.ndim != 1 or eps.size == 0:
        raise ValueError("eps_grid must be a nonempty 1-d sequence")

    branch = forced_branch(family)
    report = interaction_limit(family, res_tol=tol, spread_tol=tol)

    # the reference well deepens when its layer is thin: v l^2 ~ eps**q, q > 0
    q = _edge_powers(2, family.mu, family.nu, family.tau)[0][branch - 1]
    if report.kappa_limit is None:
        scenario = "separated" if report.verdict == "separated" else "levels_dissolve"
    elif report.verdict == "Y" and q > EQUALITY_TOL:
        scenario = "deepest_survives"
    else:
        scenario = "shallowest_survives"

    def ladder_at(e):
        spec = realize(family, e)
        problem = build_chi_problem(spec, branch)
        return find_roots(problem)

    if workers is not None and workers > 1:
        # imported here: no other path of the library needs concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

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


# ---------------------------------------------------------------------------
# Distributional pairing and the derivative-jump strength
# ---------------------------------------------------------------------------

def _balanced(family):
    """Whether the zero-mean balance h1*d1 + h2*d2 = 0 holds to BALANCE_TOL."""
    balance = family.h1 * family.d1 + family.h2 * family.d2
    scale = abs(family.h1 * family.d1) + abs(family.h2 * family.d2)
    return abs(balance) <= BALANCE_TOL * scale


def _gamma_rule(family):
    """(gamma, divergence_power, note) of the distributional limit.

    Without the zero-mean balance the pairing scales like eps**(1 - mu)
    times probe(0).  With it, the terms left go like eps**q1, eps**q2 and
    eps**t over the first-angle edge powers; the most negative of them
    sets the divergence.  When none is negative, gamma is h1*d1/2 times
    the sum of d1, d2 and 2c over the powers that are 0, or None when
    none is, and note is "".  Otherwise gamma is None and note says why
    there is no limit; divergence_power is the eps power with which the
    pairing blows up (None for an unbalanced mu <= 1).
    """
    if not _balanced(family):
        power = 1.0 - family.mu
        note = ("zero-mean balance violated; the pairing scales like "
                f"eps**({power:g}) times probe(0)")
        return None, (power if power < -EQUALITY_TOL else None), note
    powers, _ = _edge_powers(1, family.mu, family.nu, family.tau)
    lowest = min(powers)
    if lowest < -EQUALITY_TOL:
        note = f"balanced pairing still diverges like eps**({lowest:g}) for these exponents"
        return None, lowest, note
    parts = (family.d1, family.d2, 2.0 * family.c)
    on = [part for part, flag in zip(parts, _flags(powers)) if flag]
    return (0.5 * family.h1 * family.d1 * sum(on) if on else None), None, ""


def gamma_strength(family):
    """Derivative-jump strength of the distributional limit.

    Exists where delta_prime_pairing has a finite companion: under the
    zero-mean balance h1*d1 + h2*d2 = 0 with no first-angle edge power
    (q1, q2, t) negative.  It is h1*d1/2 times the sum of d1, d2 and 2c
    over the edge powers that are 0; when none is 0 the pairing itself
    vanishes and the strength is absent (None).  Elsewhere the pairing
    has no limit and ValueError gives the pairing's note.
    """
    gamma, _, note = _gamma_rule(family)
    if note:
        raise ValueError(note)
    return gamma


@dataclass(frozen=True)
class PairingResult:
    """Distributional pairing of a realized family against a probe."""

    eps: float
    value: float
    companion: float
    gamma: float
    divergence_power: float
    note: str = ""


def delta_prime_pairing(family, eps, probe):
    """Pair the realized potential against a smooth probe function.

    value is the integral of v(x) * probe(x) at this eps: exact through
    probe.integral when the probe has one, by adaptive quadrature of
    probe.f otherwise.  When the zero-mean balance holds and no
    first-angle edge power (q1, q2, t) is negative, companion is the
    limiting value -gamma * probe'(0), and 0.0 when no power is 0 (gamma
    None).  Otherwise companion is None and divergence_power gives the
    eps power with which the pairing blows up: the most negative edge
    power when balanced, 1 - mu when not (None for mu <= 1).
    """
    from scipy.integrate import quad

    spec = realize(family, eps)
    lo, hi = probe.support

    def segment(a, b):
        a2, b2 = max(a, lo), min(b, hi)
        if b2 <= a2:
            return 0.0
        if probe.integral is not None:
            return probe.integral(a2, b2)
        val, _ = quad(probe.f, a2, b2, epsabs=1e-14, epsrel=1e-12, limit=200)
        return val

    value = spec.v1 * segment(0.0, spec.l1) + spec.v2 * segment(
        spec.l1 + spec.r, spec.extent
    )

    gamma, power, note = _gamma_rule(family)
    if note:
        return PairingResult(eps, value, None, None, power, note)
    if gamma is None:
        return PairingResult(
            eps, value, 0.0, None, None,
            "interior exponents: the pairing vanishes in the limit",
        )
    return PairingResult(eps, value, -gamma * probe.df(0.0), gamma, None, "")
