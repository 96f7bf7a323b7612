"""Squeeze families: realization, region taxonomy, sweeps and pairings."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from bilayer1d import (
    SqueezeFamily,
    classify_first_angle,
    classify_region,
    delta_prime_pairing,
    eps_log_grid,
    forced_branch,
    gamma_strength,
    interaction_limit,
    probes,
    realize,
    sweep_ladder,
)
from bilayer1d.core import EV_TO_INV_NM2 as EV
from bilayer1d.squeeze import resonance_residual_of

from helpers import REGION_EXAMPLES
from test_acceptance import _tabulated_dipole_probe

H = 1.31232  # 0.5 eV in 1/nm^2

SURVIVOR_FAMILY = SqueezeFamily(2.0, 2.0, 2.0, 0.5 * EV, -0.5 * EV, 1.0, 0.6, 2.0)
BALANCED_THIN = SqueezeFamily(1.5, 1.5, 1.0, H, -H, 12.0, 12.0, 20.0)
UNBALANCED_THIN = SqueezeFamily(1.5, 1.5, 1.0, H, -H, 8.0, 12.0, 20.0)
DIPOLE = SqueezeFamily(1.5, 1.0, 1.0, H, -H, 12.0, 12.0, 20.0)


# ---------------------------------------------------------------------------
# region taxonomy
# ---------------------------------------------------------------------------

def test_region_catalogue():
    for (mu, nu, tau), want in REGION_EXAMPLES.items():
        assert classify_region(mu, nu, tau) == want, (mu, nu, tau)


FIRST_ANGLE_EXAMPLES = {
    (2.0, 2.0, 1.0): "P1",
    (2.0, 2.0, 1.5): "N1",
    (2.0, 2.0, 2.0): "N1",
    (2.0, 3.0, 1.0): "L1",
    (2.0, 3.0, 1.5): "O1",
    (1.5, 1.0, 0.5): "K1",
    (1.5, 1.0, 1.0): "Q1",
    (1.5, 1.5, 0.5): "S1",
    (1.5, 1.5, 0.75): "I1",
    (1.5, 1.0, 0.25): None,  # tau below mu - 1
    (1.5, 0.5, 1.0): None,  # nu below 2(mu - 1)
    (2.0, 1.5, 1.0): None,  # nu below 2 at mu = 2
    (2.0, 2.0, 0.5): None,  # tau below 1 at mu = 2
    (1.0, 1.0, 1.0): None,  # mu <= 1
    (0.5, 2.0, 2.0): None,
    (2.5, 3.0, 2.0): None,  # mu > 2
}

SECOND_ANGLE_EXAMPLES = {
    (2.0, 2.0, 2.0): "P2",
    (2.0, 2.0, 3.0): "N2",
    (2.0, 3.0, 2.0): "L2",
    (2.0, 3.0, 3.0): "O2",
    (1.5, 1.0, 1.0): "K2",
    (1.5, 1.0, 1.5): "Q2",
    (1.5, 1.5, 1.0): "S2",
    (1.5, 1.5, 1.5): "I2",
    (1.5, 1.0, 0.75): None,  # tau below 2(mu - 1)
    (1.5, 0.5, 2.0): None,  # nu below 2(mu - 1)
    (2.0, 2.0, 1.5): None,  # tau below 2 at mu = 2
    (2.0, 1.5, 2.0): None,  # nu below 2 at mu = 2
    (1.0, 1.0, 1.0): None,  # mu <= 1
    (3.0, 2.0, 1.0): None,  # mu > 2
}


def _second_angle(mu, nu, tau):
    """The second-angle label, or None: classify_region ranks that angle first."""
    label = classify_region(mu, nu, tau)
    return label if label.endswith("2") else None


@pytest.mark.parametrize(
    "classify, examples",
    [
        (classify_first_angle, FIRST_ANGLE_EXAMPLES),
        (_second_angle, SECOND_ANGLE_EXAMPLES),
    ],
    ids=["first", "second"],
)
def test_angle_catalogue(classify, examples):
    labels = {want for want in examples.values() if want is not None}
    assert len(labels) == 8
    for (mu, nu, tau), want in examples.items():
        assert classify(mu, nu, tau) == want, (mu, nu, tau)


def test_every_point_gets_exactly_one_region_label():
    rng = np.random.default_rng(41)
    labels = {
        "P1", "P2", "K1", "K2", "L1", "L2", "N1", "N2",
        "Q1", "Q2", "O1", "O2", "S1", "S2", "I1", "I2", "outside",
    }
    seen = set()
    for _ in range(4000):
        mu, nu, tau = rng.uniform(0.05, 4.0, 3)
        got = classify_region(mu, nu, tau)
        assert got in labels
        seen.add(got)
    # only the volume regions have nonzero measure; every other label needs
    # an exact edge or plane relation and is exercised by the catalogue above
    assert {"I1", "I2", "outside"} <= seen


def test_first_angle_view_can_differ_from_scattering_view():
    # on the closure edge shared by both angles the scattering label wins,
    # while the distributional classification keeps its own name
    assert classify_region(1.5, 1.0, 1.0) == "K2"
    assert classify_first_angle(1.5, 1.0, 1.0) == "Q1"
    assert classify_first_angle(2.0, 2.0, 1.0) == "P1"
    assert classify_first_angle(1.5, 1.5, 0.75) == "I1"
    assert classify_first_angle(3.0, 2.0, 1.0) is None


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def test_realize_at_unit_scale_returns_seed_structure():
    spec = realize(SURVIVOR_FAMILY, 1.0)
    assert spec.v1 == pytest.approx(SURVIVOR_FAMILY.h1)
    assert spec.v2 == pytest.approx(SURVIVOR_FAMILY.h2)
    assert spec.l1 == pytest.approx(SURVIVOR_FAMILY.d1)
    assert spec.l2 == pytest.approx(SURVIVOR_FAMILY.d2)
    assert spec.r == pytest.approx(SURVIVOR_FAMILY.c)


def test_realize_scales_with_the_advertised_powers():
    eps = 0.1
    fam = SURVIVOR_FAMILY
    spec = realize(fam, eps)
    assert spec.v1 == pytest.approx(fam.h1 * eps**-2)
    assert spec.v2 == pytest.approx(fam.h2 * eps**-2)
    assert spec.l1 == pytest.approx(fam.d1 * eps)
    assert spec.l2 == pytest.approx(fam.d2 * eps ** (1.0 - 2.0 + 2.0))
    assert spec.r == pytest.approx(fam.c * eps**2)


@pytest.mark.parametrize("eps, h", [(1e-200, 1.0), (1.1e-154, 10.0)], ids=["power", "product"])
def test_realize_refuses_an_eps_that_overflows(eps, h):
    # at 1e-200 eps**-2 itself overflows; at 1.1e-154 it is 8.3e307, and
    # only its product with h is infinite
    family = SqueezeFamily(2.0, 2.0, 2.0, h, -h, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError, match=f"eps = {eps!r} overflows"):
        realize(family, eps)


def test_family_requires_shrinking_second_layer():
    with pytest.raises(ValueError):
        SqueezeFamily(3.0, 2.0, 1.0, H, -H, 1.0, 1.0, 2.0)


def test_eps_log_grid_shape_and_floor():
    grid = eps_log_grid(1.0, 1e-3, 4)
    assert grid[0] == pytest.approx(1.0)
    assert grid[-1] == pytest.approx(1e-3)
    assert grid.size == 13
    assert np.all(np.diff(grid) < 0.0)
    with pytest.raises(ValueError):
        eps_log_grid(1.0, 1e-12, 2, floor=1e-8)
    for per_decade in (0, -8):
        with pytest.raises(ValueError, match="per_decade"):
            eps_log_grid(1.0, 1e-3, per_decade)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_survivor_family_sweep_keeps_the_shallow_level():
    grid = eps_log_grid(1.0, 1e-2, 4)
    result = sweep_ladder(SURVIVOR_FAMILY, grid, tol=0.02)
    assert result.scenario == "shallowest_survives"
    assert result.branch == forced_branch(SURVIVOR_FAMILY) == 2
    assert result.report.region == "P2"
    survivor = np.asarray(result.survivor, dtype=float)
    assert survivor.size == grid.size
    gaps = np.abs(survivor / result.kappa_limit - 1.0)
    assert gaps[-1] < gaps[0]


def test_balanced_thin_sweep_keeps_the_deep_level():
    grid = np.array([1e-3, 1e-4])
    result = sweep_ladder(BALANCED_THIN, grid, tol=1e-6)
    assert result.scenario == "deepest_survives"
    # gap term (12H)^2 * 20 / 2 plus each thin layer's (12H)^2 * 12 / 6
    assert result.kappa_limit == pytest.approx((H * 12.0) ** 2 * 14.0)
    assert np.asarray(result.counts).tolist() == [1, 1]


def test_unbalanced_thin_sweep_is_separated():
    grid = np.array([1e-1, 1e-2])
    result = sweep_ladder(UNBALANCED_THIN, grid, tol=1e-6)
    assert result.scenario == "separated"
    assert result.kappa_limit is None


# sqrt(h1 d1^2) = 1000: the thick slab's cosh overflows the float range
OVERFLOWING = SqueezeFamily(2.0, 2.0, 2.0, 1e6, -2.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("analyse", [interaction_limit, resonance_residual_of, sweep_ladder])
def test_an_overflowed_expansion_is_refused(analyse):
    # its residual was NaN, which failed the resonance test and so read as
    # the verdict "separated"
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match="overflows"):
        analyse(OVERFLOWING)


def test_a_thick_barrier_inside_the_float_range_stays_separated():
    # sqrt(h1 d1^2) = 316: cosh is near 1e137, finite
    report = interaction_limit(dataclasses.replace(OVERFLOWING, h1=1e5))
    assert report.verdict == "separated"
    assert report.residual == pytest.approx(5.19316e138, rel=1e-5)


def test_forced_branch_prefers_the_well_layer():
    assert forced_branch(
        SqueezeFamily(2.0, 2.0, 2.0, -0.5 * EV, 0.5 * EV, 1.0, 0.6, 2.0)
    ) == 1
    assert forced_branch(
        SqueezeFamily(2.0, 2.0, 2.0, 0.5 * EV, -0.5 * EV, 1.0, 0.6, 2.0)
    ) == 2
    assert forced_branch(
        SqueezeFamily(2.0, 2.0, 2.0, -0.5 * EV, -0.4 * EV, 1.0, 0.6, 2.0)
    ) == 1


# ---------------------------------------------------------------------------
# distributional pairing
# ---------------------------------------------------------------------------

def test_gamma_strength_catalogue():
    d1, d2, c = 1.2, 0.8, 2.0
    h1 = H
    h2 = -h1 * d1 / d2  # balanced so the distributional limit exists
    p1 = SqueezeFamily(2.0, 2.0, 1.0, h1, h2, d1, d2, c)
    assert gamma_strength(p1) == pytest.approx(0.5 * h1 * d1 * (d1 + d2 + 2 * c))
    s1 = SqueezeFamily(1.5, 1.5, 0.5, h1, h2, d1, d2, c)
    assert gamma_strength(s1) == pytest.approx(h1 * d1 * c)
    q1 = SqueezeFamily(1.5, 1.0, 1.0, h1, h2, d1, d2, c)
    assert gamma_strength(q1) == pytest.approx(0.5 * h1 * d1 * d2)
    i1 = SqueezeFamily(1.5, 1.5, 0.75, h1, h2, d1, d2, c)
    assert gamma_strength(i1) is None
    null = SqueezeFamily(2.0, 2.0, 1.0, 0.0, 0.0, d1, d2, c)
    assert gamma_strength(null) == 0.0


def test_gamma_strength_requires_balance():
    lopsided = SqueezeFamily(2.0, 2.0, 1.0, H, -H, 2.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        gamma_strength(lopsided)


def test_gamma_strength_follows_the_pairing():
    # balanced below both angles: the pairing vanishes, so gamma is absent
    assert gamma_strength(SqueezeFamily(0.75, 0.5, 0.5, H, -H, 1.0, 1.0, 2.0)) is None
    # unbalanced in the interior I1: the pairing diverges like eps**(1 - mu)
    with pytest.raises(ValueError, match=r"eps\*\*\(-0\.5\)"):
        gamma_strength(SqueezeFamily(1.5, 1.5, 0.75, H, -H, 1.0, 2.0, 2.0))
    # gamma exactly where the companion is finite, else the pairing's note
    probe = probes.gaussian(3.0, center=-3.0)
    grid = itertools.product((0.75, 1.0, 1.5, 2.0), (0.5, 1.0, 2.0, 3.0), (0.5, 1.0, 2.0),
                             (1.0, 2.0))
    for mu, nu, tau, d2 in grid:
        if 1.0 - mu + nu <= 0.0:
            continue
        family = SqueezeFamily(mu, nu, tau, H, -H, 1.0, d2, 2.0)
        pairing = delta_prime_pairing(family, 1e-3, probe)
        if pairing.companion is None:
            with pytest.raises(ValueError) as info:
                gamma_strength(family)
            assert str(info.value) == pairing.note
        else:
            assert gamma_strength(family) == pairing.gamma


def test_pairing_converges_for_the_balanced_dipole():
    probe = probes.gaussian(3.0, center=-3.0)
    gamma = gamma_strength(DIPOLE)
    eps_grid = np.logspace(-3, -5, 5)
    gaps = []
    for eps in eps_grid:
        res = delta_prime_pairing(DIPOLE, eps, probe)
        assert res.companion == pytest.approx(-gamma * probe.df(0.0), rel=1e-12)
        assert res.gamma == pytest.approx(gamma, rel=1e-12)
        gaps.append(abs(res.value - res.companion))
    slope = np.polyfit(np.log(eps_grid), np.log(gaps), 1)[0]
    assert slope > 0.2


def test_pairing_diverges_without_balance():
    probe = probes.gaussian(3.0, center=-3.0)
    lopsided = SqueezeFamily(1.5, 1.0, 1.0, H, -H, 8.0, 12.0, 20.0)
    values = []
    eps_grid = np.logspace(-4, -6, 5)
    for eps in eps_grid:
        res = delta_prime_pairing(lopsided, eps, probe)
        assert res.companion is None
        assert res.divergence_power == pytest.approx(1.0 - 1.5)
        values.append(abs(res.value))
    slope = np.polyfit(np.log(eps_grid), np.log(values), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)


def test_pairing_vanishes_in_the_transparent_region():
    probe = probes.gaussian(2.0, center=2.0)
    family = SqueezeFamily(1.5, 1.5, 0.75, H, -H, 1.0, 1.0, 2.0)
    eps_grid = np.logspace(-2, -6, 5)
    values = []
    for eps in eps_grid:
        res = delta_prime_pairing(family, eps, probe)
        assert res.companion == 0.0
        values.append(abs(res.value))
    assert np.all(np.diff(values) < 0.0)
    # slowest surviving term scales like eps^(tau - (mu - 1)) = eps^0.25
    slope = np.polyfit(np.log(eps_grid), np.log(values), 1)[0]
    assert slope == pytest.approx(0.25, abs=0.05)


def test_balanced_pairing_with_positive_edge_powers_vanishes():
    # mu < 1 lies below both angles, yet every edge power is positive, the
    # smallest t = tau - (mu - 1) = 0.75 (q1 = 1.25, q2 = 1); the probe is
    # asymmetric, so the probe'(0) term that carries eps**t is not 0
    probe = probes.gaussian(3.0, center=-3.0)
    family = SqueezeFamily(0.75, 0.5, 0.5, H, -H, 1.0, 1.0, 2.0)
    eps_grid = np.logspace(-2, -5, 7)
    values = []
    for eps in eps_grid:
        res = delta_prime_pairing(family, eps, probe)
        assert res.companion == 0.0
        assert res.gamma is None and res.divergence_power is None
        values.append(abs(res.value))
    slope = np.polyfit(np.log(eps_grid), np.log(values), 1)[0]
    assert slope == pytest.approx(0.75, abs=0.05)


@pytest.mark.parametrize("eps", [0.1, 10**-1.5, 1e-2, 1e-3, 1e-5])
def test_tabulated_pairing_is_the_exact_spline_integral(eps):
    # at eps = 0.1 the second slab runs from 3.2 to 7.0 nm, past the
    # table's end at 6 nm, so the clip to the support takes part
    probe = _tabulated_dipole_probe()
    # the table that probe interpolates
    xs = np.linspace(-6.0, 6.0, 61)
    ys = (xs + 2.0) * np.exp(-(((xs - 0.8423292192132454) / 3.0) ** 2))
    spline = CubicSpline(xs, ys)
    s = realize(DIPOLE, eps)
    terms = [
        v * float(spline.integrate(max(a, -6.0), min(b, 6.0)))
        for v, a, b in ((s.v1, 0.0, s.l1), (s.v2, s.l1 + s.r, s.extent))
        if min(b, 6.0) > max(a, -6.0)
    ]
    scale = sum(abs(t) for t in terms)
    value = delta_prime_pairing(DIPOLE, eps, probe).value
    assert abs(value - sum(terms)) <= 1e-13 * scale
    by_quadrature = delta_prime_pairing(
        DIPOLE, eps, dataclasses.replace(probe, integral=None)
    ).value
    assert abs(value - by_quadrature) <= 1e-9 * scale
