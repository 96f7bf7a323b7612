"""Zero-range limit connection elements and the squeezed point interaction."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from scipy.optimize import brentq

from bilayer1d import (
    DivergentLimitError,
    SqueezeFamily,
    SqueezedInteraction,
    build_chi_problem,
    classify_region,
    cli,
    find_roots,
    interaction_limit,
    realize,
    scattering_data,
    sweep_ladder,
    verify_ladder,
)
from bilayer1d.core import EV_TO_INV_NM2 as EV
from bilayer1d.squeeze import resonance_residual_of

H = 1.31232  # 0.5 eV in 1/nm^2

SURVIVOR_FAMILY = SqueezeFamily(2.0, 2.0, 2.0, 0.5 * EV, -0.5 * EV, 1.0, 0.6, 2.0)
BALANCED_THIN = SqueezeFamily(1.5, 1.5, 1.0, H, -H, 12.0, 12.0, 20.0)
UNBALANCED_THIN = SqueezeFamily(1.5, 1.5, 1.0, H, -H, 8.0, 12.0, 20.0)
TRANSPARENT = SqueezeFamily(1.5, 1.5, 1.5, H, -H, 1.0, 1.0, 2.0)


def test_second_route_chars_for_the_survivor_family():
    # both layers thick: a barrier (C = cosh, S = sinh x / x) and a well
    # (C = cos, S = sin x / x), with x = sqrt|h| d
    x1, x2 = np.sqrt(H) * 1.0, np.sqrt(H) * 0.6
    c1, s1 = np.cosh(x1), np.sinh(x1) / x1
    c2, s2 = np.cos(x2), np.sin(x2) / x2
    report = interaction_limit(SURVIVOR_FAMILY, res_tol=0.02, spread_tol=0.05)
    assert (report.region, report.way, report.verdict) == ("P2", "second", "Y")
    # M21 at eps**-1, and M11 and M21 at eps**0 (the gap term)
    assert report.residual == pytest.approx(H * s1 * c2 - H * 0.6 * s2 * c1, rel=1e-12)
    assert report.theta == pytest.approx(c1 * c2 + H * 0.6 * s1 * s2, rel=1e-12)
    assert report.alpha == pytest.approx(-2.0 * (H * s1) * (H * 0.6 * s2), rel=1e-12)


def test_connection_elements_for_the_survivor_family():
    report = interaction_limit(SURVIVOR_FAMILY, res_tol=0.02, spread_tol=0.05)
    assert report.theta == pytest.approx(2.2346349053353474, rel=1e-12)
    assert report.alpha == pytest.approx(-2.35319854789509, rel=1e-12)
    assert report.spread == pytest.approx(0.01346275176161782, rel=1e-9)
    kappa = -report.alpha / (report.theta + 1.0 / report.theta)
    assert report.kappa_limit == pytest.approx(kappa, rel=1e-12)


def test_balanced_thin_pair_keeps_unit_jump():
    report = interaction_limit(BALANCED_THIN, res_tol=1e-9, spread_tol=1e-9)
    assert report.region == "S2"
    assert report.verdict == "Y"
    assert report.theta == pytest.approx(1.0, abs=1e-12)
    # alpha = -(h d)^2 (c + 2d/3): the gap term plus one term per thin layer
    assert report.alpha == pytest.approx(-((H * 12.0) ** 2) * 28.0, rel=1e-12)
    assert report.kappa_limit == pytest.approx((H * 12.0) ** 2 * 14.0, rel=1e-12)


def test_unbalanced_thin_pair_separates():
    report = interaction_limit(UNBALANCED_THIN, res_tol=1e-9, spread_tol=1e-9)
    assert report.verdict == "separated"
    # two thin layers: the residual is the net strength h1 d1 + h2 d2
    assert report.residual == pytest.approx(H * (8.0 - 12.0), rel=1e-12)


def test_transparent_family_has_trivial_interaction():
    """The I2 family TRANSPARENT is not transparent in the limit.

    Its gap term vanishes, but each thin layer leaves -H^2 d / 3 in
    alpha, so the limit carries a bound level and T < 1.  The test and
    the family keep their names from when only the gap term was counted.
    """
    report = interaction_limit(TRANSPARENT, res_tol=1e-9, spread_tol=1e-9)
    assert report.verdict == "Y"
    assert report.theta == pytest.approx(1.0, abs=1e-12)
    assert report.alpha == pytest.approx(-2.0 * H**2 / 3.0, rel=1e-12)
    assert report.kappa_limit == pytest.approx(H**2 / 3.0, rel=1e-12)
    assert report.kappa_limit == pytest.approx(0.57406, abs=1e-5)
    interaction = report.interaction
    for k, want in ((0.4, 0.32683), (1.3, 0.83682)):
        assert interaction.transmission(k) == pytest.approx(want, abs=1e-5)
        finite = scattering_data(realize(TRANSPARENT, 1e-12), k)
        assert 1.0 / abs(finite.a) ** 2 == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize(
    "family, eps, rel",
    [
        (BALANCED_THIN, 1e-10, 1e-6),
        # d1 != d2 with h2 d2 = -h1 d1; here the eps**(1/2) correction is
        # about 0.5 eps**(1/2) relative
        (SqueezeFamily(1.5, 1.5, 1.0, H, -H * 12.0 / 5.0, 12.0, 5.0, 10.0), 1e-12, 1e-4),
    ],
)
def test_thin_layer_terms_match_finite_amplitudes(family, eps, rel):
    report = interaction_limit(family, res_tol=1e-9, spread_tol=1e-9)
    assert report.region == "S2"
    # alpha = h1 d1 h2 d2 c + d1 h1 d1 (h1 d1 + 3 h2 d2)/6 + d2 h2 d2 (h2 d2 + 3 h1 d1)/6
    alpha = -((H * 12.0) ** 2) * (family.c + (family.d1 + family.d2) / 3.0)
    assert report.alpha == pytest.approx(alpha, rel=1e-12)
    for k in (0.5, 1.0, 3.0):
        a_limit, _ = report.interaction.amplitudes(k)
        data = scattering_data(realize(family, eps), k)
        assert abs(data.a - a_limit) < rel * abs(a_limit)


# Two S2 families whose thin-layer series keep a negative power in M21
# on resonance: eps**(-1/2) from the second-order terms of both layers at
# mu = 7/4, and eps**(-3/10) from layer 2, whose v l^2 goes like eps**(1/5)
DIVERGENT_THIN = [((1.75, 1.75, 1.5), "eps**(-0.5)"), ((1.5, 1.2, 1.0), "eps**(-0.3)")]


@pytest.mark.parametrize(
    "exponents, power", DIVERGENT_THIN, ids=["exponents0-layer1", "exponents1-layer2"]
)
def test_divergent_thin_layer_term_is_refused(exponents, power):
    family = SqueezeFamily(*exponents, H, -H, 12.0, 12.0, 20.0)
    assert classify_region(*exponents) == "S2"
    with pytest.raises(DivergentLimitError) as err:
        interaction_limit(family)
    assert err.value.characteristic == power


@pytest.mark.parametrize(
    "exponents, power", DIVERGENT_THIN, ids=["exponents0-layer1", "exponents1-layer2"]
)
def test_divergent_thin_layer_term_off_resonance_is_separated(exponents, power):
    # h1 d1 + h2 d2 != 0: the net strength eps**(1 - mu) outgrows the
    # divergent thin-layer term, so the limit is the Dirichlet one
    family = SqueezeFamily(*exponents, H, -H, 8.0, 12.0, 20.0)
    report = interaction_limit(family)
    assert report.residual == pytest.approx(H * (8.0 - 12.0), rel=1e-12)
    assert report.verdict == "separated"
    assert report.kappa_limit is None


def _family_config(tmp_path, values, **extra):
    keys = ("mu", "nu", "tau", "h1", "h2", "d1", "d2", "c")
    config = {"units": "nm^-2", "family": dict(zip(keys, values)), **extra}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    return str(cfg)


def test_divergent_thin_layer_term_is_a_cli_domain_error(tmp_path, capsys):
    cfg = _family_config(tmp_path, (1.75, 1.75, 1.5, H, -H, 12.0, 12.0, 20.0))
    code = cli.main(["resonance", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "eps**(-0.5)" in capsys.readouterr().err


def test_divergent_thin_layer_term_off_resonance_sweeps(tmp_path):
    cfg = _family_config(
        tmp_path, (1.75, 1.75, 1.5, H, -H, 8.0, 12.0, 20.0), eps_grid=[1.0, 0.1]
    )
    out = tmp_path / "o"
    assert cli.main(["boundstates", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "boundstates.json").read_text(encoding="utf-8"))
    assert summary["scenario"] == "separated"


def test_first_route_resonance_gives_pure_jump():
    # two thick wells (P1): M21 has no eps**0 term, so alpha = 0
    def family(c):
        return SqueezeFamily(2.0, 2.0, 1.0, -H, -H, 1.0, 0.6, c)

    c_star = brentq(lambda c: resonance_residual_of(family(c)), 1.4, 1.5, xtol=1e-13)
    report = interaction_limit(family(c_star), res_tol=1e-9, spread_tol=1e-9)
    assert report.way == "first"
    assert report.verdict == "X"
    assert report.alpha == pytest.approx(0.0, abs=1e-12)
    assert abs(abs(report.theta) - 1.0) > 0.05
    assert report.kappa_limit is None


# Two families whose limits the per-label rules once got wrong: K1 (first
# route at mu = 3/2, where layer 1's thin series adds to alpha) and K2 (a
# thin layer beside a thick one on the second route).  Their ladders
# converge (test_known_fault_ladders_converge) to the levels of the limit.
K1_FAMILY = SqueezeFamily(1.5, 1.0, 0.5, -H, -H, 1.0, 1.0, 1.1573262590561457)
K2_FAMILY = SqueezeFamily(
    1.5, 1.0, 1.0, H * np.tan(np.sqrt(H)) / np.sqrt(H), -H, 1.0, 1.0, 2.0
)


@pytest.mark.parametrize(
    "family, kappa", [(K1_FAMILY, 0.22238), (K2_FAMILY, 2.1714)], ids=["K1", "K2"]
)
def test_known_fault_ladders_converge(family, kappa):
    spec = realize(family, 1e-10)
    ladder = find_roots(build_chi_problem(spec))
    assert verify_ladder(spec, ladder).ok
    assert ladder.kappas[0] == pytest.approx(kappa, rel=1e-4)


def test_k1_family_keeps_its_bound_level():
    report = interaction_limit(K1_FAMILY)
    assert report.kappa_limit == pytest.approx(0.22238, rel=1e-3)


def test_k2_family_is_on_resonance():
    report = interaction_limit(K2_FAMILY)
    assert report.verdict == "Y"
    assert report.kappa_limit == pytest.approx(2.1714, rel=1e-3)


def test_first_route_sweep_follows_the_survivor():
    result = sweep_ladder(K1_FAMILY, np.array([1e-2, 1e-4, 1e-6]))
    assert result.scenario == "shallowest_survives"
    gaps = np.abs(result.survivor / result.kappa_limit - 1.0)
    assert np.all(np.diff(gaps) < 0.0)
    assert gaps[-1] < 1e-3


def test_thin_layer_series_too_long_is_refused():
    # mu a hair below 2 leaves layer 1 thin with v l^2 ~ eps**(1e-6): its
    # series would need about 2e6 terms before one reaches eps**0
    family = SqueezeFamily(2.0 - 1e-6, 2.5, 2.0, H, -H, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="series terms"):
        interaction_limit(family)


# mu within EQUALITY_TOL of 2 counts as 2, so layer 1 is thick and layer 2
# thin with v l^2 ~ eps**1.5e-12, whose series is too long; the label, the
# route and the series read the same edge powers, though 2 - 2mu + nu
# rounds to 0 here
EDGE_L2 = SqueezeFamily(2.00000000000075, 2.0000000000015, 2.0, H, -H, 1.0, 1.0, 2.0)


def test_family_a_hair_off_two_edges_is_refused(tmp_path):
    assert classify_region(EDGE_L2.mu, EDGE_L2.nu, EDGE_L2.tau) == "L2"
    with pytest.raises(ValueError, match="series terms"):
        interaction_limit(EDGE_L2)
    cfg = _family_config(tmp_path, dataclasses.astuple(EDGE_L2))
    assert cli.main(["resonance", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_exponents_near_the_edges_give_a_limit_or_a_value_error():
    # mu, nu and tau at and within 3e-12 of mu = 2 or 3/2, of the nu edge
    # and of both tau edges: any other exception escapes and fails
    offsets = (0.0, 5e-13, 7.5e-13, 1e-12, 1.5e-12, 3e-12)
    offsets += tuple(-x for x in offsets[1:])
    for mu, angle in itertools.product((1.5, 2.0), (1, 2)):
        for dmu, dnu, dtau in itertools.product(offsets, repeat=3):
            family = SqueezeFamily(
                mu + dmu,
                2.0 * (mu - 1.0) + dnu,
                angle * (mu - 1.0) + dtau,
                H, -H, 1.0, 1.0, 2.0,
            )
            try:
                interaction_limit(family)
            except ValueError:
                pass


def test_off_plane_exponents_have_no_finite_limit():
    family = SqueezeFamily(1.5, 1.0, 0.75, H, -H, 1.0, 1.0, 2.0)
    with pytest.raises(DivergentLimitError):
        interaction_limit(family)


def test_connection_matrix_and_amplitudes():
    interaction = SqueezedInteraction("Y", 2.0, -3.0)
    mat = np.asarray(interaction.connection_matrix())
    assert mat == pytest.approx(np.array([[2.0, 0.0], [-3.0, 0.5]]))
    assert np.linalg.det(mat) == pytest.approx(1.0, rel=1e-12)
    for k in (0.3, 1.0, 2.4):
        a, b = interaction.amplitudes(k)
        assert abs(a) ** 2 - abs(b) ** 2 == pytest.approx(1.0, rel=1e-12)
        assert interaction.transmission(k) == pytest.approx(
            1.0 / abs(a) ** 2, rel=1e-12
        )
    assert interaction.bound_level() == pytest.approx(3.0 / 2.5, rel=1e-12)


def test_bound_level_absent_when_alpha_is_repulsive():
    assert SqueezedInteraction("Y", 2.0, 1.5).bound_level() is None
