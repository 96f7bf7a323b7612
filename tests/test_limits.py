"""Zero-range limit connection elements and the squeezed point interaction."""

import json

import numpy as np
import pytest
from scipy.optimize import brentq

from bilayer1d import (
    DivergentLimitError,
    LimitChars,
    OffResonanceError,
    SqueezeFamily,
    SqueezedInteraction,
    ThetaAlpha,
    cli,
    interaction_limit,
    limit_chars_of,
    realize,
    scattering_data,
    squeezed_bound_level,
    theta_alpha,
)
from bilayer1d.core import EV_TO_INV_NM2 as EV
from bilayer1d.squeeze import resonance_residual_of

H = 1.31232  # 0.5 eV in 1/nm^2

SURVIVOR_FAMILY = SqueezeFamily(2.0, 2.0, 2.0, 0.5 * EV, -0.5 * EV, 1.0, 0.6, 2.0)
BALANCED_THIN = SqueezeFamily(1.5, 1.5, 1.0, H, -H, 12.0, 12.0, 20.0)
UNBALANCED_THIN = SqueezeFamily(1.5, 1.5, 1.0, H, -H, 8.0, 12.0, 20.0)
TRANSPARENT = SqueezeFamily(1.5, 1.5, 1.5, H, -H, 1.0, 1.0, 2.0)


def test_second_route_chars_for_the_survivor_family():
    way, chars = limit_chars_of(SURVIVOR_FAMILY)
    assert way == "second"
    assert chars.label == "G11"
    # one barrier (imaginary strength), one well (real strength)
    assert chars.sigma1.real == pytest.approx(0.0, abs=1e-12)
    assert abs(chars.sigma1.imag) == pytest.approx(np.sqrt(H) * 1.0, rel=1e-12)
    assert chars.sigma2.imag == pytest.approx(0.0, abs=1e-12)
    assert chars.sigma2.real == pytest.approx(np.sqrt(H) * 0.6, rel=1e-12)


def test_connection_elements_for_the_survivor_family():
    way, chars = limit_chars_of(SURVIVOR_FAMILY)
    ta = theta_alpha(chars, way, spread_tol=0.05)
    assert ta.theta == pytest.approx(2.233413931411616, rel=1e-12)
    assert ta.alpha == pytest.approx(-2.35319854789509, rel=1e-12)
    kappa = squeezed_bound_level(ta)
    assert kappa == pytest.approx(-ta.alpha / (ta.theta + 1.0 / ta.theta), rel=1e-12)


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
    with pytest.raises(OffResonanceError) as err:
        way, chars = limit_chars_of(UNBALANCED_THIN)
        theta_alpha(chars, way)
    # relative imbalance between the two layer strengths: |8-12| / (8+12)
    assert err.value.spread == pytest.approx(0.2, rel=1e-9)


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


@pytest.mark.parametrize(
    "exponents, layer", [((1.75, 1.75, 1.5), "layer1"), ((1.5, 1.2, 1.0), "layer2")]
)
def test_divergent_thin_layer_term_is_refused(exponents, layer):
    family = SqueezeFamily(*exponents, H, -H, 12.0, 12.0, 20.0)
    assert family.region == "S2"
    with pytest.raises(DivergentLimitError) as err:
        interaction_limit(family)
    assert err.value.characteristic == layer


@pytest.mark.parametrize(
    "exponents, layer", [((1.75, 1.75, 1.5), "layer1"), ((1.5, 1.2, 1.0), "layer2")]
)
def test_divergent_thin_layer_term_off_resonance_is_separated(exponents, layer):
    # h1 d1 + h2 d2 != 0: the net strength eps**(1 - mu) outgrows the
    # divergent thin-layer term, so the limit is the Dirichlet one
    family = SqueezeFamily(*exponents, H, -H, 8.0, 12.0, 20.0)
    _, chars = limit_chars_of(family)
    assert chars.divergent == layer
    report = interaction_limit(family)
    assert report.verdict == "separated"
    assert report.kappa_limit is None


def test_g00_chars_without_thin_layer_term_are_refused():
    chars = LimitChars("G00", beta1=-2.0, beta2=2.0)
    with pytest.raises(ValueError, match="alpha_thin"):
        theta_alpha(chars, "second")


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
    assert "layer1" in capsys.readouterr().err


def test_divergent_thin_layer_term_off_resonance_sweeps(tmp_path):
    cfg = _family_config(
        tmp_path, (1.75, 1.75, 1.5, H, -H, 8.0, 12.0, 20.0), eps_grid=[1.0, 0.1]
    )
    out = tmp_path / "o"
    assert cli.main(["boundstates", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "boundstates.json").read_text(encoding="utf-8"))
    assert summary["scenario"] == "separated"


def test_first_route_resonance_gives_pure_jump():
    def family(c):
        return SqueezeFamily(1.5, 1.0, 0.5, -H, -H, 1.0, 1.0, c)

    c_star = brentq(lambda c: resonance_residual_of(family(c)), 1.1, 1.3, xtol=1e-13)
    report = interaction_limit(family(c_star), res_tol=1e-9, spread_tol=1e-9)
    assert report.way == "first"
    assert report.verdict == "X"
    assert report.alpha == pytest.approx(0.0, abs=1e-12)
    assert abs(abs(report.theta) - 1.0) > 0.05
    assert report.kappa_limit is None


def test_off_plane_exponents_have_no_finite_limit():
    family = SqueezeFamily(1.5, 1.0, 0.75, H, -H, 1.0, 1.0, 2.0)
    with pytest.raises(DivergentLimitError):
        limit_chars_of(family)


def test_connection_matrix_and_amplitudes():
    ta = ThetaAlpha(theta=2.0, alpha=-3.0, way="second", spread=0.0)
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
    kappa = squeezed_bound_level(ta)
    assert kappa == pytest.approx(3.0 / 2.5, rel=1e-12)


def test_bound_level_absent_when_alpha_is_repulsive():
    ta = ThetaAlpha(theta=2.0, alpha=1.5, way="second", spread=0.0)
    assert squeezed_bound_level(ta) is None
