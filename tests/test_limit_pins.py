"""Squeezing-limit results pinned bit for bit over the sixteen region labels.

Each label of REGION_EXAMPLES is taken with one family off resonance
and, where a route exists, one on resonance.  For these, the limit
characteristics (or the characteristic named by DivergentLimitError),
the resonance residual and theta_alpha (theta, alpha, spread, or the
spread of OffResonanceError) must equal recorded values with ==, and
gamma_strength must equal them on a balanced family.  The records hold
the known faults K1 and K2 as they stand (see test_limits.py), so
mending those changes the records of the K1 and K2 families here.
"""

import dataclasses

import pytest

from bilayer1d import (
    DivergentLimitError,
    OffResonanceError,
    SqueezeFamily,
    gamma_strength,
    limit_chars_of,
    theta_alpha,
)
from bilayer1d.squeeze import resonance_residual_of

from helpers import REGION_EXAMPLES

H = 1.31232  # 0.5 eV in 1/nm^2

EXPONENTS = {label: e for e, label in REGION_EXAMPLES.items() if label != "outside"}

# the parameter that puts a route label on resonance: the gap c of two
# wells (-H, -H, d = 1, 1) on the first route, and h2 beside a barrier
# (H, d = 1, 0.6, c = 2) on the second
ON = {
    "P1": 0.7906339860469415,
    "P2": -1.3061990664174714,
    "N2": -1.3061990664174714,
    "K1": 1.1573262590561457,
    "K2": 2.90018160615098,
    "Q2": 2.90018160615098,
    "L1": 1.1573262590561457,
    "L2": 1.5585028061830706,
    "O2": 1.5585028061830706,
    "S1": 1.52401853206535,
    "S2": -2.1872,
    "I2": -2.1872,
}

PINNED = {
    ("P1", "off"): (
        "first",
        {
            "label": "G11", "sigma1": 1.145565362604858j,
            "sigma2": (0.5750692480040991+0j), "f1": 2.291130725209716j,
            "f2": (1.9168974933469969+0j), "eta1": -2.62464, "eta2": 1.1023488,
        },
        -1.4596476635393163,
        ("off", 50.39991947865303),
    ),
    ("P1", "on"): (
        "first",
        {
            "label": "G11", "sigma1": (1.145565362604858+0j),
            "sigma2": (1.145565362604858+0j), "f1": (0.9057229089135888+0j),
            "f2": (0.9057229089135888+0j), "eta1": 1.0375647925691223,
            "eta2": 1.0375647925691223,
        },
        0.0,
        (-1.0, 0.0, 2.220446049250313e-16),
    ),
    ("P2", "off"): (
        "second",
        {
            "label": "G11", "sigma1": 1.145565362604858j,
            "sigma2": (0.5750692480040991+0j), "g1": 1.6200740723806426j,
            "g2": (1.3554512163851562+0j),
        },
        -0.31388904351402525,
        ("off", 0.20168743466056574),
    ),
    ("P2", "on"): (
        "second",
        {
            "label": "G11", "sigma1": 1.145565362604858j,
            "sigma2": (0.685734397496793+0j), "g1": 1.6200740723806426j,
            "g2": (1.6162914752095128+0j),
        },
        1.1102230246251565e-16,
        (2.236736045333069, -2.3431114067027528, 1.9854341363910644e-16),
    ),
    ("N1", "off"): ("divergent", "g1"),
    ("N2", "off"): (
        "second",
        {
            "label": "G11", "sigma1": 1.145565362604858j,
            "sigma2": (0.5750692480040991+0j), "g1": 0j, "g2": 0j,
        },
        -0.31388904351402525,
        (2.0629466643123817, 0.0, 0.0),
    ),
    ("N2", "on"): (
        "second",
        {
            "label": "G11", "sigma1": 1.145565362604858j,
            "sigma2": (0.685734397496793+0j), "g1": 0j, "g2": 0j,
        },
        1.1102230246251565e-16,
        (2.2367360453330694, 0.0, 0.0),
    ),
    ("K1", "off"): (
        "first",
        {
            "label": "G01", "sigma1": 0.0, "sigma2": (0.5750692480040991+0j),
            "f2": (1.9168974933469969+0j), "eta1": -2.62464, "eta2": 1.1023488,
        },
        -1.1522545133206532,
        ("off", 8.675951789199532),
    ),
    ("K1", "on"): (
        "first",
        {
            "label": "G01", "sigma1": 0.0, "sigma2": (1.145565362604858+0j),
            "f2": (1.3257928756077775+0j), "eta1": 1.518782396284561,
            "eta2": 1.518782396284561,
        },
        0.0,
        (-1.2575592131962419, 0.0, 1.7656791234559649e-16),
    ),
    ("K2", "off"): (
        "second",
        {
            "label": "G01", "sigma1": 0.0, "sigma2": (0.5750692480040991+0j),
            "g2": (1.3554512163851562+0j), "beta1": -1.8559007421734601,
        },
        1.9335326401958173,
        ("off", 0.3574324764097033),
    ),
    ("K2", "on"): (
        "second",
        {
            "label": "G01", "sigma1": 0.0, "sigma2": 1.0217951742958824j,
            "g2": 2.4083943224276956j, "beta1": -1.8559007421734601,
        },
        0.0,
        ("off", 1.1480991965625664e+16),
    ),
    ("Q1", "off"): ("divergent", "beta1"),
    ("Q2", "off"): (
        "second",
        {
            "label": "G01", "sigma1": 0.0, "sigma2": (0.5750692480040991+0j), "g2": 0j,
            "beta1": -0.0,
        },
        1.9335326401958173,
        (1.1916754686431075, -0.0, 0.0),
    ),
    ("Q2", "on"): (
        "second",
        {
            "label": "G01", "sigma1": 0.0, "sigma2": 1.0217951742958824j, "g2": 0j,
            "beta1": -0.0,
        },
        0.0,
        (0.6373230812887023, -0.0, 0.0),
    ),
    ("L1", "off"): (
        "first",
        {
            "label": "G10", "sigma1": 1.145565362604858j, "sigma2": 0.0,
            "f1": 2.291130725209716j, "eta1": -2.62464, "eta2": 1.1023488,
        },
        -1.2550946399830643,
        ("off", 4.632776556479416),
    ),
    ("L1", "on"): (
        "first",
        {
            "label": "G10", "sigma1": (1.145565362604858+0j), "sigma2": 0.0,
            "f1": (1.3257928756077775+0j), "eta1": 1.518782396284561,
            "eta2": 1.518782396284561,
        },
        0.0,
        (-0.7951911842452146, 0.0, 1.396171193319964e-16),
    ),
    ("L2", "off"): (
        "second",
        {
            "label": "G10", "sigma1": 1.145565362604858j, "sigma2": 0.0,
            "g1": 1.6200740723806426j, "beta2": 0.7794783117128532,
        },
        -1.4862760837098423,
        ("off", 0.25831491734128886),
    ),
    ("L2", "on"): (
        "second",
        {
            "label": "G10", "sigma1": 1.145565362604858j, "sigma2": 0.0,
            "g1": 1.6200740723806426j, "beta2": -1.3224334833003752,
        },
        -2.220446049250313e-16,
        ("off", 1.5592644261211856e+16),
    ),
    ("O1", "off"): ("divergent", "g1"),
    ("O2", "off"): (
        "second",
        {
            "label": "G10", "sigma1": 1.145565362604858j, "sigma2": 0.0, "g1": 0j,
            "beta2": 0.0,
        },
        -1.4862760837098423,
        (1.7311312673586716, 0.0, 0.0),
    ),
    ("O2", "on"): (
        "second",
        {
            "label": "G10", "sigma1": 1.145565362604858j, "sigma2": 0.0, "g1": 0j,
            "beta2": -0.0,
        },
        -2.220446049250313e-16,
        (1.7311312673586716, -0.0, 0.0),
    ),
    ("S1", "off"): (
        "first",
        {
            "label": "G00", "sigma1": 0.0, "sigma2": 0.0, "eta1": -2.62464,
            "eta2": 1.1023488,
        },
        -0.9477014897644014,
        ("off", 6.785436959047669),
    ),
    ("S1", "on"): (
        "first",
        {
            "label": "G00", "sigma1": 0.0, "sigma2": 0.0, "eta1": 2.0, "eta2": 2.0,
        },
        0.0,
        (-1.0, 0.0, 0.0),
    ),
    ("S2", "off"): (
        "second",
        {
            "label": "G00", "sigma1": 0.0, "sigma2": 0.0, "beta1": -1.8559007421734601,
            "beta2": 0.7794783117128532, "alpha_thin": -0.261243798564864,
        },
        0.7611456,
        ("off", 0.4084507042253521),
    ),
    ("S2", "on"): (
        "second",
        {
            "label": "G00", "sigma1": 0.0, "sigma2": 0.0, "beta1": -1.8559007421734601,
            "beta2": 1.8559007421734601, "alpha_thin": -0.9184980172800001,
        },
        0.0,
        (1.0, -4.36286558208, 0.0),
    ),
    ("I1", "off"): ("divergent", "beta1"),
    ("I2", "off"): (
        "second",
        {
            "label": "G00", "sigma1": 0.0, "sigma2": 0.0, "beta1": -0.0, "beta2": 0.0,
            "alpha_thin": -0.261243798564864,
        },
        0.7611456,
        (1.0, -0.261243798564864, 0.0),
    ),
    ("I2", "on"): (
        "second",
        {
            "label": "G00", "sigma1": 0.0, "sigma2": 0.0, "beta1": -0.0, "beta2": 0.0,
            "alpha_thin": -0.9184980172800001,
        },
        0.0,
        (1.0, -0.9184980172800001, 0.0),
    ),
}

GAMMA = {
    "P1": 4.724352,
    "P2": 1.574784,
    "N1": 1.574784,
    "N2": 1.574784,
    "K1": 3.7794815999999996,
    "K2": 0.6299136000000001,
    "Q1": 0.6299136000000001,
    "Q2": 0.6299136000000001,
    "L1": 4.0944384000000005,
    "L2": 0.9448703999999999,
    "O1": 0.9448703999999999,
    "O2": 0.9448703999999999,
    "S1": 3.149568,
    "S2": None,
    "I1": None,
    "I2": None,
}


def _family(label, key):
    exponents = EXPONENTS[label]
    if key == "off":
        return SqueezeFamily(*exponents, H, -0.7 * H, 1.0, 0.6, 2.0)
    if label.endswith("1"):
        return SqueezeFamily(*exponents, -H, -H, 1.0, 1.0, ON[label])
    return SqueezeFamily(*exponents, H, ON[label], 1.0, 0.6, 2.0)


def _observe(family):
    try:
        way, chars = limit_chars_of(family)
    except DivergentLimitError as err:
        return ("divergent", err.characteristic)
    fields = {k: v for k, v in dataclasses.asdict(chars).items() if v is not None}
    try:
        ta = theta_alpha(chars, way)
        outcome = (ta.theta, ta.alpha, ta.spread)
    except OffResonanceError as err:
        outcome = ("off", err.spread)
    except DivergentLimitError as err:
        outcome = ("divergent", err.characteristic)
    return (way, fields, resonance_residual_of(family), outcome)


@pytest.mark.parametrize(
    "label, key", list(PINNED), ids=[f"{label}-{key}" for label, key in PINNED]
)
def test_limit_results_are_pinned(label, key):
    assert _observe(_family(label, key)) == PINNED[label, key]


@pytest.mark.parametrize("label", list(GAMMA))
def test_gamma_strength_is_pinned(label):
    family = SqueezeFamily(*EXPONENTS[label], H, -H * 1.2 / 0.8, 1.2, 0.8, 2.0)
    assert gamma_strength(family) == GAMMA[label]
