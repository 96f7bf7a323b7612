"""Squeezing-limit results pinned bit for bit over the sixteen region labels,
and held to the mpmath oracle as eps -> 0.

Each label of REGION_EXAMPLES is taken with one family off resonance
and, where a route exists, one on resonance.  For these, the outcome of
interaction_limit (route, residual, verdict, and on resonance spread,
theta, alpha and kappa_limit; or the characteristic named by
DivergentLimitError) must equal recorded values with ==, and
gamma_strength must equal them on a balanced family.  The same families,
with the four that were once pinned as on resonance on a faulty residual,
are checked against oracle.squeezed_matrix.
"""

import numpy as np
import pytest

from bilayer1d import (
    DivergentLimitError,
    SqueezeFamily,
    gamma_strength,
    interaction_limit,
    realize,
)
from bilayer1d.oracle import exact_amplitudes, squeezed_matrix

from helpers import REGION_EXAMPLES, fixed_digit_amplitudes

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
    "K2": -1.7168550821354995,
    "Q2": -1.7168550821354995,
    "L1": 1.1573262590561457,
    "L2": -1.5585028061830708,
    "O2": -1.5585028061830708,
    "S1": 1.52401853206535,
    "S2": -2.1872,
    "I2": -2.1872,
}
# h2 of the second-route labels that were pinned as on resonance while the
# residual gave a thin layer +h d; the oracle's M21 diverges for all four
WAS_ON = {
    "K2": 2.90018160615098,
    "Q2": 2.90018160615098,
    "L2": 1.5585028061830706,
    "O2": 1.5585028061830706,
}

PINNED = {
    ("P1", "off"): ("first", -1.231740328086305, "separated"),
    ("P1", "on"): (
        "first", 1.1102230246251565e-16, "X", 2.220446049250313e-16,
        -1.0, 0.0, None,
    ),
    ("P2", "off"): ("second", 0.4559824818137399, "separated"),
    ("P2", "on"): (
        "second", 0.0, "Y", 5.551115123125783e-16,
        2.236736045333069, -2.3431114067027528, 0.8730521570988139,
    ),
    ("N1", "off"): ("divergent", "g1"),
    ("N2", "off"): ("second", 0.4559824818137399, "separated"),
    ("N2", "on"): (
        "second", 0.0, "Y", 5.551115123125783e-16,
        2.236736045333069, 0.0, None,
    ),
    ("K1", "off"): ("first", -0.7882617448095609, "separated"),
    ("K1", "on"): (
        "first", 0.0, "X", 4.440892098500626e-16,
        -1.2575592131962423, 0.4564884538048529, 0.22237893821568325,
    ),
    ("K2", "off"): ("second", 0.579945948363867, "separated"),
    ("K2", "on"): (
        "second", -2.220446049250313e-16, "Y", 1.1102230246251565e-16,
        1.4153104806309238, -2.8392560364625052, 1.3380919046804014,
    ),
    ("Q1", "off"): ("divergent", "beta1"),
    ("Q2", "off"): ("second", 0.579945948363867, "separated"),
    ("Q2", "on"): (
        "second", -2.220446049250313e-16, "Y", 1.1102230246251565e-16,
        1.4153104806309238, -0.40560800520892937, 0.1911559863829145,
    ),
    ("L1", "off"): ("first", -1.1198358131927746, "separated"),
    ("L1", "on"): (
        "first", -1.1102230246251565e-16, "X", 4.440892098500626e-16,
        -0.7951911842452148, 0.4564884538048529, 0.2223789382156833,
    ),
    ("L2", "off"): ("second", 0.6646285252221921, "separated"),
    ("L2", "on"): (
        "second", 0.0, "Y", 2.220446049250313e-16,
        1.7311312673586716, -3.330200328805558, 1.4424018237762688,
    ),
    ("O1", "off"): ("divergent", "g1"),
    ("O2", "off"): ("second", 0.6646285252221921, "separated"),
    ("O2", "on"): (
        "second", 0.0, "Y", 2.220446049250313e-16,
        1.7311312673586716, -0.3027454844368689, 0.13112743852511533,
    ),
    ("S1", "off"): ("first", -0.6854887772159998, "separated"),
    ("S1", "on"): (
        "first", 4.440892098500626e-16, "X", 0.0,
        -1.0, 1.1481225216, 0.5740612608,
    ),
    ("S2", "off"): ("second", 0.7611456, "separated"),
    ("S2", "on"): (
        "second", 0.0, "Y", 0.0,
        1.0, -4.3628655820799995, 2.1814327910399998,
    ),
    ("I1", "off"): ("divergent", "beta1"),
    ("I2", "off"): ("second", 0.7611456, "separated"),
    ("I2", "on"): (
        "second", 0.0, "Y", 0.0,
        1.0, -0.9184980172799999, 0.45924900863999996,
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
    if key == "was-on":
        return SqueezeFamily(*exponents, H, WAS_ON[label], 1.0, 0.6, 2.0)
    if label.endswith("1"):
        return SqueezeFamily(*exponents, -H, -H, 1.0, 1.0, ON[label])
    return SqueezeFamily(*exponents, H, ON[label], 1.0, 0.6, 2.0)


def _observe(family):
    try:
        r = interaction_limit(family)
    except DivergentLimitError as err:
        return ("divergent", err.characteristic)
    if r.verdict == "separated":
        return (r.way, r.residual, r.verdict)
    return (r.way, r.residual, r.verdict, r.spread, r.theta, r.alpha, r.kappa_limit)


@pytest.mark.parametrize(
    "label, key", list(PINNED), ids=[f"{label}-{key}" for label, key in PINNED]
)
def test_limit_results_are_pinned(label, key):
    assert _observe(_family(label, key)) == PINNED[label, key]


@pytest.mark.parametrize("label", list(GAMMA))
def test_gamma_strength_is_pinned(label):
    family = SqueezeFamily(*EXPONENTS[label], H, -H * 1.2 / 0.8, 1.2, 0.8, 2.0)
    assert gamma_strength(family) == GAMMA[label]


ORACLE_CASES = list(PINNED) + [(label, "was-on") for label in WAS_ON]


@pytest.mark.parametrize(
    "label, key", ORACLE_CASES, ids=[f"{label}-{key}" for label, key in ORACLE_CASES]
)
def test_limit_matches_the_oracle(label, key):
    """On resonance the oracle's M11 and M21 at eps = 1e-10 are theta and
    alpha to 1e-4, relative to max(|value|, 1).  A separated or divergent
    verdict needs an oracle M21 that grows by 10^2 or more from eps = 1e-6
    to 1e-12: six decades, because M21 ~ eps**(-1/2) grows by just 10^2
    over four, and its next terms can take that below 10^2.  A separated
    M21 must also grow like the residual, M21 * eps**(mu - 1) -> residual.
    """
    family = _family(label, key)
    try:
        report = interaction_limit(family)
    except DivergentLimitError:
        report = None
    m = squeezed_matrix(family, 10)
    if report is not None and report.verdict != "separated":
        for got, want in ((m[0, 0], report.theta), (m[1, 0], report.alpha)):
            assert abs(got - want) <= 1e-4 * max(abs(want), 1.0)
        return
    growth = squeezed_matrix(family, 12)[1, 0] / squeezed_matrix(family, 6)[1, 0]
    assert abs(growth) >= 1e2
    if report is not None:
        scaled = m[1, 0] * 1e-10 ** (family.mu - 1.0)
        assert scaled == pytest.approx(report.residual, rel=1e-4)


@pytest.mark.parametrize("label", list(ON))
def test_exact_amplitudes_keep_their_digits_on_resonance(label):
    """On resonance the terms of a cancel like eps**(1 - mu); the precision
    that exact_amplitudes picks still gives the 120-digit result to 1e-15."""
    ks = np.array([0.5, 1.0, 3.0])
    for j in range(2, 13):
        spec = realize(_family(label, "on"), 10.0**-j)
        for k, log_a, arg_a, ratio in zip(ks, *exact_amplitudes(spec, ks)):
            want = fixed_digit_amplitudes(spec, k, 120)
            assert abs(log_a - want[0]) <= 1e-15 * max(1.0, abs(want[0])), (j, k)
            assert abs(np.angle(np.exp(1j * (arg_a - want[1])))) <= 1e-15, (j, k)
            assert abs(ratio - want[2]) <= 1e-15, (j, k)
