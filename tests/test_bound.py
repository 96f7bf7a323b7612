"""Bound-state ladders via the compact transcendental root problem."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from bilayer1d import (
    BoundLadder,
    LadderReport,
    DoubleLayerSpec,
    SqueezeFamily,
    bound,
    build_chi_problem,
    find_roots,
    realize,
    sweep_ladder,
    verify_ladder,
)
from bilayer1d.core import EV_TO_INV_NM2 as EV
from bilayer1d.oracle import integrate_bound, level_count

from helpers import (
    BARRIER_WELL,
    GAPPED_DOUBLET,
    GAPPED_DRAWS,
    NEAR_THRESHOLD,
    THIN_EPS,
    THIN_FAMILY,
    array_certificate,
    random_spec,
    single_well_kappas,
)


def _well_spec(rng):
    # at least one genuine well so ladders are usually nonempty
    v1 = -rng.uniform(0.5, 4.0)
    v2 = rng.uniform(-4.0, 1.0)
    return DoubleLayerSpec.make(
        v1, rng.uniform(0.3, 2.0), v2, rng.uniform(0.3, 2.0), rng.uniform(0.0, 1.5)
    )


def test_ladder_fields_are_consistent():
    spec = DoubleLayerSpec.make(-2.5, 1.4, -1.0, 0.9, 0.5)
    problem = build_chi_problem(spec)
    ladder = find_roots(problem)
    assert ladder.branch in (1, 2)
    assert np.all(ladder.chis > 0.0)
    assert np.all(ladder.chis < ladder.rho)
    # parallel arrays, ordered from shallowest to deepest binding
    assert np.all(np.diff(ladder.kappas) > 0.0)
    assert np.all(np.diff(ladder.chis) < 0.0)
    implied = np.sqrt(ladder.rho**2 - ladder.chis**2) / ladder.l
    assert np.allclose(ladder.kappas, implied, rtol=1e-12)


def test_single_layer_reduces_to_textbook_well():
    for depth, width in ((2.2, 1.7), (7.5, 2.4), (0.9, 0.8)):
        spec = DoubleLayerSpec.make(-depth, width, 0.0, 0.0, 0.0)
        ladder = find_roots(build_chi_problem(spec))
        reference = single_well_kappas(depth, width)
        assert ladder.chis.size == len(reference)
        got = np.sort(ladder.kappas)
        assert np.max(np.abs(got - reference)) < 1e-9


def test_threshold_state_is_not_a_level():
    # a well of depth pi^2 and width 1 has a zero-energy state, psi = cos(pi x)
    # inside; its one level is the textbook kappa
    spec = DoubleLayerSpec.make(-np.pi**2, 1.0, 0.0, 0.0, 0.0)
    ladder = find_roots(build_chi_problem(spec))
    assert level_count(spec, 0.0) == 1
    assert ladder.kappas == pytest.approx(single_well_kappas(np.pi**2, 1.0), rel=1e-12)
    assert verify_ladder(spec, ladder).ok
    # the P1 family on resonance has theta = -1, alpha = 0: its limit sits at
    # threshold, and its realizations have a zero-energy state in floats
    family = SqueezeFamily(2.0, 2.0, 1.0, -1.31232, -1.31232, 1.0, 1.0, 0.7906339860469415)
    for eps in (1e-2, 1e-6, 1e-8):
        spec = realize(family, eps)
        ladder = find_roots(build_chi_problem(spec))
        assert np.all(ladder.kappas > 0.0)
        assert verify_ladder(spec, ladder).ok


def test_ladders_match_direct_integration():
    rng = np.random.default_rng(21)
    compared = 0
    for _ in range(25):
        spec = _well_spec(rng)
        ladder = find_roots(build_chi_problem(spec))
        reference = integrate_bound(spec)
        assert ladder.chis.size == len(reference)
        if ladder.chis.size:
            got = np.sort(ladder.kappas)
            assert np.max(np.abs(got - np.sort(reference)) / got) < 1e-12
            compared += 1
    assert compared >= 10


def test_barrier_pair_has_no_bound_sector():
    spec = DoubleLayerSpec.make(2.0, 1.0, 1.0, 0.5, 0.3)
    with pytest.raises(ValueError):
        build_chi_problem(spec)


def test_both_branches_agree_for_symmetric_double_wells():
    # for mirror-symmetric wells neither branch can run out of headroom,
    # so referencing either layer must give the same physical ladder
    rng = np.random.default_rng(22)
    for _ in range(10):
        depth = rng.uniform(0.8, 3.0)
        width = rng.uniform(0.5, 1.5)
        spec = DoubleLayerSpec.make(
            -depth, width, -depth, width, rng.uniform(0.0, 1.0)
        )
        first = find_roots(build_chi_problem(spec, branch=1))
        second = find_roots(build_chi_problem(spec, branch=2))
        assert first.chis.size == second.chis.size
        if first.chis.size:
            assert np.max(np.abs(first.kappas - second.kappas)) < 1e-8


def test_auto_branch_matches_forced_choice():
    rng = np.random.default_rng(23)
    for _ in range(10):
        spec = DoubleLayerSpec.make(
            -rng.uniform(0.5, 3.0),
            rng.uniform(0.4, 1.5),
            rng.uniform(-3.0, 1.0),
            rng.uniform(0.4, 1.5),
            rng.uniform(0.0, 1.0),
        )
        auto = find_roots(build_chi_problem(spec))
        forced = find_roots(build_chi_problem(spec, branch=auto.branch))
        assert np.array_equal(auto.chis, forced.chis)
        report = verify_ladder(spec, auto)
        assert report.ok


def test_verify_ladder_accepts_complete_and_flags_truncated():
    spec = DoubleLayerSpec.make(-2.5, 1.4, -1.0, 0.9, 0.5)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.chis.size >= 2
    report = verify_ladder(spec, ladder)
    assert report.ok
    assert len(report.missed) == 0
    assert max(abs(r) for r in report.residuals) < 1e-8
    truncated = BoundLadder(
        ladder.chis[1:], ladder.kappas[1:], ladder.rho, ladder.l, ladder.branch
    )
    broken = verify_ladder(spec, truncated)
    assert not broken.ok
    assert len(broken.missed) >= 1


DEEP = DoubleLayerSpec.make(-30.0, 1.3, 5.0, 0.4, 0.3)


def _with_kappas(ladder, kappas):
    # verify_ladder reads the levels, never chis
    kappas = np.asarray(kappas, dtype=float)
    return BoundLadder(ladder.chis[: kappas.size], kappas, ladder.rho, ladder.l,
                       ladder.branch)


def test_a_forced_branch_ladder_is_certified_on_its_window():
    # branch 1 keeps the levels above -V1 = -2 alone, one level, where
    # verify_ladder once counted the deeper well's 1.896, 5.198 and 6.638 as missed
    spec = DoubleLayerSpec(-2.0, 1.0, -50.0, 1.0, 0.5)
    ladder = find_roots(build_chi_problem(spec, 1))
    assert ladder.kappas.tolist() == pytest.approx([0.33689406], abs=1e-8)
    report = verify_ladder(spec, ladder)
    assert report.ok and report.missed.size == 0
    # the missed-level search reads the same window: a dropped level alone
    broken = verify_ladder(spec, _with_kappas(ladder, []))
    assert not broken.ok
    np.testing.assert_array_equal(broken.missed, ladder.kappas)
    for trial in (ladder, _with_kappas(ladder, [])):
        ok, _, missed = array_certificate(spec, trial)
        assert ok == verify_ladder(spec, trial).ok
        np.testing.assert_array_equal(missed, verify_ladder(spec, trial).missed)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(bound, name)

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(bound, name, counted)
    return calls


@pytest.mark.parametrize("entries", ["zero", "negative", "nan", "inf", "twice"])
def test_malformed_ladder_is_refused_without_raising(entries):
    # one level, at kappa = 0.78475677; q / kappa, sqrt and tan of these
    # entries must not escape as ZeroDivisionError or ValueError
    spec = DoubleLayerSpec.make(-2.0, 1.0, 0.0, 0.0, 0.0)
    ladder = find_roots(build_chi_problem(spec))
    level = ladder.kappas[0]
    assert level == pytest.approx(0.78475677, abs=1e-8)
    kappas = {"zero": [0.0], "negative": [-level], "nan": [math.nan], "inf": [math.inf],
              "twice": [level, level]}[entries]
    report = verify_ladder(spec, _with_kappas(ladder, kappas))
    assert not report.ok
    assert report.residuals.shape == (len(kappas),)
    if entries == "twice":
        assert report.missed.size == 0
    else:
        assert report.missed.tolist() == pytest.approx([0.78475677], abs=1e-8)


def test_verify_ladder_refines_only_when_uncertified(monkeypatch):
    ladder = find_roots(build_chi_problem(DEEP))
    assert ladder.n == 3
    brent = _counting(monkeypatch, "brentq")
    phases = _counting(monkeypatch, "_phase")
    assert verify_ladder(DEEP, ladder).ok
    # the certificate alone: N(0), and N at both ends of each level's window
    assert brent == []
    assert len(phases) == 2 * ladder.n + 1
    verify_ladder(DEEP, _with_kappas(ladder, ladder.kappas[1:]))
    # every level is located to name the missed one
    assert len(brent) == 3


def test_find_roots_evaluates_no_kappa_twice(monkeypatch):
    # Brent starts from the phase values of its bracket's ends, so every
    # evaluation is at a new kappa: 33 evaluations (27 distinct) when
    # Brent computed the ends again, 27 since
    phases = _counting(monkeypatch, "_phase")
    assert find_roots(build_chi_problem(DEEP)).n == 3
    assert len(set(phases)) == len(phases) <= 27


# the DOUBLETS and NEAR_THRESHOLD ladders of the benchmark's workloads
BENCHMARK_WELLS = [(-30.0, 1.5, -30.0, 1.5, 3.0), (-20.0, 2.0, -20.0, 2.0, 4.0),
                   (-45.0, 1.2, -45.0, 1.2, 3.5), GAPPED_DOUBLET, NEAR_THRESHOLD]


def _assert_brent_as_scipy(brent, f, a, b):
    evals = []

    def counted(x):
        evals.append(x)
        return f(x)

    root = brent(counted, a, f(a), b, f(b))
    reference, info = scipy_brentq(f, a, b, xtol=1e-300, rtol=1e-15, full_output=True)
    assert root == reference
    assert len(evals) + 2 == info.function_calls


def _brent_brackets(monkeypatch, spec):
    """(a, b) of every Brent refinement find_roots makes on spec, each
    checked against scipy's brentq as it is made."""
    brackets = []
    original = bound.brentq

    def checked(f, a, fa, b, fb):
        assert (fa, fb) == (f(a), f(b))
        _assert_brent_as_scipy(original, f, a, b)
        brackets.append((a, b))
        return original(f, a, fa, b, fb)

    with monkeypatch.context() as patch:
        patch.setattr(bound, "brentq", checked)
        find_roots(build_chi_problem(spec))
    return brackets


def test_brent_port_matches_scipy_on_count_brackets(monkeypatch):
    rng = np.random.default_rng(14)
    specs = [_well_spec(rng) for _ in range(12)] + [DEEP]
    specs += [DoubleLayerSpec.make(*s) for s in BENCHMARK_WELLS]
    assert sum(len(_brent_brackets(monkeypatch, spec)) for spec in specs) > 80


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.atan(x - 0.3), -1.0, 2.0),
    (lambda x: math.atan(1e3 * (x - 1e-7)), 0.0, 1.0),
    (lambda x: -math.atan(x + 40.0), -100.0, 100.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.sinh(x) - 1e-20, -1.0, 2.0),
    (lambda x: (x - 1.0) ** 3 + 1e-12, 0.0, 5.0),
], ids=["atan", "atan-steep", "atan-falling", "cubic", "sinh-near-zero", "cubic-flat"])
def test_brent_port_matches_scipy_on_plain_functions(f, a, b):
    _assert_brent_as_scipy(bound.brentq, f, a, b)


def test_brent_port_raises_as_scipy_where_it_cannot_converge():
    # a root at 0 with a vanishing slope takes more than 100 steps at xtol = 1e-300
    def cube(x):
        return x ** 3

    with pytest.raises(RuntimeError):
        bound.brentq(cube, -1.0, -1.0, 2.0, 8.0)
    with pytest.raises(RuntimeError):
        scipy_brentq(cube, -1.0, 2.0, xtol=1e-300, rtol=1e-15)


def test_brent_port_returns_a_root_on_an_end_and_refuses_one_sign(monkeypatch):
    # the well of test_level_on_a_bisection_point_passes: G is shifted to
    # vanish at its first bisection point, an end of two Brent brackets
    q = 7.0 * np.pi / 3.0
    spec = DoubleLayerSpec.make(-4.0 * q * q / 3.0, 1.0, 0.0, 0.0, 0.0)
    problem = build_chi_problem(spec)
    target = 0.5 * problem.rho / problem.l
    p = bound._params(spec)
    g = bound._phase(p, target)

    def shifted(k):
        return bound._phase(p, k) - g

    ends = [(a, b) for a, b in _brent_brackets(monkeypatch, spec) if target in (a, b)]
    assert ends
    for a, b in ends:
        assert bound.brentq(shifted, a, shifted(a), b, shifted(b)) == target
        assert scipy_brentq(shifted, a, b, xtol=1e-300, rtol=1e-15) == target
    a, b = 0.0, 0.5 * target
    with pytest.raises(ValueError):
        bound.brentq(shifted, a, shifted(a), b, shifted(b))
    with pytest.raises(ValueError):
        scipy_brentq(shifted, a, b, xtol=1e-300, rtol=1e-15)


@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_dropped_level_is_missed_at_its_brent_value(dropped):
    ladder = find_roots(build_chi_problem(DEEP))
    kappa = ladder.kappas[dropped]
    report = verify_ladder(DEEP, _with_kappas(ladder, np.delete(ladder.kappas, dropped)))
    assert not report.ok
    assert report.missed.size == 1
    missed = report.missed[0]
    assert missed == pytest.approx(kappa, rel=1e-14)
    assert level_count(DEEP, missed * (1 - 1e-12)) - level_count(DEEP, missed * (1 + 1e-12)) == 1


@pytest.mark.parametrize("shift", [4e-9, -4e-9, 7e-9, -7e-9, 3e-8, -3e-8])
def test_moved_level_is_flagged_beyond_the_distance_tolerance(shift):
    # 4e-9 falls inside the certificate's window, 7e-9 outside it but
    # inside the 1e-8 tolerance, and 3e-8 outside both
    ladder = find_roots(build_chi_problem(DEEP))
    kappa = ladder.kappas[1]
    assert kappa > 1.0
    moved = ladder.kappas.copy()
    moved[1] = kappa * (1.0 + shift)
    report = verify_ladder(DEEP, _with_kappas(ladder, moved))
    if abs(shift) < 5e-9:
        assert len(report.missed) == 0
    elif abs(shift) < 1e-8:
        assert not report.ok
        assert len(report.missed) == 0
    else:
        assert not report.ok
        assert len(report.missed) == 1
        assert abs(report.missed[0] - kappa) < 1e-12 * kappa


def test_level_on_a_bisection_point_passes(monkeypatch):
    # a unit-width single well whose level kappa = sqrt(V) / 2 is the first
    # point where find_roots bisects the count: it solves the even
    # condition q tan(q / 2) = kappa, q = sqrt(V - kappa^2), at q = 7 pi / 3
    q = 7.0 * np.pi / 3.0
    spec = DoubleLayerSpec.make(-4.0 * q * q / 3.0, 1.0, 0.0, 0.0, 0.0)
    problem = build_chi_problem(spec)
    target = 0.5 * problem.rho / problem.l
    phases = _counting(monkeypatch, "_phase")
    ladder = find_roots(problem)
    # N(0), N(rho / l), then N at the midpoint
    assert phases[2] == (target,)
    assert ladder.n == 3
    j = np.argmin(np.abs(ladder.kappas - target))
    assert abs(ladder.kappas[j] - target) < 1e-12 * target
    placed = ladder.kappas.copy()
    placed[j] = target
    brent = _counting(monkeypatch, "brentq")
    report = verify_ladder(spec, _with_kappas(ladder, placed))
    assert report.ok
    assert len(report.missed) == 0
    assert brent == []


def test_doublet_below_the_float_spacing_is_not_certified():
    # equal wells 30 nm apart split each level far below the float spacing
    # of kappa: find_roots keeps both members of each doublet, at equal or
    # adjacent values, and verify_ladder cannot certify the ladder
    spec = DoubleLayerSpec.make(-30.0, 1.5, -30.0, 1.5, 30.0)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.n == level_count(spec, 0.0) == 6
    assert ladder.kappas[::2] == pytest.approx(ladder.kappas[1::2], rel=1e-14)
    report = verify_ladder(spec, ladder)
    assert not report.ok
    assert report.missed.size == 0


@pytest.mark.parametrize("depth", [1e3, 3e3, 1e4])
@pytest.mark.parametrize("width", [1.0, 2.0])
@pytest.mark.parametrize("gap", [5.0, 40.0])
def test_deep_equal_wells_give_every_level_without_raising(depth, width, gap):
    # G lies within rounding of j * pi at some bisection points of these
    # wells, so the count and G - j * pi can disagree on the side of a
    # level: at make(-1e4, 1, -1e4, 1, 30), kappa = 83.2683328173795,
    # G / pi reads 34.0 and G - 34 pi -1.4e-14, and both ends of a Brent
    # bracket can read one sign; the end that rounds the wrong way counts
    # as zero
    spec = DoubleLayerSpec.make(-depth, width, -depth, width, gap)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.n == level_count(spec, 0.0)
    assert np.all(np.diff(ladder.kappas) >= 0.0)
    report = verify_ladder(spec, ladder)
    assert isinstance(report, LadderReport)
    assert report.missed.size == 0


def test_edge_hugging_survivor_is_not_lost():
    # strongly squeezed realization whose only root sits within ~3e-9 of the
    # chi-interval edge; a uniform scan would step right over it
    family = SqueezeFamily(
        2.0, 2.0, 2.0, 0.5 * EV, -0.5 * EV, 1.0121526769027671, 0.6, 2.0
    )
    spec = realize(family, 1e-4)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.chis.size == 1
    assert ladder.kappas[0] == pytest.approx(0.88417295, abs=5e-7)


CHI_SPECS = [
    DoubleLayerSpec.make(-20.0, 1.3, 5.0, 0.4, 0.3),
    DoubleLayerSpec.make(-20.0, 1.3, -8.0, 0.6, 0.3),
    DoubleLayerSpec.make(-9.0, 1.0, 0.0, 0.0, 0.0),
]
CHI_IDS = ["barrier", "second-well", "single-well"]


@pytest.mark.parametrize("spec", CHI_SPECS, ids=CHI_IDS)
def test_scalar_chi_calls_equal_array_elements(spec):
    # chi = 0 and chi = rho zero a divisor of the root equation, and the
    # second well puts tangent poles inside; outside (0, rho) s clamps to 0
    problem = build_chi_problem(spec)
    rho = problem.rho
    # the cross-layer tangent poles: ratio^2 (chi^2 - rho^2 - vshift) = ((n + 1/2) pi)^2
    poles = np.array([])
    if problem.ratio > 0.0:
        chi2 = rho * rho + problem.vshift + ((np.arange(8) + 0.5) * np.pi / problem.ratio) ** 2
        poles = np.sqrt(chi2[(chi2 > 0.0) & (chi2 < rho * rho)])
    chis = np.concatenate((
        np.linspace(0.0, rho, 257),
        [np.nextafter(0.0, 1.0), np.nextafter(rho, 0.0), -0.5 * rho, 1.5 * rho],
        poles,
    ))
    # zero divisors stay silent; only the overflow of c2 / 5e-324 warns
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        want = problem.cleared(chis)
        for chi, ref in zip(chis, want):
            got = problem.cleared(float(chi))
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(ref).tobytes(), (chi, got, ref)


# the deep two-well structure of acceptance criterion 04, at its refined d1
CRITERION_04 = DoubleLayerSpec.make(-0.3 * EV, 2.1179478460413863, -0.5 * EV, 12.0, 20.0)


@pytest.mark.parametrize("spec", CHI_SPECS + [CRITERION_04], ids=CHI_IDS + ["criterion-04"])
def test_cleared_changes_sign_at_every_level(spec):
    # the paper's route cross-checks the counted ladder: h(chi) of the
    # compactified equation changes sign at each chi that find_roots gives
    # (close doublets are left out, as 1e-7 relative does not split them)
    problem = build_chi_problem(spec)
    ladder = find_roots(problem)
    assert ladder.n == level_count(spec, 0.0) >= 1
    for chi in ladder.chis:
        assert problem.cleared(chi * (1.0 - 1e-7)) * problem.cleared(chi * (1.0 + 1e-7)) < 0.0, chi


# ---------------------------------------------------------------------------
# the hard inputs of helpers.py: each ladder must hold exactly the levels
# of the mpmath count, each bracketed within rel

def _assert_counted(spec, ladder, rel=1e-9):
    assert ladder.n == level_count(spec, 0.0)
    for kappa in ladder.kappas:
        above = level_count(spec, kappa * (1.0 - rel))
        assert above - level_count(spec, kappa * (1.0 + rel)) == 1, kappa
    assert verify_ladder(spec, ladder).ok


def test_gapped_doublet_is_found():
    # doublet-miss-3: an accidental doublet of two unequal wells behind a gap
    spec = DoubleLayerSpec.make(*GAPPED_DOUBLET)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.n == 36
    pair = ladder.kappas[np.abs(ladder.kappas - 17.83) < 0.01]
    assert pair == pytest.approx([17.826912, 17.838377], abs=1e-6)
    _assert_counted(spec, ladder)


@pytest.mark.parametrize("s", [(-30.0, 1.5, -30.0, 1.5, 3.0), (-20.0, 2.0, -20.0, 2.0, 4.0),
                               (-45.0, 1.2, -45.0, 1.2, 3.5)])
def test_close_doublets_of_equal_wells_are_certified(s):
    # each level is a doublet split by 6e-9 to 8e-12 relative, below the
    # 5e-9 window of verify_ladder, which narrows to keep them apart
    spec = DoubleLayerSpec.make(*s)
    ladder = find_roots(build_chi_problem(spec))
    assert np.min(np.diff(ladder.kappas) / ladder.kappas[1:]) < 1e-8
    _assert_counted(spec, ladder, rel=1e-12)


def test_level_near_threshold_keeps_its_digits():
    # threshold-loss-0: the shallowest level sits 1e-5 sqrt|V| below threshold;
    # the reference is a 60-step bisection of the mpmath count
    spec = DoubleLayerSpec.make(*NEAR_THRESHOLD)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.kappas[0] == pytest.approx(8.073216910331048e-05, rel=1e-9)
    _assert_counted(spec, ladder)


@pytest.mark.parametrize("draw", sorted(GAPPED_DRAWS))
def test_gapped_double_well_draw_holds_every_level(draw):
    spec = DoubleLayerSpec.make(*GAPPED_DRAWS[draw])
    _assert_counted(spec, find_roots(build_chi_problem(spec)))


def test_barrier_well_survivor_at_small_eps():
    spec = realize(BARRIER_WELL, 10.0**-5.5)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.n == 1
    assert ladder.kappas[0] == pytest.approx(0.884248, rel=1e-4)
    _assert_counted(spec, ladder)


@pytest.mark.parametrize("eps, kappa", zip(THIN_EPS, (0.574606, 0.574233, 0.574116)))
def test_thin_family_keeps_its_level(eps, kappa):
    spec = realize(THIN_FAMILY, eps)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.n == 1
    assert ladder.kappas[0] == pytest.approx(kappa, rel=2e-6)
    _assert_counted(spec, ladder)


@pytest.mark.parametrize("swap", [False, True], ids=["empty-first", "empty-second"])
def test_zero_width_layer_is_not_the_reference_well(swap):
    layers = ((-10.0, 0.0), (-5.0, 1.0))
    (v1, l1), (v2, l2) = layers[::-1] if swap else layers
    spec = DoubleLayerSpec.make(v1, l1, v2, l2, 0.0)
    problem = build_chi_problem(spec)
    assert problem.branch == (1 if swap else 2)
    ladder = find_roots(problem)
    assert ladder.n == 1
    _assert_counted(spec, ladder)


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_level_on_a_tangent_pole_is_certified(k):
    # at kappa = k the well's tangent has its pole, k1 * l1 = pi / 2, and the
    # factor kappa - q1 / kappa of the pole term vanishes with it
    spec = DoubleLayerSpec.make(-2.0 * k * k, math.pi / (2.0 * k), 0.0, 0.0, 0.0)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.kappas == pytest.approx([k], rel=1e-12)
    _assert_counted(spec, ladder)


# ---------------------------------------------------------------------------
# the mirrored structure (v2, l2, v1, l1, r) has the same levels


@st.composite
def _spec_and_branch(draw):
    """A spec with one layer drawn as a well, and that layer's branch."""
    well = draw(st.floats(-200.0, -1e-3)), draw(st.floats(1e-3, 6.0))
    other = draw(st.floats(-200.0, 200.0)), draw(st.floats(0.0, 6.0))
    branch = draw(st.sampled_from([1, 2]))
    first, second = (well, other) if branch == 1 else (other, well)
    return DoubleLayerSpec.make(*first, *second, draw(st.floats(0.0, 4.0))), branch


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_spec_and_branch())
def test_mirrored_structure_has_the_same_ladder(drawn):
    spec, branch = drawn
    mirror = DoubleLayerSpec.make(spec.v2, spec.l2, spec.v1, spec.l1, spec.r)
    ladder = find_roots(build_chi_problem(spec, branch))
    mirrored = find_roots(build_chi_problem(mirror, 3 - branch))
    assert mirrored.n == ladder.n
    np.testing.assert_allclose(mirrored.kappas, ladder.kappas, rtol=1e-12, atol=0.0)


# the on-resonance L1 family of test_limit_pins: a thick well, then a thin
# well whose phase w * l tends to 0 as eps -> 0, so the match belongs in the
# thick one
L1_FAMILY = SqueezeFamily(2.0, 3.0, 1.0, -1.31232, -1.31232, 1.0, 1.0, 1.1573262590561457)


def test_thick_layer_survivor_converges_and_is_certified():
    eps = [1e-4, 1e-5, 1e-6]
    sweep = sweep_ladder(L1_FAMILY, eps)
    assert sweep.scenario == "shallowest_survives"
    for e, ladder in zip(eps, sweep.ladders):
        assert verify_ladder(realize(L1_FAMILY, e), ladder).ok, e
    error = (sweep.survivor - sweep.kappa_limit) / sweep.kappa_limit
    # approached from one side, each decade closer
    assert np.all(np.sign(error) == np.sign(error[0]))
    assert np.all(np.diff(np.abs(error)) < 0.0)
    assert abs(error[-1]) <= 1e-6


# ---------------------------------------------------------------------------
# the plain-float certificate against its array form in helpers.py


@st.composite
def _certificate_specs(draw):
    """A well beside a second layer, in one of five shapes: any, a zero
    width, no gap, a barrier, or a deep ladder of up to ~100 levels."""
    shape = draw(st.sampled_from(["any", "zero-width", "zero-gap", "barrier", "deep"]))
    depth = 1e4 if shape == "deep" else 300.0
    well = -draw(st.floats(0.01, depth)), draw(st.floats(0.05, 3.0))
    other = draw(st.floats(-depth, 1.0 if shape == "barrier" else depth)), draw(st.floats(0.0, 3.0))
    if shape == "barrier":
        other = (-other[0], other[1])
    if shape == "zero-width":
        other = (other[0], 0.0)
    r = 0.0 if shape == "zero-gap" else draw(st.floats(0.0, 3.0))
    first, second = (other, well) if draw(st.booleans()) else (well, other)
    return DoubleLayerSpec.make(*first, *second, r)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_certificate_specs())
@example(DoubleLayerSpec.make(-0.5, math.pi, 0.0, 0.0, 0.0))
@example(DoubleLayerSpec.make(-2.0, math.pi / 2.0, 0.0, 0.0, 0.0))
@example(DoubleLayerSpec.make(-8.0, math.pi / 4.0, 0.0, 0.0, 0.0))
def test_certificate_matches_its_array_form(spec):
    # the tangent-pole wells make(-2k^2, pi / (2k), 0, 0, 0), k = 0.5, 1, 2,
    # are the examples; each ladder is checked whole, with a level dropped,
    # and with its deepest level moved 4e-9 relative, inside its window, where
    # only the residual can fail, or 2e-8, beyond the distance tolerance
    ladder = find_roots(build_chi_problem(spec))
    trials = [ladder.kappas]
    if ladder.n:
        trials.append(np.delete(ladder.kappas, ladder.n // 2))
        for shift in (4e-9, 2e-8):
            trials.append(ladder.kappas.copy())
            trials[-1][-1] *= 1.0 + shift
    for kappas in trials:
        report = verify_ladder(spec, _with_kappas(ladder, kappas))
        ok, residuals, missed = array_certificate(spec, _with_kappas(ladder, kappas))
        assert report.ok == ok
        np.testing.assert_array_equal(report.missed, missed)
        np.testing.assert_allclose(report.residuals, residuals, rtol=0.0, atol=1e-14)


# the realized ladder of this family at eps = 1e-6 holds 3 924 763 levels;
# find_roots once took about 34 s on it
MANY_LEVELS = SqueezeFamily(2.941, 3.587, 2.0, -5.235 * EV, 1e-8 * EV, 5000.0, 0.030, 1.044)


@pytest.mark.parametrize("search", ["find_roots", "verify_ladder"])
def test_a_ladder_above_max_levels_is_refused_at_once(search):
    # from the counts at the window's ends: find_roots' window, and the
    # missed-level search of verify_ladder on a ladder that is incomplete
    spec = realize(MANY_LEVELS, 1e-6)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"3924763 bound levels, more than MAX_LEVELS = "
                                         f"{bound.MAX_LEVELS}"):
        if search == "find_roots":
            find_roots(build_chi_problem(spec))
        else:
            # an empty ladder of the spec's own window, whose search finds it incomplete
            problem = build_chi_problem(spec)
            empty = np.array([])
            verify_ladder(spec, BoundLadder(empty, empty, problem.rho, problem.l, problem.branch))
    assert time.perf_counter() - start < 1.0


def test_max_levels_caps_the_count_of_the_window(monkeypatch):
    # a single well with sqrt(40) * 2 / pi = 4.03 holds five levels, which
    # pass a cap of five and not one of four
    spec = DoubleLayerSpec(-40.0, 2.0, 0.0, 0.0, 0.0)
    monkeypatch.setattr(bound, "MAX_LEVELS", 5)
    assert find_roots(build_chi_problem(spec)).n == 5
    monkeypatch.setattr(bound, "MAX_LEVELS", 4)
    with pytest.raises(ValueError, match="5 bound levels, more than MAX_LEVELS = 4"):
        find_roots(build_chi_problem(spec))
