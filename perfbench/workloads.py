"""Seeded inputs, operation lists and output checks of the three workloads.

A workload is a fixed list of operations.  Every run repeats whole
rounds of that list, so the failed share of attempted operations is the
same in every run.  Inputs drawn from the seed vary the structures; the
named fault subsets are fixed and never depend on the seed.

Operations look the library up through its module attributes at call
time, so the traced run sees its wrappers.
"""

import contextlib
import csv
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import refs

EV = 2.62464  # eV -> nm^-2 at effective mass 0.1 m_e, as in the paper

# Relative tolerances of the checks.  Amplitudes and pairings of finite
# structures agree with the 50-digit references to ~1e-13; a bound level
# must be bracketed within 1e-8 relative (plus 1e-12 of the deepest
# well's sqrt depth, for levels at threshold).
AMP_TOL = 1e-9
LEVEL_TOL = 1e-8
PAIR_TOL = 1e-8

# Prefactors d1 that put the two (2, 2, 2) families of the paper on
# resonance: roots, found in mpmath, of t1 + t2 = 0 with
# t = sqrt(-h) tan(sqrt(-h) d) for a well and -sqrt(h) tanh(sqrt(h) d)
# for a barrier.
BW_D1 = 1.0121526769027671
DEEP_D1 = 2.1179478460413863

# (mu, nu, tau, h1, h2, d1, d2, c) in nm^-2 and nm
FAMILIES = {
    "barrier-well": (2.0, 2.0, 2.0, 0.5 * EV, -0.5 * EV, BW_D1, 0.6, 2.0),
    "deep-double-well": (2.0, 2.0, 2.0, -0.3 * EV, -0.5 * EV, DEEP_D1, 12.0, 20.0),
    "balanced-thin": (1.5, 1.5, 1.0, 0.5 * EV, -0.5 * EV, 12.0, 12.0, 20.0),
    "unbalanced-thin": (1.5, 1.5, 1.0, 0.5 * EV, -0.5 * EV, 8.0, 12.0, 20.0),
}
DIPOLE = (1.5, 1.0, 1.0, 0.5 * EV, -0.5 * EV, 12.0, 12.0, 20.0)

# Known faults, on fixed inputs, so that they fail in every run:
# opaque-nan, amplitudes of opaque barriers come back NaN, from
# amplitude_grid in spectra and from scatter in cli; doublet-miss,
# find_roots misses the levels of weakly coupled equal wells, and an
# accidental doublet of two unequal wells behind a gap; threshold-loss,
# a level just below threshold off by 3e-7 relative; and thin-well-loss,
# the barrier-well and deep double-well sweeps of cli.
OPAQUE = [(5000.0, 20.0, 0.0, 0.0, 0.0), (0.0, 0.0, 4000.0, 25.0, 1.0),
          (3000.0, 15.0, 3000.0, 15.0, 0.5)]
DOUBLETS = [(-30.0, 1.5, -30.0, 1.5, 3.0), (-20.0, 2.0, -20.0, 2.0, 4.0),
            (-45.0, 1.2, -45.0, 1.2, 3.5),
            (-10475.535340231465, 1.0009482984339129, -2631.446628040983,
             0.14540619918341677, 0.4187274250603946)]
NEAR_THRESHOLD = [(-20.315715440261613, 0.971119090728971, -91.41118178888185,
                   2.5309755436057078, 0.0)]


def realize(family, eps):
    """The family's structure at squeeze value eps (the paper's scaling)."""
    mu, nu, tau, h1, h2, d1, d2, c = family
    return (eps ** -mu * h1, eps * d1, eps ** -nu * h2,
            eps ** (1.0 - mu + nu) * d2, eps ** tau * c)


@dataclass
class Op:
    name: str
    kind: str
    run: object          # callable returning the operation's output
    fault: str = None    # known-fault name when the op is expected to fail
    data: dict = field(default_factory=dict)


def _spec(lib, s):
    return lib.core.DoubleLayerSpec.make(*s)


# ---------------------------------------------------------------------------
# spectra


def _draw_slab(rng, kind):
    if kind == "barrier":
        return rng.uniform(0.5, 60.0), rng.uniform(0.2, 3.0)
    return -rng.uniform(0.5, 60.0), rng.uniform(0.2, 3.0)


# slab kinds by shape; the last four shapes draw both kinds at random
SPECTRA_SHAPES = {"barrier-well": ("barrier", "well"), "well-barrier": ("well", "barrier"),
                  "well-well": ("well", "well"), "barrier-barrier": ("barrier", "barrier"),
                  "zero-l1": None, "zero-l2": None, "zero-gap": None, "single-well": None}
SPECTRA_SIZES = (1024, 2048, 4096)
SPECTRA_COUNT = 96


def spectra(lib, rng):
    ops = []
    for i in range(SPECTRA_COUNT):
        shape = list(SPECTRA_SHAPES)[i % len(SPECTRA_SHAPES)]
        first, second = SPECTRA_SHAPES[shape] or rng.choice(["barrier", "well"], 2)
        v1, l1 = _draw_slab(rng, first)
        v2, l2 = _draw_slab(rng, second)
        r = rng.uniform(0.0, 3.0)
        if shape == "zero-l1":
            l1 = 0.0
        elif shape == "zero-l2":
            l2 = 0.0
        elif shape == "zero-gap":
            r = 0.0
        elif shape == "single-well":
            v1, l2, r = -abs(v1), 0.0, 0.0
        n = SPECTRA_SIZES[i % len(SPECTRA_SIZES)]
        ks = np.linspace(0.02, rng.uniform(3.0, 12.0), n)
        ops.append(_spectrum_op(lib, f"spectrum-{i:03d}-{shape}",
                                (v1, l1, v2, l2, r), ks, rng, None))
    for j, s in enumerate(OPAQUE):
        ks = np.linspace(0.05, 4.0, 2048)
        ops.append(_spectrum_op(lib, f"opaque-nan-{j}", s, ks, rng, "opaque-nan"))
    return ops


def _spectrum_op(lib, name, s, ks, rng, fault):
    spec = _spec(lib, s)
    xfer = lib.xfer
    return Op(name, "amplitude_grid", lambda: xfer.amplitude_grid(spec, ks),
              fault, {"s": s, "spec": spec, "ks": ks,
                      "sample": sorted(rng.choice(len(ks), 3, replace=False))})


def check_spectrum(lib, op, out):
    a, b = out
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return "non-finite amplitudes"
    a2 = np.abs(a) ** 2
    if np.max(np.abs(a2 - np.abs(b) ** 2 - 1.0) / a2) > AMP_TOL:
        return "|a|^2 - |b|^2 != 1"
    am, bm = lib.xfer.amplitude_grid(op.data["spec"], op.data["ks"], method="matrix")
    if np.max(np.abs(am - a) / np.abs(a)) > AMP_TOL or \
            np.max(np.abs(bm - b) / np.abs(a)) > AMP_TOL:
        return "closed route != matrix route"
    for i in op.data["sample"]:
        ar, br = refs.amplitudes(op.data["s"], op.data["ks"][i])
        if abs(a[i] - ar) > AMP_TOL * abs(ar) or abs(b[i] - br) > AMP_TOL * abs(ar):
            return f"differs from the plane-wave reference at k={op.data['ks'][i]:.6g}"
    return None


# ---------------------------------------------------------------------------
# ladders

LADDER_LEVELS = (1, 2, 3, 4, 6, 8, 11, 15, 20, 26, 33, 40, 45)
LADDER_COUNT = 39


def clear_of_threshold(s):
    """True when every level of s has kappa above 1e-3 sqrt|V| of its
    deepest well.  find_roots resolves chi = l sqrt(-V - kappa^2), so a
    level nearer the continuum loses relative accuracy in kappa on some
    draws; the seeded structures stay clear of that, and the fixed
    threshold-loss subset measures it in every run."""
    kmax = math.sqrt(max(-s[0], -s[2], 0.0))
    return refs.level_count(s, 1e-3 * kmax) == refs.level_count(s)


def ladders(lib, rng):
    ops = []
    for i in range(LADDER_COUNT):
        target = LADDER_LEVELS[i % len(LADDER_LEVELS)]
        # the slot fixes the level count, the kind of second layer and
        # which layer is the reference, so the work per round hardly
        # depends on the seed; odd slots swap the layers and so run the
        # other reference branch
        barrier, swap = (i // len(LADDER_LEVELS)) % 2 == 0, i % 2 == 1
        s = _ladder_structure(rng, target, barrier, swap)
        while not clear_of_threshold(s):
            s = _ladder_structure(rng, target, barrier, swap)
        ops.append(_ladder_op(lib, f"ladder-{i:03d}-n{target}", s, None))
    for j, s in enumerate(DOUBLETS):
        ops.append(_ladder_op(lib, f"doublet-miss-{j}", s, "doublet-miss"))
    for j, s in enumerate(NEAR_THRESHOLD):
        ops.append(_ladder_op(lib, f"threshold-loss-{j}", s, "threshold-loss"))
    return ops


def _ladder_structure(rng, target, barrier, swap):
    width = rng.uniform(0.6, 3.0)
    rho = (target - 0.5 + rng.uniform(-0.2, 0.2)) * math.pi
    ref = (-(rho / width) ** 2, width)
    # The second layer is a barrier behind a gap, or a shallower well
    # with no gap holding about a fifth of the levels.  A second well
    # behind a gap can put a level of each well at nearly the same
    # energy, a doublet that find_roots misses on some draws; that fault
    # is measured by the fixed doublet subset, which holds such a pair.
    if barrier:
        other = (rng.uniform(0.5, 30.0), rng.uniform(0.1, 1.5))
        r = rng.uniform(0.0, 1.0)
    else:
        depth = rng.uniform(0.05, 0.4)
        other = (ref[0] * depth, rng.uniform(0.15, 0.25) * width / math.sqrt(depth))
        r = 0.0
    return (*other, *ref, r) if swap else (*ref, *other, r)


def _ladder_op(lib, name, s, fault):
    spec = _spec(lib, s)
    bound = lib.bound

    def run():
        ladder = bound.find_roots(bound.build_chi_problem(spec))
        return ladder, bound.verify_ladder(spec, ladder)

    return Op(name, "ladder", run, fault, {"s": s})


def check_levels(s, kappas):
    """None when kappas are exactly the bound levels of structure s."""
    want = refs.level_count(s)
    if len(kappas) != want:
        return f"{len(kappas)} levels, Sturm count {want}"
    kmax = math.sqrt(max(-s[0], -s[2], 0.0))
    for kappa in kappas:
        rel = LEVEL_TOL + 1e-12 * kmax / kappa
        if not refs.brackets_level(s, float(kappa), rel):
            return f"level {kappa!r} not bracketed within {rel:.1e}"
    return None


def check_ladder(lib, op, out):
    ladder, report = out
    if not np.all(np.diff(ladder.kappas) > 0):
        return "levels not strictly ascending"
    problem = check_levels(op.data["s"], ladder.kappas)
    if problem:
        return problem
    if not report.ok:
        return "verify_ladder rejects a correct ladder"
    return None


def digest_output(out):
    """Bytes that must repeat exactly from round to round."""
    if isinstance(out, str):
        return out.encode()
    first, second = out
    if isinstance(first, np.ndarray):
        return first.tobytes() + second.tobytes()
    return first.kappas.tobytes() + bytes([second.ok])


# ---------------------------------------------------------------------------
# cli


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def _spec_cfg(s):
    return {"units": "nm^-2",
            "spec": dict(zip(("v1", "l1", "v2", "l2", "r"), map(float, s)))}


def _family_cfg(family):
    keys = ("mu", "nu", "tau", "h1", "h2", "d1", "d2", "c")
    return {"units": "nm^-2", "family": dict(zip(keys, family))}


SWEEP_GRID = {"start": 1.0, "stop": 1e-6, "per_decade": 6}
PAIRING_EPS = [10 ** (-0.5 * i) for i in range(2, 9)]


def _tabulated_probe():
    xs = np.linspace(-6.0, 6.0, 61)
    b = 0.8423292192132454
    return xs, (xs + 2.0) * np.exp(-(((xs - b) / 3.0) ** 2))


PROBES = {
    "bump": {"kind": "bump", "width": 30.0, "center": 5.0},
    "gaussian_bump": {"kind": "gaussian_bump", "sigma": 4.0, "width": 40.0, "center": 2.0},
    "gaussian": {"kind": "gaussian", "sigma": 3.0, "center": -3.0},
    "tabulated": {"kind": "tabulated", "xs": _tabulated_probe()[0].tolist(),
                  "ys": _tabulated_probe()[1].tolist()},
}


def cli(lib, rng, workdir):
    """Invocations of bilayer1d.cli.main, each writing to its own folder."""
    cfgs = []

    def add(name, kind, command, cfg, fault=None, **data):
        folder = os.path.join(workdir, name)
        os.makedirs(folder, exist_ok=True)
        path = os.path.join(folder, "cfg.json")
        _write(path, cfg)
        out = os.path.join(folder, "out")
        cfgs.append((name, kind, [command, "--config", path, "--out", out], fault,
                     dict(data, cfg=cfg, out=out)))

    # 1500-point grids make these four calls and the deep double-well
    # sweep the slowest fifth of the list, so op_p90_ms falls inside that
    # group rather than on the noisy tail of the ~80 ms calls below it
    for i in range(4):
        v1, l1 = _draw_slab(rng, ("barrier", "well")[i % 2])
        v2, l2 = _draw_slab(rng, ("well", "barrier", "well", "barrier")[i])
        s = (v1, l1, v2, l2, rng.uniform(0.0, 2.0))
        cfg = dict(_spec_cfg(s), k_grid={"start": 0.05, "stop": float(rng.uniform(3, 9)),
                                         "count": 1500})
        add(f"scatter-{i}", "scatter", "scatter", cfg, s=s)
    for j, s in enumerate(OPAQUE):
        cfg = dict(_spec_cfg(s), k_grid={"start": 0.05, "stop": 4.0, "count": 200})
        add(f"opaque-nan-{j}", "scatter", "scatter", cfg, "opaque-nan", s=s)
    for i, target in enumerate((2, 9, 24)):
        width = rng.uniform(0.8, 2.5)
        rho = (target - 0.5 + rng.uniform(-0.3, 0.3)) * math.pi
        while True:
            s = (-(rho / width) ** 2, width, rng.uniform(0.5, 20.0),
                 rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.5))
            if clear_of_threshold(s):
                break
        add(f"boundstates-{i}", "boundstates", "boundstates", _spec_cfg(s), s=s)
    for name, family in FAMILIES.items():
        fault = "thin-well-loss" if name in ("barrier-well", "deep-double-well") else None
        add(f"sweep-{name}", "sweep", "boundstates",
            dict(_family_cfg(family), eps_grid=SWEEP_GRID), fault, family=family)
    for name in ("barrier-well", "unbalanced-thin"):
        family = FAMILIES[name]
        cfg = dict(_family_cfg(family), tol=0.02, spread_tol=0.05,
                   k=float(rng.uniform(0.3, 2.5)), eps_samples=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        add(f"resonance-{name}", "resonance", "resonance", cfg, family=family)
    s = (rng.uniform(0.5, 10.0), rng.uniform(0.3, 2.0), -rng.uniform(1.0, 10.0),
         rng.uniform(0.3, 2.0), rng.uniform(0.0, 2.0))
    add("wavefunction-scatter", "wavefunction", "wavefunction",
        dict(_spec_cfg(s), mode="scatter", k=float(rng.uniform(0.3, 3.0))), s=s)
    # sqrt(depth) * width > 3 pi / 2: a second level even with a hard wall
    # in place of the barrier
    s = (-rng.uniform(15.0, 30.0), rng.uniform(1.5, 2.0), rng.uniform(0.5, 10.0),
         rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.5))
    add("wavefunction-bound", "wavefunction", "wavefunction",
        dict(_spec_cfg(s), mode="bound", level=2), s=s)
    for name, probe in PROBES.items():
        add(f"deltaprime-{name}", "deltaprime", "deltaprime",
            dict(_family_cfg(DIPOLE), test_function=probe, eps_grid=PAIRING_EPS),
            family=DIPOLE, probe=probe)

    ops = []
    for name, kind, argv, fault, data in cfgs:
        ops.append(Op(name, kind, _cli_call(lib, argv, data["out"]), fault,
                      dict(data, argv=argv)))
    return ops


def _cli_call(lib, argv, out):
    """Run the CLI into an emptied output folder, so that every round's
    files are written by that round."""
    sink = io.StringIO()
    module = lib.cli

    def run():
        shutil.rmtree(out, ignore_errors=True)
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return module.main(list(argv))

    return run


def _finite(text):
    """float(text), refusing NaN and infinities, which every comparison
    of the checks below would let through."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r} in the output")
    return value


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[_finite(x) if x else None for x in row] for row in rows[1:]]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_finite)


def cli_digest(op, code):
    """Exit code (or the text of what was raised) and the output files."""
    out = op.data["out"]
    parts = [repr(code).encode()]
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name), "rb") as fh:
            parts.append(name.encode() + b"\0" + fh.read())
    return b"\1".join(parts)


def check_cli(lib, op, code):
    if code != 0:
        return f"exit code {code}"
    out = op.data["out"]
    return _CLI_CHECKS[op.kind](op, out)


def _check_scatter(op, out):
    header, rows = _read_csv(os.path.join(out, "scatter.csv"))
    col = {name: i for i, name in enumerate(header)}
    s = op.data["s"]
    for j, row in enumerate(rows):
        t, r = row[col["transmission"]], row[col["reflection"]]
        if abs(t + r - 1.0) > AMP_TOL:
            return f"T + R = {t + r!r} at k={row[0]!r}"
        a = complex(row[col["re_a"]], row[col["im_a"]])
        b = complex(row[col["re_b"]], row[col["im_b"]])
        if abs(abs(a) ** 2 - abs(b) ** 2 - 1.0) > AMP_TOL * abs(a) ** 2:
            return f"|a|^2 - |b|^2 != 1 at k={row[0]!r}"
        if j % 50 == 0:
            ar, br = refs.amplitudes(s, row[0])
            if abs(a - ar) > AMP_TOL * abs(ar) or abs(b - br) > AMP_TOL * abs(ar):
                return f"differs from the plane-wave reference at k={row[0]!r}"
    return None


def _levels_by_eps(out):
    _, rows = _read_csv(os.path.join(out, "boundstates.csv"))
    by_eps = {}
    for eps, index, kappa in rows:
        by_eps.setdefault(eps, []).append((int(index), kappa))
    return {eps: [k for _, k in sorted(v)] for eps, v in by_eps.items()}


def _check_boundstates(op, out):
    summary = _read_json(os.path.join(out, "boundstates.json"))
    kappas = _levels_by_eps(out).get(1.0, [])
    problem = check_levels(op.data["s"], kappas)
    if problem:
        return problem
    if not summary["verified"]:
        return "summary says unverified"
    return None


def _check_sweep(op, out):
    summary = _read_json(os.path.join(out, "boundstates.json"))
    levels = _levels_by_eps(out)
    bad = []
    for eps in summary["eps"]:
        problem = check_levels(realize(op.data["family"], eps), levels.get(eps, []))
        if problem:
            bad.append(f"eps={eps:.3g}: {problem}")
    return "; ".join(bad) if bad else None


def _check_resonance(op, out):
    payload = _read_json(os.path.join(out, "resonance.json"))
    samples = payload["samples"]
    if len(samples) != len(op.data["cfg"]["eps_samples"]):
        return "missing samples"
    for sample in samples:
        a, _ = refs.amplitudes(realize(op.data["family"], sample["eps"]), sample["k"])
        want = 1.0 / abs(a) ** 2
        if abs(sample["transmission"] - want) > AMP_TOL * want:
            return f"transmission at eps={sample['eps']:g} is {sample['transmission']!r}, reference {want!r}"
        if not 0.0 <= sample["limit_transmission"] <= 1.0:
            return "limit transmission outside [0, 1]"
    return None


def _check_wavefunction(op, out):
    _, rows = _read_csv(os.path.join(out, "wavefunction.csv"))
    cfg = op.data["cfg"]
    s = op.data["s"]
    xs = [row[0] for row in rows[::20]]
    psi = [complex(row[1], row[2]) for row in rows[::20]]
    if cfg["mode"] == "scatter":
        want = refs.wave(s, cfg["k"], xs)
    else:
        want = refs.wave(s, refs.level(s, cfg["level"]), xs, bound=True)
    scale = max(abs(w) for w in want)
    for x, got, ref in zip(xs, psi, want):
        if abs(got - ref) > 1e-7 * scale:
            return f"psi({x:g}) = {got!r}, reference {ref!r}"
    return None


def _check_deltaprime(op, out):
    _, rows = _read_csv(os.path.join(out, "deltaprime.csv"))
    probe = op.data["probe"]
    kind = probe["kind"]
    if kind == "tabulated":
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(probe["xs"], probe["ys"])
    else:
        args = {"bump": ("width", "center"), "gaussian_bump": ("sigma", "width", "center"),
                "gaussian": ("sigma", "center")}[kind]
        f, support = getattr(refs, "mp_" + kind)(*(probe[a] for a in args))
    if len(rows) != len(PAIRING_EPS):
        return "missing rows"
    for eps, value, *_ in rows:
        s = realize(op.data["family"], eps)
        if kind == "tabulated":
            want, scale = refs.spline_pairing(s, spline)
        else:
            want, scale = refs.pairing(s, f, support)
        if abs(value - want) > PAIR_TOL * scale:
            return f"pairing at eps={eps:g} is {value!r}, reference {want!r}"
    return None


_CLI_CHECKS = {
    "scatter": _check_scatter,
    "boundstates": _check_boundstates,
    "sweep": _check_sweep,
    "resonance": _check_resonance,
    "wavefunction": _check_wavefunction,
    "deltaprime": _check_deltaprime,
}
