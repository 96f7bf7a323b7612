"""Layer 5 of the stack: sweeps, pairings and the command-line front end.

    python -m pytest benchmarks/ --benchmark-only       # time them
    python -m pytest benchmarks/ --benchmark-disable    # run each once, as a test

Times cli.main in process on a 1500-point scatter config, the size of the
benchmark's cli workload, and on a boundstates sweep of 37 eps values
(1 down to 1e-6, six a decade) of a family that keeps one level.  Times
the table writer _write_table alone on four 1500 x 8 tables of floats,
the CSV body of that scatter call: one of magnitudes from 1e-20 to 1e20;
one of magnitudes in [1e-4, 1e16), which orjson writes plainly; one of
magnitudes below 1e-5 or at least 1e16, which orjson writes in its
exponent layout and two substitutions make repr's; and the control, one
of magnitudes in [1e-5, 1e-4), every cell of which repr writes.  Times
the library calls under the subcommands on the four squeeze families of
the benchmark's cli workload: sweep_ladder on its 37-value eps grid and
interaction_limit, and delta_prime_pairing of its dipole family at seven
eps values against each probe kind.  Needs pytest-benchmark; the Tier-1
suite, whose testpaths are tests/, does not collect this folder.
"""

import argparse
import json

import numpy as np
import pytest

from bilayer1d import (SqueezeFamily, cli, delta_prime_pairing, eps_log_grid,
                       interaction_limit, probes, sweep_ladder)

SPEC = {"v1": 4.0, "l1": 0.8, "v2": -6.0, "l2": 1.1, "r": 0.7}
# a thin barrier beside a thick well, on resonance: one level all the way down
FAMILY = {"mu": 1.5, "nu": 1.0, "tau": 1.0, "h1": 2.5296155177944195, "h2": -1.31232,
          "d1": 1.0, "d2": 1.0, "c": 2.0}
ROWS, COLUMNS = 1500, 8


def _main(benchmark, tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"units": "nm^-2", **cfg}), encoding="utf-8")
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    assert benchmark(cli.main, argv) == 0
    return (tmp_path / "out" / f"{command}.csv").read_text().splitlines()


def test_scatter(benchmark, tmp_path, capsys):
    grid = {"start": 0.05, "stop": 6.0, "count": ROWS}
    lines = _main(benchmark, tmp_path, "scatter", {"spec": SPEC, "k_grid": grid})
    assert len(lines) == ROWS + 1 and len(lines[-1].split(",")) == COLUMNS


def test_boundstates_sweep(benchmark, tmp_path, capsys):
    grid = {"start": 1.0, "stop": 1e-6, "per_decade": 6}
    lines = _main(benchmark, tmp_path, "boundstates", {"family": FAMILY, "eps_grid": grid})
    assert len({line.split(",")[0] for line in lines[1:]}) == 37


def _write_table(benchmark, tmp_path, columns):
    args = argparse.Namespace(format="csv", out=str(tmp_path))
    benchmark(cli._write_table, args, "scatter", columns)
    lines = (tmp_path / "scatter.csv").read_text().splitlines()
    assert lines[1].split(",") == [repr(float(c[0])) for c in columns.values()]


def test_write_table(benchmark, tmp_path, capsys):
    rng = np.random.default_rng(5)
    columns = {f"c{i}": rng.standard_normal(ROWS) * 10.0 ** rng.integers(-20, 20, ROWS)
               for i in range(COLUMNS)}
    _write_table(benchmark, tmp_path, columns)


def test_write_table_plain(benchmark, tmp_path, capsys):
    rng = np.random.default_rng(5)
    columns = {f"c{i}": rng.choice([-1.0, 1.0], ROWS) * 10.0 ** rng.uniform(-4, 15.9, ROWS)
               for i in range(COLUMNS)}
    _write_table(benchmark, tmp_path, columns)


def _exponents(rng, *ranges):
    """ROWS signed powers of ten, their exponents drawn uniformly from one
    of ranges, each range alike likely."""
    lo, hi = np.array(ranges).T
    pick = rng.integers(0, len(ranges), ROWS)
    return rng.choice([-1.0, 1.0], ROWS) * 10.0 ** rng.uniform(lo[pick], hi[pick])


def test_write_table_exponent(benchmark, tmp_path, capsys):
    rng = np.random.default_rng(5)
    columns = {f"c{i}": _exponents(rng, (-20, -6), (16, 20)) for i in range(COLUMNS)}
    mag = np.abs(np.array(list(columns.values())))
    assert ((mag < 1e-5) | (mag >= 1e16)).all()
    _write_table(benchmark, tmp_path, columns)


def test_write_table_repr(benchmark, tmp_path, capsys):
    rng = np.random.default_rng(5)
    columns = {f"c{i}": _exponents(rng, (-5, -4)) for i in range(COLUMNS)}
    mag = np.abs(np.array(list(columns.values())))
    assert ((mag >= 1e-5) & (mag < 1e-4)).all()
    _write_table(benchmark, tmp_path, columns)


# the squeeze families of the benchmark's cli workload, (mu, nu, tau, h1, h2,
# d1, d2, c) in nm^-2 and nm: two (2, 2, 2) families put on resonance by
# their d1, and two thin ones; DIPOLE is the family of its deltaprime calls
EV = 2.62464
FAMILIES = {
    "barrier-well": (2.0, 2.0, 2.0, 0.5 * EV, -0.5 * EV, 1.0121526769027671, 0.6, 2.0),
    "deep-double-well": (2.0, 2.0, 2.0, -0.3 * EV, -0.5 * EV, 2.1179478460413863, 12.0, 20.0),
    "balanced-thin": (1.5, 1.5, 1.0, 0.5 * EV, -0.5 * EV, 12.0, 12.0, 20.0),
    "unbalanced-thin": (1.5, 1.5, 1.0, 0.5 * EV, -0.5 * EV, 8.0, 12.0, 20.0),
}
DIPOLE = SqueezeFamily(1.5, 1.0, 1.0, 0.5 * EV, -0.5 * EV, 12.0, 12.0, 20.0)
PAIRING_EPS = [10 ** (-0.5 * i) for i in range(2, 9)]
_XS = np.linspace(-6.0, 6.0, 61)
_YS = (_XS + 2.0) * np.exp(-(((_XS - 0.8423292192132454) / 3.0) ** 2))
PROBES = {
    "bump": probes.bump(width=30.0, center=5.0),
    "gaussian_bump": probes.gaussian_bump(sigma=4.0, width=40.0, center=2.0),
    "gaussian": probes.gaussian(sigma=3.0, center=-3.0),
    "tabulated": probes.tabulated(_XS, _YS),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_sweep_ladder(benchmark, name):
    grid = eps_log_grid(1.0, 1e-6, per_decade=6)
    result = benchmark(sweep_ladder, SqueezeFamily(*FAMILIES[name]), grid)
    assert len(result.ladders) == len(grid) == 37


@pytest.mark.parametrize("name", FAMILIES)
def test_interaction_limit(benchmark, name):
    report = benchmark(interaction_limit, SqueezeFamily(*FAMILIES[name]))
    assert report.verdict == ("separated" if name == "unbalanced-thin" else "Y")


@pytest.mark.parametrize("kind", PROBES)
def test_delta_prime_pairing(benchmark, kind):
    probe = PROBES[kind]

    def run():
        return [delta_prime_pairing(DIPOLE, eps, probe) for eps in PAIRING_EPS]

    pairings = benchmark(run)
    assert all(np.isfinite(p.value) for p in pairings)
