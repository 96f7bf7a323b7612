"""Layer 5 of the stack: the command-line front end.

    python -m pytest benchmarks/ --benchmark-only       # time them
    python -m pytest benchmarks/ --benchmark-disable    # run each once, as a test

Times cli.main in process on a 1500-point scatter config, the size of the
benchmark's cli workload, and on a boundstates sweep of 37 eps values
(1 down to 1e-6, six a decade) of a family that keeps one level; and the
table writer _write_table alone on two 1500 x 8 tables of floats, the
CSV body of that scatter call: one of magnitudes from 1e-20 to 1e20, most
of whose cells repr writes, and one of magnitudes in [1e-4, 1e16), every
cell of which orjson writes.  Needs pytest-benchmark; the Tier-1 suite,
whose testpaths are tests/, does not collect this folder.
"""

import argparse
import json

import numpy as np

from bilayer1d import cli

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
