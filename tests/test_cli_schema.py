"""A property over configs drawn from the CLI's declared schema, cli._KEYS.

Every drawn config must exit 0, 2, 3 or 4, and a run that exits 0 writes
only finite numbers: a CSV cell is empty or a finite float, and a JSON
null stands only where README.md documents an absent value.
"""

import json
import math
import pathlib
import tempfile

from hypothesis import example, given, settings, strategies as st

from bilayer1d import cli

from helpers import REGION_EXAMPLES

# numbers on and off every edge of the readers: zeros, the subnormal and
# float-range ends, NaN, inf, an integer beyond the float range, and
# values of the wrong JSON type
EDGES = st.sampled_from([0, -0.0, 5e-324, 1e-300, 1e300, -1e300, math.nan, math.inf,
                         10**400, "1", True, None, [], {}])
EPS = st.one_of(st.floats(1e-8, 1.0), st.integers(0, 8).map(lambda e: 10.0**-e))
POSITIVE = st.floats(0.01, 10.0)
CENTER = st.floats(-5.0, 5.0)
LENGTH = st.floats(0.01, 5.0)
# the exponents of a region or of the two outside examples, or any
EXPONENTS = st.one_of(st.sampled_from(sorted(REGION_EXAMPLES)),
                      st.tuples(*[st.floats(0.05, 4.0)] * 3))


def _grid(point, bound, size, linear):
    """A list of 0 to 50 points, or a start/stop/size object: any start and
    stop for a small grid, and decades for a huge one, whose size then
    cannot shrink below 10**14 points, which NumPy refuses to allocate at
    once; a size between those would fill the machine's memory."""
    ends = {"start": bound, "stop": bound}
    small = st.fixed_dictionaries(ends if linear else {},
                                  optional={size: st.integers(0, 50), **({} if linear else ends)})
    decades = bound if linear else st.sampled_from([1.0, 0.1, 1e-3, 1e-8])
    huge = st.fixed_dictionaries({size: st.integers(10**14, 10**18)},
                                 optional={"start": decades, "stop": decades})
    return st.one_of(st.lists(point, max_size=50), small, huge)


TABULATED = st.integers(0, 12).flatmap(lambda n: st.fixed_dictionaries({
    "kind": st.just("tabulated"),
    "xs": st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n).map(sorted),
    "ys": st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)}))
PROBE = st.one_of(
    st.fixed_dictionaries({"kind": st.just("bump"), "width": POSITIVE, "center": CENTER}),
    st.fixed_dictionaries({"kind": st.just("gaussian"), "sigma": POSITIVE, "center": CENTER}),
    st.fixed_dictionaries({"kind": st.just("gaussian_bump"), "sigma": POSITIVE,
                           "width": POSITIVE, "center": CENTER}),
    TABULATED)

# one strategy per declared key, of values its reader takes; the test
# below refuses a key without one
VALUES = {
    "units": st.sampled_from(["eV", "nm^-2"]),
    "ev_to_inv_nm2": st.floats(1.0, 20.0),
    "spec": st.fixed_dictionaries({"v1": st.floats(-50.0, 50.0), "l1": st.floats(0.0, 3.0),
                                   "v2": st.floats(-50.0, 50.0), "l2": st.floats(0.0, 3.0),
                                   "r": st.floats(0.0, 3.0)}),
    "family": st.builds(lambda powers, rest: {**dict(zip(("mu", "nu", "tau"), powers)), **rest},
                        EXPONENTS, st.fixed_dictionaries({
                            "h1": st.floats(-10.0, 10.0), "h2": st.floats(-10.0, 10.0),
                            "d1": LENGTH, "d2": LENGTH, "c": LENGTH})),
    "eps": EPS,
    "k_grid": _grid(POSITIVE, POSITIVE, "count", linear=True),
    "k2_grid": _grid(POSITIVE, POSITIVE, "count", linear=True),
    "tol": st.floats(0.0, 0.1),
    "spread_tol": st.floats(0.0, 0.1),
    "k": POSITIVE,
    "eps_samples": st.lists(EPS, max_size=50),
    "eps_grid": _grid(EPS, EPS, "per_decade", linear=False),
    "mode": st.sampled_from(["scatter", "bound"]),
    "kappa": POSITIVE,
    "level": st.integers(1, 6),
    "x_grid": _grid(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), "count", linear=True),
    "test_function": PROBE,
}


@st.composite
def _mutated(draw, value, top=True):
    """value with one entry, at any depth, set to an edge number, removed or
    joined by an unknown key; or value as it is, in two draws of three."""
    if top and draw(st.integers(0, 2)):
        return value
    if isinstance(value, (dict, list)) and value and (top or draw(st.booleans())):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = draw(st.sampled_from(keys))
        changed = dict(value) if isinstance(value, dict) else list(value)
        action = draw(st.sampled_from(["edge", "remove", "unknown"]))
        if action == "edge":
            changed[key] = draw(_mutated(value[key], top=False))
        elif action == "remove":
            del changed[key]
        elif isinstance(changed, dict):
            changed["R"] = 1.0
        return changed
    return draw(EDGES)


@st.composite
def configs(draw):
    """(subcommand, format, config): a key the subcommand reads is given in
    three draws of four, one beside the key it excludes in one of sixteen,
    and a key of another subcommand, which is left alone, in one of eight;
    then one entry may change to an edge."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    cfg = {}
    for key, row in cli._KEYS.items():
        chance = 1 if row.excludes in cfg else 12 if command in row.commands else 2
        if draw(st.integers(1, 16)) <= chance:
            cfg[key] = draw(VALUES[key])
    return command, draw(st.sampled_from(["csv", "json"])), draw(_mutated(cfg))


# the absent values README.md names: the first or an undefined slope and a
# missing companion, as table cells; in the summaries, a missing companion,
# spread, theta and alpha off resonance, gamma where the companion is not
# finite, kappa_limit without a limiting level, a survivor of an eps without
# one, region outside the first angle, and divergence_power where the
# pairing does not diverge
ABSENT_CELLS = {"slope", "companion"}
ABSENT_KEYS = {"companion", "spread", "theta", "alpha", "gamma", "kappa_limit", "survivor",
               "region", "divergence_power"}


def _nulls(value, where=()):
    """The paths of the nulls in a JSON value."""
    if value is None:
        yield where
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _nulls(item, where + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nulls(item, where + (index,))


def _check_outputs(out):
    """Every CSV cell is a finite float or an absent value; every JSON null
    is an absent value, named by its key or its table column."""
    for path in pathlib.Path(out).iterdir():
        if path.suffix == ".csv":
            header, *rows = path.read_text().split("\n")[:-1]
            for row in rows:
                for name, cell in zip(header.split(","), row.split(",")):
                    assert (not cell and name in ABSENT_CELLS
                            or cell and math.isfinite(float(cell))), (path.name, name, cell)
        elif path.suffix == ".json":
            payload = json.loads(path.read_text())
            for where in _nulls(payload):
                name = (payload["columns"][where[2]] if where[0] == "rows"
                        else [part for part in where if isinstance(part, str)][-1])
                assert name in (ABSENT_CELLS if where[0] == "rows" else ABSENT_KEYS), \
                    (path.name, where)


def test_every_declared_key_is_drawn():
    assert set(VALUES) == set(cli._KEYS)


@settings(derandomize=True, max_examples=200, deadline=2000)
@given(configs())
# a gap ratio that underflows to 0 once made deltaprime exit 3 with "math
# domain error"
@example(("deltaprime", "csv", {
    "units": "eV",
    "family": {"mu": 0.5, "nu": 1.0, "tau": 3.0, "h1": 5e-324, "h2": 2.513e6,
               "d1": 1.478, "d2": 3.71e-5, "c": 59.85},
    "eps_grid": [0.001, 0.01, 0.1, 1.0],
    "test_function": {"kind": "gaussian_bump", "sigma": 4.0, "width": 40.0, "center": 2.0}}))
def test_a_drawn_config_exits_0_2_3_or_4_and_writes_finite_numbers(drawn):
    command, fmt, cfg = drawn
    with tempfile.TemporaryDirectory() as folder:
        path = pathlib.Path(folder, "cfg.json")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = pathlib.Path(folder, "out")
        args = [command, "--config", str(path), "--out", str(out)]
        code = cli.main(args if command == "resonance" else args + ["--format", fmt])
        assert code in (0, 2, 3, 4)
        if code == 0:
            _check_outputs(out)
