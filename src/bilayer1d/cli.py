"""Command-line front end.

Five subcommands (scatter, boundstates, resonance, wavefunction,
deltaprime) read a JSON config and write deterministic files: each of the
four table commands a CSV table with a small gnuplot script, or one JSON
file under --format json; resonance a JSON report.  Exit codes: 0
success, 2 config problems, 3 domain problems (no such level, exponents
without a limit, ...), 4 numerical failures.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import probes
from .bound import build_chi_problem, find_roots, verify_ladder
from .core import EV_TO_INV_NM2, DoubleLayerSpec, Wavenumber
from .squeeze import (
    SqueezeFamily,
    classify_first_angle,
    delta_prime_pairing,
    eps_log_grid,
    interaction_limit,
    realize,
    sweep_ladder,
)
from .xfer import (
    NotAnEigenvalueError,
    amplitude_grid,
    scattering_data,
    scattering_wavefunction,
)

SPEC_VERSION = 1


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    # no such file, bad JSON or UTF-8, an int too long to parse, nesting too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _real(value):
    """float(value) for a finite JSON number; booleans, strings, NaN, infinities
    and integers beyond the float range are refused rather than converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    # compared exactly: math.isfinite overflows on an int beyond the float range
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{value!r} is not a finite float")
    return float(value)


def _integer(value):
    """int(value) for an integer; fractions, booleans and strings are refused, not cut."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _reals(value):
    """A JSON list of numbers as a tuple of floats."""
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not a list")
    return tuple([_real(v) for v in value])


def _check(name, value, check):
    """value, refused when it, or an entry of a tuple or array, lies outside
    check = (what the value must be, its test); a JSON list is one value."""
    text, test = check
    if isinstance(value, np.ndarray):
        name, bad = f"{name} values", value[~test(value)].tolist()
    elif isinstance(value, tuple):
        name, bad = f"{name} values", [v for v in value if not test(v)]
    else:
        bad = [] if test(value) else [value]
    if bad:
        raise ConfigError(f"{name} must be {text}, got {bad[0]!r}")
    return value


def _refuse_unknown(what, names, known):
    for name in names:
        if name not in known:
            raise ConfigError(f"unknown {what} {name!r}")


def _object(name, raw, fields, required=(), form="an object"):
    """The keys given in the JSON object raw, read by their (reader, range) in fields."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be {form}")
    _refuse_unknown(f"{name} key", raw, fields)
    values = {}
    for key, (read, check) in fields.items():
        if key in raw:
            value = read(raw[key])
            values[key] = value if check is None else _check(f"{name} {key}", value, check)
        elif key in required:
            raise ConfigError(f"{name} is missing {key!r}")
    return values


_POSITIVE = ("positive", lambda v: v > 0.0)
_NONNEGATIVE = (">= 0", lambda v: v >= 0.0)
_EPS = ("in (0, 1]", lambda v: (v > 0.0) & (v <= 1.0))
_COUNT = (">= 1", lambda v: v >= 1)
_SAME, _REAL, _REALS = (lambda v: v, None), (_real, None), (_reals, None)


def _scalar(read):
    """The reader of a config key that holds one JSON value."""
    return lambda key, raw: read(raw)


_NUMBER, _AS_IS = _scalar(_real), _scalar(lambda v: v)


def _layers(build, names, energies):
    """The reader of a "spec" or "family" section: build's arguments, energies in nm^-2."""
    fields, energies = dict.fromkeys(names.split(), _REAL), energies.split()

    def read(key, raw, scale):
        values = _object(f"{key} section", raw, fields, fields)
        for name in energies:
            values[name] *= scale
        return build(**values)

    return read


def _grid(build, required, **fields):
    """The reader of a grid: a nonempty list of numbers, or build's keyword arguments."""
    form = f"a list or a {'/'.join(fields)} object"

    def read(key, raw):
        if not isinstance(raw, list):
            return build(**_object(key, raw, fields, required, form))
        if not raw:
            raise ConfigError(f"{key} must be a nonempty list of numbers")
        return np.array(_reals(raw))

    return read


_LINEAR = _grid(lambda start, stop, count=200: np.linspace(start, stop, count),
                ("start", "stop"), start=_REAL, stop=_REAL, count=(_integer, _COUNT))

# kind: (probe function, its keys, the keys it needs)
_PROBES = {
    "bump": (probes.bump, ("width", "center"), ()),
    "gaussian_bump": (probes.gaussian_bump, ("sigma", "width", "center"), ("sigma", "width")),
    "gaussian": (probes.gaussian, ("sigma", "center"), ("sigma",)),
    "tabulated": (probes.tabulated, ("xs", "ys"), ("xs", "ys")),
}
_PROBE_KEYS = dict(kind=_SAME, width=_REAL, center=_REAL, sigma=_REAL, xs=_REALS, ys=_REALS)


def _probe(key, raw):
    """The reader of "test_function": the probe its "kind" names, or a bump."""
    values = _object(key, raw, _PROBE_KEYS)
    kind = values.pop("kind", "bump")
    _refuse_unknown(f"{key} kind", [kind], _PROBES)
    build, names, required = _PROBES[kind]
    return build(**_object(f"{key} {kind!r}", values, dict.fromkeys(names, _SAME), required))


class _Key(NamedTuple):
    commands: tuple  # the subcommands that read the key
    read: Callable  # (key, JSON value, and the nm^-2 scale for an energy) -> value
    check: tuple = None  # the range: (what the value must be, its test)
    default: object = None  # the JSON value of an absent key, ...
    needed: str = None  # ... or the refusal when a subcommand needs it
    energy: bool = False
    excludes: str = None  # a key that cannot be given beside this one


_ALL = ("scatter", "boundstates", "resonance", "wavefunction", "deltaprime")
_REALIZED = ("scatter", "wavefunction")  # a spec, or a family realized at eps

# the config schema; units first, to read the energies after it
_KEYS = {
    "units": _Key(_ALL, _AS_IS, ('"eV" or "nm^-2"', ("eV", "nm^-2").__contains__), "eV"),
    "spec": _Key(_REALIZED + ("boundstates",), _layers(DoubleLayerSpec, "v1 l1 v2 l2 r", "v1 v2"),
                 needed='provide a "spec" or a "family" section', energy=True),
    "family": _Key(_ALL, _layers(SqueezeFamily, "mu nu tau h1 h2 d1 d2 c", "h1 h2"),
                   needed='this command needs a "family" section', energy=True, excludes="spec"),
    "eps": _Key(_REALIZED, _NUMBER, _EPS, needed='a "family" config needs "eps" to realize it'),
    "k_grid": _Key(("scatter",), _LINEAR, _POSITIVE, needed='provide "k_grid" (nm^-1)'),
    "tol": _Key(("boundstates", "resonance"), _NUMBER, _NONNEGATIVE, 1e-9),
    "spread_tol": _Key(("resonance",), _NUMBER, _NONNEGATIVE),  # default: tol
    "k": _Key(("resonance", "wavefunction"), _NUMBER, _POSITIVE,  # resonance's default: 1.0
              needed='scatter mode needs a real "k" (nm^-1)'),
    "eps_samples": _Key(("resonance",), _scalar(_reals), _EPS, []),
    "eps_grid": _Key(("boundstates", "deltaprime"), _grid(eps_log_grid, (), start=_REAL,
                     stop=_REAL, per_decade=(_integer, _COUNT)), _EPS, {}),
    "mode": _Key(("wavefunction",), _AS_IS,
                 ('"scatter" or "bound"', ("scatter", "bound").__contains__), "scatter"),
    "level": _Key(("wavefunction",), _scalar(_integer), _COUNT, 1),
    "x_grid": _Key(("wavefunction",), _LINEAR),
    "test_function": _Key(("deltaprime",), _probe, default={"kind": "bump"}),
}


class _Checked(dict):
    """One subcommand's checked keys: an absent key reads as its default, or is refused."""

    def __missing__(self, key):
        row = _KEYS[key]
        if row.default is None:
            raise ConfigError(row.needed)
        return row.read(key, row.default)


def _checked(command, cfg):
    """The keys of cfg that command reads, each checked before anything is
    computed, with null as absent; an unknown key is refused."""
    _refuse_unknown("config key", cfg, _KEYS)
    checked = _Checked()
    for key, row in _KEYS.items():
        raw = cfg.get(key)
        if raw is None or command not in row.commands:
            continue
        if row.excludes in checked:
            raise ConfigError(f'give "{row.excludes}" or "{key}", not both')
        try:
            if not row.energy:
                value = row.read(key, raw)
            else:  # read after "units", which comes first
                scale = EV_TO_INV_NM2 if checked["units"] == "eV" else 1.0
                value = row.read(key, raw, scale)
        # MemoryError: a grid too large to allocate, refused at once by NumPy
        except (TypeError, ValueError, MemoryError) as exc:
            raise ConfigError(f"bad {key}: {exc}") from exc
        checked[key] = value if row.check is None else _check(key, value, row.check)
    return checked


def _spec_of(cfg):
    """The config's "spec", or its "family" realized at "eps"."""
    if "family" in cfg:
        return realize(cfg["family"], cfg["eps"])
    return cfg["spec"]


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


# orjson's exponent layout made repr's: a sign on a positive exponent, and a
# zero before a one-digit negative one, found by the "," or newline after it;
# and a number in [1e-5, 1e-4), plain in orjson, found by its leading "0.0000"
_EXPONENT_SIGN = re.compile(rb"e(?=\d)")
_EXPONENT_PAD = re.compile(rb"e-(?=\d[,\n])")
_TEN_THOUSANDTHS = re.compile(rb"0\.0000(?<![\d.]0\.0000)\d+")


def _reprs(text):
    """orjson's text with its exponent layout made repr's."""
    return _EXPONENT_PAD.sub(b"e-0", _EXPONENT_SIGN.sub(b"e+", text)) if b"e" in text else text


def _json_text(payload):
    """payload as indented JSON with sorted keys, every number as repr writes
    it and NaN and infinities as null, as json.dumps would, from orjson."""
    import orjson

    payload = {**payload, "spec_version": SPEC_VERSION}
    options = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
    text = _reprs(orjson.dumps(payload, option=options))
    return _TEN_THOUSANDTHS.sub(lambda m: repr(float(m[0])).encode(), text).decode() + "\n"


def _write(args, files):
    """Write each text of files, a dict from file name to text, into the
    --out folder, made when missing."""
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write into --out {args.out!r}: {exc}") from exc


def _float_texts(col):
    """repr of each value of the finite float array col.  orjson prints a
    double's shortest round-trip digits, as repr does: zero and magnitudes
    in [1e-5, 1e16) plainly, the rest in an exponent layout ("1e16",
    "1.5e-6") that _reprs makes repr's ("1e+16", "1.5e-06").  repr writes
    the cells where the layouts differ otherwise: magnitudes in [1e-5, 1e-4),
    which it writes in exponent form and orjson plainly ("1e-05", "0.00001").
    orjson reads the array's buffer, which must be contiguous, so a strided
    view such as a.real is copied."""
    import orjson

    text = orjson.dumps(np.ascontiguousarray(col), option=orjson.OPT_SERIALIZE_NUMPY)
    texts = _reprs(text[1:-1] + b",").decode().split(",")[:len(col)]  # every cell ends in ","
    mag = np.abs(col)
    idx = np.flatnonzero((mag >= 1e-5) & (mag < 1e-4))
    for i, value in zip(idx.tolist(), col[idx].tolist()):
        texts[i] = repr(value)
    return texts


def _write_table(args, stem, columns, summary=None, details=None):
    """Write columns, an ordered dict from header name to a float array or a
    list of Python floats, ints and None, as <stem>.csv and <stem>.gp, plus
    <stem>.json holding the summary when there is one; under --format json,
    one <stem>.json of the summary, the details, the columns and the rows.
    A CSV cell is its value's repr, or empty for None, made column by column:
    a float array's cells by _float_texts, a list's by repr of each value.
    A row with a cell that is not finite raises OverflowError, naming the
    first column's value there, before anything is written."""
    finite = np.logical_and.reduce([np.isfinite(c) if isinstance(c, np.ndarray) else
                                    [v is None or math.isfinite(v) for v in c]
                                    for c in columns.values()])
    if not finite.all():
        name, first = next(iter(columns.items()))
        raise OverflowError(f"this structure overflows at {name}={float(first[finite.argmin()])!r}")
    if args.format == "json":
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
        payload = {**(summary or {}), **(details or {})}
        payload.update(columns=list(columns), rows=[list(r) for r in zip(*cells)])
        _write(args, {f"{stem}.json": _json_text(payload)})
        print(f"wrote {stem}.json")
        return
    texts = [_float_texts(c) if isinstance(c, np.ndarray)
             else ["" if v is None else repr(v) for v in c] for c in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*texts))]
    files = {f"{stem}.csv": "\n".join(lines) + "\n",
             f"{stem}.gp": _GNUPLOT_HEAD + _GNUPLOT[stem]}
    if summary is not None:
        files[f"{stem}.json"] = _json_text(summary)
    _write(args, files)
    print(f"wrote {stem}.csv ({len(lines) - 1} rows)")


_GNUPLOT_HEAD = """set datafile separator ','
set key autotitle columnhead
"""

_GNUPLOT = {
    "scatter": """set xlabel 'k [1/nm]'
set ylabel 'probability'
set yrange [0:1.05]
plot 'scatter.csv' using 1:6 with lines, '' using 1:7 with lines
""",
    "boundstates": """set logscale x
set xlabel 'eps'
set ylabel 'kappa [1/nm]'
plot 'boundstates.csv' using 1:3 with points pt 7 ps 0.4
""",
    "wavefunction": """set xlabel 'x [nm]'
set ylabel '|psi|'
plot 'wavefunction.csv' using 1:4 with lines
""",
    "deltaprime": """set logscale xy
set xlabel 'eps'
set ylabel '|pairing - companion|'
plot 'deltaprime.csv' using 1:(abs($4)) with linespoints
""",
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_scatter(args, cfg):
    ks = cfg["k_grid"]
    a, b = amplitude_grid(_spec_of(cfg), ks)
    a2 = np.abs(a) ** 2
    columns = {
        "k": ks,
        "re_a": a.real,
        "im_a": a.imag,
        "re_b": b.real,
        "im_b": b.imag,
        "transmission": 1.0 / a2,
        "reflection": np.abs(b / a) ** 2,
        # relative to |a|^2, so an opaque row shows its rounding as such
        "unitarity_defect": np.abs(a2 - np.abs(b) ** 2 - 1.0) / a2,
    }
    _write_table(args, "scatter", columns)


def _cmd_boundstates(args, cfg):
    if "family" in cfg:
        result = sweep_ladder(cfg["family"], cfg["eps_grid"], tol=cfg["tol"])
        ladders = zip(result.eps, result.ladders)
        names = ("scenario", "branch", "kappa_limit", "eps", "counts", "survivor")
        summary = {name: getattr(result, name) for name in names}
        summary["region"] = result.report.region
    else:
        spec = cfg["spec"]
        ladder = find_roots(build_chi_problem(spec))
        report = verify_ladder(spec, ladder)
        ladders = [(1.0, ladder)]
        summary = {
            "scenario": "single structure",
            "branch": ladder.branch,
            "count": ladder.n,
            "kappas": list(ladder.kappas),
            "verified": bool(report),
            "max_residual": max((abs(r) for r in report.residuals), default=0.0),
        }
    columns = {"eps": [], "level_index": [], "kappa": []}
    for eps, ladder in ladders:
        columns["eps"] += [float(eps)] * ladder.n
        columns["level_index"] += range(1, ladder.n + 1)
        columns["kappa"] += ladder.kappas.tolist()
    _write_table(args, "boundstates", columns, summary)


def _cmd_resonance(args, cfg):
    family, tol, k_probe = cfg["family"], cfg["tol"], cfg.get("k", 1.0)
    report = interaction_limit(family, res_tol=tol, spread_tol=cfg.get("spread_tol", tol))
    samples = []
    for eps in cfg["eps_samples"]:
        a = abs(scattering_data(realize(family, eps), k_probe).a)
        a2 = a * a  # inf beyond the float range
        if not math.isfinite(a2):
            raise OverflowError(f"this structure overflows at eps={eps!r}")
        samples.append({"eps": eps, "k": k_probe, "transmission": 1.0 / a2,
                        "limit_transmission": report.interaction.transmission(k_probe)})
    names = ("region", "way", "verdict", "residual", "spread", "theta", "alpha", "kappa_limit")
    payload = {name: getattr(report, name) for name in names}
    _write(args, {"resonance.json": _json_text({**payload, "samples": samples})})
    print(f"wrote resonance.json (verdict {report.verdict})")


def _cmd_wavefunction(args, cfg):
    spec = _spec_of(cfg)
    mode = cfg["mode"]
    if mode == "scatter":
        k = cfg["k"]
    else:
        level = cfg["level"]
        ladder = find_roots(build_chi_problem(spec))
        if level > ladder.n:
            raise NotAnEigenvalueError(
                f"structure has {ladder.n} bound levels; level {level} does not exist"
            )
        k = Wavenumber.bound(ladder.kappas[level - 1])
    wave = scattering_wavefunction(spec, k)
    pad = 0.25 * spec.extent if spec.extent > 0 else 1.0
    xs = cfg["x_grid"] if "x_grid" in cfg else np.linspace(-pad, spec.extent + pad, 400)
    psi = wave(xs)
    # Python's abs of each value: np.abs differs from it in the last bit
    columns = {"x": xs, "re_psi": psi.real, "im_psi": psi.imag,
               "abs_psi": np.array(list(map(abs, psi.tolist())))}
    details = {"mode": mode, "continuity_defect": wave.continuity_defect()}
    _write_table(args, "wavefunction", columns, details=details)


def _cmd_deltaprime(args, cfg):
    family, probe = cfg["family"], cfg["test_function"]
    results = [delta_prime_pairing(family, float(eps), probe) for eps in cfg["eps_grid"]]
    companion = results[0].companion
    eps, pairing = [res.eps for res in results], [res.value for res in results]
    gap = pairing if companion is None else [value - companion for value in pairing]
    # no slope across a zero gap or a repeated eps; a gap ratio that
    # underflows to 0 gives an infinite slope, refused as an overflowing one
    slope = [None] + [(math.log(ratio) if (ratio := abs(g) / abs(g0)) else -math.inf)
                      / math.log(e / e0) if g != 0.0 and g0 != 0.0 and e != e0 else None
                      for e0, e, g0, g in zip(eps, eps[1:], gap, gap[1:])]
    summary = {
        "region": classify_first_angle(family.mu, family.nu, family.tau),
        "gamma": results[0].gamma,
        "companion": companion,
        "divergence_power": results[0].divergence_power,
        "note": results[0].note,
    }
    columns = {"eps": eps, "pairing": pairing, "companion": [companion] * len(eps),
               "gap": gap, "slope": slope}
    _write_table(args, "deltaprime", columns, summary)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "scatter": ("amplitudes and probabilities on a k grid", _cmd_scatter),
    "boundstates": ("bound ladder of a structure or a squeeze sweep", _cmd_boundstates),
    "resonance": ("squeezing-limit classification of a family", _cmd_resonance),
    "wavefunction": ("wavefunction samples on an x grid", _cmd_wavefunction),
    "deltaprime": ("distributional pairing along a squeeze sweep", _cmd_deltaprime),
}


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="bilayer1d",
        description="Scattering, bound levels and squeezing limits of a "
        "two-layer structure on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        # resonance writes one JSON report and no table
        if name != "resonance":
            p.add_argument(
                "--format", choices=("csv", "json"), default="csv", help="output format"
            )
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = _checked(args.command, _load_config(args.config))
        _COMMANDS[args.command][1](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
