"""Experiment runner: scenario/sweep config parsing, sweep execution, CSV
output and a machine-readable run manifest.

Config files are flat key-value text with dotted keys, e.g.

    ue1.position = [3.5, 2.5, 1.0]
    source.half_angle_deg = 60.0

Angles are in degrees; all other quantities are SI (meters, watts, m^2).
A scenario key is `<object>.<field>`: `OBJECT_KEYS` maps each object prefix
to the `Scenario` field holding it, whose dataclass fields name the rest,
and `SCALAR_KEYS` names the scenario's own scalars. With the fields of
`SweepSpec` (`sweep.<field>`) these are the only lists of config keys.
Unknown keys are rejected; missing keys fall back to the default simulation
parameters (default room: 5 x 5 x 3 m rooms, AP on the room-1 ceiling,
10 x 8 panel in the wall between the rooms). Each value is checked by the
type of its default (integer keys reject fractions, `sweep.oracle_check`
takes only True or False), and a value out of range is reported with its key.
"""

from __future__ import annotations

import argparse
import ast
import csv
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .channel import OpticalFrontEnd, Scenario, channel_set, h_los
from .geometry import LambertianSource, OrientedPoint, RisPanel
from .link import DetectorScheme, rates_from_gains
from .oracle import coordinate_scan, vertex_enumerate
from .spca import (
    SETTINGS,
    check_float_range,
    max_min_optimize,
    mode_switching_optimize,
    spca_optimize,
    time_sharing_optimize,
)

# Position sweeps move one point along x: parameter -> Scenario field.
POSITION_SWEEPS = {"ue1_x": "ue1", "ue2_x": "ue2", "ap_x": "ap"}
SWEEP_PARAMETERS = (*POSITION_SWEEPS, "element_count", "power_both")
# The solver of each mode, by its name in this module: es = energy splitting
# (continuous coefficients), ms = mode switching (binary coefficients),
# timeshare and maxmin = the time-sharing and max-min fairness benchmarks.
# `_solve` looks the name up when it runs, so a wrapper patched over it is used.
MODES = {"es": "spca_optimize", "ms": "mode_switching_optimize",
         "timeshare": "time_sharing_optimize", "maxmin": "max_min_optimize"}
SCHEMES = [s.value for s in DetectorScheme]
# The solver's fixed settings, as every manifest records them.
SPCA_ENTRIES = {f"spca.{k}": v for k, v in asdict(SETTINGS).items()}


class ConfigError(ValueError):
    pass


def default_scenario() -> Scenario:
    return Scenario(
        ap=OrientedPoint([4.5, 2.5, 3.0], [0.0, 0.0, -1.0]),
        ue1=OrientedPoint([3.5, 2.5, 1.0], [0.0, 0.0, 1.0]),
        ue2=OrientedPoint([6.0, 2.5, 1.0], [0.0, 0.0, 1.0]),
        source=LambertianSource(half_angle_deg=60.0),
        panel=RisPanel(center=[5.0, 2.5, 1.5], rows=10, cols=8),
        front_end=OpticalFrontEnd(),
    )


def parse_kv_file(path) -> dict:
    """Parse a flat key-value config file into a dict; a key given twice is
    a ConfigError naming both lines."""
    entries = {}
    lines = {}
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not a text file ({err})") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: {key} given twice, "
                              f"on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        try:
            entries[key] = ast.literal_eval(value)
        except (ValueError, TypeError, SyntaxError):
            entries[key] = value  # bare string, e.g. scheme names
    return entries


def _reject_unknown_keys(keys, known) -> None:
    """Raise ConfigError for the first key not in `known`, naming the
    closest known key, so a typo cannot fall back to a default silently."""
    for key in keys:
        if key not in known:
            import difflib  # imported here to keep it out of every start-up

            close = difflib.get_close_matches(key, known, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")


def _parse(key: str, parse, value):
    """`parse(value)`, turning a failure into a ConfigError that names `key`."""
    try:
        return parse(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{key}: {err}") from err


def _integer(value) -> int:
    """`value` as an int; a fraction, a bool or a non-number is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """`value` as a float, if it is an int or float within the float range;
    a bool, an infinity, a NaN or a non-number is an error."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _vector3(value) -> list:
    """`value` as a list, if it is a list or tuple of three numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"expected three numbers, got {value!r}")
    return [_real(x) for x in value]


def _boolean(value) -> bool:
    """`value` if it is True or False (a bare `false` parses as a string)."""
    if not isinstance(value, bool):
        raise ValueError(f"expected True or False, got {value!r}")
    return value


# The scenario's config keys. An object's keys are `<prefix>.<field>` for
# each of its dataclass fields; the prefix names the Scenario field holding it.
OBJECT_KEYS = {"ap": "ap", "ue1": "ue1", "ue2": "ue2", "ris": "panel",
               "source": "source", "detector": "front_end"}
SCALAR_KEYS = {"power.ue1": "p1", "power.ue2": "p2", "noise.variance": "noise_variance"}
# Value parsers by type name: a scenario key's value is parsed by the type of
# its default, a `sweep.*` key's by its SweepSpec annotation.
_PARSERS = {"list": _vector3, "int": _integer, "float": _real, "bool": _boolean,
            "str": str, "DetectorScheme": DetectorScheme}


def _keys(prefix: str, obj) -> dict:
    """`<prefix>.<field>` -> field name, for each field of `obj`."""
    return {f"{prefix}.{f.name}": f.name for f in fields(obj)}


def _build(cls, kwargs: dict, given: list):
    """`cls(**kwargs)`, turning a rejected value into a ConfigError that
    names the `given` keys it was built from."""
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{', '.join(given)}: {err}") from err


def _scenario_from_entries(entries: dict) -> Scenario:
    """Scenario from config entries over the default one.

    `sweep.*` keys are left to `load_sweep_spec`; any other key that is not
    a scenario key is a ConfigError. Each object is built from its own keys,
    so a value it rejects is reported with the keys the entries gave for it.
    """
    base = default_scenario()
    defaults = scenario_entries(base)
    given = {k: v for k, v in entries.items() if not k.startswith("sweep.")}
    _reject_unknown_keys(given, list(defaults))
    cfg = {key: _parse(key, _PARSERS[type(default).__name__], given[key]) if key in given
           else default for key, default in defaults.items()}
    values = {}
    for prefix, name in OBJECT_KEYS.items():
        default = getattr(base, name)
        keys = _keys(prefix, default)
        values[name] = _build(type(default), {field: cfg[key] for key, field in keys.items()},
                              [key for key in keys if key in given])
    values.update({name: cfg[key] for key, name in SCALAR_KEYS.items()})
    return _build(Scenario, values, list(given))


def load_scenario(path) -> Scenario:
    """Default scenario overridden by any keys present in the file."""
    return _scenario_from_entries(parse_kv_file(path))


def scenario_entries(sc: Scenario) -> dict:
    """The scenario's config entries, as `load_scenario` reads them; arrays
    are written as lists of floats."""
    entries = {}
    for prefix, name in OBJECT_KEYS.items():
        obj = getattr(sc, name)
        entries.update({key: getattr(obj, field) for key, field in _keys(prefix, obj).items()})
    entries.update({key: getattr(sc, name) for key, name in SCALAR_KEYS.items()})
    return {key: [float(x) for x in v] if isinstance(v, np.ndarray) else v
            for key, v in entries.items()}


def write_kv_file(entries: dict, path) -> None:
    lines = [f"{key} = {value!r}" for key, value in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class SweepSpec:
    """A sweep. Each field but `scenario` is the config key `sweep.<field>`,
    parsed by its annotation and required when it has no default."""

    parameter: str
    start: float
    stop: float
    steps: int
    scenario: Scenario
    scheme: DetectorScheme = DetectorScheme.SIC
    mode: str = "es"
    oracle_check: bool = False

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"unknown sweep parameter {self.parameter!r}; "
                              f"expected one of {SWEEP_PARAMETERS}")
        if not self.start <= self.stop:
            raise ConfigError(f"sweep start must be <= stop, got {self.start}..{self.stop}")
        if self.steps < 2:
            raise ConfigError(f"sweep needs at least 2 steps, got {self.steps}")
        if self.mode not in MODES:
            raise ConfigError(f"sweep.mode: expected one of {tuple(MODES)}, got {self.mode!r}")
        if self.parameter == "element_count" and self.scenario.panel.cols == 0:
            raise ConfigError("ris.cols: an element_count sweep varies the rows of a panel "
                              "with at least one column, got 0")


_SWEEP_FIELDS = {f"sweep.{f.name}": f for f in fields(SweepSpec) if f.name != "scenario"}


def _sweep_value(key: str, value):
    return _parse(key, _PARSERS[_SWEEP_FIELDS[key].type], value)


def load_sweep_spec(path) -> SweepSpec:
    entries = parse_kv_file(path)
    scenario = _scenario_from_entries(entries)
    _reject_unknown_keys([k for k in entries if k.startswith("sweep.")], list(_SWEEP_FIELDS))
    values = {}
    for key, f in _SWEEP_FIELDS.items():
        if key in entries:
            values[f.name] = _sweep_value(key, entries[key])
        elif f.default is MISSING:
            raise ConfigError(f"{path}: missing required sweep key {key!r}")
    return SweepSpec(scenario=scenario, **values)


def sweep_entries(spec: SweepSpec) -> dict:
    """The spec's `sweep.*` config entries, as `load_sweep_spec` reads them."""
    values = ((key, getattr(spec, f.name)) for key, f in _SWEEP_FIELDS.items())
    return {key: v.value if isinstance(v, Enum) else v for key, v in values}


def sweep_values(spec: SweepSpec) -> list[float]:
    raw = np.linspace(spec.start, spec.stop, spec.steps)
    if spec.parameter != "element_count":
        return [float(v) for v in raw]
    # The panel keeps its column count and varies rows, so element counts
    # snap to multiples of the column count.
    cols = spec.scenario.panel.cols
    values = []
    for v in raw:
        n = cols * max(1, round(v / cols))
        if n not in values:
            values.append(n)
    return values


def scenario_at(spec: SweepSpec, value: float) -> Scenario:
    """The spec's scenario with its swept parameter at `value`; a value the
    scenario rejects is a ConfigError naming the parameter."""
    sc = spec.scenario
    try:
        if spec.parameter in POSITION_SWEEPS:
            name = POSITION_SWEEPS[spec.parameter]
            point = getattr(sc, name)
            return replace(sc, **{name: OrientedPoint([value, *point.position[1:]],
                                                      point.normal)})
        if spec.parameter == "element_count":
            rows = int(value) // sc.panel.cols
            return replace(sc, panel=replace(sc.panel, rows=rows))
        return replace(sc, p1=value, p2=value)  # power_both
    except ValueError as err:
        raise ConfigError(f"sweep {spec.parameter} = {value!r}: {err}") from err


def no_ris_rate_ue1(scenario: Scenario) -> float:
    """UE1's rate over the bare LOS link (no panel, hence no interference)."""
    return rates_from_gains(h_los(scenario), 0.0, scenario, DetectorScheme.SIC).r1


def _channels(scenario: Scenario):
    """`channel_set(scenario)`; geometry it cannot use, or powers that
    overflow the solver's float arithmetic, is a ConfigError."""
    try:
        ch = channel_set(scenario)
    except ValueError as err:
        raise ConfigError(f"invalid scenario geometry: {err}") from err
    try:
        check_float_range(ch, scenario)
    except ValueError as err:
        raise ConfigError(f"power.ue1, power.ue2, noise.variance: {err}") from err
    return ch


def _solve(channels, scenario: Scenario, scheme: DetectorScheme, mode: str):
    """Run the solver of `mode` (a key of MODES). Returns its SpcaResult."""
    return globals()[MODES[mode]](channels, scenario, scheme)


RESULT_HEADER = ["r1", "r2", "sum_rate", "ee", "iters", "converged"]
SWEEP_HEADER = ["swept_value", *RESULT_HEADER, "oracle_sum", "oracle_gap"]


def _result_row(result) -> list:
    """One solver result as the RESULT_HEADER columns."""
    rates = result.rates
    ee = "" if rates.energy_efficiency is None else repr(rates.energy_efficiency)
    return [repr(rates.r1), repr(rates.r2), repr(rates.sum), ee,
            result.iterations, int(result.converged)]


def _write_csv(path: Path, rows) -> None:
    """Write `rows` as a CSV file, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def run_sweep(spec: SweepSpec, out_dir) -> bool:
    """Execute a sweep; returns True iff every point converged.

    Every point's scenario and channel set is built before the first solve,
    so a point the scenario rejects fails the sweep before any work. Writes
    `sweep.csv` (one row per point), `no_ris.csv` with UE1's bare-LOS
    baseline for position sweeps, and `manifest.txt`.
    """
    out_dir = Path(out_dir)
    values = sweep_values(spec)
    scenarios = [scenario_at(spec, value) for value in values]
    channels = [_channels(scenario) for scenario in scenarios]
    rows = [SWEEP_HEADER]
    manifest = {**{f"scenario.{k}": v for k, v in scenario_entries(spec.scenario).items()},
                **sweep_entries(spec), **SPCA_ENTRIES, "tool.version": __version__}
    if spec.parameter == "power_both" and spec.start <= 0.0:
        manifest["note"] = "power sweeps must start above 0 W (efficiency is 0/0 there)"
    all_converged = True
    for value, scenario, ch in zip(values, scenarios, channels):
        t0 = time.perf_counter()
        result = _solve(ch, scenario, spec.scheme, spec.mode)
        elapsed = time.perf_counter() - t0
        all_converged = all_converged and result.converged
        oracle = ["", ""]
        if spec.oracle_check:
            best = vertex_enumerate(ch, scenario, spec.scheme).best_rates.sum
            oracle = [repr(best), repr(best - result.rates.sum)]
        rows.append([repr(value), *_result_row(result), *oracle])
        manifest[f"point.{value}.seconds"] = f"{elapsed:.6f}"
        manifest[f"point.{value}.converged"] = result.converged
    _write_csv(out_dir / "sweep.csv", rows)
    if spec.parameter in POSITION_SWEEPS:
        _write_csv(out_dir / "no_ris.csv", [["swept_value", "r1_no_ris"]] + [
            [repr(v), repr(no_ris_rate_ue1(sc))] for v, sc in zip(values, scenarios)])
    write_kv_file(manifest, out_dir / "manifest.txt")
    return all_converged


def _write_beta(beta: np.ndarray, panel, out_path) -> None:
    """Write `beta` as the panel's rows x cols reflection matrix in CSV."""
    matrix = beta.reshape(panel.rows, panel.cols)
    _write_csv(Path(out_path), ([repr(float(v)) for v in row] for row in matrix))


def _add_common(parser):
    parser.add_argument("--scenario", help="scenario config file (defaults to the built-in setup)")
    parser.add_argument("--scheme", choices=SCHEMES, default="sic")
    parser.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starvlc",
                                     description="STAR-RIS uplink VLC sum-rate tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimize a single scenario")
    _add_common(p)
    p.add_argument("--mode", choices=MODES, default="es")

    p = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    p.add_argument("spec", help="sweep spec file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--scheme", choices=SCHEMES, default=None)
    p.add_argument("--mode", choices=MODES, default=None)

    p = sub.add_parser("oracle", help="exact sum-rate optimum over the binary vertices")
    _add_common(p)

    p = sub.add_parser("scan", help="per-coordinate sum-rate scan at the optimum")
    _add_common(p)
    p.add_argument("--grid-points", type=int, default=101)
    return parser


def _single_scenario(args):
    """(scenario, channels, scheme) of a single-scenario command: the
    `--scenario` file (or the built-in setup), its channel set and `--scheme`."""
    scenario = load_scenario(args.scenario) if args.scenario else default_scenario()
    return scenario, _channels(scenario), DetectorScheme(args.scheme)


def _cmd_solve(args) -> int:
    scenario, ch, scheme = _single_scenario(args)
    result = _solve(ch, scenario, scheme, args.mode)
    rates, iters, converged = result.rates, result.iterations, result.converged
    out = Path(args.out)
    _write_csv(out / "solution.csv", [RESULT_HEADER, _result_row(result)])
    if scenario.panel.element_count:
        _write_beta(result.beta, scenario.panel, out / "beta.csv")
    manifest = {**{f"scenario.{k}": v for k, v in scenario_entries(scenario).items()},
                **SPCA_ENTRIES,
                "scheme": scheme.value, "mode": args.mode,
                "tool.version": __version__, "converged": converged}
    write_kv_file(manifest, out / "manifest.txt")
    print(f"r1={rates.r1:.6f} r2={rates.r2:.6f} sum={rates.sum:.6f} "
          f"iters={iters} converged={converged}")
    return 0 if converged else 2


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.spec)
    given = {"scheme": args.scheme, "mode": args.mode}
    spec = replace(spec, **{name: _sweep_value(f"sweep.{name}", value)
                            for name, value in given.items() if value is not None})
    return 0 if run_sweep(spec, args.out) else 2


def _cmd_oracle(args) -> int:
    scenario, ch, scheme = _single_scenario(args)
    report = vertex_enumerate(ch, scenario, scheme)
    best = report.best_rates
    _write_csv(Path(args.out) / "oracle.csv",
               [["sum_rate", "r1", "r2", "evaluations", "runtime_s"],
                [repr(best.sum), repr(best.r1), repr(best.r2), report.evaluations,
                 f"{report.runtime:.6f}"]])
    print(f"oracle sum-rate={best.sum:.6f} "
          f"({report.evaluations} vertices in {report.runtime:.3f}s)")
    return 0


def _cmd_scan(args) -> int:
    if args.grid_points < 3:
        raise ConfigError(f"--grid-points must be at least 3, got {args.grid_points}")
    scenario, ch, scheme = _single_scenario(args)
    result = spca_optimize(ch, scenario, scheme)
    values, argmax = coordinate_scan(ch, scenario, scheme, result.beta,
                                     grid_points=args.grid_points)
    header = ["element", "argmax"] + [f"v{j}" for j in range(values.shape[1])]
    _write_csv(Path(args.out) / "scan.csv",
               [header] + [[i, repr(float(argmax[i]))] + [repr(float(v)) for v in values[i]]
                           for i in range(values.shape[0])])
    print(f"scanned {values.shape[0]} coordinates at {values.shape[1]} grid points")
    return 0 if result.converged else 2


def main(argv=None) -> int:
    """Run one command. Exit code 0 on success, 1 on a usage, config or file
    error, 2 when the solver did not converge (its results are still written)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:  # argparse exits 0 after --help, 2 on a usage error
        return 1 if exit_.code else 0
    commands = {"solve": _cmd_solve, "sweep": _cmd_sweep, "oracle": _cmd_oracle,
                "scan": _cmd_scan}
    try:
        return commands[args.command](args)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
