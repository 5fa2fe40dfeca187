"""Experiment runner: scenario/sweep config parsing, sweep execution, CSV
output and a machine-readable run manifest.

Config files are flat key-value text with dotted keys, e.g.

    ue1.position = [3.5, 2.5, 1.0]
    source.half_angle_deg = 60.0

Angles are in degrees; all other quantities are SI (meters, watts, m^2).
Unknown keys are rejected; missing keys fall back to the default simulation
parameters (default room: 5 x 5 x 3 m rooms, AP on the room-1 ceiling,
10 x 8 panel in the wall between the rooms). Integer keys reject fractions
and `sweep.oracle_check` takes only True or False. `scenario_entries` and the
fields of `SweepSpec` are the only lists of config keys.
"""

from __future__ import annotations

import argparse
import ast
import csv
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from enum import Enum
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from .channel import OpticalFrontEnd, Scenario, channel_set
from .geometry import LambertianSource, OrientedPoint, RisPanel
from .link import DetectorScheme, rate
from .oracle import MAX_ENUM_ELEMENTS, coordinate_scan, vertex_enumerate
from .spca import (
    Objective,
    SpcaConfig,
    max_min_optimize,
    mode_switching_optimize,
    spca_optimize,
    time_sharing_optimize,
)

try:
    TOOL_VERSION = version("starvlc")
except PackageNotFoundError:
    TOOL_VERSION = "unknown"

# Position sweeps move one point along x: parameter -> Scenario field.
POSITION_SWEEPS = {"ue1_x": "ue1", "ue2_x": "ue2", "ap_x": "ap"}
SWEEP_PARAMETERS = (*POSITION_SWEEPS, "element_count", "power_both")
MODES = ("es", "ms")  # es = energy splitting, ms = mode switching
SCHEMES = [s.value for s in DetectorScheme]
OBJECTIVES = [o.value for o in Objective]


class ConfigError(ValueError):
    pass


def default_scenario() -> Scenario:
    return Scenario(
        ap=OrientedPoint([4.5, 2.5, 3.0], [0.0, 0.0, -1.0]),
        ue1=OrientedPoint([3.5, 2.5, 1.0], [0.0, 0.0, 1.0]),
        ue2=OrientedPoint([6.0, 2.5, 1.0], [0.0, 0.0, 1.0]),
        source=LambertianSource(half_angle_deg=60.0),
        panel=RisPanel(center=[5.0, 2.5, 1.5], rows=10, cols=8, pitch=0.1,
                       normal=[1.0, 0.0, 0.0]),
        front_end=OpticalFrontEnd(area=1.5e-4, fov_deg=85.0, gain=10.0,
                                  responsivity=0.7),
        p1=0.1,
        p2=0.1,
        noise_variance=1e-10,
    )


def parse_kv_file(path) -> dict:
    """Parse a flat key-value config file into a dict."""
    entries = {}
    text = Path(path).read_text()
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
        try:
            entries[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
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


def _boolean(value) -> bool:
    """`value` if it is True or False (a bare `false` parses as a string)."""
    if not isinstance(value, bool):
        raise ValueError(f"expected True or False, got {value!r}")
    return value


def _scenario_from_entries(entries: dict, base: Scenario | None = None) -> Scenario:
    """Scenario from config entries over `base` (default: the built-in one).

    `sweep.*` keys are left to `load_sweep_spec`; any other key that is not
    a scenario key is a ConfigError; `scenario_entries(base)` fills the rest.
    """
    cfg = scenario_entries(base or default_scenario())
    given = {k: v for k, v in entries.items() if not k.startswith("sweep.")}
    _reject_unknown_keys(given, list(cfg))
    cfg.update(given)
    rows, cols = (_parse(key, _integer, cfg[key]) for key in ("ris.rows", "ris.cols"))
    try:
        return Scenario(
            ap=OrientedPoint(cfg["ap.position"], cfg["ap.normal"]),
            ue1=OrientedPoint(cfg["ue1.position"], cfg["ue1.normal"]),
            ue2=OrientedPoint(cfg["ue2.position"], cfg["ue2.normal"]),
            source=LambertianSource(cfg["source.half_angle_deg"]),
            panel=RisPanel(center=cfg["ris.center"], rows=rows, cols=cols,
                           pitch=cfg["ris.pitch"], normal=cfg["ris.normal"]),
            front_end=OpticalFrontEnd(area=cfg["detector.area"], fov_deg=cfg["detector.fov_deg"],
                                      gain=cfg["detector.gain"],
                                      responsivity=cfg["detector.responsivity"]),
            p1=cfg["power.ue1"], p2=cfg["power.ue2"], noise_variance=cfg["noise.variance"],
        )
    except ValueError as err:
        raise ConfigError(f"invalid scenario: {err}") from err


def load_scenario(path) -> Scenario:
    """Default scenario overridden by any keys present in the file."""
    return _scenario_from_entries(parse_kv_file(path))


def scenario_entries(sc: Scenario) -> dict:
    as_floats = lambda v: [float(x) for x in v]
    return {
        "ap.position": as_floats(sc.ap.position),
        "ap.normal": as_floats(sc.ap.normal),
        "ue1.position": as_floats(sc.ue1.position),
        "ue1.normal": as_floats(sc.ue1.normal),
        "ue2.position": as_floats(sc.ue2.position),
        "ue2.normal": as_floats(sc.ue2.normal),
        "ris.center": as_floats(sc.panel.center),
        "ris.rows": sc.panel.rows,
        "ris.cols": sc.panel.cols,
        "ris.pitch": sc.panel.pitch,
        "ris.normal": as_floats(sc.panel.normal),
        "source.half_angle_deg": sc.source.half_angle_deg,
        "detector.area": sc.front_end.area,
        "detector.fov_deg": sc.front_end.fov_deg,
        "detector.gain": sc.front_end.gain,
        "detector.responsivity": sc.front_end.responsivity,
        "power.ue1": sc.p1,
        "power.ue2": sc.p2,
        "noise.variance": sc.noise_variance,
    }


def write_kv_file(entries: dict, path) -> None:
    lines = [f"{key} = {value!r}" for key, value in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def write_scenario(scenario: Scenario, path) -> None:
    write_kv_file(scenario_entries(scenario), path)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep. Each field but `scenario` is the config key `sweep.<field>`,
    parsed by its annotation and required when it has no default."""

    parameter: str
    start: float
    stop: float
    steps: int
    scenario: Scenario
    objective: Objective = Objective.SUM_RATE
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
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


_SWEEP_FIELDS = {f"sweep.{f.name}": f for f in fields(SweepSpec) if f.name != "scenario"}
_PARSERS = {"str": str, "float": float, "int": _integer, "bool": _boolean,
            "Objective": Objective, "DetectorScheme": DetectorScheme}


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
    sc = spec.scenario
    if spec.parameter in POSITION_SWEEPS:
        name = POSITION_SWEEPS[spec.parameter]
        point = getattr(sc, name)
        return replace(sc, **{name: OrientedPoint([value, *point.position[1:]], point.normal)})
    if spec.parameter == "element_count":
        rows = int(value) // sc.panel.cols
        return replace(sc, panel=replace(sc.panel, rows=rows))
    if spec.parameter == "power_both":
        return replace(sc, p1=value, p2=value)
    raise ConfigError(f"unknown sweep parameter {spec.parameter!r}")


def no_ris_rate_ue1(scenario: Scenario) -> float:
    """UE1's rate over the bare LOS link (no panel, hence no interference)."""
    bare = replace(scenario, panel=replace(scenario.panel, rows=0))
    ch = channel_set(bare)
    s1 = (scenario.front_end.responsivity * ch.h_los * scenario.p1) ** 2
    return rate(s1 / scenario.noise_variance)


def _solve(channels, scenario: Scenario, scheme: DetectorScheme, objective: Objective,
           mode: str, config: SpcaConfig):
    """Run the solver for `objective`; `mode` ("es" or "ms") selects between
    continuous and binary coefficients for the sum rate. Returns its
    SpcaResult or TimeSharingResult."""
    if objective is Objective.TIME_SHARING:
        return time_sharing_optimize(channels, scenario, scheme, config)
    if objective is Objective.MAX_MIN:
        return max_min_optimize(channels, scenario, scheme, config)
    if mode == "ms":
        return mode_switching_optimize(channels, scenario, scheme, config)
    return spca_optimize(channels, scenario, scheme, config)


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


def run_sweep(spec: SweepSpec, out_dir, config: SpcaConfig | None = None,
              seed: int | None = None) -> bool:
    """Execute a sweep; returns True iff every point converged.

    Writes `sweep.csv` (one row per point), `no_ris.csv` with UE1's bare-LOS
    baseline for position sweeps, and `manifest.txt`.
    """
    config = config or SpcaConfig()
    out_dir = Path(out_dir)
    values = sweep_values(spec)
    rows = [SWEEP_HEADER]
    manifest = {**{f"scenario.{k}": v for k, v in scenario_entries(spec.scenario).items()},
                **sweep_entries(spec), **{f"spca.{k}": v for k, v in asdict(config).items()},
                "tool.version": TOOL_VERSION, "seed": seed}
    if spec.parameter == "power_both" and spec.start <= 0.0:
        manifest["note"] = "power sweeps must start above 0 W (efficiency is 0/0 there)"
    all_converged = True
    for value in values:
        scenario = scenario_at(spec, value)
        t0 = time.perf_counter()
        ch = channel_set(scenario)
        result = _solve(ch, scenario, spec.scheme, spec.objective, spec.mode, config)
        elapsed = time.perf_counter() - t0
        all_converged = all_converged and result.converged
        oracle = ["", ""]
        if spec.oracle_check and ch.element_count <= MAX_ENUM_ELEMENTS:
            best = vertex_enumerate(ch, scenario, spec.scheme).best_rates.sum
            oracle = [repr(best), repr(best - result.rates.sum)]
        rows.append([repr(value), *_result_row(result), *oracle])
        manifest[f"point.{value}.seconds"] = f"{elapsed:.6f}"
        manifest[f"point.{value}.converged"] = result.converged
    _write_csv(out_dir / "sweep.csv", rows)
    if spec.parameter in POSITION_SWEEPS:
        _write_csv(out_dir / "no_ris.csv", [["swept_value", "r1_no_ris"]] + [
            [repr(v), repr(no_ris_rate_ue1(scenario_at(spec, v)))] for v in values])
    write_kv_file(manifest, out_dir / "manifest.txt")
    return all_converged


def _write_beta(beta: np.ndarray, panel, out_path) -> np.ndarray:
    """Write `beta` as the panel's rows x cols reflection matrix in CSV."""
    matrix = beta.reshape(panel.rows, panel.cols)
    _write_csv(Path(out_path), ([repr(float(v)) for v in row] for row in matrix))
    return matrix


def dump_beta(scenario: Scenario, scheme: DetectorScheme, out_path,
              config: SpcaConfig | None = None, mode: str = "es") -> np.ndarray:
    """Solve the scenario and write the rows x cols reflection matrix as CSV."""
    ch = channel_set(scenario)
    result = _solve(ch, scenario, scheme, Objective.SUM_RATE, mode, config or SpcaConfig())
    return _write_beta(result.beta, scenario.panel, out_path)


def _add_common(parser):
    parser.add_argument("--scenario", help="scenario config file (defaults to the built-in setup)")
    parser.add_argument("--scheme", choices=SCHEMES, default="sic")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starvlc",
                                     description="STAR-RIS uplink VLC sum-rate tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimize a single scenario")
    _add_common(p)
    p.add_argument("--mode", choices=MODES, default="es")
    p.add_argument("--objective", choices=OBJECTIVES, default="sum")

    p = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    p.add_argument("spec", help="sweep spec file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--scheme", choices=SCHEMES, default=None)
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--objective", choices=OBJECTIVES, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("oracle", help="exhaustive binary-vertex check (small panels)")
    _add_common(p)

    p = sub.add_parser("scan", help="per-coordinate sum-rate scan at the optimum")
    _add_common(p)
    p.add_argument("--grid-points", type=int, default=101)
    return parser


def _load_or_default(path) -> Scenario:
    return load_scenario(path) if path else default_scenario()


def _cmd_solve(args) -> int:
    scenario = _load_or_default(args.scenario)
    ch = channel_set(scenario)
    scheme = DetectorScheme(args.scheme)
    config = SpcaConfig()
    result = _solve(ch, scenario, scheme, Objective(args.objective), args.mode, config)
    rates, iters, converged = result.rates, result.iterations, result.converged
    out = Path(args.out)
    _write_csv(out / "solution.csv", [RESULT_HEADER, _result_row(result)])
    if args.objective == "sum" and scenario.panel.rows * scenario.panel.cols:
        _write_beta(result.beta, scenario.panel, out / "beta.csv")
    manifest = {**{f"scenario.{k}": v for k, v in scenario_entries(scenario).items()},
                **{f"spca.{k}": v for k, v in asdict(config).items()},
                "scheme": scheme.value, "mode": args.mode, "objective": args.objective,
                "tool.version": TOOL_VERSION, "seed": args.seed, "converged": converged}
    write_kv_file(manifest, out / "manifest.txt")
    print(f"r1={rates.r1:.6f} r2={rates.r2:.6f} sum={rates.sum:.6f} "
          f"iters={iters} converged={converged}")
    return 0 if converged else 2


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.spec)
    given = {"scheme": args.scheme, "mode": args.mode, "objective": args.objective}
    spec = replace(spec, **{name: _sweep_value(f"sweep.{name}", value)
                            for name, value in given.items() if value is not None})
    return 0 if run_sweep(spec, args.out, seed=args.seed) else 2


def _cmd_oracle(args) -> int:
    scenario = _load_or_default(args.scenario)
    ch = channel_set(scenario)
    report = vertex_enumerate(ch, scenario, DetectorScheme(args.scheme))
    best = report.best_rates
    _write_csv(Path(args.out) / "oracle.csv",
               [["sum_rate", "r1", "r2", "evaluations", "runtime_s"],
                [repr(best.sum), repr(best.r1), repr(best.r2), report.evaluations,
                 f"{report.runtime:.6f}"]])
    print(f"oracle sum-rate={best.sum:.6f} "
          f"({report.evaluations} vertices in {report.runtime:.3f}s)")
    return 0


def _cmd_scan(args) -> int:
    scenario = _load_or_default(args.scenario)
    ch = channel_set(scenario)
    scheme = DetectorScheme(args.scheme)
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
    args = build_parser().parse_args(argv)
    commands = {"solve": _cmd_solve, "sweep": _cmd_sweep, "oracle": _cmd_oracle,
                "scan": _cmd_scan}
    try:
        return commands[args.command](args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
