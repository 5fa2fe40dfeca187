"""Experiment runner: scenario/sweep config parsing, sweep execution, CSV
output and a machine-readable run manifest.

Config files are flat key-value text with dotted keys, e.g.

    ue1.position = [3.5, 2.5, 1.0]
    source.half_angle_deg = 60.0

Angles are in degrees; all other quantities are SI (meters, watts, m^2).
Unknown keys are rejected; missing keys fall back to the default simulation
parameters (default room: 5 x 5 x 3 m rooms, AP on the room-1 ceiling,
10 x 8 panel in the wall between the rooms).
"""

from __future__ import annotations

import argparse
import ast
import csv
import sys
import time
from dataclasses import dataclass, replace
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

SWEEP_PARAMETERS = ("ue1_x", "ue2_x", "ap_x", "element_count", "power_both")
SWEEP_KEYS = ("sweep.parameter", "sweep.start", "sweep.stop", "sweep.steps",
              "sweep.objective", "sweep.scheme", "sweep.mode", "sweep.oracle_check")


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


def _scenario_from_entries(entries: dict, base: Scenario | None = None) -> Scenario:
    """Scenario from config entries over `base` (default: the built-in one).

    `sweep.*` keys are left to `load_sweep_spec`; any other key that is not
    a scenario key is a ConfigError.
    """
    sc = base or default_scenario()
    _reject_unknown_keys([k for k in entries if not k.startswith("sweep.")],
                         list(scenario_entries(sc)))

    def get(key, default):
        return entries.get(key, default)

    try:
        return Scenario(
            ap=OrientedPoint(get("ap.position", sc.ap.position),
                             get("ap.normal", sc.ap.normal)),
            ue1=OrientedPoint(get("ue1.position", sc.ue1.position),
                              get("ue1.normal", sc.ue1.normal)),
            ue2=OrientedPoint(get("ue2.position", sc.ue2.position),
                              get("ue2.normal", sc.ue2.normal)),
            source=LambertianSource(get("source.half_angle_deg",
                                        sc.source.half_angle_deg)),
            panel=RisPanel(center=get("ris.center", sc.panel.center),
                           rows=int(get("ris.rows", sc.panel.rows)),
                           cols=int(get("ris.cols", sc.panel.cols)),
                           pitch=get("ris.pitch", sc.panel.pitch),
                           normal=get("ris.normal", sc.panel.normal)),
            front_end=OpticalFrontEnd(
                area=get("detector.area", sc.front_end.area),
                fov_deg=get("detector.fov_deg", sc.front_end.fov_deg),
                gain=get("detector.gain", sc.front_end.gain),
                responsivity=get("detector.responsivity", sc.front_end.responsivity),
            ),
            p1=get("power.ue1", sc.p1),
            p2=get("power.ue2", sc.p2),
            noise_variance=get("noise.variance", sc.noise_variance),
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
    parameter: str
    start: float
    stop: float
    steps: int
    scenario: Scenario
    objective: Objective = Objective.SUM_RATE
    scheme: DetectorScheme = DetectorScheme.SIC
    mode: str = "es"  # es = energy splitting, ms = mode switching
    oracle_check: bool = False

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"unknown sweep parameter {self.parameter!r}; "
                              f"expected one of {SWEEP_PARAMETERS}")
        if not self.start <= self.stop:
            raise ConfigError(f"sweep start must be <= stop, got {self.start}..{self.stop}")
        if self.steps < 2:
            raise ConfigError(f"sweep needs at least 2 steps, got {self.steps}")
        if self.mode not in ("es", "ms"):
            raise ConfigError(f"mode must be 'es' or 'ms', got {self.mode!r}")


def load_sweep_spec(path) -> SweepSpec:
    entries = parse_kv_file(path)
    scenario = _scenario_from_entries(entries)
    _reject_unknown_keys([k for k in entries if k.startswith("sweep.")], SWEEP_KEYS)
    try:
        parameter = entries["sweep.parameter"]
        start = float(entries["sweep.start"])
        stop = float(entries["sweep.stop"])
        steps = int(entries["sweep.steps"])
    except KeyError as err:
        raise ConfigError(f"{path}: missing required sweep key {err}") from err
    return SweepSpec(
        parameter=parameter,
        start=start,
        stop=stop,
        steps=steps,
        scenario=scenario,
        objective=Objective(entries.get("sweep.objective", "sum")),
        scheme=DetectorScheme(entries.get("sweep.scheme", "sic")),
        mode=entries.get("sweep.mode", "es"),
        oracle_check=bool(entries.get("sweep.oracle_check", False)),
    )


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
    if spec.parameter == "ue1_x":
        pos = sc.ue1.position.copy()
        pos[0] = value
        return replace(sc, ue1=OrientedPoint(pos, sc.ue1.normal))
    if spec.parameter == "ue2_x":
        pos = sc.ue2.position.copy()
        pos[0] = value
        return replace(sc, ue2=OrientedPoint(pos, sc.ue2.normal))
    if spec.parameter == "ap_x":
        pos = sc.ap.position.copy()
        pos[0] = value
        return replace(sc, ap=OrientedPoint(pos, sc.ap.normal))
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


SWEEP_HEADER = ["swept_value", "r1", "r2", "sum_rate", "ee", "iters",
                "converged", "oracle_sum", "oracle_gap"]


def run_sweep(spec: SweepSpec, out_dir, config: SpcaConfig | None = None,
              seed: int | None = None) -> bool:
    """Execute a sweep; returns True iff every point converged.

    Writes `sweep.csv` (one row per point), `no_ris.csv` with UE1's bare-LOS
    baseline for position sweeps, and `manifest.txt`.
    """
    config = config or SpcaConfig()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    values = sweep_values(spec)
    rows = []
    baseline_rows = []
    manifest = {}
    manifest.update({f"scenario.{k}": v for k, v in scenario_entries(spec.scenario).items()})
    manifest.update({
        "sweep.parameter": spec.parameter,
        "sweep.start": spec.start,
        "sweep.stop": spec.stop,
        "sweep.steps": spec.steps,
        "sweep.objective": spec.objective.value,
        "sweep.scheme": spec.scheme.value,
        "sweep.mode": spec.mode,
        "sweep.oracle_check": spec.oracle_check,
        "spca.theta_init": config.theta_init,
        "spca.tolerance": config.tolerance,
        "spca.max_outer_iterations": config.max_outer_iterations,
        "spca.inner_tolerance": config.inner_tolerance,
        "spca.max_inner_iterations": config.max_inner_iterations,
        "tool.version": TOOL_VERSION,
        "seed": seed,
    })
    if spec.parameter == "power_both" and spec.start <= 0.0:
        manifest["note"] = "power sweeps must start above 0 W (efficiency is 0/0 there)"
    all_converged = True
    for value in values:
        scenario = scenario_at(spec, value)
        t0 = time.perf_counter()
        ch = channel_set(scenario)
        result = _solve(ch, scenario, spec.scheme, spec.objective, spec.mode, config)
        elapsed = time.perf_counter() - t0
        rates, iters, converged = result.rates, result.iterations, result.converged
        all_converged = all_converged and converged
        oracle_sum = ""
        oracle_gap = ""
        if spec.oracle_check and ch.element_count <= MAX_ENUM_ELEMENTS:
            report = vertex_enumerate(ch, scenario, spec.scheme)
            oracle_sum = repr(report.best_rates.sum)
            oracle_gap = repr(report.best_rates.sum - rates.sum)
        ee = "" if rates.energy_efficiency is None else repr(rates.energy_efficiency)
        rows.append([repr(value), repr(rates.r1), repr(rates.r2), repr(rates.sum),
                     ee, iters, int(converged), oracle_sum, oracle_gap])
        manifest[f"point.{value}.seconds"] = f"{elapsed:.6f}"
        manifest[f"point.{value}.converged"] = converged
        if spec.parameter in ("ue1_x", "ue2_x", "ap_x"):
            baseline_rows.append([repr(value), repr(no_ris_rate_ue1(scenario))])
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        writer.writerows(rows)
    if baseline_rows:
        with open(out_dir / "no_ris.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["swept_value", "r1_no_ris"])
            writer.writerows(baseline_rows)
    write_kv_file(manifest, out_dir / "manifest.txt")
    return all_converged


def _write_beta(beta: np.ndarray, panel, out_path) -> np.ndarray:
    """Write `beta` as the panel's rows x cols reflection matrix in CSV."""
    matrix = beta.reshape(panel.rows, panel.cols)
    with open(out_path, "w", newline="") as fh:
        csv.writer(fh).writerows([repr(float(v)) for v in row] for row in matrix)
    return matrix


def dump_beta(scenario: Scenario, scheme: DetectorScheme, out_path,
              config: SpcaConfig | None = None, mode: str = "es") -> np.ndarray:
    """Solve the scenario and write the rows x cols reflection matrix as CSV."""
    ch = channel_set(scenario)
    result = _solve(ch, scenario, scheme, Objective.SUM_RATE, mode, config or SpcaConfig())
    return _write_beta(result.beta, scenario.panel, out_path)


def _add_common(parser):
    parser.add_argument("--scenario", help="scenario config file (defaults to the built-in setup)")
    parser.add_argument("--scheme", choices=["sud", "sic"], default="sic")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starvlc",
                                     description="STAR-RIS uplink VLC sum-rate tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimize a single scenario")
    _add_common(p)
    p.add_argument("--mode", choices=["es", "ms"], default="es")
    p.add_argument("--objective", choices=["sum", "timeshare", "maxmin"], default="sum")

    p = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    p.add_argument("spec", help="sweep spec file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--scheme", choices=["sud", "sic"], default=None)
    p.add_argument("--mode", choices=["es", "ms"], default=None)
    p.add_argument("--objective", choices=["sum", "timeshare", "maxmin"], default=None)
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
    result = _solve(ch, scenario, scheme, Objective(args.objective), args.mode, SpcaConfig())
    rates, iters, converged = result.rates, result.iterations, result.converged
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "solution.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r1", "r2", "sum_rate", "ee", "iters", "converged"])
        ee = "" if rates.energy_efficiency is None else repr(rates.energy_efficiency)
        writer.writerow([repr(rates.r1), repr(rates.r2), repr(rates.sum), ee,
                         iters, int(converged)])
    if args.objective == "sum" and scenario.panel.rows * scenario.panel.cols:
        _write_beta(result.beta, scenario.panel, out / "beta.csv")
    manifest = {f"scenario.{k}": v for k, v in scenario_entries(scenario).items()}
    manifest.update({"scheme": scheme.value, "mode": args.mode,
                     "objective": args.objective, "tool.version": TOOL_VERSION,
                     "seed": args.seed, "converged": converged})
    write_kv_file(manifest, out / "manifest.txt")
    print(f"r1={rates.r1:.6f} r2={rates.r2:.6f} sum={rates.sum:.6f} "
          f"iters={iters} converged={converged}")
    return 0 if converged else 2


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.spec)
    if args.scheme:
        spec = replace(spec, scheme=DetectorScheme(args.scheme))
    if args.mode:
        spec = replace(spec, mode=args.mode)
    if args.objective:
        spec = replace(spec, objective=Objective(args.objective))
    ok = run_sweep(spec, args.out, seed=args.seed)
    return 0 if ok else 2


def _cmd_oracle(args) -> int:
    scenario = _load_or_default(args.scenario)
    ch = channel_set(scenario)
    report = vertex_enumerate(ch, scenario, DetectorScheme(args.scheme))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "oracle.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sum_rate", "r1", "r2", "evaluations", "runtime_s"])
        writer.writerow([repr(report.best_rates.sum), repr(report.best_rates.r1),
                         repr(report.best_rates.r2), report.evaluations,
                         f"{report.runtime:.6f}"])
    print(f"oracle sum-rate={report.best_rates.sum:.6f} "
          f"({report.evaluations} vertices in {report.runtime:.3f}s)")
    return 0


def _cmd_scan(args) -> int:
    scenario = _load_or_default(args.scenario)
    ch = channel_set(scenario)
    scheme = DetectorScheme(args.scheme)
    result = spca_optimize(ch, scenario, scheme)
    values, argmax = coordinate_scan(ch, scenario, scheme, result.beta,
                                     grid_points=args.grid_points)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scan.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "argmax"] +
                        [f"v{j}" for j in range(values.shape[1])])
        for i in range(values.shape[0]):
            writer.writerow([i, repr(float(argmax[i]))] +
                            [repr(float(v)) for v in values[i]])
    print(f"scanned {values.shape[0]} coordinates at {values.shape[1]} grid points")
    return 0 if result.converged else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "scan":
            return _cmd_scan(args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
