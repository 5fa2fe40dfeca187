import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_repeats_and_sees_a_last_bit(monkeypatch):
    """The digest of a workload's small batch repeats run to run, and moving
    one op's last trace objective by one ulp changes it."""
    tool = load_tool()
    ops = tool.workloads.build_ops("fairness-power", 1, small=True)
    first = tool.workload_digest(ops)
    assert len(first) == 64 and tool.workload_digest(ops) == first
    target = next(op for op in ops if op.kind != "ts")  # time-sharing keeps no trace
    run = tool.workloads.run_library

    def nudged(op, api):
        channels, result = run(op, api)
        if op is target:
            last = result.trace[-1]
            last = replace(last, objective=float(np.nextafter(last.objective, np.inf)))
            result = replace(result, trace=[*result.trace[:-1], last])
        return channels, result
    monkeypatch.setattr(tool.workloads, "run_library", nudged)
    assert tool.workload_digest(ops) != first


def test_channel_digest_sees_a_last_bit_of_a_relayed_gain(monkeypatch):
    """Moving one `h_reflect` entry of one op's channel set by one ulp
    changes the channel digest and leaves the output digest as it is."""
    tool = load_tool()
    ops = tool.workloads.build_ops("panels-continuous", 1, small=True)
    outputs, channels = tool.workload_digests(ops)
    assert len(channels) == 64 and channels != outputs
    target = ops[len(ops) // 2]
    run = tool.workloads.run_library

    def nudged(op, api):
        ch, result = run(op, api)
        if op is target:
            h_reflect = ch.h_reflect.copy()
            i = int(np.flatnonzero(h_reflect)[0])
            h_reflect[i] = np.nextafter(h_reflect[i], np.inf)
            ch = replace(ch, h_reflect=h_reflect)
        return ch, result
    monkeypatch.setattr(tool.workloads, "run_library", nudged)
    nudged_outputs, nudged_channels = tool.workload_digests(ops)
    assert nudged_outputs == outputs and nudged_channels != channels


def test_trace_pairs_digest_alike_as_tuples_and_arrays():
    """A result whose trace holds theta, u and v as tuples digests the same
    as the same result holding them as float64 arrays, and moving one entry
    of one tuple by one ulp changes the digest."""
    tool = load_tool()
    op = next(op for op in tool.workloads.build_ops("fairness-power", 1, small=True)
              if op.kind != "ts")  # time-sharing keeps no trace
    _, result = tool.workloads.run_library(op, tool.workloads.library_api())
    assert result.trace

    def with_pairs(pair, nudge=False):
        trace = [replace(e, state=replace(e.state, theta=pair(e.state.theta),
                                          u=pair(e.state.u), v=pair(e.state.v)))
                 for e in result.trace]
        if nudge:
            last = trace[-1].state
            u = (float(np.nextafter(last.u[0], np.inf)), last.u[1])
            trace[-1] = replace(trace[-1], state=replace(last, u=pair(u)))
        h = hashlib.sha256()
        tool.result_digest(h, replace(result, trace=trace))
        return h.hexdigest()

    def as_tuple(pair):
        return tuple(map(float, pair))

    as_tuples = with_pairs(as_tuple)
    assert as_tuples == with_pairs(lambda pair: np.array(pair, dtype=float))
    assert with_pairs(as_tuple, nudge=True) != as_tuples


def test_workload_option_picks_one_workload(monkeypatch, capsys):
    """`--workload fairness-power` prints only that workload's line."""
    tool = load_tool()
    build = tool.workloads.build_ops
    monkeypatch.setattr(tool.workloads, "build_ops",
                        lambda name, seed: build(name, seed, small=True))
    assert tool.main(["--seed", "1", "--workload", "fairness-power"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fairness-power ")


def test_unknown_workload_exits_2(capsys):
    tool = load_tool()
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["--seed", "1", "--workload", "panels"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
