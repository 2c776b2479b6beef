"""``--overhead-gate NAME=PCT`` parsing and judging in ``benchmarks/host_perf.py``."""

import pytest

from tests.test_host_perf_estimator import _host_perf


def test_overhead_gate_parses_name_and_percent():
    host_perf = _host_perf()
    assert host_perf._overhead_gate("tracer=2") == ("tracer", 2.0)
    assert host_perf._overhead_gate("traces=3.5") == ("traces", 3.5)


@pytest.mark.parametrize(
    "gate", ["bogus=2", "tracer=two", "tracer", "=2", "tracer=", "Tracer=2"]
)
def test_bad_overhead_gate_is_a_usage_error(gate, capsys):
    # Rejected while parsing arguments, before anything is measured.
    with pytest.raises(SystemExit) as exit_info:
        _host_perf().main(["--quick", "--overhead-gate", gate])
    assert exit_info.value.code == 2
    assert "--overhead-gate" in capsys.readouterr().err


def test_repeated_gates_are_judged_per_arm():
    host_perf = _host_perf()
    gates = dict(host_perf._overhead_gate(g) for g in ("tracer=2", "traces=3"))
    run = {
        "tracer_overhead": {"overhead_percent": 2.0},
        "traces_overhead": {"overhead_percent": 3.01},
    }
    failures = host_perf._failed_gates(run, gates)
    assert len(failures) == 1 and "traces overhead 3.01%" in failures[0]
    assert host_perf._failed_gates(run, {"tracer": 2.0}) == []


def test_every_arm_is_a_named_row():
    host_perf = _host_perf()
    assert set(host_perf.OVERHEAD_ARMS) == {
        "tracer", "monitor", "attack", "traces", "detect", "armed_traces",
    }
