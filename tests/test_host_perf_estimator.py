"""The paired-overhead estimator of ``benchmarks/host_perf.py``.

The overhead gates and the tracked armed-feature costs all read this
estimator, so it must not be biased under a real overhead.
"""

import importlib.util
import pathlib
import random

import pytest

_HOST_PERF = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "host_perf.py"


def _host_perf():
    spec = importlib.util.spec_from_file_location("host_perf", _HOST_PERF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _abs_trim_overhead(bases, deltas, trim=0.10):
    """The former estimator: drop the 10% largest-|delta| pairs."""
    count = len(deltas)
    keep = sorted(range(count), key=lambda i: abs(deltas[i]))[
        : count - int(count * trim)
    ]
    base_s = sum(bases[i] for i in keep)
    return 100.0 * sum(deltas[i] for i in keep) / base_s


def _synthetic_pairs():
    """150 pairs at a true +20% overhead: 1 ms bases, deltas of 0.2 ms
    plus symmetric noise, and a few 5 ms stalls in each arm."""
    rng = random.Random(0)
    noise = [rng.gauss(0.0, 0.1) for _ in range(71)]
    deltas = [0.2 + e for e in noise] + [0.2 - e for e in noise]
    deltas += [0.2 + 5.0] * 4 + [0.2 - 5.0] * 4
    bases = [1.0] * len(deltas)
    return bases, deltas


def test_signed_rank_trim_recovers_a_known_overhead():
    bases, deltas = _synthetic_pairs()
    estimate = _host_perf()._overhead_estimate(bases, deltas)
    assert estimate["overhead_percent"] == pytest.approx(20.0, abs=0.01)
    assert estimate["trimmed_pairs"] == 14  # 7 from each tail


def test_absolute_delta_trim_under_reads_the_same_pairs():
    bases, deltas = _synthetic_pairs()
    assert _abs_trim_overhead(bases, deltas) < 19.5  # reads 18.86


def test_zero_overhead_reads_zero():
    bases, deltas = _synthetic_pairs()
    centred = [d - 0.2 for d in deltas]
    estimate = _host_perf()._overhead_estimate(bases, centred)
    assert estimate["overhead_percent"] == pytest.approx(0.0, abs=0.01)
