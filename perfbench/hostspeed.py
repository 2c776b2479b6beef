"""Host-speed sampling, so times taken at different moments compare.

A shared host's CPU speed drifts by tens of percent over seconds to
minutes, and a run's raw host times drift with it.  :class:`HostSpeed`
runs a fixed piece of reference work (a *burst*, independent of the
simulator) between the timed ops, every ``REF_EVERY_NS`` of host time,
and around every set-up.  A speed factor is a mean burst time divided by
``REF_NOMINAL_NS``: above 1 the host ran slower than nominal.  Dividing a
raw host time by the factor of the bursts around it gives the time it
would have taken on a host where one burst takes ``REF_NOMINAL_NS``.
The bursts run outside the timed ops and with the garbage collector
paused, so no op pays for them and no collection the program triggered
is moved into them.
"""

from __future__ import annotations

import gc
import hashlib
import json
from time import perf_counter_ns
from typing import List

#: Host time between two bursts in a timed phase.
REF_EVERY_NS = 50_000_000
#: Bursts taken before and after each set-up.
SETUP_BURSTS = 5
#: Bursts either side of an op that set its local speed factor.
LOCAL_BURSTS = 2
#: Iterations of the codec-and-hash loop per burst.
REF_ITERATIONS = 60
#: Mean burst time on the host the baseline was taken on (2-vCPU shared
#: x86-64, CPython 3.11).  Only a scale: every time is divided by the
#: same factor on both sides of a comparison.
REF_NOMINAL_NS = 1_500_000

_DOC = {"a": [1, 2, 3, {"b": "x" * 20}], "c": {"d": 1.5, "e": [True, None]},
        "f": "y" * 50}
_BLOB = bytes(range(256)) * 4
_P25519 = 2**255 - 19


def _reference() -> int:
    """A fixed mix of the kinds of work the simulator does per op: JSON
    encode and decode, SHA-256, byte-wise loops and 255-bit modular
    arithmetic.  Among the candidates tried (this mix, object-and-dict
    churn, pointer chasing over a large list), its time tracked the
    workloads' op time most closely from one run to the next."""
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += len(json.loads(json.dumps(_DOC)))
        acc ^= hashlib.sha256(_BLOB + i.to_bytes(2, "big")).digest()[0]
        acc ^= int.from_bytes(bytes(b ^ 0x5A for b in _BLOB[:64]), "big") & 1
    x = 9
    for _ in range(6):
        x = pow(x, 65537, _P25519)
    y = 1
    for i in range(200):
        y = y * (x + i) % _P25519
    return acc ^ (y & 1)


class HostSpeed:
    """Reference-burst samples of one run and the speed factors they give."""

    def __init__(self) -> None:
        _reference()  # warm-up: the first call pays one-off costs
        self.samples: List[int] = []
        #: Per op of the last :meth:`run_ops`: how many bursts preceded it.
        self.window: List[int] = []

    def burst(self, count: int = 1) -> float:
        """Take ``count`` bursts; returns their speed factor."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                begin = perf_counter_ns()
                _reference()
                self.samples.append(perf_counter_ns() - begin)
        finally:
            if enabled:
                gc.enable()
        return sum(self.samples[-count:]) / count / REF_NOMINAL_NS

    @property
    def factor(self) -> float:
        """Mean burst time of the run ÷ ``REF_NOMINAL_NS``."""
        return sum(self.samples) / len(self.samples) / REF_NOMINAL_NS

    def run_ops(self, ops, run_op) -> int:
        """Run every op through ``run_op(index, op)``, with a burst between
        ops every ``REF_EVERY_NS``.  Returns the timed wall ns, bursts
        excluded."""
        window = self.window = [0] * len(ops)
        samples = self.samples
        spent = 0
        started = perf_counter_ns()
        next_burst = started + REF_EVERY_NS
        for index, op in enumerate(ops):
            window[index] = len(samples)
            run_op(index, op)
            paused = perf_counter_ns()
            if paused >= next_burst:
                self.burst()
                next_burst = perf_counter_ns()
                spent += next_burst - paused
                next_burst += REF_EVERY_NS
        return perf_counter_ns() - started - spent

    def scaled(self, values: List[int]) -> List[float]:
        """Per-op host times of the last :meth:`run_ops` at the nominal
        speed: each divided by the factor of the ``LOCAL_BURSTS`` bursts
        before and the ``LOCAL_BURSTS + 1`` after its op.  Local factors
        follow the host's swings within a run, which one factor per run
        averages away."""
        prefix = [0]
        for sample in self.samples:
            prefix.append(prefix[-1] + sample)
        last = len(self.samples)
        factors: dict = {}
        result = []
        for value, at in zip(values, self.window):
            factor = factors.get(at)
            if factor is None:
                low = max(0, at - LOCAL_BURSTS)
                high = min(last, at + LOCAL_BURSTS + 1)
                factor = factors[at] = (
                    (prefix[high] - prefix[low]) / (high - low) / REF_NOMINAL_NS
                )
            result.append(value / factor)
        return result
