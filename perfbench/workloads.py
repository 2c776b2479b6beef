"""The benchmark's three workloads, driven through the simulator's public API.

Each workload is built in two steps: :func:`build` does all set-up work
(testbed build and warm-up, subscriber provisioning, population
pre-attach, storm generation) and returns a :class:`Workload` whose
``ops`` list the timed loop walks, one closed-loop op at a time.  The
amount of work is a pure function of ``(name, seed, seconds)``, so a
seed always reproduces the same simulated run, and :meth:`Workload.digest`
summarises that run's simulated output for the correctness gate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.harness import warmed_testbed
from repro.obs.detect import AdmissionGovernor, AttackClassifier
from repro.obs.scrape import Scraper
from repro.obs.slo import SojournSlo, default_slos
from repro.obs.trace import Tracer, TraceStore
from repro.paka.deploy import IsolationMode
from repro.security.attacks import AttackPlane, generate_storm

NS_PER_S = 1_000_000_000

#: Ops per ``--seconds`` of run length.  Sized so a run on a 2-vCPU host
#: takes roughly ``--seconds`` of host time; the op count, not host
#: speed, fixes the simulated work, so every run of a seed is identical.
ATTACH_OPS_PER_SECOND = 180
REREGISTER_OPS_PER_SECOND = 120
#: Simulated storm horizon per ``--seconds`` of run length.
STORM_SIM_SECONDS_PER_SECOND = 11.0
#: At least this many timed ops, so op_ms_p99 has >= 10 samples beyond it.
MIN_OPS = 1000

#: reregister_traced: returning subscribers cycled round-robin.
REREGISTER_POPULATION = 200
#: reregister_traced: healthy traces kept 1 in N by head sampling.
TRACE_SAMPLE_EVERY = 8

#: storm_governed traffic, matching the survivability "governed" arm.
STORM_RATE_PER_S = 400.0
LEGIT_PER_SIM_S = 2.5
#: Every 4th legitimate arrival is a fresh SUCI attach, the other three
#: re-register with a held 5G-GUTI.
INITIAL_EVERY = 4
DEADLINE_MS = 250.0
#: The storm comes in waves this long, each followed by a quiet gap long
#: enough for the governor to stand down before the next wave.
STORM_WAVE_S = 15.0
STORM_GAP_S = 12.0

def _sgx_stats(testbed) -> Dict[str, Dict[str, Any]]:
    return {
        name: asdict(module.runtime.sgx_stats)
        for name, module in sorted(testbed.paka.modules.items())
    }


def _servers(testbed) -> List[Any]:
    nfs = (
        testbed.nrf, testbed.udr, *testbed.udms, *testbed.ausfs,
        *testbed.amfs, testbed.smf, testbed.upf,
    )
    return [nf.server for nf in nfs] + list(testbed.module_servers().values())


def _counters(testbed) -> Dict[str, Any]:
    """Exact counts read from the program's public state."""
    return {
        "clock_ns": testbed.host.clock.now_ns,
        "sgx": _sgx_stats(testbed),
        "events": len(testbed.host.events),
        "sbi_requests": sum(server.requests_served for server in _servers(testbed)),
        "registrations_attempted": testbed.gnb.registrations_attempted,
        "registrations_succeeded": testbed.gnb.registrations_succeeded,
    }


class Workload:
    """A built workload: its timed ops and the state they act on."""

    def __init__(self, name: str, testbed) -> None:
        self.name = name
        self.testbed = testbed
        #: One zero-argument callable per timed op, in the order they run.
        self.ops: List[Callable[[], None]] = []
        #: Ops whose simulated outcome contradicts the workload's contract.
        self.failed = 0
        self.registrations = 0
        self.setup_ms_total = 0.0
        self.outcomes: Dict[str, int] = {}
        self.scraper: Optional[Scraper] = None
        self.tracer: Optional[Tracer] = None
        self.governor: Optional[AdmissionGovernor] = None
        self.plane: Optional[AttackPlane] = None
        self.storm_events = 0
        self.start_ns = 0
        self._controllers: List[Any] = []
        self._before: Dict[str, Any] = {}

    # ------------------------------------------------------------ timing

    def mark_start(self) -> None:
        """Snapshot the counters the timed phase is differenced against."""
        self.start_ns = self.testbed.host.clock.now_ns
        self._before = _counters(self.testbed)
        if self.scraper is not None:
            self._before["scrapes"] = self.scraper.scrapes

    def _count(self, outcome: str) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def _registered(self, outcome, sojourn_ns: Optional[int] = None) -> None:
        self.registrations += 1
        if outcome.session_setup_ms is not None:
            self.setup_ms_total += outcome.session_setup_ms
        if not outcome.success:
            self._count("failed")
        elif sojourn_ns is not None and sojourn_ns > DEADLINE_MS * 1e6:
            self._count("late")
        else:
            self._count("ok")

    # ------------------------------------------------------------ results

    def delta(self) -> Dict[str, Any]:
        """Timed-phase counter deltas (per-module SGX counts included)."""
        after = _counters(self.testbed)
        before = self._before
        sgx = {
            name: {
                key: stats[key] - before["sgx"][name][key]
                for key in ("eenters", "aexs", "ocalls", "page_faults")
            }
            for name, stats in after["sgx"].items()
        }
        result = {
            key: after[key] - before[key]
            for key in ("events", "sbi_requests", "registrations_attempted")
        }
        result["sgx"] = sgx
        result["scrapes"] = (
            self.scraper.scrapes - before["scrapes"] if self.scraper is not None else 0
        )
        result["storm_events"] = self.plane.events_executed if self.plane else 0
        store = self.tracer.store if self.tracer is not None else None
        result["traces_seen"] = store.seen if store is not None else 0
        result["traces_kept"] = (
            store.kept_head + store.kept_tail if store is not None else 0
        )
        checked = sum(c.arrivals for c in self._controllers)
        shed = sum(c.shed_total for c in self._controllers)
        result["admission_checked"] = checked
        result["admission_shed"] = shed
        return result

    def digest(self) -> Dict[str, Any]:
        """The simulated output of the run, for the golden comparison."""
        digest = _counters(self.testbed)
        digest["ops"] = len(self.ops)
        digest["outcomes"] = dict(sorted(self.outcomes.items()))
        digest["setup_ms_total"] = repr(self.setup_ms_total)
        digest["delta"] = self.delta()
        if self.plane is not None:
            digest["storm"] = {
                "generated": self.storm_events,
                "executed": self.plane.events_executed,
                "outcomes": self.plane.summary(),
                "governor": self.governor.to_dict(base_ns=self.start_ns),
                "admission": [
                    {
                        "arrivals": c.arrivals,
                        "admitted": c.admitted,
                        "shed_breaker": c.shed_breaker,
                        "shed_gnb": c.shed_gnb,
                        "shed_source": c.shed_source,
                        "shed_bucket": c.shed_bucket,
                    }
                    for c in self._controllers
                ],
                "pending_evictions": self.testbed.amf.pending_evictions,
            }
        if self.tracer is not None:
            store = self.tracer.store
            digest["traces"] = {
                "seen": store.seen,
                "kept_head": store.kept_head,
                "kept_tail": store.kept_tail,
                "evicted": store.evicted,
                "ids": store.trace_ids()[-8:],
            }
        if self.scraper is not None:
            digest["scrapes"] = self.scraper.scrapes
        return digest

    def invariant_errors(self) -> List[str]:
        """Checks that hold at every seed; empty when the run is correct."""
        errors = []
        if self.name in ("attach_sgx", "reregister_traced") and self.failed:
            errors.append(f"{self.failed} of {len(self.ops)} registrations failed")
        delta = self.delta()
        if self.name == "attach_sgx":
            for module, stats in delta["sgx"].items():
                per_op = stats["eenters"] / self.registrations
                if not 80.0 <= per_op <= 95.0:
                    errors.append(
                        f"{module}: {per_op:.2f} EENTERs per registration "
                        f"outside Table III band 80-95"
                    )
        if self.name == "storm_governed":
            outcomes = self.outcomes
            accounted = sum(outcomes.get(k, 0) for k in ("ok", "late", "failed"))
            if accounted != self.registrations:
                errors.append(
                    f"legit attempts {self.registrations} != ok+late+failed {accounted}"
                )
            if self.plane.events_executed != self.storm_events:
                errors.append(
                    f"storm events executed {self.plane.events_executed} "
                    f"!= generated {self.storm_events}"
                )
        return errors

    def finish(self) -> None:
        """Detach the observers the workload installed."""
        if self.scraper is not None:
            self.scraper.uninstall(self.testbed.host)
        if self.tracer is not None:
            self.testbed.host.tracer = None


# ------------------------------------------------------------------ builders


def _build_attach(seed: int, seconds: int) -> Workload:
    testbed = warmed_testbed(IsolationMode.SGX, seed=seed)
    work = Workload("attach_sgx", testbed)
    register = testbed.gnb.register
    ues = [
        testbed.add_subscriber()
        for _ in range(max(MIN_OPS, ATTACH_OPS_PER_SECOND * seconds))
    ]

    def attach(ue) -> None:
        outcome = register(ue, establish_session=True)
        work._registered(outcome)
        if not outcome.success:
            work.failed += 1

    work.ops = [lambda ue=ue: attach(ue) for ue in ues]
    return work


def _build_reregister(seed: int, seconds: int) -> Workload:
    testbed = warmed_testbed(IsolationMode.SGX, seed=seed)
    work = Workload("reregister_traced", testbed)
    register = testbed.gnb.register
    population = [testbed.add_subscriber() for _ in range(REREGISTER_POPULATION)]
    for ue in population:
        outcome = register(ue, establish_session=False)
        if not outcome.success:
            raise RuntimeError(f"population attach failed: {outcome.failure_cause}")
    work.scraper = Scraper.for_testbed(testbed, cadence_s=1.0).install(testbed.host)
    work.tracer = Tracer(
        testbed.host.clock,
        trace_seed=seed,
        store=TraceStore(sample_every=TRACE_SAMPLE_EVERY, deadline_ms=DEADLINE_MS),
    )
    testbed.host.tracer = work.tracer

    def reregister(ue) -> None:
        outcome = register(ue, establish_session=False, initial=False)
        work._registered(outcome)
        if not outcome.success:
            work.failed += 1

    count = max(MIN_OPS, REREGISTER_OPS_PER_SECOND * seconds)
    work.ops = [
        lambda ue=population[i % len(population)]: reregister(ue)
        for i in range(count)
    ]
    return work


def storm_waves(seed: int, horizon_s: float) -> List[Any]:
    """The storm schedule: seeded waves of ``STORM_WAVE_S`` simulated
    seconds, each followed by ``STORM_GAP_S`` quiet ones, up to the horizon.

    Wave ``w`` is ``generate_storm(seed * 1000 + w, ...)`` shifted to its
    start.  Which defense the governor arms first depends on the mix of a
    wave's first second; over many waves a run averages that choice
    instead of keeping one for the whole run.
    """
    events: List[Any] = []
    period_s = STORM_WAVE_S + STORM_GAP_S
    for wave in range(int(math.ceil(horizon_s / period_s))):
        start_s = wave * period_s
        length_s = min(STORM_WAVE_S, horizon_s - start_s)
        offset_ns = int(start_s * NS_PER_S)
        events.extend(
            replace(event, at_ns=event.at_ns + offset_ns)
            for event in generate_storm(seed * 1000 + wave, length_s, STORM_RATE_PER_S)
        )
    return events


def _build_storm(seed: int, seconds: int) -> Workload:
    testbed = warmed_testbed(IsolationMode.SGX, seed=seed)
    work = Workload("storm_governed", testbed)
    horizon_s = STORM_SIM_SECONDS_PER_SECOND * seconds
    legit = int(horizon_s * LEGIT_PER_SIM_S)
    ues = [testbed.add_subscriber() for _ in range(legit)]
    initial = [i % INITIAL_EVERY == INITIAL_EVERY - 1 for i in range(legit)]
    for ue, fresh in zip(ues, initial):
        if not fresh:
            outcome = testbed.register(ue, establish_session=False)
            if not outcome.success:
                raise RuntimeError(f"returning-UE attach failed: {outcome.failure_cause}")

    storm = storm_waves(seed, horizon_s)
    work.storm_events = len(storm)
    work.plane = plane = AttackPlane(testbed)
    work.scraper = Scraper.for_testbed(
        testbed, cadence_s=1.0, attack_plane=plane
    ).install(testbed.host)
    work.governor = AdmissionGovernor(
        testbed.amf,
        AttackClassifier(),
        slos=[slo for slo in default_slos(testbed) if isinstance(slo, SojournSlo)],
    )
    work.scraper.subscribe(work.governor)

    clock = testbed.host.clock
    amf = testbed.amf
    controllers = work._controllers
    register = testbed.gnb.register
    execute = plane.execute
    idle = testbed.idle

    def reach(target_ns: int) -> None:
        remaining_ns = target_ns - clock.now_ns
        if remaining_ns > 0:
            idle(remaining_ns / NS_PER_S)

    def track_admission() -> None:
        # The governor swaps in a fresh AdmissionController on a scrape,
        # and scrapes run only at the end of an idle, a registration or a
        # storm event; keep each controller so its counters survive.
        admission = amf.admission
        if admission is not None and (not controllers or controllers[-1] is not admission):
            controllers.append(admission)

    def legit_op(index: int, at_ns: int) -> None:
        target_ns = work.start_ns + at_ns
        reach(target_ns)
        track_admission()
        outcome = register(
            ues[index], establish_session=False, initial=initial[index],
            arrival_ns=target_ns,
        )
        work._registered(outcome, clock.now_ns - target_ns)
        track_admission()

    def storm_op(event) -> None:
        reach(work.start_ns + event.at_ns)
        track_admission()
        execute(event)
        track_admission()

    gap_ns = int(horizon_s / legit * NS_PER_S)
    timeline = [(i * gap_ns, 0, i) for i in range(legit)]
    timeline.extend((event.at_ns, 1, event) for event in storm)
    timeline.sort(key=lambda entry: (entry[0], entry[1]))
    work.ops = [
        (lambda i=payload, at=at_ns: legit_op(i, at))
        if kind == 0
        else (lambda event=payload: storm_op(event))
        for at_ns, kind, payload in timeline
    ]
    return work


BUILDERS: Dict[str, Callable[[int, int], Workload]] = {
    "attach_sgx": _build_attach,
    "reregister_traced": _build_reregister,
    "storm_governed": _build_storm,
}


def build(name: str, seed: int, seconds: int) -> Workload:
    return BUILDERS[name](seed, seconds)
