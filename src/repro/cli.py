"""Command-line interface: ``python -m repro <command>``.

Runs any of the paper's experiments (or the ablations) from a terminal
and prints the same report the benchmarks record, so a downstream user
can regenerate a single figure without touching pytest:

.. code-block:: console

   $ python -m repro fig9 --registrations 250
   $ python -m repro table3 --max-ues 10
   $ python -m repro register --isolation sgx
   $ python -m repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.experiments.harness import ExperimentReport

_EXPERIMENTS: Dict[str, str] = {
    "fig7": "Enclave load time (Fig 7)",
    "fig8": "Thread/EPC sweep (Fig 8)",
    "fig9": "Functional/total latency (Fig 9, Table II)",
    "fig10": "Response times (Fig 10, Table II)",
    "fig11": "OTA feasibility (Fig 11, Table IV)",
    "table1": "Enclave I/O contracts (Table I)",
    "table2": "Consolidated overheads (Table II)",
    "table3": "SGX statistics (Table III)",
    "table5": "Key issues (Table V)",
    "setup": "End-to-end session setup",
    "ablation-preheat": "Preheat ablation",
    "ablation-exitless": "Exitless ablation",
    "ablation-backends": "HMEE backend comparison",
    "ablation-mtcp": "User-level TCP ablation",
    "scaling": "Horizontal scaling of P-AKA replicas",
    "migration": "Slice migration service gap per backend",
    "availability": "Registration availability under injected faults",
}


def _run_experiment(name: str, args: argparse.Namespace) -> ExperimentReport:
    n = args.registrations
    jobs = getattr(args, "jobs", 1)
    if name == "fig7":
        from repro.experiments.figures import figure7_enclave_load_time

        return figure7_enclave_load_time(iterations=args.iterations)
    if name == "fig8":
        from repro.experiments.sweeps import figure8_threads_epc_sweep

        return figure8_threads_epc_sweep(registrations=n, jobs=jobs)
    if name == "fig9":
        from repro.experiments.figures import figure9_functional_total_latency

        return figure9_functional_total_latency(registrations=n, jobs=jobs)
    if name == "fig10":
        from repro.experiments.figures import figure10_response_time

        return figure10_response_time(registrations=n, jobs=jobs)
    if name == "fig11":
        from repro.experiments.figures import figure11_ota_feasibility

        return figure11_ota_feasibility()
    if name == "table1":
        from repro.experiments.tables import table1_enclave_io

        return table1_enclave_io()
    if name == "table2":
        from repro.experiments.tables import table2_overheads

        return table2_overheads(registrations=n)
    if name == "table3":
        from repro.experiments.tables import table3_sgx_stats

        return table3_sgx_stats(max_ues=args.max_ues, iterations=args.iterations)
    if name == "table5":
        from repro.experiments.tables import table5_key_issues

        return table5_key_issues()
    if name == "setup":
        from repro.experiments.session_setup import session_setup_experiment

        return session_setup_experiment(registrations=n)
    if name == "ablation-preheat":
        from repro.experiments.ablations import preheat_ablation

        return preheat_ablation(registrations=n, jobs=jobs)
    if name == "ablation-exitless":
        from repro.experiments.ablations import exitless_ablation

        return exitless_ablation(registrations=n, jobs=jobs)
    if name == "ablation-backends":
        from repro.experiments.ablations import hmee_backend_comparison

        return hmee_backend_comparison(registrations=n, jobs=jobs)
    if name == "ablation-mtcp":
        from repro.experiments.ablations import userlevel_tcp_ablation

        return userlevel_tcp_ablation(requests=max(40, n))
    if name == "scaling":
        from repro.experiments.scaling import horizontal_scaling_experiment

        return horizontal_scaling_experiment(requests_per_replica=max(15, n // 4))
    if name == "migration":
        from repro.experiments.migration import migration_experiment

        return migration_experiment()
    if name == "availability":
        from repro.experiments.availability import availability_experiment

        return availability_experiment(registrations=max(40, n))
    raise KeyError(name)


def _cmd_list(_: argparse.Namespace) -> int:
    width = max(len(name) for name in _EXPERIMENTS)
    for name, description in _EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}")
    return 0


def _cmd_register(args: argparse.Namespace) -> int:
    from repro.paka.deploy import IsolationMode
    from repro.testbed import Testbed, TestbedConfig

    isolation = None if args.isolation == "monolithic" else IsolationMode(args.isolation)
    testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=args.seed))
    successes = 0
    for _ in range(args.count):
        ue = testbed.add_subscriber()
        outcome = testbed.register(ue)
        successes += outcome.success
        print(
            f"  {ue.usim.supi}: "
            + (
                f"registered as {outcome.guti} in {outcome.session_setup_ms:.2f} ms"
                if outcome.success
                else f"FAILED ({outcome.failure_cause})"
            )
        )
    print(f"{successes}/{args.count} registrations succeeded")
    return 0 if successes == args.count else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace one registration and print the span tree + breakdown."""
    import json

    from repro.obs.trace import format_span_tree
    from repro.paka.deploy import IsolationMode
    from repro.testbed import Testbed, TestbedConfig

    isolation = None if args.isolation == "monolithic" else IsolationMode(args.isolation)
    testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=args.seed))
    for _ in range(args.warmup):
        testbed.register(testbed.add_subscriber())
    trace = testbed.trace_registration()
    if args.json:
        payload = {
            "schema": 1,
            "outcome": {
                "success": trace.outcome.success,
                "session_setup_ms": trace.outcome.session_setup_ms,
                "nas_exchanges": trace.outcome.nas_exchanges,
            },
            "breakdown": trace.breakdown,
            "stats_delta": {
                name: {
                    "eenters": delta.eenters,
                    "eexits": delta.eexits,
                    "ocalls": delta.ocalls,
                    "aexs": delta.aexs,
                }
                for name, delta in trace.stats_delta.items()
            },
            "spans": trace.root.to_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if trace.outcome.success else 1
    print("\n".join(format_span_tree(trace.root)))
    if trace.breakdown:
        print()
        print("Per-module decomposition (Fig 9 / Table II / Table III):")
        header = (
            f"  {'module':<8} {'L_F us':>9} {'L_T us':>9} {'L_N us':>9} "
            f"{'R us':>9} {'EENTER':>7} {'EEXIT':>7}"
        )
        print(header)
        for module, row in trace.breakdown.items():
            print(
                f"  {module:<8} {row['lf_us']:>9.2f} {row['lt_us']:>9.2f} "
                f"{row['ln_us']:>9.2f} {row['r_us']:>9.2f} "
                f"{row['eenters']:>7} {row['eexits']:>7}"
            )
    return 0 if trace.outcome.success else 1


def _metrics_selftest() -> int:
    """Round-trip self-check used by CI: exporters must parse back."""
    from repro.obs.export import (
        parse_prometheus_text,
        registry_from_dict,
        registry_to_dict,
        registry_to_json,
        registry_to_prometheus_text,
    )
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("selftest_requests_total", server="eamf-paka-srv-0").inc(42)
    registry.gauge("selftest_open", nf="amf").set(1.0)
    histogram = registry.histogram("selftest_latency_us", component="eudm")
    for value in (10.0, 20.0, 30.0, 40.0):
        histogram.observe(value)

    rebuilt = registry_from_dict(registry_to_dict(registry))
    if registry_to_json(rebuilt) != registry_to_json(registry):
        print("selftest FAILED: JSON round-trip mismatch", file=sys.stderr)
        return 1
    samples = parse_prometheus_text(registry_to_prometheus_text(registry))
    key = ("selftest_requests_total", (("server", "eamf-paka-srv-0"),))
    if samples.get(key) != 42.0:
        print("selftest FAILED: Prometheus round-trip mismatch", file=sys.stderr)
        return 1
    print("metrics selftest OK "
          f"({len(registry)} metrics, {len(samples)} Prometheus samples)")
    return 0


def _monitor_selftest() -> int:
    """Scraper/Tsdb/SLO self-check used by CI: no testbed, pure sim time.

    Drives a synthetic producer through a stall window and asserts the
    burn-rate alert fires during the outage, resolves after it, and that
    the whole pipeline is deterministic (bit-identical on re-run).
    """
    import json

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.scrape import Scraper
    from repro.obs.slo import BurnRateWindow, RatioSlo, SloEngine, ThresholdSlo
    from repro.obs.tsdb import NS_PER_S
    from repro.sim.clock import SimClock

    def run_once():
        clock = SimClock()
        state = {"total": 0, "good": 0, "latencies": []}

        def collect() -> MetricsRegistry:
            registry = MetricsRegistry()
            registry.counter("selftest_total").set(state["total"])
            registry.counter("selftest_good").set(state["good"])
            histogram = registry.histogram("selftest_latency_us")
            for value in state["latencies"]:
                histogram.observe(value)
            return registry

        scraper = Scraper(clock, collect, cadence_s=1.0)

        class _Host:
            monitor = None

        host = _Host()
        scraper.install(host)
        # 120 simulated seconds: one op per second; ops fail (and slow
        # down 10x) during the [40 s, 80 s) stall window.
        for second in range(1, 121):
            clock.advance_s(1.0)
            stalled = 40 <= second < 80
            state["total"] += 1
            state["good"] += 0 if stalled else 1
            state["latencies"].append(500.0 if stalled else 50.0)
            scraper.tick()
        scraper.uninstall(host)

        slos = [
            RatioSlo(
                "selftest-success",
                good=("selftest_good", {}),
                total=("selftest_total", {}),
                objective=0.99,
                windows=(BurnRateWindow("fast", 60.0, 15.0, 4.0),),
            ),
            ThresholdSlo(
                "selftest-latency",
                basename="selftest_latency_us",
                labels={},
                limit_us=100.0,
                windows=(BurnRateWindow("fast", 30.0, 10.0, 1.5),),
            ),
        ]
        alerts = SloEngine(slos).evaluate(scraper.tsdb)
        return scraper, alerts

    scraper, alerts = run_once()
    by_slo = {}
    for alert in alerts:
        by_slo.setdefault(alert.slo, []).append(alert)
    failures = []
    for slo_name in ("selftest-success", "selftest-latency"):
        fired = by_slo.get(slo_name, [])
        if not fired:
            failures.append(f"{slo_name}: no alert fired during the stall")
            continue
        first = fired[0]
        if not 40 * 10**9 <= first.fired_at_ns <= 90 * 10**9:
            failures.append(
                f"{slo_name}: fired at {first.fired_at_ns} ns, "
                "outside the stall window"
            )
        if not any(a.resolved for a in fired):
            failures.append(f"{slo_name}: never resolved after the stall")

    # Determinism: the whole pipeline must replay bit-identically.
    scraper2, alerts2 = run_once()
    dump = lambda s, a: json.dumps(  # noqa: E731 - local one-shot helper
        {"tsdb": s.tsdb.to_dict(), "alerts": [x.to_dict() for x in a]},
        sort_keys=True,
    )
    if dump(scraper, alerts) != dump(scraper2, alerts2):
        failures.append("re-run produced different Tsdb/alert bytes")

    if failures:
        for failure in failures:
            print(f"monitor selftest FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"monitor selftest OK ({scraper.scrapes} scrapes, "
        f"{len(scraper.tsdb)} series, {len(alerts)} alerts, deterministic)"
    )
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Monitor one availability fault arm: scraper + Tsdb + SLO alerts."""
    if args.selftest:
        return _monitor_selftest()

    import json

    from repro.experiments.availability import monitored_arm

    payload = monitored_arm(
        factor=args.factor,
        registrations=args.registrations,
        horizon_s=args.horizon,
        seed=args.seed,
        cadence_s=args.cadence,
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    row = payload["row"]
    monitor = payload["monitor"]
    print(
        f"fault arm x{row['fault_factor']:g}: "
        f"{row['successes']}/{row['attempts']} registrations succeeded "
        f"({monitor['scrapes']} scrapes @ {monitor['cadence_s']:g}s, "
        f"{monitor['series']} series, {len(monitor['fault_windows'])} "
        f"fault windows)"
    )
    print("SLOs:")
    for slo in monitor["slos"]:
        print(f"  {slo}")
    if monitor["alerts"]:
        print("alerts (simulated seconds from arm start):")
        for alert in monitor["alerts"]:
            resolved = (
                f"resolved {alert['resolved_at_s']:9.3f}s"
                if alert["resolved_at_s"] is not None
                else "still firing"
            )
            print(
                f"  [{alert['window']:<4}] {alert['slo']:<24} "
                f"fired {alert['fired_at_s']:9.3f}s  {resolved}  "
                f"peak burn {alert['peak_burn']:.1f}x"
            )
    else:
        print("alerts: none fired")
    print(
        f"{monitor['alerts_in_fault_windows']} alert(s) fired inside an "
        "injected fault window"
    )
    return 0


def _profile_selftest() -> int:
    """Profiler self-check used by CI: the fold is lossless and its
    span-counted EENTER/EEXIT/OCALL equal the enclaves' SgxStats."""
    from repro.obs.flame import parse_collapsed_text
    from repro.paka.deploy import IsolationMode
    from repro.testbed import Testbed, TestbedConfig

    testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=0))
    testbed.register(testbed.add_subscriber())  # warm-up (steady state)
    trace = testbed.trace_registration()
    fold = trace.fold

    failures = []
    if not trace.outcome.success:
        failures.append(f"registration failed: {trace.outcome.failure_cause}")
    for module, row in sorted(fold.modules.items()):
        delta = trace.stats_delta[module]
        for key in ("eenters", "eexits", "ocalls"):
            if row[key] != getattr(delta, key):
                failures.append(
                    f"{module}.{key}: spans={row[key]} "
                    f"SgxStats={getattr(delta, key)}"
                )
        if row["eenters"] <= 0:
            failures.append(f"{module}: no EENTERs attributed")
    if fold.total_ns != trace.root.ns:
        failures.append(
            f"folded self-times sum to {fold.total_ns} ns, "
            f"span tree covers {trace.root.ns} ns"
        )
    if parse_collapsed_text(fold.collapsed()) != fold.stacks:
        failures.append("collapsed text did not round-trip")

    if failures:
        for failure in failures:
            print(f"profile selftest FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"profile selftest OK ({len(fold.stacks)} stacks, "
        f"{fold.total_ns} ns folded, {len(fold.modules)} modules' "
        "span-counted EENTER/EEXIT/OCALL equal to SgxStats)"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Fold one traced registration into a cycle-attribution flame graph."""
    if args.selftest:
        return _profile_selftest()

    import json

    from repro.paka.deploy import IsolationMode
    from repro.testbed import Testbed, TestbedConfig

    isolation = None if args.isolation == "monolithic" else IsolationMode(args.isolation)
    testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=args.seed))
    for _ in range(args.warmup):
        testbed.register(testbed.add_subscriber())
    trace = testbed.trace_registration()
    fold = trace.fold

    if args.collapsed:
        # Folded stacks, pipe into flamegraph.pl / load into speedscope.
        print(fold.collapsed(), end="")
        return 0 if trace.outcome.success else 1
    if args.json:
        payload = {
            "outcome": {
                "success": trace.outcome.success,
                "session_setup_ms": trace.outcome.session_setup_ms,
                "nas_exchanges": trace.outcome.nas_exchanges,
            },
            "total_ns": fold.total_ns,
            "modules": fold.modules,
            "breakdown": trace.breakdown,
            "stacks": [
                {"stack": list(stack), "ns": fold.stacks[stack]}
                for stack in sorted(fold.stacks)
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if trace.outcome.success else 1

    print(
        f"registration folded: {fold.total_ns / 1e6:.2f} ms over "
        f"{len(fold.stacks)} stacks"
    )
    shielded = {
        module: row for module, row in trace.breakdown.items() if row["ocalls"]
    }
    if shielded:
        print("Per-module SGX cost attribution (Table III from the fold):")
        header = (
            f"  {'module':<8} {'EENTER':>7} {'EEXIT':>7} {'OCALLs':>7} "
            f"{'trans us':>9} {'shield us':>10} {'copy us':>9} {'host us':>9}"
        )
        print(header)
        for module, row in sorted(shielded.items()):
            print(
                f"  {module:<8} {row['eenters']:>7} {row['eexits']:>7} "
                f"{row['ocalls']:>7} {row['transition_us']:>9.1f} "
                f"{row['shield_us']:>10.1f} {row['copy_us']:>9.1f} "
                f"{row['host_us']:>9.1f}"
            )
    print("(use --collapsed for flamegraph.pl input, --json for the full fold)")
    return 0 if trace.outcome.success else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run registrations and export the testbed's metrics registry."""
    if args.selftest:
        return _metrics_selftest()

    from repro.obs.export import registry_to_json, registry_to_prometheus_text
    from repro.paka.deploy import IsolationMode
    from repro.testbed import Testbed, TestbedConfig

    isolation = None if args.isolation == "monolithic" else IsolationMode(args.isolation)
    testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=args.seed))
    for _ in range(args.registrations):
        testbed.register(testbed.add_subscriber())
    registry = testbed.collect_metrics()
    if args.format == "prom":
        print(registry_to_prometheus_text(registry), end="")
    else:
        print(registry_to_json(registry))
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    """Partitioned mass-registration campaign (E-CAP / E-SCALE)."""
    from repro.experiments.export import report_to_json
    from repro.experiments.shard import sharded_campaign

    result = sharded_campaign(
        ues=args.ues,
        shards=args.shards,
        jobs=args.jobs,
        seed=args.seed,
        monitor_cadence_s=args.monitor_cadence,
    )
    if args.json:
        print(report_to_json(result.report))
    else:
        print(result.report.format())
    if not result.report.all_checks_ok:
        for check in result.report.failed_checks():
            print("  FAILED " + check.format(), file=sys.stderr)
        return 1
    return 0


def _attack_govern_selftest() -> int:
    """Detector/governor self-check used by CI.

    Replays the seeded-storm detector evaluation (ground-truth confusion
    matrix over every attack class plus a pure queueing collapse), then a
    quick governed survivability pair, and asserts the headline claims:
    the undefended collapse pages on the sojourn SLO, the governor arms
    and recovers legitimate success, and a quiescent governor never acts.
    The JSON document on stdout is deterministic — CI runs the command
    twice and ``cmp``s the bytes; status lines go to stderr.
    """
    import json

    from repro.experiments.survivability import _run_arm
    from repro.obs.detect import evaluate_detector

    failures = []
    evaluation = evaluate_detector(
        seed=29, horizon_s=4.0, legit=6, attack_rate_per_s=40.0
    )
    for scenario in evaluation["scenarios"]:
        if scenario["modal_verdict"] != scenario["expected"]:
            failures.append(
                f"{scenario['expected']}: modal verdict "
                f"{scenario['modal_verdict']}"
            )
    if evaluation["accuracy"] < 0.8:
        failures.append(f"accuracy {evaluation['accuracy']:.3f} < 0.8")

    kwargs = dict(legit=12, horizon_s=5.0, seed=29)
    undefended = _run_arm("none", 400.0, **kwargs)
    governed = _run_arm("governed", 400.0, **kwargs)
    quiescent = _run_arm("governed", 0.0, **kwargs)
    if undefended["sojourn_alerts_fired"] < 1:
        failures.append("undefended collapse fired no sojourn SLO alert")
    actions = governed["governor"]["actions"]
    if not actions or actions[0]["action"] != "arm":
        failures.append("governor never armed under the peak storm")
    if governed["legit_success_rate"] <= undefended["legit_success_rate"]:
        failures.append(
            f"governed success {governed['legit_success_rate']:.3f} did "
            f"not beat undefended {undefended['legit_success_rate']:.3f}"
        )
    if quiescent["governor"]["actions"]:
        failures.append("quiescent governor took actions with no storm")

    payload = {
        "evaluation": evaluation,
        "governed": {
            "actions": actions,
            "detect_latency_s": governed["detect_latency_s"],
            "legit_success_rate": governed["legit_success_rate"],
            "quiescent_actions": quiescent["governor"]["actions"],
            "sojourn_alerts_fired": governed["sojourn_alerts_fired"],
            "undefended_success_rate": undefended["legit_success_rate"],
        },
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"govern selftest FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"govern selftest OK (accuracy {evaluation['accuracy']:.2f}, "
        f"detect latency {governed['detect_latency_s']:.3f}s, governed "
        f"{governed['legit_success_rate']:.2f} vs undefended "
        f"{undefended['legit_success_rate']:.2f})",
        file=sys.stderr,
    )
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    """Adversarial signaling campaign: storms × admission defenses (E-ATTACK)."""
    if args.selftest:
        return _attack_govern_selftest()

    from repro.experiments.export import report_to_json
    from repro.experiments.survivability import DEFENSES, survivability_experiment

    if args.defenses:
        defenses = tuple(name.strip() for name in args.defenses.split(","))
    elif args.govern:
        defenses = ("none", "governed")
    else:
        defenses = DEFENSES
    unknown = [name for name in defenses if name not in DEFENSES]
    if unknown:
        print(
            f"unknown defense(s) {', '.join(unknown)}; "
            f"choose from {', '.join(DEFENSES)}",
            file=sys.stderr,
        )
        return 2
    rates = tuple(float(rate) for rate in args.rates.split(","))
    report = survivability_experiment(
        legit=args.legit,
        horizon_s=args.horizon,
        seed=args.seed,
        attack_rates=rates,
        defenses=defenses,
    )
    if args.json:
        print(report_to_json(report))
    else:
        print(report.format())
    if not report.all_checks_ok:
        for check in report.failed_checks():
            print("  FAILED " + check.format(), file=sys.stderr)
        return 1
    return 0


def _run_traced_arm(args: argparse.Namespace) -> Dict[str, object]:
    """One traced survivability arm for the ``traces`` command."""
    from repro.experiments.survivability import _run_arm

    return _run_arm(
        args.defense,
        args.rate,
        legit=args.legit,
        horizon_s=args.horizon,
        seed=args.seed,
        trace_sample=args.sample,
    )


def _traces_digest(row: Dict[str, object], top: int) -> Dict[str, object]:
    from repro.obs.analytics import slowest_traces_digest

    return slowest_traces_digest(
        row["_trace_store"],
        top=top,
        module_servers=row["_module_servers"],
        module_runtimes=row["_module_runtimes"],
    )


def _find_trace_record(
    store_dump: Dict[str, object], trace_id: str
) -> Optional[Dict[str, object]]:
    for record in store_dump.get("records", ()):
        if record["trace_id"] == trace_id:
            return record
    return None


def _traces_selftest() -> int:
    """Tracing self-check used by CI (the E-TRACE2 acceptance scenario).

    Runs the undefended 400/s queueing collapse with tracing armed and
    asserts the full pipeline: the sojourn SLO alert cites exemplar
    trace ids, at least one cited id resolves to a complete cross-NF
    tree in the store, every stored tree folds losslessly (its folded
    stack self times sum exactly to the root span's duration), and
    tracing spent zero simulated nanoseconds (traced and untraced arms
    end on the same clock reading).  The JSON document on stdout is
    deterministic — CI runs the command twice and ``cmp``s the bytes;
    status lines go to stderr.
    """
    import json

    from repro.experiments.survivability import _run_arm
    from repro.obs.analytics import fold_registration, slowest_traces_digest
    from repro.obs.trace import span_from_dict

    failures: List[str] = []
    kwargs = dict(legit=12, horizon_s=5.0, seed=29)
    traced = _run_arm("none", 400.0, trace_sample=8, **kwargs)
    untraced = _run_arm("none", 400.0, **kwargs)

    # Tracing must be free on the simulated clock.
    if traced["final_clock_ns"] != untraced["final_clock_ns"]:
        failures.append(
            f"traced arm clock {traced['final_clock_ns']} != "
            f"untraced {untraced['final_clock_ns']}"
        )

    store_dump = traced["_trace_store"]
    module_servers = traced["_module_servers"]
    module_runtimes = traced["_module_runtimes"]

    # The collapse must page on the sojourn SLO and cite exemplars.
    sojourn_alerts = [
        alert for alert in traced["_alerts"]
        if alert["slo"].startswith("registration-sojourn")
    ]
    if not sojourn_alerts:
        failures.append("queueing collapse fired no sojourn SLO alert")
    cited = sorted(
        {tid for alert in sojourn_alerts for tid in alert["exemplar_trace_ids"]}
    )
    if sojourn_alerts and not cited:
        failures.append("sojourn alert cited no exemplar trace ids")

    # At least one cited exemplar must resolve to a stored cross-NF tree.
    resolved = [
        record
        for record in map(lambda t: _find_trace_record(store_dump, t), cited)
        if record is not None
    ]
    if cited and not resolved:
        failures.append("no cited exemplar trace id resolved in the store")
    for record in resolved[:1]:
        servers = {
            str(span.tags.get("server"))
            for span in span_from_dict(record["root"]).find("sbi.server")
        }
        missing = set(module_servers.values()) - servers
        if missing:
            failures.append(
                f"resolved tree is not cross-NF: no server spans for "
                f"{', '.join(sorted(missing))}"
            )

    # Every stored tree must fold losslessly: the folded stacks' self
    # times sum exactly to the root span's duration.
    checked = 0
    for record in store_dump.get("records", ()):
        folded_ns = fold_registration(
            span_from_dict(record["root"]), module_servers, module_runtimes
        ).total_ns
        if folded_ns == record["duration_ns"]:
            checked += 1
        else:
            failures.append(
                f"{record['trace_id'][:8]}: folded stacks sum to "
                f"{folded_ns} ns, duration {record['duration_ns']} ns"
            )
    if not checked:
        failures.append("trace store kept no records to cross-check")
    if store_dump.get("kept_tail", 0) < 1:
        failures.append("collapse kept no tail (failed/deadline) traces")

    digest = slowest_traces_digest(
        store_dump,
        top=10,
        module_servers=module_servers,
        module_runtimes=module_runtimes,
    )
    # Critical paths must start at the registration root and account
    # for the full trace duration at the first frame.
    for entry in digest["slowest"]:
        path = entry["critical_path"]
        if not path or path[0]["kind"] != "registration":
            failures.append(f"{entry['trace_id'][:8]}: path missing root")
        elif path[0]["ns"] != entry["duration_ns"]:
            failures.append(
                f"{entry['trace_id'][:8]}: root frame {path[0]['ns']} ns "
                f"!= duration {entry['duration_ns']} ns"
            )

    payload = {
        "digest": digest,
        "sojourn_alerts": sojourn_alerts,
        "cited_trace_ids": cited,
        "resolved": len(resolved),
        "cross_checked": checked,
        "final_clock_ns": traced["final_clock_ns"],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if failures:
        for failure in failures:
            print(f"traces selftest FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"traces selftest OK ({store_dump['seen']} traces seen, "
        f"{len(store_dump['records'])} kept "
        f"({store_dump['kept_tail']} tail), {len(cited)} cited, "
        f"{checked} trees folded losslessly)",
        file=sys.stderr,
    )
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    """Distributed-trace analytics over a traced survivability arm."""
    import json

    if args.selftest:
        return _traces_selftest()

    from repro.obs.trace import format_span_tree, span_from_dict

    row = _run_traced_arm(args)
    store_dump = row["_trace_store"]

    if args.trace_id:
        record = _find_trace_record(store_dump, args.trace_id)
        if record is None:
            print(
                f"trace {args.trace_id} not in store "
                f"({len(store_dump['records'])} kept of "
                f"{store_dump['seen']} seen)",
                file=sys.stderr,
            )
            return 2
        if args.json:
            print(json.dumps(
                {"schema": 1, "trace": record}, indent=2, sort_keys=True,
            ))
            return 0
        print(
            f"trace {record['trace_id']} supi={record['supi']} "
            f"attempt={record['attempt']} reason={record['reason']} "
            f"sojourn={record['sojourn_ns'] / 1e6:.3f} ms"
        )
        print("\n".join(format_span_tree(span_from_dict(record["root"]))))
        return 0

    digest = _traces_digest(row, args.slowest)
    if args.json:
        print(json.dumps(digest, indent=2, sort_keys=True))
        return 0

    print(
        f"arm: defense={args.defense} rate={args.rate:g}/s "
        f"legit={args.legit} horizon={args.horizon:g}s seed={args.seed}"
    )
    print(
        f"store: {digest['seen']} seen, {digest['kept']} kept "
        f"({digest['kept_tail']} tail + {digest['kept_head']} head), "
        f"{digest['evicted']} evicted"
    )
    sojourn_alerts = [
        alert for alert in row["_alerts"]
        if alert["slo"].startswith("registration-sojourn")
    ]
    cited = sorted(
        {tid for alert in sojourn_alerts for tid in alert["exemplar_trace_ids"]}
    )
    print(
        f"alerts: {len(row['_alerts'])} fired, {len(sojourn_alerts)} "
        f"sojourn, {len(cited)} exemplar trace ids cited"
    )
    print(f"\nslowest {len(digest['slowest'])} traces:")
    for rank, entry in enumerate(digest["slowest"], start=1):
        mark = " *" if entry["trace_id"] in cited else ""
        print(
            f"  {rank:>2}. {entry['trace_id'][:16]} "
            f"{entry['duration_ns'] / 1e6:>9.3f} ms  "
            f"{entry['reason']:<13} supi={entry['supi']} "
            f"attempt={entry['attempt']}{mark}"
        )
        path = entry["critical_path"]
        hot = max(path, key=lambda frame: frame["self_ns"])
        chain = " > ".join(frame["name"] for frame in path[:6])
        if len(path) > 6:
            chain += " > ..."
        print(f"      path: {chain}")
        print(
            f"      hottest frame: {hot['name']} ({hot['kind']}) "
            f"self {hot['self_ns'] / 1e6:.3f} ms of "
            f"{hot['ns'] / 1e6:.3f} ms"
        )
    if cited:
        print("\n  * cited as an exemplar by a sojourn SLO alert")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    report = _run_experiment(args.command, args)
    print(report.format())
    if report.series and getattr(args, "plot", False):
        from repro.experiments.render import render_report_figures

        print()
        print(render_report_figures(report))
    if not report.all_checks_ok:
        print("\nFAILED paper-shape checks:", file=sys.stderr)
        for check in report.failed_checks():
            print("  " + check.format(), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Towards Shielding 5G Control Plane "
        "Functions' (DSN 2024): run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    register = sub.add_parser("register", help="register UEs through a testbed")
    register.add_argument(
        "--isolation",
        choices=["monolithic", "container", "sgx", "secure-vm"],
        default="sgx",
    )
    register.add_argument("--count", type=int, default=1)
    register.add_argument("--seed", type=int, default=0)

    trace = sub.add_parser(
        "trace",
        help="trace one registration: span tree + Fig 9 / Table III breakdown",
    )
    trace.add_argument(
        "--isolation",
        choices=["monolithic", "container", "sgx", "secure-vm"],
        default="sgx",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--warmup", type=int, default=1,
        help="untraced registrations before the traced one (steady state)",
    )
    trace.add_argument(
        "--json", action="store_true",
        help="emit the span tree and breakdown as JSON",
    )

    metrics = sub.add_parser(
        "metrics",
        help="run registrations and export the metrics registry",
    )
    metrics.add_argument(
        "--isolation",
        choices=["monolithic", "container", "sgx", "secure-vm"],
        default="sgx",
    )
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--registrations", type=int, default=3)
    metrics.add_argument(
        "--format", choices=["json", "prom"], default="json",
        help="export format: JSON document or Prometheus exposition text",
    )
    metrics.add_argument(
        "--selftest", action="store_true",
        help="exporter round-trip self-check (no testbed; used by CI)",
    )

    monitor = sub.add_parser(
        "monitor",
        help="continuously monitor one fault arm: scraper + Tsdb + SLO "
        "burn-rate alerts with simulated timestamps",
    )
    monitor.add_argument(
        "--factor", type=float, default=2.0,
        help="fault-rate multiplier (x BASELINE_RATES; 0 = fault-free)",
    )
    monitor.add_argument("--registrations", type=int, default=120)
    monitor.add_argument(
        "--horizon", type=float, default=180.0,
        help="arm duration in simulated seconds",
    )
    monitor.add_argument("--seed", type=int, default=23)
    monitor.add_argument(
        "--cadence", type=float, default=1.0,
        help="scrape cadence in simulated seconds",
    )
    monitor.add_argument(
        "--json", action="store_true",
        help="emit the row, SLOs, alerts and fault windows as JSON "
        "(byte-identical for a fixed seed)",
    )
    monitor.add_argument(
        "--selftest", action="store_true",
        help="scraper/Tsdb/SLO pipeline self-check (no testbed; used by CI)",
    )

    profile = sub.add_parser(
        "profile",
        help="fold one traced registration into a cycle-attribution "
        "flame graph (collapsed-stack output)",
    )
    profile.add_argument(
        "--isolation",
        choices=["monolithic", "container", "sgx", "secure-vm"],
        default="sgx",
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--warmup", type=int, default=1,
        help="untraced registrations before the profiled one (steady state)",
    )
    profile.add_argument(
        "--collapsed", action="store_true",
        help="emit folded stacks for flamegraph.pl / speedscope",
    )
    profile.add_argument(
        "--json", action="store_true",
        help="emit the fold (stacks + per-module totals) as JSON",
    )
    profile.add_argument(
        "--selftest", action="store_true",
        help="profiler self-check: lossless fold, span-counted "
        "EENTER/EEXIT/OCALL equal to SgxStats (used by CI)",
    )

    capacity = sub.add_parser(
        "capacity",
        help="partitioned mass-registration campaign: shard the UE "
        "population over replica control-plane slices and merge the "
        "per-shard simulations into one report",
    )
    capacity.add_argument("--ues", type=int, default=10_000)
    capacity.add_argument(
        "--shards", type=int, default=4,
        help="control-plane shards (1 = the unsharded E-CAP campaign)",
    )
    capacity.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the shard arms (0 = one per "
        "schedulable CPU); the merged report is byte-identical for any N",
    )
    capacity.add_argument("--seed", type=int, default=7)
    capacity.add_argument(
        "--monitor-cadence", type=float, default=None, metavar="S",
        help="install a per-shard scraper at this simulated cadence and "
        "merge the Tsdb series (shard label added); default off",
    )
    capacity.add_argument(
        "--json", action="store_true",
        help="emit the merged report as JSON (byte-identical per seed)",
    )

    attack = sub.add_parser(
        "attack",
        help="adversarial signaling campaign: seeded storms (SUCI replay, "
        "forged-AUTS resync, NAS fuzz, botnet registration) against the "
        "AMF's admission defenses; prints survivability curves",
    )
    attack.add_argument(
        "--legit", type=int, default=30,
        help="legitimate UEs paced over the horizon per arm",
    )
    attack.add_argument(
        "--horizon", type=float, default=12.0,
        help="arm duration in simulated seconds",
    )
    attack.add_argument("--seed", type=int, default=29)
    attack.add_argument(
        "--rates", default="0,240,400", metavar="R,R,...",
        help="attack arrival rates per second (comma-separated; 0 = "
        "disarmed control arm)",
    )
    attack.add_argument(
        "--defenses", default=None, metavar="D,D,...",
        help="admission configs to sweep (subset of none,bucket,guard,"
        "breaker,all,governed; default all of them)",
    )
    attack.add_argument(
        "--govern", action="store_true",
        help="sweep only the undefended and alert-armed (governed) arms",
    )
    attack.add_argument(
        "--selftest", action="store_true",
        help="detector/governor self-check: seeded-storm confusion "
        "matrix + governed recovery, deterministic JSON on stdout "
        "(used by CI)",
    )
    attack.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON (byte-identical per seed)",
    )

    traces = sub.add_parser(
        "traces",
        help="distributed-trace analytics: run a traced survivability "
        "arm, rank the slowest stored traces with critical paths, and "
        "resolve alert-cited exemplar trace ids to full cross-NF trees",
    )
    traces.add_argument(
        "--defense", choices=["none", "bucket", "guard", "breaker", "all",
                              "governed"],
        default="none",
        help="admission config for the traced arm",
    )
    traces.add_argument(
        "--rate", type=float, default=400.0,
        help="attack arrival rate per second (400 = queueing collapse)",
    )
    traces.add_argument("--legit", type=int, default=12)
    traces.add_argument("--horizon", type=float, default=5.0)
    traces.add_argument("--seed", type=int, default=29)
    traces.add_argument(
        "--sample", type=int, default=8, metavar="N",
        help="head-sample 1 in N healthy traces (failed/deadline traces "
        "are always kept)",
    )
    traces.add_argument(
        "--slowest", type=int, default=10, metavar="N",
        help="rank the N slowest stored traces in the digest",
    )
    traces.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="resolve one trace id to its full span tree instead of "
        "the ranked digest",
    )
    traces.add_argument(
        "--json", action="store_true",
        help="emit the digest (or resolved trace) as JSON "
        "(byte-identical per seed)",
    )
    traces.add_argument(
        "--selftest", action="store_true",
        help="tracing self-check: alert-to-trace exemplar resolution + "
        "lossless folds of every stored tree, deterministic JSON on "
        "stdout (used by CI)",
    )

    for name, description in _EXPERIMENTS.items():
        experiment = sub.add_parser(name, help=description)
        experiment.add_argument("--registrations", type=int, default=60)
        experiment.add_argument("--iterations", type=int, default=5)
        experiment.add_argument("--max-ues", type=int, default=3)
        experiment.add_argument(
            "--plot", action="store_true",
            help="render the measured distributions as ASCII box plots",
        )
        experiment.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="run independent experiment arms over N worker processes "
            "(0 = one per CPU); results are byte-identical to --jobs 1 "
            "because every arm owns its own seeded testbed",
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "register":
            return _cmd_register(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "monitor":
            return _cmd_monitor(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "capacity":
            return _cmd_capacity(args)
        if args.command == "attack":
            return _cmd_attack(args)
        if args.command == "traces":
            return _cmd_traces(args)
        return _cmd_experiment(args)
    except BrokenPipeError:  # output piped into head/less and closed
        return 0


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
