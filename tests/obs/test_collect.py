"""Pull-collection from a live testbed and single-registration tracing."""

import pytest

from repro.obs.collect import collect_testbed_metrics, trace_registration
from repro.obs.metrics import MetricsRegistry
from repro.testbed import IsolationMode, Testbed, TestbedConfig


@pytest.fixture(scope="module")
def native_testbed():
    testbed = Testbed.build(TestbedConfig(isolation=None, seed=5))
    testbed.register(testbed.add_subscriber())
    return testbed


def test_collect_covers_nfs_gnb_and_clock(native_testbed):
    registry = native_testbed.collect_metrics()
    counters = {
        (c.name, c.labels): c.value for c in registry.counters()
    }
    assert counters[
        ("gnb_registrations_succeeded_total", (("gnb", "gnb-0"),))
    ] == 1
    assert counters[
        ("sim_clock_ns_total", (("host", "poweredge-r450"),))
    ] == native_testbed.host.clock.now_ns
    # Every NF server shows up with its request count.
    served = [
        c for c in registry.counters() if c.name == "http_requests_served_total"
    ]
    assert len(served) >= 7


def test_collect_is_idempotent_in_one_registry(native_testbed):
    registry = MetricsRegistry()
    native_testbed.collect_metrics(registry)
    first = {(c.name, c.labels): c.value for c in registry.counters()}
    native_testbed.collect_metrics(registry)
    second = {(c.name, c.labels): c.value for c in registry.counters()}
    assert first == second


def test_histograms_adopt_the_live_server_series(native_testbed):
    registry = native_testbed.collect_metrics()
    amf_lf = next(
        h for h in registry.histograms()
        if h.name == "http_lf_us" and ("server", "amf") in h.labels
    )
    assert amf_lf.series is native_testbed.amf.server.lf_us


def test_collection_does_not_advance_the_clock(native_testbed):
    before = native_testbed.host.clock.now_ns
    native_testbed.collect_metrics()
    assert native_testbed.host.clock.now_ns == before


def test_trace_registration_native():
    testbed = Testbed.build(TestbedConfig(isolation=None, seed=6))
    trace = trace_registration(testbed)
    assert trace.outcome.success
    assert trace.root.kind == "registration"
    assert trace.breakdown == {}  # no P-AKA modules in the monolithic build
    assert testbed.host.tracer is None  # uninstalled afterwards


def test_trace_registration_refuses_double_install():
    testbed = Testbed.build(TestbedConfig(isolation=None, seed=6))
    from repro.obs.trace import Tracer

    testbed.host.tracer = Tracer(testbed.host.clock)
    with pytest.raises(RuntimeError):
        trace_registration(testbed)


def test_sgx_collection_includes_table3_counters():
    testbed = Testbed.build(TestbedConfig(seed=9))
    testbed.register(testbed.add_subscriber())
    registry = testbed.collect_metrics()
    eenters = {
        c.labels: c.value for c in registry.counters()
        if c.name == "sgx_eenters_total"
    }
    assert set(eenters) == {
        (("component", "eamf"),), (("component", "eausf"),),
        (("component", "eudm"),),
    }
    for value in eenters.values():
        assert value > 0


def test_counters_never_decrease_on_a_bounded_event_log():
    """Every ``*_total`` counter is monotonic across collections, even
    when a bounded event log trims between them."""
    from repro.experiments.harness import warmed_testbed

    testbed = warmed_testbed(IsolationMode.SGX, seed=7, event_log_capacity=500)
    previous = {}
    for _ in range(4):
        testbed.register(testbed.add_subscriber(), establish_session=False)
        current = {
            (c.name, c.labels): c.value
            for c in collect_testbed_metrics(testbed).counters()
            if c.name.endswith("_total")
        }
        for key, value in current.items():
            assert value >= previous.get(key, value), key
        previous = current
