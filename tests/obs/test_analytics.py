"""Trace analytics: the integer-ns fold and its float view, critical
paths, the slowest-traces digest."""

import json

from repro.experiments.harness import warmed_testbed
from repro.obs.analytics import (
    critical_path,
    fold_registration,
    slowest_traces_digest,
)
from repro.obs.trace import TraceStore, Tracer, span_from_dict
from repro.paka.deploy import IsolationMode


def _traced_store(seed=7, registrations=2):
    testbed = warmed_testbed(IsolationMode.SGX, seed=seed)
    tracer = Tracer(
        testbed.host.clock, trace_seed=seed, store=TraceStore(sample_every=1)
    )
    testbed.host.tracer = tracer
    for _ in range(registrations):
        outcome = testbed.register(
            testbed.add_subscriber(), establish_session=False
        )
        assert outcome.success
    testbed.host.tracer = None
    module_servers = {
        name: module.server.name
        for name, module in sorted(testbed.paka.modules.items())
    }
    module_runtimes = {
        name: module.runtime.name
        for name, module in sorted(testbed.paka.modules.items())
    }
    return tracer.store, module_servers, module_runtimes


def test_breakdown_ns_agrees_exactly_with_the_float_breakdown():
    """round(us * 1000) == ns for every module and every figure: the
    float-µs table is the fold's integer-ns table divided by 1000."""
    store, module_servers, module_runtimes = _traced_store()
    assert len(store) >= 1
    pairs = (
        ("lf_us", "lf_ns"), ("lt_us", "lt_ns"), ("ln_us", "ln_ns"),
        ("r_us", "r_ns"), ("shield_us", "shield_ns"),
        ("copy_us", "copy_ns"), ("host_us", "host_ns"),
        ("transition_us", "transition_ns"),
    )
    for record in store.records.values():
        fold = fold_registration(
            span_from_dict(record["root"]), module_servers, module_runtimes
        )
        ns = fold.modules
        us = fold.breakdown_us()
        assert set(ns) == set(us)
        assert ns
        for module in ns:
            for us_key, ns_key in pairs:
                assert us[module][us_key] == ns[module][ns_key] / 1000
                assert round(us[module][us_key] * 1000) == ns[module][ns_key]
            for count in ("requests", "eenters", "eexits", "ocalls"):
                assert us[module][count] == ns[module][count]
            assert ns[module]["lt_ns"] - ns[module]["lf_ns"] == ns[module]["ln_ns"]


def test_breakdown_ns_accepts_live_spans_and_dict_trees():
    """A live Span tree and its stored dict form fold identically."""
    store, module_servers, module_runtimes = _traced_store(registrations=1)
    record = next(iter(store.records.values()))
    live = span_from_dict(record["root"])
    from_span = fold_registration(live, module_servers, module_runtimes)
    from_dict = fold_registration(
        span_from_dict(live.to_dict()), module_servers, module_runtimes
    )
    assert from_span.modules == from_dict.modules
    assert from_span.stacks == from_dict.stacks
    assert from_span.total_ns == live.ns


def test_critical_path_descends_the_longest_child():
    tree = {
        "name": "root", "kind": "registration", "start_ns": 0, "end_ns": 100,
        "tags": {}, "children": [
            {"name": "short", "kind": "nas", "start_ns": 0, "end_ns": 30,
             "tags": {}, "children": []},
            {"name": "long", "kind": "nas", "start_ns": 30, "end_ns": 90,
             "tags": {}, "children": [
                 {"name": "leaf", "kind": "sbi.request", "start_ns": 40,
                  "end_ns": 80, "tags": {}, "children": []},
             ]},
        ],
    }
    path = critical_path(span_from_dict(tree))
    assert [frame["name"] for frame in path] == ["root", "long", "leaf"]
    assert path[0]["ns"] == 100
    assert path[0]["self_ns"] == 100 - 30 - 60
    assert path[1]["self_ns"] == 60 - 40
    assert path[2]["self_ns"] == path[2]["ns"] == 40


def test_critical_path_ties_break_on_earliest_start():
    tree = {
        "name": "root", "kind": "registration", "start_ns": 0, "end_ns": 100,
        "tags": {}, "children": [
            {"name": "second", "kind": "nas", "start_ns": 50, "end_ns": 90,
             "tags": {}, "children": []},
            {"name": "first", "kind": "nas", "start_ns": 10, "end_ns": 50,
             "tags": {}, "children": []},
        ],
    }
    path = critical_path(span_from_dict(tree))
    assert [frame["name"] for frame in path] == ["root", "first"]


def test_digest_is_deterministic_and_ranked_by_duration():
    store, module_servers, module_runtimes = _traced_store(registrations=3)
    dump = store.to_dict()
    digest = slowest_traces_digest(
        dump, top=10, module_servers=module_servers,
        module_runtimes=module_runtimes,
    )
    assert digest["schema"] == 1
    assert digest["seen"] == 3 and digest["kept"] == 3
    durations = [entry["duration_ns"] for entry in digest["slowest"]]
    assert durations == sorted(durations, reverse=True)
    for entry in digest["slowest"]:
        assert entry["critical_path"][0]["kind"] == "registration"
        assert entry["critical_path"][0]["ns"] == entry["duration_ns"]
        assert set(entry["modules_ns"]) == set(module_servers)
    # Pure function of the record set: byte-identical on re-computation.
    again = slowest_traces_digest(
        dump, top=10, module_servers=module_servers,
        module_runtimes=module_runtimes,
    )
    assert json.dumps(digest, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_digest_top_limits_entries_but_not_counters():
    store, module_servers, module_runtimes = _traced_store(registrations=3)
    digest = slowest_traces_digest(store.to_dict(), top=1)
    assert len(digest["slowest"]) == 1
    assert digest["seen"] == 3 and digest["kept"] == 3
    assert "modules_ns" not in digest["slowest"][0]
