"""Profiler: collapsed stacks from the one fold of a registration tree."""

import pytest

from repro.experiments.harness import warmed_testbed
from repro.obs.flame import (
    collapsed_text,
    parse_collapsed_text,
    sanitize_frame,
    totals_by_frame,
)
from repro.obs.analytics import fold_registration
from repro.obs.trace import Span
from repro.testbed import IsolationMode


def test_sanitize_frame_strips_structural_characters():
    assert sanitize_frame("a;b c\td\ne") == "a:b_c_d_e"
    assert sanitize_frame("") == "_"


def test_collapsed_text_round_trips_and_sorts():
    stacks = {("b", "y"): 3, ("a", "x"): 5, ("a",): 0}
    text = collapsed_text(stacks)
    assert text == "a;x 5\nb;y 3\n"  # zero-value stacks are skipped
    assert parse_collapsed_text(text) == {("a", "x"): 5, ("b", "y"): 3}
    assert collapsed_text({}) == ""
    with pytest.raises(ValueError):
        parse_collapsed_text("justonetoken\n")


def test_totals_by_frame_aggregates_leaves():
    stacks = {("a", "x"): 5, ("b", "x"): 2, ("b",): 1}
    assert totals_by_frame(stacks) == {"x": 7, "b": 1}


def _synthetic_ocall_tree():
    # registration(1000) > ocall(600, components 100+50+25+125=300).
    root = Span("registration", "registration", 0)
    root.end_ns = 1_000
    ocall = Span(
        "sendmsg",
        "sgx.ocall",
        100,
        runtime="eudm-rt",
        transition_ns=100,
        shield_ns=50,
        copy_ns=25,
        host_ns=125,
    )
    ocall.end_ns = 700
    root.children.append(ocall)
    return root


def test_fold_splits_ocalls_into_component_subframes():
    profile = fold_registration(
        _synthetic_ocall_tree(),
        module_servers={"eudm": "eudm-srv"},
        module_runtimes={"eudm": "eudm-rt"},
    )
    ocall_frame = "eudm:ocall:sendmsg"
    assert profile.stacks[("registration", ocall_frame, "transition")] == 100
    assert profile.stacks[("registration", ocall_frame, "shield")] == 50
    assert profile.stacks[("registration", ocall_frame, "copy")] == 25
    assert profile.stacks[("registration", ocall_frame, "host")] == 125
    # The untagged remainder of the OCALL span stays on the OCALL frame,
    # and the registration keeps its own self time: totals are lossless.
    assert profile.stacks[("registration", ocall_frame)] == 600 - 300
    assert profile.stacks[("registration",)] == 1_000 - 600
    assert profile.total_ns == 1_000
    row = profile.modules["eudm"]
    assert (row["ocalls"], row["eenters"], row["eexits"]) == (1, 1, 1)
    assert (row["transition_ns"], row["shield_ns"]) == (100, 50)
    assert (row["copy_ns"], row["host_ns"]) == (25, 125)


def test_real_registration_folds_losslessly():
    """On a real SGX registration the fold conserves the root interval,
    round-trips through collapsed text, and every shielded module shows
    Table III activity."""
    trace = warmed_testbed(IsolationMode.SGX, seed=7).trace_registration()
    fold = trace.fold
    assert trace.outcome.success
    assert fold.total_ns == trace.root.ns
    assert parse_collapsed_text(fold.collapsed()) == fold.stacks
    assert sorted(fold.modules) == ["eamf", "eausf", "eudm"]
    for module, row in fold.modules.items():
        assert row["eenters"] > 0 and row["eenters"] == row["eexits"], module
        assert row["ocalls"] >= row["eenters"], module
        assert row["transition_ns"] > 0, module


def test_profile_is_deterministic_per_seed():
    first = warmed_testbed(IsolationMode.SGX, seed=11).trace_registration().fold
    second = warmed_testbed(IsolationMode.SGX, seed=11).trace_registration().fold
    assert first.collapsed() == second.collapsed()
    assert first.modules == second.modules
