"""One fold of a registration span tree, plus tail-based trace analytics.

Every per-module number the paper's tables decompose comes from
:func:`fold_registration`, one recursive pass over a :class:`Span` tree
(stored dict trees go through :func:`~repro.obs.trace.span_from_dict`
first).  It returns a :class:`Fold`:

* per-module rows in exact integer nanoseconds — L_F, L_T and
  ``L_N = L_T - L_F`` (Fig 9 / Table II), R (Fig 10), the
  EENTER/EEXIT/OCALL counts (Table III) and the OCALL cost components;
* the collapsed flame-graph stacks, whose values are exact self times
  in simulated nanoseconds, with every OCALL split into its
  ``transition`` / ``shield`` / ``copy`` / ``host`` sub-frames.

The attribution rules live only here:

* an ``sbi.server`` span (``server`` tag) adds one request, its ``L_T``
  child's length to ``lt_ns`` and that child's ``L_F`` child's length
  to ``lf_ns``; a server span without an ``L_T`` child counts nothing;
* an ``sbi.request`` span (``dst`` tag) adds its length to ``r_ns``;
* an ``sgx.ocall`` span (``runtime`` tag) counts one OCALL, plus one
  EENTER and one EEXIT unless tagged ``exitless``, and adds its
  ``*_ns`` component tags (an exitless OCALL carries no
  ``transition_ns``).

Span boundaries are integer clock reads, so every figure is exact; the
float-µs view (:meth:`Fold.breakdown_us`) is each ns figure divided by
1000.  Also here: :func:`critical_path` (the root→leaf chain that
dominates a trace) and :func:`slowest_traces_digest` (the JSON-stable
digest EXPERIMENTS.md E-TRACE2 commits and CI byte-compares across
``--jobs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.flame import StackKey, collapsed_text, sanitize_frame
from repro.obs.trace import Span, span_from_dict
from repro.sim.clock import NS_PER_US

DIGEST_SCHEMA = 1

#: Per-module row fields, in row order.  ``*_ns`` fields are integer
#: nanoseconds; the rest are counts.
ROW_FIELDS: Tuple[str, ...] = (
    "lf_ns", "lt_ns", "ln_ns", "r_ns",
    "requests", "eenters", "eexits", "ocalls",
    "shield_ns", "copy_ns", "host_ns", "transition_ns",
)

#: OCALL component sub-frames, in emission order (tag name per frame).
COMPONENT_TAGS: Tuple[Tuple[str, str], ...] = (
    ("transition", "transition_ns"),
    ("shield", "shield_ns"),
    ("copy", "copy_ns"),
    ("host", "host_ns"),
)


@dataclass
class Fold:
    """One registration tree folded: per-module rows + collapsed stacks."""

    # Module short name -> ROW_FIELDS -> exact integer value.
    modules: Dict[str, Dict[str, int]]
    # Collapsed stacks: frame tuple -> exact self time in simulated ns.
    stacks: Dict[StackKey, int]

    @property
    def total_ns(self) -> int:
        return sum(self.stacks.values())

    def collapsed(self) -> str:
        return collapsed_text(self.stacks)

    def breakdown_us(self) -> Dict[str, Dict[str, Union[int, float]]]:
        """The rows in µs: ``x_ns`` becomes ``x_us = x_ns / 1000``."""
        return {
            module: {
                (key[:-3] + "_us" if key.endswith("_ns") else key): (
                    value / NS_PER_US if key.endswith("_ns") else value
                )
                for key, value in row.items()
            }
            for module, row in self.modules.items()
        }


def _frame_for(span: Span, runtime_to_module: Mapping[str, str]) -> str:
    """Flame-graph frame label for one span."""
    if span.kind == "sgx.ocall":
        runtime = str(span.tags.get("runtime"))
        module = runtime_to_module.get(runtime, runtime)
        return sanitize_frame(f"{module}:ocall:{span.name}")
    if not span.kind:
        return sanitize_frame(span.name)
    if span.name in (span.kind, "window"):
        return sanitize_frame(span.kind)
    return sanitize_frame(f"{span.kind}:{span.name}")


def fold_registration(
    root: Span,
    module_servers: Mapping[str, str],
    module_runtimes: Optional[Mapping[str, str]] = None,
) -> Fold:
    """Fold one registration tree (see the module docstring for the rules).

    ``module_servers`` maps module short names (``eudm`` …) to their HTTP
    server names; ``module_runtimes`` maps them to enclave runtime names
    (the ``runtime`` tag on ``sgx.ocall`` spans).  Every module in
    ``module_servers`` gets a row.
    """
    server_to_module = {server: module for module, server in module_servers.items()}
    runtime_to_module = {
        runtime: module for module, runtime in (module_runtimes or {}).items()
    }
    modules = {module: dict.fromkeys(ROW_FIELDS, 0) for module in module_servers}
    stacks: Dict[StackKey, int] = {}

    def visit(span: Span, stack: StackKey) -> None:
        stack = stack + (_frame_for(span, runtime_to_module),)
        kind = span.kind
        tags = span.tags
        if kind == "sgx.ocall":
            row = modules.get(runtime_to_module.get(str(tags.get("runtime"))))
            if row is not None:
                row["ocalls"] += 1
                if not tags.get("exitless"):
                    row["eenters"] += 1
                    row["eexits"] += 1
            component_ns = 0
            for frame, tag in COMPONENT_TAGS:
                ns = int(tags.get(tag, 0))
                if row is not None:
                    row[tag] += ns
                if ns > 0:
                    component_ns += ns
                    key = stack + (frame,)
                    stacks[key] = stacks.get(key, 0) + ns
            self_ns = span.ns - component_ns
        else:
            if kind == "sbi.server":
                row = modules.get(server_to_module.get(str(tags.get("server"))))
                lt_span = span.child_of_kind("L_T") if row is not None else None
                if lt_span is not None:
                    row["requests"] += 1
                    row["lt_ns"] += lt_span.ns
                    lf_span = lt_span.child_of_kind("L_F")
                    if lf_span is not None:
                        row["lf_ns"] += lf_span.ns
            elif kind == "sbi.request":
                row = modules.get(server_to_module.get(str(tags.get("dst"))))
                if row is not None:
                    row["r_ns"] += span.ns
            self_ns = span.ns - sum(child.ns for child in span.children)
        if self_ns > 0:
            stacks[stack] = stacks.get(stack, 0) + self_ns
        for child in span.children:
            visit(child, stack)

    visit(root, ())
    for row in modules.values():
        row["ln_ns"] = row["lt_ns"] - row["lf_ns"]
    return Fold(modules=modules, stacks=stacks)


def critical_path(root: Span) -> List[Dict[str, Any]]:
    """Root→leaf frames of the trace's dominant chain.

    At every level the longest child is taken (ties: earliest
    ``start_ns``, then tree order).  Each frame carries the span's name,
    kind, total ns and ``self_ns`` — the part of the span not covered by
    any child, i.e. the frame's own contribution to the path.
    """
    frames: List[Dict[str, Any]] = []
    span: Optional[Span] = root
    while span is not None:
        children = span.children
        frames.append({
            "name": span.name,
            "kind": span.kind,
            "ns": span.ns,
            "self_ns": span.ns - sum(child.ns for child in children),
        })
        best = None
        for child in children:
            if best is None or child.ns > best.ns or (
                child.ns == best.ns and child.start_ns < best.start_ns
            ):
                best = child
        span = best
    return frames


def slowest_traces_digest(
    store_dump: Mapping[str, Any],
    top: int = 10,
    module_servers: Optional[Mapping[str, str]] = None,
    module_runtimes: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """Deterministic digest of the slowest stored traces.

    ``store_dump`` is a :meth:`~repro.obs.trace.TraceStore.to_dict`
    snapshot (single-shard or merged).  Records rank by duration
    descending with trace-id ascending as the tiebreak, so the digest is
    a pure function of the record *set* — byte-identical however many
    jobs produced it.  Every value is an int or str; JSON with sorted
    keys is the canonical byte form.
    """
    ranked = sorted(
        store_dump.get("records", ()),
        key=lambda r: (-int(r["duration_ns"]), r["trace_id"]),
    )
    entries: List[Dict[str, Any]] = []
    for record in ranked[: max(0, int(top))]:
        root = span_from_dict(record["root"])
        entry: Dict[str, Any] = {
            "trace_id": record["trace_id"],
            "supi": record["supi"],
            "attempt": int(record["attempt"]),
            "success": bool(record["success"]),
            "reason": record["reason"],
            "sojourn_ns": int(record["sojourn_ns"]),
            "duration_ns": int(record["duration_ns"]),
            "critical_path": critical_path(root),
        }
        if "shard" in record:
            entry["shard"] = str(record["shard"])
        if module_servers is not None:
            entry["modules_ns"] = fold_registration(
                root, module_servers, module_runtimes
            ).modules
        entries.append(entry)
    return {
        "schema": DIGEST_SCHEMA,
        "top": int(top),
        "seen": int(store_dump.get("seen", 0)),
        "kept": len(store_dump.get("records", ())),
        "kept_tail": int(store_dump.get("kept_tail", 0)),
        "kept_head": int(store_dump.get("kept_head", 0)),
        "evicted": int(store_dump.get("evicted", 0)),
        "slowest": entries,
    }
