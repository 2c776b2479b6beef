"""Registration-scoped span trees over the simulated clock.

A :class:`Span` is an interval of *simulated* time with a name, a kind
from the paper's cost taxonomy, free-form tags and children.  The
:class:`Tracer` maintains the open-span stack; instrumentation points
(the gNB registration loop, the HTTP client/server, the Gramine OCALL
path) call :meth:`Tracer.begin`/:meth:`Tracer.end` around the clock
reads they already make, so span boundaries are **bit-identical** to the
``clock.measure()`` windows the experiment series record.

Span kinds (the taxonomy):

``registration``
    Root: one UE's full registration through the gNB.
``nas``
    One NAS uplink/downlink exchange (air + N2 + AMF handling).
``sbi.request``
    A client-observed SBI exchange — the paper's response time ``R``.
``sbi.server``
    The server's busy window around one request (L_T + reactor chatter).
``L_T``
    The request-received → response-sent window (the paper's total
    latency).  ``L_N = L_T - L_F`` is derived, never measured twice.
``L_F``
    The handler invocation (the paper's functional latency).
``sgx.ocall``
    One shielded syscall: EEXIT + host work + EENTER.  Tagged with the
    rounded cost components ``shield_ns`` / ``copy_ns`` / ``host_ns`` /
    ``transition_ns`` (``rpc_ns`` in exitless mode).

Distributed-trace identity rides on top of the span tree: a tracer armed
with a ``trace_seed`` stamps every span with a deterministic
``trace_id`` / ``span_id`` / ``parent_id`` derived clocklessly from
``(seed, SUPI, attempt)`` — no wall clock, no ``random`` — so the same
run always mints the same ids.  The HTTP client materialises the W3C
``traceparent`` header from the open ``sbi.request`` span, and finished
trees land in a bounded :class:`TraceStore` under deterministic
tail-based sampling (every failed or deadline-violating trace is kept;
healthy ones are head-sampled 1/N by trace-id hash).

Tracing never advances the clock — a traced run spends exactly the same
simulated nanoseconds as an untraced one.

Compiled OCALL profiles are recorded lazily.  When the Gramine runtime
replays a compiled syscall profile under an open span, it does not open
one span per OCALL: :meth:`Tracer.add_ocall_run` appends a single
:class:`OcallRun` record to the open span's children instead.  The
record holds the profile's per-OCALL ``(name, shield_ns, copy_ns,
host_ns)`` rows and each OCALL's end timestamp, and reserves the span-id
sequence numbers its OCALLs would have taken.  The ``sgx.ocall`` spans
are rebuilt from it only when a tree is read: by :meth:`Span.to_dict`
(so :meth:`TraceStore.offer` builds them for kept traces only), and when
a root closes that no store will be offered (no store attached, or no
trace context open).  A rebuilt span is identical to the one the
per-call path would have built — name, kind, tags, start/end ns and
trace/span/parent ids — because ``transition_ns`` is exactly the span's
duration minus its three deterministic components.  Until then, a tree
whose root closed inside a trace context with a store attached holds
run records among its children; :func:`materialize` expands them.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from hashlib import blake2b
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.sim.clock import NS_PER_US, SimClock


class SpanNestingError(RuntimeError):
    """A span was closed out of LIFO order (see
    :class:`~repro.sim.clock.MeasurementNestingError` for the clock-side
    twin of this invariant)."""


class Span:
    """One interval of simulated time in a registration's span tree."""

    __slots__ = (
        "name", "kind", "start_ns", "end_ns", "tags", "children",
        "trace_id", "span_id", "parent_id",
    )

    def __init__(self, name: str, kind: str, start_ns: int, **tags: Any) -> None:
        self.name = name
        self.kind = kind
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.tags: Dict[str, Any] = tags
        self.children: List["Span"] = []
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def us(self) -> float:
        return self.ns / NS_PER_US

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, in start order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str) -> List["Span"]:
        """All descendants (including self) of the given kind."""
        return [span for span in self.walk() if span.kind == kind]

    def child_of_kind(self, kind: str) -> Optional["Span"]:
        for child in self.children:
            if child.kind == kind:
                return child
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready tree form.

        Tags are emitted key-sorted so the serialized tree is byte-stable
        regardless of the tag order at the instrumentation site.  When the
        span carries trace identity (tracer armed with a ``trace_seed``)
        the ``trace_id`` / ``span_id`` / ``parent_id`` fields are included.
        OCALL run records among the children are expanded in place first.
        """
        payload: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "tags": {key: self.tags[key] for key in sorted(self.tags)},
            "children": [child.to_dict() for child in _expand_runs(self)],
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
            payload["span_id"] = self.span_id
            payload["parent_id"] = self.parent_id
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, kind={self.kind!r}, us={self.us:.2f}, "
            f"children={len(self.children)})"
        )


# Freelist of recycled Span objects, shared across tracers.  An SGX
# re-registration has 294 spans, 261 of them sgx.ocall leaves; most of
# those stay folded in OcallRun records and are only built for traces
# that are read.  Recycling a consumed tree lets the next trace reuse the
# objects instead of exercising the allocator.  ``_take_span`` fully
# re-initialises every slot (name, kind, both timestamps, tags; the
# children list was emptied on recycle), so a recycled span can never
# leak state.
_SPAN_POOL: List[Span] = []
_SPAN_POOL_CAP = 8192


def _take_span(name: str, kind: str, start_ns: int, tags: Dict[str, Any]) -> Span:
    """A span from the freelist (or a new one) owning the ``tags`` dict."""
    pool = _SPAN_POOL
    if pool:
        span = pool.pop()
        span.name = name
        span.kind = kind
        span.start_ns = start_ns
        span.end_ns = start_ns
        span.tags = tags
        return span
    return Span(name, kind, start_ns, **tags)


class OcallRun:
    """One compiled OCALL profile replay, standing for its ``sgx.ocall`` spans.

    ``rows`` holds one ``(name, shield_ns, copy_ns, host_ns)`` tuple per
    OCALL (shared by every replay of the profile) and ``ends`` each
    OCALL's end timestamp; OCALL ``i`` starts where OCALL ``i - 1`` ended
    (the first at ``start_ns``).  ``seq`` is the span-id sequence number
    of the first OCALL.  See the module docstring for when it is expanded.
    """

    __slots__ = (
        "runtime", "enclave", "rows", "start_ns", "ends",
        "trace_id", "seq", "parent_id",
    )

    def __init__(
        self,
        runtime: str,
        enclave: str,
        rows: Tuple[Tuple[str, int, int, int], ...],
        start_ns: int,
        ends: List[int],
        trace_id: Optional[str],
        seq: int,
        parent_id: Optional[str],
    ) -> None:
        self.runtime = runtime
        self.enclave = enclave
        self.rows = rows
        self.start_ns = start_ns
        self.ends = ends
        self.trace_id = trace_id
        self.seq = seq
        self.parent_id = parent_id

    def spans(self) -> List[Span]:
        """The ``sgx.ocall`` spans the per-call path would have built."""
        runtime = self.runtime
        enclave = self.enclave
        trace_id = self.trace_id
        parent_id = self.parent_id
        seq = self.seq
        start = self.start_ns
        spans = []
        for (name, shield_ns, copy_ns, host_ns), end in zip(self.rows, self.ends):
            span = _take_span(name, "sgx.ocall", start, {
                "runtime": runtime, "enclave": enclave,
                "shield_ns": shield_ns, "copy_ns": copy_ns, "host_ns": host_ns,
                "transition_ns": end - start - shield_ns - copy_ns - host_ns,
            })
            span.end_ns = end
            span.trace_id = trace_id
            if trace_id is not None:
                span.span_id = span_context_id(trace_id, seq)
                seq += 1
            else:
                span.span_id = None
            span.parent_id = parent_id
            spans.append(span)
            start = end
        return spans


def _expand_runs(span: Span) -> List[Span]:
    """``span.children`` with any OCALL run records expanded in place."""
    children = span.children
    if any(type(child) is OcallRun for child in children):
        expanded: List[Span] = []
        for child in children:
            if type(child) is OcallRun:
                expanded.extend(child.spans())
            else:
                expanded.append(child)
        children[:] = expanded
    return children


def materialize(root: Span) -> Span:
    """Expand every OCALL run record in ``root``'s tree into its spans."""
    stack = [root]
    while stack:
        stack.extend(_expand_runs(stack.pop()))
    return root


class Tracer:
    """Builds span trees from begin/end calls against one clock.

    Hot paths guard with ``tracer is not None and tracer.enabled`` — a
    disabled tracer (or the default ``host.tracer = None``) costs one
    attribute read and one comparison per instrumentation point.

    With ``trace_seed`` set, :meth:`start_trace` opens a deterministic
    trace context for one registration: every span begun until
    :meth:`end_trace` is stamped with the context's ``trace_id`` and a
    sequence-derived ``span_id`` (parent = the enclosing open span).  A
    ``store`` gives finished trees somewhere to go (see
    :class:`TraceStore`); offering and recycling is the caller's job.
    """

    def __init__(
        self,
        clock: SimClock,
        enabled: bool = True,
        trace_seed: Optional[int] = None,
        store: Optional["TraceStore"] = None,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.trace_seed = trace_seed
        self.store = store
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._trace_id: Optional[str] = None
        self._trace_supi: Optional[str] = None
        self._trace_attempt = 0
        self._span_seq = 0
        self._attempts: Dict[str, int] = {}
        # Set while the open tree holds OcallRun records.
        self._runs_pending = False

    # ------------------------------------------------------------- spans

    def begin(self, name: str, kind: str = "", **tags: Any) -> Span:
        """Open a span at the current simulated instant."""
        # ``tags`` is a fresh dict built for this call, so the span can
        # take ownership of it without leaking prior tags.
        span = _take_span(name, kind, self.clock.now_ns, tags)
        trace_id = self._trace_id
        if trace_id is not None:
            seq = self._span_seq
            self._span_seq = seq + 1
            span.trace_id = trace_id
            span.span_id = span_context_id(trace_id, seq)
            span.parent_id = self._stack[-1].span_id if self._stack else None
        else:
            span.trace_id = None
            span.span_id = None
            span.parent_id = None
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def add_ocall_run(
        self,
        runtime: str,
        enclave: str,
        rows: Tuple[Tuple[str, int, int, int], ...],
        start_ns: int,
        ends: List[int],
    ) -> None:
        """Record ``len(ends)`` finished OCALLs under the innermost open span.

        Stands for the ``sgx.ocall`` spans ``begin``/``end`` would have
        opened and closed back to back: reserves their span-id sequence
        numbers and appends one :class:`OcallRun` to the open span's
        children.  Requires an open span.
        """
        parent = self._stack[-1]
        trace_id = self._trace_id
        seq = self._span_seq
        if trace_id is not None:
            self._span_seq = seq + len(ends)
        parent.children.append(OcallRun(
            runtime, enclave, rows, start_ns, ends, trace_id, seq,
            parent.span_id if trace_id is not None else None,
        ))
        self._runs_pending = True

    def annotate(self, **tags: Any) -> None:
        """Tag the innermost open span (no new span, no clock read).

        NF handlers that sit *between* instrumentation points (the AMF's
        NAS entry is a direct call, not an SBI hop) use this to leave
        their identity on the span that covers them.
        """
        if self._stack:
            self._stack[-1].tags.update(tags)

    # ----------------------------------------------------- trace context

    @property
    def current_trace_id(self) -> Optional[str]:
        return self._trace_id

    def start_trace(self, supi: str) -> Optional[str]:
        """Open a deterministic trace context for one registration.

        Returns the minted ``trace_id``, or ``None`` when the tracer has
        no ``trace_seed`` (identity off — plain span trees as before).
        The id is ``blake2b("trace:{seed}:{supi}:{attempt}")`` where
        ``attempt`` counts this SUPI's registrations under this tracer —
        clockless, random-free, reproducible.
        """
        if self.trace_seed is None:
            return None
        attempt = self._attempts.get(supi, 0) + 1
        self._attempts[supi] = attempt
        trace_id = trace_context_id(self.trace_seed, supi, attempt)
        self._trace_id = trace_id
        self._trace_supi = supi
        self._trace_attempt = attempt
        self._span_seq = 0
        return trace_id

    def end_trace(self) -> Tuple[Optional[str], Optional[str], int]:
        """Close the open trace context; returns (trace_id, supi, attempt)."""
        closed = (self._trace_id, self._trace_supi, self._trace_attempt)
        self._trace_id = None
        self._trace_supi = None
        self._span_seq = 0
        return closed

    def recycle(self, span: Span) -> None:
        """Return ``span`` and its whole subtree to the span freelist.

        The caller asserts the tree is fully consumed: after this call the
        spans, their ``tags`` dicts and ``children`` lists must not be
        touched again (children lists are emptied in place).  If ``span``
        is one of this tracer's roots it is detached first.
        """
        try:
            self.roots.remove(span)
        except ValueError:
            pass
        _recycle_tree(span)

    def end(self, span: Span, **tags: Any) -> Span:
        """Close ``span`` at the current instant; spans close LIFO."""
        popped = self._stack.pop() if self._stack else None
        if popped is not span:
            raise SpanNestingError(
                f"span {span.name!r} closed out of order; innermost open "
                f"span is {popped!r}"
            )
        span.end_ns = self.clock.now_ns
        if tags:
            span.tags.update(tags)
        if self._runs_pending and not self._stack:
            # A root closed.  Only a tree that will be offered to the
            # store stays folded; every other tree is read as Spans.
            self._runs_pending = False
            if self.store is None or self._trace_id is None:
                materialize(span)
        return span

    @contextmanager
    def span(self, name: str, kind: str = "", **tags: Any) -> Iterator[Span]:
        opened = self.begin(name, kind, **tags)
        try:
            yield opened
        finally:
            self.end(opened)

    # --------------------------------------------------------- lifecycle

    @property
    def depth(self) -> int:
        return len(self._stack)

    def clear(self, recycle: bool = False) -> None:
        """Drop all finished roots; ``recycle=True`` also returns every
        span tree to the freelist (same caller contract as
        :meth:`recycle`)."""
        if self._stack:
            raise SpanNestingError(
                f"clear() with {len(self._stack)} span(s) still open"
            )
        if recycle:
            for root in self.roots:
                _recycle_tree(root)
        self.roots.clear()


def _recycle_tree(span: Span) -> None:
    pool = _SPAN_POOL
    stack = [span]
    while stack:
        current = stack.pop()
        if type(current) is OcallRun:
            continue  # never built, nothing to pool
        children = current.children
        if children:
            stack.extend(children)
            children.clear()
        if len(pool) < _SPAN_POOL_CAP:
            pool.append(current)


# --------------------------------------------------------------------------
# Deterministic trace identity (W3C trace-context shaped)


def trace_context_id(seed: int, supi: str, attempt: int) -> str:
    """128-bit hex trace id from (seed, SUPI, attempt) — clockless."""
    return blake2b(
        f"trace:{seed}:{supi}:{attempt}".encode(), digest_size=16
    ).hexdigest()


def span_context_id(trace_id: str, seq: int) -> str:
    """64-bit hex span id from (trace_id, begin-order sequence)."""
    return blake2b(f"{trace_id}:{seq}".encode(), digest_size=8).hexdigest()


def traceparent_of(trace_id: str, span_id: str) -> str:
    """W3C ``traceparent`` header value (version 00, sampled flag set)."""
    return f"00-{trace_id}-{span_id}-01"


_TRACEPARENT_RE = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-01$")


def parse_traceparent(header: str) -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` from a ``traceparent`` value, or None."""
    match = _TRACEPARENT_RE.match(header)
    if match is None:
        return None
    return match.group(1), match.group(2)


def span_from_dict(data: Mapping[str, Any]) -> Span:
    """Rebuild a live :class:`Span` tree from its ``to_dict`` form.

    Stored traces are snapshotted to plain dicts (so the originals can be
    recycled); this inverts the snapshot so dict trees can flow back into
    Span-consuming code — :func:`format_span_tree` rendering and
    :func:`~repro.obs.analytics.fold_registration`.  Round-trip is
    exact: ``span_from_dict(span.to_dict()).to_dict() == span.to_dict()``.
    """
    span = Span(data["name"], data["kind"], int(data["start_ns"]), **data["tags"])
    span.end_ns = int(data["end_ns"])
    span.trace_id = data.get("trace_id")
    span.span_id = data.get("span_id")
    span.parent_id = data.get("parent_id")
    span.children = [span_from_dict(child) for child in data["children"]]
    return span


class TraceStore:
    """Bounded store of finished trace trees with deterministic sampling.

    Tail-based policy: every failed registration and every registration
    whose sojourn exceeded the deadline is kept (``tail_failed`` /
    ``tail_deadline``); healthy registrations are head-sampled 1/N by a
    pure function of the trace id (``int(trace_id[:8], 16) % N == 0``) so
    the kept set is identical run-to-run and shard-count-independent.
    When the store overflows ``cap``, the oldest head-sampled record is
    evicted first (tail records are the valuable ones); with no
    head-sampled records left, the oldest record overall goes.

    Records are plain JSON-ready dicts so shard workers can ship them
    across process boundaries and :meth:`absorb` can merge them
    deterministically (insertion order = offer order = shard order).
    """

    __slots__ = (
        "cap", "sample_every", "deadline_ns", "records",
        "seen", "kept_tail", "kept_head", "evicted",
    )

    def __init__(
        self,
        cap: Optional[int] = 512,
        sample_every: int = 8,
        deadline_ms: float = 250.0,
    ) -> None:
        self.cap = cap
        self.sample_every = max(1, int(sample_every))
        self.deadline_ns = int(deadline_ms * 1_000_000)
        self.records: Dict[str, Dict[str, Any]] = {}
        self.seen = 0
        self.kept_tail = 0
        self.kept_head = 0
        self.evicted = 0

    def keep_reason(
        self, trace_id: str, success: bool, sojourn_ns: int
    ) -> Optional[str]:
        if not success:
            return "tail_failed"
        if sojourn_ns > self.deadline_ns:
            return "tail_deadline"
        if int(trace_id[:8], 16) % self.sample_every == 0:
            return "head_sample"
        return None

    def offer(
        self,
        root: Span,
        trace_id: str,
        supi: str,
        attempt: int,
        success: bool,
        sojourn_ns: int,
    ) -> bool:
        """Consider one finished registration tree; True if kept.

        The tree is snapshotted via :meth:`Span.to_dict`, so the caller
        is free to recycle the spans afterwards.
        """
        self.seen += 1
        reason = self.keep_reason(trace_id, success, sojourn_ns)
        if reason is None:
            return False
        if reason == "head_sample":
            self.kept_head += 1
        else:
            self.kept_tail += 1
        self.records[trace_id] = {
            "trace_id": trace_id,
            "supi": supi,
            "attempt": attempt,
            "success": bool(success),
            "sojourn_ns": int(sojourn_ns),
            "reason": reason,
            "start_ns": root.start_ns,
            "end_ns": root.end_ns,
            "duration_ns": root.ns,
            "root": root.to_dict(),
        }
        if self.cap is not None:
            while len(self.records) > self.cap:
                self._evict_one()
        return True

    def _evict_one(self) -> None:
        victim = None
        for trace_id, record in self.records.items():
            if record["reason"] == "head_sample":
                victim = trace_id
                break
        if victim is None:
            victim = next(iter(self.records))
        del self.records[victim]
        self.evicted += 1

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        return self.records.get(trace_id)

    def trace_ids(self) -> List[str]:
        return list(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (records in offer order)."""
        return {
            "cap": self.cap,
            "sample_every": self.sample_every,
            "deadline_ms": self.deadline_ns / 1_000_000,
            "seen": self.seen,
            "kept_tail": self.kept_tail,
            "kept_head": self.kept_head,
            "evicted": self.evicted,
            "records": list(self.records.values()),
        }

    def absorb(self, data: Mapping[str, Any], **extra_fields: Any) -> None:
        """Merge one worker's :meth:`to_dict` snapshot into this store.

        ``extra_fields`` (e.g. ``shard="3"``) are stamped onto each
        absorbed record.  Callers absorb shards in index order, so the
        merged record order is deterministic.
        """
        self.seen += int(data.get("seen", 0))
        self.kept_tail += int(data.get("kept_tail", 0))
        self.kept_head += int(data.get("kept_head", 0))
        self.evicted += int(data.get("evicted", 0))
        for record in data.get("records", ()):
            merged = dict(record)
            merged.update(extra_fields)
            self.records[merged["trace_id"]] = merged


def format_span_tree(span: Span, indent: int = 0) -> List[str]:
    """Human-readable tree, collapsing OCALL bursts into summary lines."""
    pad = "  " * indent
    tag_bits = ""
    interesting = {
        k: v for k, v in span.tags.items()
        if k in ("server", "dst", "path", "ue", "status", "success")
    }
    if interesting:
        tag_bits = " " + " ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
    kind = f" [{span.kind}]" if span.kind else ""
    lines = [f"{pad}{span.name}{kind} {span.us:.1f} us{tag_bits}"]
    ocalls: Dict[str, int] = {}
    ocall_ns = 0
    for child in span.children:
        if child.kind == "sgx.ocall":
            ocalls[child.name] = ocalls.get(child.name, 0) + 1
            ocall_ns += child.ns
        else:
            lines.extend(format_span_tree(child, indent + 1))
    if ocalls:
        total = sum(ocalls.values())
        top = ", ".join(
            f"{name}x{count}"
            for name, count in sorted(ocalls.items(), key=lambda kv: -kv[1])[:4]
        )
        lines.append(
            f"{pad}  ({total} sgx.ocall spans, {ocall_ns / 1_000.0:.1f} us: {top})"
        )
    return lines
