"""Outside-in per-layer host-time ledger.

The traced run wraps the public entry points of each simulator layer
from here, without touching the program's own source.  Every wrapped
call made inside a timed op records a span (name, start, end, parent,
op id); a span's self time is its duration minus the part covered by
its child spans.  The op itself is the root span, so its self time is
the host time no wrapped entry point covers ("unattributed"), and the
layers' self times plus the unattributed time add up to the traced op
time exactly, in integer nanoseconds.

Wrappers are deterministic (two clock reads per call), unlike a sampling
watcher thread, which only runs when the main thread releases the GIL.

Callers look a function up through many bindings: a class attribute, a
module global, or a ``from x import f`` copy in another module.  The
wrapper replaces the definition and every copy held by an already loaded
``repro`` module; :meth:`Ledger.by_layer` then shows which entry
points fired, so a binding the callers never look up shows as a layer
with zero calls where the workload exercises it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

#: Public entry points wrapped per defining module, as ``Class.method``
#: or ``function`` qualnames.  The layer is the module path under
#: ``repro`` (see :func:`layer_of`).
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "repro.ran.gnb": ("Gnb.register",),
    "repro.fivegc.amf": ("Amf.handle_nas",),
    "repro.fivegc.nf_base": ("NetworkFunction.call_server",),
    "repro.fivegc.admission": ("AdmissionController.check",),
    "repro.net.http": (
        "HttpClient.request", "HttpClient.connect", "HttpServer.serve",
    ),
    "repro.net.codec": ("dumps_flat", "loads_object"),
    "repro.container.network": ("BridgeNetwork.transmit",),
    "repro.crypto.milenage": (
        "Milenage.generate", "Milenage.f1", "Milenage.f2345", "milenage_for",
    ),
    "repro.crypto.kdf": (
        "ts33220_kdf", "derive_kausf", "derive_res_star", "derive_hxres_star",
        "derive_kseaf", "derive_kamf", "derive_nas_keys", "derive_kgnb",
    ),
    "repro.crypto.suci": (
        "conceal_supi", "deconceal_suci", "x25519",
        "EciesProfileA.encrypt", "EciesProfileA.decrypt",
    ),
    "repro.crypto.tls": (
        "TlsSession.protect", "TlsSession.unprotect", "establish_session",
    ),
    "repro.crypto.aes": (
        "AES128.ctr", "AES128.keystream", "AES128.encrypt_block",
        "AES128.encrypt_blocks", "AES128.cbc_mac", "aes128_cipher",
    ),
    "repro.crypto.cmac": ("aes_cmac", "nia2_mac"),
    "repro.crypto.nea": ("nea2_encrypt",),
    "repro.gramine.libos": (
        "GramineEnclaveRuntime.syscall", "GramineEnclaveRuntime.syscall_batch",
        "GramineEnclaveRuntime.syscall_profile",
        "GramineEnclaveRuntime.compile_syscalls",
        "GramineEnclaveRuntime.compute", "GramineEnclaveRuntime.touch_pages",
        "GramineEnclaveRuntime.idle",
    ),
    "repro.sgx.enclave": (
        "Enclave.ecall", "Enclave.run_idle", "EcallContext.ocall",
        "EcallContext.compute", "EcallContext.touch_pages",
    ),
    "repro.sgx.epc": ("EpcManager.fault_in",),
    "repro.sgx.costmodel": (
        "SgxCostModel.draw_transition_pair", "SgxCostModel.draw_transition_pair_from",
    ),
    "repro.sim.events": (
        "EventLog.emit", "EventLog.emit_shared", "EventLog.bulk_appender",
        "EventLog.bump_count", "EventLog.count", "EventLog.select",
    ),
    "repro.obs.trace": (
        "Tracer.begin", "Tracer.end", "Tracer.annotate", "Tracer.start_trace",
        "Tracer.end_trace", "Tracer.recycle", "TraceStore.offer",
    ),
    "repro.obs.scrape": ("Scraper.scrape", "Scraper.tick"),
    "repro.obs.detect": (
        "AdmissionGovernor.on_scrape", "AttackClassifier.classify_at",
    ),
    "repro.security.attacks": ("AttackPlane.execute",),
}

#: Module path prefixes that name a layer of their own; any other
#: ``repro.<package>`` module belongs to the layer ``<package>``.
_MODULE_LAYERS = (
    "fivegc.admission", "net.http", "net.codec", "crypto.milenage",
    "crypto.kdf", "crypto.suci", "crypto.tls", "crypto.aes", "crypto.cmac",
    "crypto.nea", "sim.events", "obs.trace", "obs.scrape", "obs.detect",
)

#: Every layer the ledger reports, in report order.
LAYERS = (
    "ran", "fivegc", "fivegc.admission", "paka", "net.http", "net.codec",
    "container", "crypto.milenage", "crypto.kdf", "crypto.suci", "crypto.tls",
    "crypto.aes", "crypto.cmac", "crypto.nea", "gramine", "sgx", "sim.events",
    "obs.trace", "obs.scrape", "obs.detect", "security",
)

UNATTRIBUTED = "host.unattributed"


def layer_of(module: str) -> str:
    """``repro.crypto.kdf`` -> ``crypto.kdf``; ``repro.ran.ue`` -> ``ran``."""
    path = module[len("repro."):] if module.startswith("repro.") else module
    for layer in _MODULE_LAYERS:
        if path == layer or path.startswith(layer + "."):
            return layer
    return path.split(".", 1)[0]


class Ledger:
    """Span recorder behind the entry-point wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        # Span columns, one row per recorded call.
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        #: Total duration of the root (op) spans.
        self.op_ns = 0
        self._open: List[int] = []  # span rows of the open calls
        self._covered: List[int] = []  # child-covered ns of each open call
        self._patched: List[Tuple[Any, str, Any]] = []
        self._op_name = self._name(UNATTRIBUTED, UNATTRIBUTED)

    def _name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.names) - 1

    # ------------------------------------------------------------ spans

    def _begin(self, name_id: int) -> int:
        row = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_op.append(self.op)
        self._open.append(row)
        self._covered.append(0)
        return row

    def _end(self, name_id: int, row: int, start: int, end: int) -> None:
        self._open.pop()
        covered = self._covered.pop()
        duration = end - start
        self.span_start[row] = start
        self.span_end[row] = end
        self.self_ns[name_id] += duration - covered
        self.calls[name_id] += 1
        if self._covered:
            self._covered[-1] += duration

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A recording wrapper around ``fn``; records only inside an op."""
        name_id = self._name(name, layer)
        begin = self._begin
        finish = self._end

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            row = begin(name_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                finish(name_id, row, start, perf_counter_ns())

        return recorded

    def run_op(self, op_id: int, op: Callable[[], None]) -> None:
        """Run one timed op as the root span."""
        self.op = op_id
        row = self._begin(self._op_name)
        start = perf_counter_ns()
        try:
            op()
        finally:
            end = perf_counter_ns()
            self._end(self._op_name, row, start, end)
            self.op = -1
            self.op_ns += end - start

    # --------------------------------------------------------- patching

    def _replace(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every entry point, plus each route handler registered on an
        ``HttpServer`` from now on (the NF and P-AKA module handlers)."""
        from repro.net.http import HttpServer

        for module_name, qualnames in ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            layer = layer_of(module_name)
            for qualname in qualnames:
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(
                            self.wrap(raw.__func__, f"{layer}:{qualname}", layer)
                        )
                    else:
                        wrapped = self.wrap(raw, f"{layer}:{qualname}", layer)
                    self._replace(owner, attr, raw, wrapped)
                else:
                    self._rebind_function(module, attr, layer)

        route = HttpServer.route
        ledger = self

        def traced_route(server, method, path, handler):
            layer = layer_of(getattr(handler, "__module__", "") or "")
            name = f"{layer}:{server.name} {method} {path}"
            return route(server, method, path, ledger.wrap(handler, name, layer))

        self._replace(HttpServer, "route", route, traced_route)

    def _rebind_function(self, module: Any, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(original, f"{layer}:{attr}", layer)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace or not str(namespace.get("__name__", "")).startswith("repro"):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._replace(loaded, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------- results

    def by_layer(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Self ns and calls summed per layer (unattributed included)."""
        self_ns = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0)
        calls = dict.fromkeys(LAYERS, 0)
        for name_id, layer in enumerate(self.layers):
            self_ns[layer] += self.self_ns[name_id]
            if layer != UNATTRIBUTED:
                calls[layer] += self.calls[name_id]
        return self_ns, calls

    def calls_by_name(self) -> Dict[str, int]:
        return {
            name: self.calls[i]
            for i, name in enumerate(self.names)
            if i != self._op_name
        }

    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans: a JSON header plus one binary file per column."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.span_name, "start_ns": self.span_start,
            "end_ns": self.span_end, "parent": self.span_parent,
            "op": self.span_op,
        }
        header = {
            "spans": len(self.span_name),
            "names": self.names,
            "layers": self.layers,
            "columns": {
                key: {"file": f"{stem}.{key}.bin", "typecode": column.typecode,
                      "byteorder": sys.byteorder}
                for key, column in columns.items()
            },
        }
        for key, column in columns.items():
            with open(directory / f"{stem}.{key}.bin", "wb") as handle:
                column.tofile(handle)
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(header, indent=1) + "\n")
        return path
