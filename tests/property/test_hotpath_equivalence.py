"""Batched hot-path rewrites against scalar references (hypothesis).

The profiler-guided rewrite turned several per-block / per-call loops
into single bulk passes: MILENAGE ``generate``/``f2345`` run all post-TEMP
block encryptions as one ECB batch, AES-CMAC folds its chain into one
zero-IV CBC pass, the SBI codec serializes flat bodies without
``json.dumps``, and a compiled Gramine syscall profile replays its OCALLs
in one fused pass (recording one run instead of a span per OCALL under an
armed tracer).  Each rewrite must be **byte-for-byte** identical to the
scalar form — these tests pin that by re-deriving every output the slow,
literal way (per-block encryptions, spec-order rotations, ``json``
itself, one ``syscall`` per OCALL) and comparing exact results.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES128, aes128_encrypt_block
from repro.crypto.cmac import aes_cmac
from repro.crypto.kdf import ts33220_kdf
from repro.crypto.milenage import Milenage
from repro.net.codec import dumps_flat, loads_object

key16 = st.binary(min_size=16, max_size=16)
block16 = st.binary(min_size=16, max_size=16)


# --- scalar MILENAGE reference (TS 35.206 §4.1, one encryption per f) --


def _xor16(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _rot(block: bytes, bits: int) -> bytes:
    shift = (bits // 8) % 16
    return block[shift:] + block[:shift]


def _reference_milenage(k, opc, rand, sqn, amf):
    """Literal per-function evaluation: six separate block encryptions."""
    temp = aes128_encrypt_block(k, _xor16(rand, opc))
    in1 = _xor16(sqn + amf + sqn + amf, opc)
    out1 = _xor16(
        aes128_encrypt_block(k, _xor16(temp, _rot(in1, 64))), opc
    )

    outs = []
    for r, c in ((0, 1), (32, 2), (64, 4), (96, 8)):
        block = _rot(_xor16(temp, opc), r)
        block = block[:15] + bytes([block[15] ^ c])
        outs.append(_xor16(aes128_encrypt_block(k, block), opc))
    out2, out3, out4, out5 = outs
    return {
        "mac_a": out1[:8],
        "mac_s": out1[8:],
        "res": out2[8:16],
        "ck": out3,
        "ik": out4,
        "ak": out2[:6],
        "ak_star": out5[:6],
    }


@settings(max_examples=60, deadline=None)
@given(
    k=key16,
    opc=key16,
    rand=block16,
    sqn=st.binary(min_size=6, max_size=6),
    amf=st.binary(min_size=2, max_size=2),
)
def test_batched_generate_matches_scalar_reference(k, opc, rand, sqn, amf):
    ref = _reference_milenage(k, opc, rand, sqn, amf)
    vec = Milenage(k, opc).generate(rand, sqn, amf)
    assert vec.mac_a == ref["mac_a"]
    assert vec.mac_s == ref["mac_s"]
    assert vec.res == ref["res"]
    assert vec.ck == ref["ck"]
    assert vec.ik == ref["ik"]
    assert vec.ak == ref["ak"]
    assert vec.ak_star == ref["ak_star"]


@settings(max_examples=60, deadline=None)
@given(k=key16, opc=key16, rand=block16)
def test_batched_f2345_matches_scalar_reference(k, opc, rand):
    ref = _reference_milenage(k, opc, rand, bytes(6), bytes(2))
    vec = Milenage(k, opc).f2345(rand)
    assert (vec.res, vec.ck, vec.ik, vec.ak, vec.ak_star) == (
        ref["res"], ref["ck"], ref["ik"], ref["ak"], ref["ak_star"]
    )


@settings(max_examples=60, deadline=None)
@given(
    k=key16,
    opc=key16,
    rand=block16,
    sqn=st.binary(min_size=6, max_size=6),
    amf=st.binary(min_size=2, max_size=2),
)
def test_f1_agrees_with_generate_and_reference(k, opc, rand, sqn, amf):
    ref = _reference_milenage(k, opc, rand, sqn, amf)
    mil = Milenage(k, opc)
    mac_a, mac_s = mil.f1(rand, sqn, amf)
    assert (mac_a, mac_s) == (ref["mac_a"], ref["mac_s"])
    vec = mil.generate(rand, sqn, amf)
    assert (vec.mac_a, vec.mac_s) == (mac_a, mac_s)


# --- KDF vs an explicit HMAC-object reference --------------------------


@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=64),
    fc=st.integers(min_value=0, max_value=0xFF),
    params=st.lists(st.binary(max_size=64), max_size=4),
)
def test_kdf_matches_hmac_object_reference(key, fc, params):
    import hashlib
    import hmac as hmac_mod

    s = bytes([fc])
    for p in params:
        s += p + len(p).to_bytes(2, "big")
    expected = hmac_mod.new(key, s, hashlib.sha256).digest()
    assert ts33220_kdf(key, fc, params) == expected


# --- CBC-MAC / CMAC vs per-block encrypt chains ------------------------


@settings(max_examples=60, deadline=None)
@given(key=key16, nblocks=st.integers(min_value=1, max_value=8), data=st.data())
def test_cbc_mac_matches_per_block_chain(key, nblocks, data):
    message = data.draw(
        st.binary(min_size=16 * nblocks, max_size=16 * nblocks)
    )
    cipher = AES128(key)
    x = bytes(16)
    for i in range(nblocks):
        x = cipher.encrypt_block(_xor16(x, message[i * 16 : (i + 1) * 16]))
    assert cipher.cbc_mac(message) == x


@settings(max_examples=60, deadline=None)
@given(key=key16, message=st.binary(max_size=100))
def test_cmac_matches_rfc4493_step_by_step(key, message):
    # RFC 4493 §2.4, literally: subkeys from E_K(0), XOR K1/K2 into the
    # last (padded) block, then the per-block CBC chain.
    cipher = AES128(key)
    l = cipher.encrypt_block(bytes(16))

    def _shift(b):
        v = int.from_bytes(b, "big") << 1
        out = (v & ((1 << 128) - 1)).to_bytes(16, "big")
        if v >> 128:
            out = out[:15] + bytes([out[15] ^ 0x87])
        return out

    k1 = _shift(l)
    k2 = _shift(k1)
    n = max(1, (len(message) + 15) // 16)
    if message and len(message) % 16 == 0:
        last = _xor16(message[-16:], k1)
    else:
        tail = message[(n - 1) * 16 :]
        last = _xor16(tail + b"\x80" + bytes(15 - len(tail)), k2)
    x = bytes(16)
    for i in range(n - 1):
        x = cipher.encrypt_block(_xor16(x, message[i * 16 : (i + 1) * 16]))
    x = cipher.encrypt_block(_xor16(x, last))
    assert aes_cmac(key, message) == x


# --- SBI codec vs json -------------------------------------------------

_simple_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=24,
)
_flat_values = st.one_of(
    _simple_text,
    st.integers(min_value=-(2**53), max_value=2**53),
    st.booleans(),
    st.none(),
)


@settings(max_examples=100, deadline=None)
@given(payload=st.dictionaries(_simple_text, _flat_values, max_size=8))
def test_dumps_flat_is_byte_identical_to_json(payload):
    expected = json.dumps(payload, sort_keys=True).encode()
    body = dumps_flat(payload)
    assert body == expected
    assert loads_object(body) == payload


@settings(max_examples=50, deadline=None)
@given(
    payload=st.dictionaries(
        st.text(max_size=8),
        st.one_of(
            st.text(max_size=16),
            st.floats(allow_nan=False, allow_infinity=False),
            st.lists(st.integers(), max_size=3),
            st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
        ),
        max_size=6,
    )
)
def test_dumps_flat_fallback_still_matches_json(payload):
    # Rich payloads (escapes, non-ASCII keys, floats, nesting) must take
    # the json fallback and stay byte-identical too.
    assert dumps_flat(payload) == json.dumps(payload, sort_keys=True).encode()


# --- compiled Gramine profile vs the per-call syscall loop -------------

_SYSCALLS = (
    "read", "write", "epoll_wait", "sendmsg", "recvmsg", "openat", "close",
)
_syscall_specs = st.lists(
    st.tuples(
        st.sampled_from(_SYSCALLS),
        st.integers(min_value=0, max_value=4096),
        st.integers(min_value=0, max_value=4096),
    ),
    min_size=1,
    max_size=24,
)


def _span_rows(root):
    """A span tree read attribute by attribute, without ``to_dict``."""
    return [
        (span.name, span.kind, span.start_ns, span.end_ns, dict(span.tags),
         span.trace_id, span.span_id, span.parent_id, len(span.children))
        for span in root.walk()
    ]


def _traced_replays(compiled, specs, replays, mode, seed, capacity):
    """Replay ``specs`` under an armed tracer the way ``Gnb.register``
    drives a traced registration; returns everything observable."""
    from repro.obs.trace import TraceStore, Tracer
    from tests.gramine.test_libos import make_runtime

    runtime = make_runtime(
        seed=seed,
        exitless=mode == "exitless",
        enclave_size="1G" if mode == "pressure" else "512M",
        bulk_mb=1,
        event_log_capacity=capacity,
    )
    host = runtime.host
    # "sampled" head-samples nothing: healthy traces are recycled unread
    # and failed ones kept, alternating (see the offer below).
    store = (
        None if mode == "storeless"
        else TraceStore(sample_every=2**40 if mode == "sampled" else 1)
    )
    tracer = Tracer(
        host.clock,
        trace_seed=None if mode == "seedless" else seed,
        store=store,
    )
    host.tracer = tracer
    handle = runtime.compile_syscalls(specs)

    def replay():
        if compiled:
            runtime.syscall_profile(handle)
        else:
            for name, bytes_out, bytes_in in specs:
                runtime.syscall(name, bytes_out, bytes_in)

    for attempt in range(replays):
        trace_id = tracer.start_trace(f"imsi-00101{attempt:010d}")
        root = nas = None
        if mode != "no_span":
            root = tracer.begin("registration", kind="registration", ue="ue")
            nas = tracer.begin("RegistrationRequest", kind="nas", round=1)
        replay()
        if nas is not None:
            tracer.end(nas)
        # A second run under the root: span ids continue after the first.
        replay()
        if root is not None:
            tracer.end(root, success=True)
        tracer.end_trace()
        if trace_id is not None and root is not None and store is not None:
            store.offer(
                root, trace_id, supi="imsi", attempt=attempt + 1,
                success=mode != "sampled" or attempt % 2 == 0,
                sojourn_ns=root.ns,
            )
            tracer.recycle(root)
    host.tracer = None
    stats = runtime.enclave.stats
    return {
        "clock_ns": host.clock.now_ns,
        "stats": dataclasses.asdict(stats),
        "ocalls_by_syscall": list(stats.ocalls_by_syscall.items()),
        "events": [(e.timestamp_ns, e.category, e.detail) for e in host.events],
        "roots": [_span_rows(root) for root in tracer.roots],
        "store": store.to_dict() if store is not None else None,
    }


@settings(max_examples=60, deadline=None)
@given(
    specs=_syscall_specs,
    replays=st.integers(min_value=2, max_value=4),
    mode=st.sampled_from((
        "kept", "sampled", "storeless", "no_span", "seedless", "exitless",
        "pressure",
    )),
    seed=st.integers(min_value=0, max_value=3),
    capacity=st.sampled_from((None, 480)),
)
def test_compiled_profile_under_armed_tracer_matches_per_call(
    specs, replays, mode, seed, capacity
):
    # capacity=480 bounds the event log just above the 472-event start-up
    # burst, so replays cross the trim and take the per-event emission path.
    compiled = _traced_replays(True, specs, replays, mode, seed, capacity)
    reference = _traced_replays(False, specs, replays, mode, seed, capacity)
    assert compiled == reference
    if mode in ("kept", "exitless", "pressure"):
        assert compiled["store"]["kept_head"] == replays
    if mode == "sampled":
        assert compiled["store"]["kept_tail"] == replays // 2
    if mode in ("storeless", "no_span", "seedless"):
        assert compiled["roots"]
