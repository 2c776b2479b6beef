"""The one fold of a registration tree, over generated trees (hypothesis).

Trees are registration-shaped: ``registration > nas > sbi.request >
sbi.server > L_T > L_F > sgx.ocall`` leaves with cost-component tags,
some exitless, some for a module the fold is not told about.  The
expected per-module rows are summed from the generator's own draws, so
the fold is checked against an independent oracle, not against itself.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analytics import ROW_FIELDS, fold_registration
from repro.obs.trace import Span, span_from_dict

MODULES = ("eamf", "eausf", "eudm")
MODULE_SERVERS = {module: f"{module}-srv" for module in MODULES}
MODULE_RUNTIMES = {module: f"{module}-rt" for module in MODULES}

gap = st.integers(min_value=0, max_value=50)
component = st.integers(min_value=0, max_value=400)
ocall = st.tuples(
    component, component, component, component,  # transition/shield/copy/host
    st.booleans(),  # exitless
    st.integers(min_value=0, max_value=30),  # untagged residual
)
request = st.tuples(
    st.sampled_from(MODULES + ("ghost",)),
    st.lists(gap, min_size=7, max_size=7),
    st.lists(ocall, max_size=6),
)


def _build(requests):
    """A registration tree plus the per-module rows it must fold into."""
    expected = {module: dict.fromkeys(ROW_FIELDS, 0) for module in MODULES}
    root = Span("registration", "registration", 0)
    t = 0
    for module, gaps, ocalls in requests:
        row = expected.get(module)
        t += gaps[0]
        nas = Span("uplink", "nas", t)
        t += gaps[1]
        req = Span("POST", "sbi.request", t, dst=f"{module}-srv")
        t += gaps[2]
        server = Span("serve", "sbi.server", t, server=f"{module}-srv")
        t += gaps[3]
        lt = Span("window", "L_T", t)
        t += gaps[4]
        lf = Span("handler", "L_F", t)
        for transition, shield, copy, host, exitless, residual in ocalls:
            if exitless:
                tags = {"exitless": True, "shield_ns": shield, "host_ns": host}
                transition = copy = 0
            else:
                tags = {
                    "transition_ns": transition, "shield_ns": shield,
                    "copy_ns": copy, "host_ns": host,
                }
            leaf = Span("sendmsg", "sgx.ocall", t, runtime=f"{module}-rt", **tags)
            t += transition + shield + copy + host + residual
            leaf.end_ns = t
            lf.children.append(leaf)
            if row is not None:
                row["ocalls"] += 1
                row["eenters"] += 0 if exitless else 1
                row["eexits"] += 0 if exitless else 1
                row["transition_ns"] += transition
                row["shield_ns"] += shield
                row["copy_ns"] += copy
                row["host_ns"] += host
        lf.end_ns = t
        t += gaps[5]
        lt.end_ns = t
        t += gaps[6]
        server.end_ns = req.end_ns = nas.end_ns = t
        lt.children.append(lf)
        server.children.append(lt)
        req.children.append(server)
        nas.children.append(req)
        root.children.append(nas)
        if row is not None:
            row["requests"] += 1
            row["lf_ns"] += lf.ns
            row["lt_ns"] += lt.ns
            row["r_ns"] += req.ns
    root.end_ns = t + 1
    for row in expected.values():
        row["ln_ns"] = row["lt_ns"] - row["lf_ns"]
    return root, expected


@settings(max_examples=150, deadline=None)
@given(st.lists(request, max_size=6))
def test_fold_of_generated_registration_trees(requests):
    root, expected = _build(requests)
    fold = fold_registration(root, MODULE_SERVERS, MODULE_RUNTIMES)

    # Per-module rows equal the generator's own sums; L_N = L_T - L_F.
    assert fold.modules == expected
    for row in fold.modules.values():
        assert row["ln_ns"] == row["lt_ns"] - row["lf_ns"]

    # The folded stacks conserve the root's duration exactly.
    assert fold.total_ns == root.ns
    assert all(value > 0 for value in fold.stacks.values())

    # A stored dict tree folds to the same rows and stacks.
    stored = fold_registration(
        span_from_dict(root.to_dict()), MODULE_SERVERS, MODULE_RUNTIMES
    )
    assert stored.modules == fold.modules
    assert stored.stacks == fold.stacks

    # The float view is ns / 1000, field for field; counts unchanged.
    breakdown = fold.breakdown_us()
    assert set(breakdown) == set(MODULES)
    for module, row in fold.modules.items():
        view = breakdown[module]
        assert len(view) == len(row)
        for key, value in row.items():
            if key.endswith("_ns"):
                assert view[key[:-3] + "_us"] == value / 1000
            else:
                assert view[key] == value
