"""Host-time benchmark of the simulator, driven from outside through its
public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload attach_sgx --seed 0 --seconds 25 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` also times it untraced (for the counts and the
overhead base), then runs it again in a fresh interpreter with every
layer's entry points wrapped (:mod:`ledger`) and prints the per-layer
metrics.  Either way the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Host times are scaled to a nominal host speed measured by reference
bursts between the ops (:mod:`hostspeed`).

Every run checks the simulated output: the workload's invariants at any
seed, the committed golden digest at the default seed and length, and in
a traced run that tracing left the digest unchanged.  A failed check
exits non-zero.  See ``perfbench/README.md`` for the workloads and the
layer-to-metric map.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
#: Where the traced run writes its spans (inside the checkout).
SPANS_DIR = ROOT / ".perfbench-out"

DEFAULT_SEED = 0
DEFAULT_SECONDS = 25
#: Set-up repeats per run; setup_s reports their median.
SETUP_REPEATS = 3
#: A run must end within this many seconds.
RUN_DEADLINE_S = 170.0

WORKLOAD_NAMES = ("attach_sgx", "reregister_traced", "storm_governed")

#: Layers a workload bypasses: the wrapper self-check requires zero calls
#: there and at least one call on every other layer.
IDLE_LAYERS = {
    "attach_sgx": {
        "fivegc.admission", "obs.trace", "obs.scrape", "obs.detect", "security",
    },
    "reregister_traced": {
        "fivegc.admission", "crypto.suci", "crypto.nea", "obs.detect",
        "security",
    },
    "storm_governed": {"crypto.nea", "obs.trace"},
}
#: Layers idle on some workload report their self time as a share of the
#: traced op time (exactly 0 where bypassed); the others in us per op.
SHARE_LAYERS = frozenset().union(*IDLE_LAYERS.values())


class GcMeter:
    """Total garbage-collector pause time and collections, via gc.callbacks."""

    def __init__(self) -> None:
        self.pause_ns = 0
        self.collections = 0
        self._started = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter_ns()
        else:
            self.pause_ns += perf_counter_ns() - self._started
            self.collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def percentile_with_tail(sorted_values, fraction):
    """The value at ``fraction`` and the number of samples beyond it."""
    index = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[index], len(sorted_values) - index - 1


def _load_workloads():
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"error: simulator sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# ---------------------------------------------------------------- phases


def run_untraced(name: str, seed: int, seconds: int) -> dict:
    """Set up ``SETUP_REPEATS`` times, then time the last build's ops."""
    workloads = _load_workloads()
    from hostspeed import SETUP_BURSTS, HostSpeed

    import_s = time.perf_counter() - _START
    speed = HostSpeed()
    # Each set-up time is scaled by the bursts taken right before and
    # after it; the imports by the first bursts, right after them.
    before = speed.burst(SETUP_BURSTS)
    import_s /= before
    setup_s = []
    for repeat in range(SETUP_REPEATS):
        started = perf_counter()
        work = workloads.build(name, seed, seconds)
        took = perf_counter() - started
        after = speed.burst(SETUP_BURSTS)
        setup_s.append(took / ((before + after) / 2))
        before = after
        if repeat < SETUP_REPEATS - 1:
            work.finish()
            del work
            gc.collect()

    work.mark_start()
    durations = [0] * len(work.ops)

    def run_op(index, op) -> None:
        op_started = perf_counter_ns()
        op()
        durations[index] = perf_counter_ns() - op_started

    with GcMeter() as gc_meter:
        wall_ns = speed.run_ops(work.ops, run_op)
    work.finish()
    return {
        "work": work,
        "durations": speed.scaled(durations),
        "wall_ns": wall_ns,
        "import_s": import_s,
        "setup_s": setup_s,
        "speed": speed.factor,
        "bursts": len(speed.samples),
        "gc_pause_ns": gc_meter.pause_ns,
        "gc_collections": gc_meter.collections,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(name: str, seed: int, seconds: int) -> dict:
    """One traced run in this (fresh) interpreter; returns the ledger."""
    workloads = _load_workloads()
    from hostspeed import SETUP_BURSTS, HostSpeed
    from ledger import Ledger

    ledger = Ledger()
    ledger.install()
    speed = HostSpeed()
    work = workloads.build(name, seed, seconds)
    speed.burst(SETUP_BURSTS)
    work.mark_start()
    wall_ns = speed.run_ops(work.ops, ledger.run_op)
    work.finish()
    ledger.uninstall()
    self_ns, calls = ledger.by_layer()
    spans = ledger.write(SPANS_DIR, f"spans-{name}")
    return {
        "digest": work.digest(),
        "ops": len(work.ops),
        "wall_ns": wall_ns,
        "speed": speed.factor,
        "op_ns": ledger.op_ns,
        "self_ns": self_ns,
        "calls": calls,
        "calls_by_name": ledger.calls_by_name(),
        "spans_file": str(spans.relative_to(ROOT)),
    }


def spawn_traced(args, budget_s: float) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--phase", "traced",
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=max(1.0, budget_s),
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: traced run exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- checks


def golden_errors(name: str, seed: int, seconds: int, digest: dict,
                  update: bool) -> list:
    if seed != DEFAULT_SEED or seconds != DEFAULT_SECONDS:
        return []
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if update:
        golden[name] = digest
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return []
    expected = golden.get(name)
    if expected is None:
        return [f"no golden digest for {name}"]
    if digest == expected:
        return []
    differing = sorted(
        key for key in set(expected) | set(digest)
        if expected.get(key) != digest.get(key)
    )
    return [f"simulated digest differs from golden in: {', '.join(differing)}"]


def ledger_errors(name: str, traced: dict) -> list:
    errors = []
    total_self = sum(traced["self_ns"].values())
    if total_self != traced["op_ns"]:
        errors.append(
            f"layer self times sum to {total_self} ns, traced op time is "
            f"{traced['op_ns']} ns"
        )
    idle = IDLE_LAYERS[name]
    for layer, calls in traced["calls"].items():
        if layer in idle and calls:
            errors.append(f"{layer}: {calls} calls on a workload that bypasses it")
        if layer not in idle and not calls:
            errors.append(f"{layer}: no calls recorded on a workload that uses it")
    return errors


# --------------------------------------------------------------- metrics


def op_ms(plain: dict, fraction: float) -> tuple:
    """Host ms per op at ``fraction``, at the nominal host speed, with its
    sample count."""
    ordered = sorted(plain["durations"])
    value, beyond = percentile_with_tail(ordered, fraction)
    return value / 1e6, "ms", f"{len(ordered)} ops, {beyond} beyond"


def end_to_end(plain: dict) -> dict:
    work = plain["work"]
    count = len(work.ops)
    ok = work.outcomes.get("ok", 0)
    return {
        "ops_per_s": (count / (sum(plain["durations"]) / 1e9), "ops/s",
                      f"{count} ops"),
        "op_ms_p95": op_ms(plain, 0.95),
        "setup_s": (plain["import_s"] + statistics.median(plain["setup_s"]), "s",
                    f"imports + median of {len(plain['setup_s'])} set-ups"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MiB", "ru_maxrss"),
        "ok_ratio": (ok / work.registrations, "ratio",
                     f"{ok} ok of {work.registrations} registrations"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    from ledger import LAYERS

    work = plain["work"]
    ops = len(work.ops)
    delta = work.delta()
    modules = len(delta["sgx"])
    op_ns = traced["op_ns"]
    # Traced host times are scaled by the traced run's own speed factor.
    us_per_op = 1e3 * ops * traced["speed"]
    metrics = {}
    for layer in LAYERS:
        self_ns = traced["self_ns"][layer]
        if layer in SHARE_LAYERS:
            metrics[f"{layer}.self_pct"] = (100.0 * self_ns / op_ns, "%")
        else:
            metrics[f"{layer}.self_us_per_op"] = (self_ns / us_per_op, "us")
        metrics[f"{layer}.calls_per_op"] = (traced["calls"][layer] / ops, "count")
    by_name = traced["calls_by_name"]
    sgx_sum = {
        key: sum(stats[key] for stats in delta["sgx"].values())
        for key in ("eenters", "aexs", "ocalls", "page_faults")
    }
    checked = delta["admission_checked"]
    seen = delta["traces_seen"]
    metrics.update({
        "ran.sim_setup_ms": (work.setup_ms_total / work.registrations, "sim_ms"),
        "fivegc.nas_per_op": (by_name["fivegc:Amf.handle_nas"] / ops, "count"),
        "fivegc.admission.shed_ratio": (
            delta["admission_shed"] / checked if checked else 0.0, "ratio"),
        "net.sbi_requests_per_op": (delta["sbi_requests"] / ops, "count"),
        "gramine.ocalls_per_op": (sgx_sum["ocalls"] / ops, "count"),
        "sgx.eenters_per_op": (sgx_sum["eenters"] / modules / ops, "count"),
        "sgx.aexs_per_op": (sgx_sum["aexs"] / modules / ops, "count"),
        "sgx.page_faults_per_op": (sgx_sum["page_faults"] / modules / ops, "count"),
        "sim.events_per_op": (delta["events"] / ops, "count"),
        "obs.trace.spans_per_op": (by_name["obs.trace:Tracer.begin"] / ops, "count"),
        "obs.trace.kept_ratio": (
            delta["traces_kept"] / seen if seen else 0.0, "ratio"),
        "obs.scrapes": (delta["scrapes"], "count"),
        "security.events": (delta["storm_events"], "count"),
        "host.op_ms_p50": op_ms(plain, 0.50),
        "host.op_ms_p99": op_ms(plain, 0.99),
        "host.gc_ms_per_op": (
            plain["gc_pause_ns"] / 1e6 / ops / plain["speed"], "ms"),
        "host.gc_collections_per_op": (plain["gc_collections"] / ops, "count"),
        "host.unattributed_us_per_op": (
            traced["self_ns"]["host.unattributed"] / us_per_op, "us"),
        "host.trace_overhead_ratio": (
            (traced["wall_ns"] / traced["speed"])
            / (plain["wall_ns"] / plain["speed"]), "ratio"),
    })
    return metrics


# ------------------------------------------------------------------ main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
        help="one workload, or all of them, each in a fresh interpreter",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--phase", choices=("traced",),
        help="internal: run only the traced phase and print its ledger as JSON",
    )
    parser.add_argument(
        "--update-golden", action="store_true",
        help="record this run's digest as the golden one (default seed and "
        "seconds only) instead of comparing against it",
    )
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in turn, each in a fresh interpreter."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        raise SystemExit("error: --seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    if args.phase == "traced":
        print(json.dumps(run_traced(args.workload, args.seed, args.seconds)))
        return 0

    plain = run_untraced(args.workload, args.seed, args.seconds)
    work = plain["work"]
    digest = json.loads(json.dumps(work.digest(), sort_keys=True))
    errors = work.invariant_errors()
    errors += golden_errors(args.workload, args.seed, args.seconds, digest,
                            args.update_golden)
    if args.trace:
        budget = RUN_DEADLINE_S - (time.perf_counter() - _START)
        traced = spawn_traced(args, budget)
        if traced["digest"] != digest:
            errors.append("traced run changed the simulated digest")
        errors += ledger_errors(args.workload, traced)
        metrics = per_layer(plain, traced)
        print(f"# spans: {traced['spans_file']}")
        print(f"# traced host speed factor = {traced['speed']:.4f}")
    else:
        metrics = end_to_end(plain)
    for metric, (value, unit, *samples) in metrics.items():
        print(f"# {metric} = {value:.6g} {unit}", *(f"({s})" for s in samples))
    if not args.trace:
        not_ok = work.registrations - work.outcomes.get("ok", 0)
        for metric, (value, unit, samples) in {
            "op_ms_p50": op_ms(plain, 0.50),
            "op_ms_p99": op_ms(plain, 0.99),
            "fail_ratio": (not_ok / work.registrations, "ratio",
                           f"{not_ok} of {work.registrations} registrations"),
        }.items():
            print(f"# {metric} = {value:.6g} {unit} ({samples}; not gated)")
        count = len(work.ops)
        print(f"# raw ops_per_s = {count / (plain['wall_ns'] / 1e9):.6g} ops/s "
              f"(host time, not scaled; not gated)")
    print(f"# set-up: imports {plain['import_s']:.4f} s, builds "
          + ", ".join(f"{value:.4f}" for value in plain["setup_s"]) + " s")
    print(f"# host speed factor = {plain['speed']:.4f} "
          f"(mean of {plain['bursts']} reference bursts)")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if errors:
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": len(work.ops),
        "failed": work.failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit, *_) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
