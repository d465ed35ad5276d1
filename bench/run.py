"""linkimm benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

One workload per process:

    python3 bench/run.py --workload tree_reports --seed 1 --seconds 25 --trace 0

measures for ``--seconds`` seconds with one client (the next report starts
when the previous one has finished), checks every distinct output with
:mod:`check`, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
``--out FILE`` also writes the full record (tail percentile and sample
count, error rate, output digest, Python version, git SHA).

All workloads, untraced then traced, each in its own fresh process:

    python3 bench/run.py --all --seed 1 --seconds 25 --out results.json

Two such result files side by side:

    python3 bench/run.py --compare old.json new.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import workloads

ROOT, SRC = workloads.ROOT, workloads.SRC
SETUP_PROBES = 7  # spread evenly over the run, so they meet the machine as the reports do

END_TO_END = {
    "report_ms_p50": "ms",
    "report_ms_tail": "ms",
    "reports_per_s": "1/s",
    "setup_s": "s",
    "output_bytes": "bytes",
    "peak_rss_mib": "MiB",
}

LAYER_CALLS = (
    "linalg.smith_normal_form", "linalg.signature", "linalg.kernel_mod2", "linalg.cokernel",
    "plumbing.link_first_homology", "plumbing.filling_signature", "plumbing.intersection_matrix",
    "plumbing.recognize_dynkin", "plumbing.from_dict", "wu.bockstein",
    "classify.table_row", "classify.classify_link_inclusion",
    "classify.classify_kinjo_pushforward", "classify.formal_smale_type",
)
LAYER_SELF_ONLY = (
    "wu.gamma2", "wu.realize_parallelization", "smale.kinjo_smale",
    "cli.graph_payload", "cli.link_payload", "cli.table_payload", "cli.smale_payload",
    "cli.bockstein_payload", "cli.render",
)
PER_LAYER = (
    {f"{n}.calls": "count" for n in LAYER_CALLS}
    | {f"{n}.self_ms": "ms" for n in LAYER_CALLS + LAYER_SELF_ONLY}
    | {
        "linalg.smith_normal_form.distinct_ratio": "ratio",
        "linalg.smith_normal_form.max_coeff_bits": "bits",
        "wu.gamma2.classes": "count",
        "wu.realize_parallelization.hit_ratio": "ratio",
        "catalog.singularity_record.calls": "count",
        "cli.process.import_ms": "ms",
        "cli.process.run_ms": "ms",
        "trace.report_ms_p50": "ms",
    }
)

# Which end-to-end metric, on which workload, each layer metric should move.
LAYER_MAP = {
    "linalg.smith_normal_form": "report_ms_p50 on tree_reports and torsion_stars",
    "linalg.smith_normal_form.max_coeff_bits": "output_bytes on tree_reports",
    "linalg.signature": "report_ms_tail on dynkin_sweep, report_ms_p50 on tree_reports; "
                        "not torsion_stars",
    "linalg.kernel_mod2": "report_ms_p50 on tree_reports",
    "linalg.cokernel": "report_ms_p50 on tree_reports",
    "plumbing": "report_ms_p50 on dynkin_sweep",
    "plumbing.from_dict": "setup_s",
    "wu.bockstein": "report_ms_p50 on tree_reports and torsion_stars",
    "wu.gamma2": "output_bytes and peak_rss_mib on torsion_stars",
    "wu.realize_parallelization": "report_ms_p50 and report_ms_tail on torsion_stars",
    "classify": "report_ms_p50 on dynkin_sweep",
    "smale": "report_ms_p50 on dynkin_sweep",
    "catalog": "report_ms_p50 on dynkin_sweep",
    "cli.process": "report_ms_p50 and setup_s on cli_catalog",
    "cli": "report_ms_p50 on tree_reports",
    "trace": "tracing overhead = trace.report_ms_p50 - report_ms_p50",
}


def layer_target(metric):
    """Longest LAYER_MAP key that prefixes the metric name."""
    keys = [k for k in LAYER_MAP if metric == k or metric.startswith(k + ".")]
    return LAYER_MAP[max(keys, key=len)] if keys else ""


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "linkimm", "__init__.py")):
        fail(f"no linkimm sources under {SRC}")
    sys.path.insert(0, SRC)
    import linkimm

    if not os.path.abspath(linkimm.__file__).startswith(SRC + os.sep):
        fail(f"imported linkimm from {linkimm.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# one workload run


def probe_setup(name, seed):
    """Wall time from launching a fresh interpreter to its inputs being ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name,
         "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    if proc.wait() != 0 or line.strip() != "ready":
        fail(f"set-up probe for {name} failed")
    return elapsed


def tail(sorted_values):
    """(value, percentile): the highest percentile with at least ten samples beyond it."""
    n = len(sorted_values)
    k = max(n - 11, 0) if n > 10 else n - 1
    return sorted_values[k], 100.0 * (k + 1) / n


class Outputs:
    """First outputs of each distinct input, kept on disk so they add no RSS."""

    def __init__(self):
        self.dir = workloads.make_tmp("out-")
        self.digest = {}
        self.size = {}

    def add(self, i, outs):
        """Store the first outputs for input i; returns False if a repeat differs."""
        h = hashlib.sha256()
        for text in outs:
            data = text.encode()
            h.update(len(data).to_bytes(8, "big"))
            h.update(data)
        digest = h.hexdigest()
        if i in self.digest:
            return self.digest[i] == digest
        self.digest[i] = digest
        self.size[i] = sum(len(t.encode()) for t in outs)
        with open(os.path.join(self.dir, f"{i}.json"), "w", encoding="utf-8") as fh:
            json.dump(list(outs), fh)
        return True

    def load(self, i):
        with open(os.path.join(self.dir, f"{i}.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def close(self):
        workloads.remove_tmp(self.dir)


def run_workload(name, seed, seconds, trace):
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        workloads.render = tracer.wrap("cli.render", workloads.render)
    wl = workloads.WORKLOADS[name](seed)
    wl.traced = bool(trace)
    store = Outputs()
    probe = None if trace else (lambda: probe_setup(name, seed))
    try:
        return _measure(wl, store, seed, seconds, tracer, probe)
    finally:
        store.close()
        wl.close()


def _measure(wl, store, seed, seconds, tracer, probe):
    now = time.perf_counter_ns
    times, input_of, errors, bad_reports = [], [], [], set()
    budget = seconds * 1_000_000_000
    bookkeeping = 0  # digesting and storing outputs, and set-up probes: not the run's time
    setup_end = len(tracer.spans) if tracer else 0
    setup_times = []
    start = now()
    while now() - start - bookkeeping < budget:
        due = len(setup_times) * budget / SETUP_PROBES
        if probe and len(setup_times) < SETUP_PROBES and now() - start - bookkeeping >= due:
            t0 = now()
            setup_times.append(probe())
            bookkeeping += now() - t0
        k = len(times)
        i = wl.order[k % len(wl.order)]
        t0 = now()
        try:
            outs = wl.report(i)
        except Exception as exc:  # a failed report is counted, the run goes on
            outs = None
            errors.append(f"input {i}: {type(exc).__name__}: {exc}")
        t1 = now()
        times.append(t1 - t0)
        input_of.append(i)
        if outs is None or not store.add(i, outs):
            bad_reports.add(k)
            if outs is not None:
                errors.append(f"input {i}: output differs from its first rendering")
        bookkeeping += now() - t1
    wall_ns = now() - start - bookkeeping
    rss_kib = wl.peak_rss_kib()
    while probe and len(setup_times) < SETUP_PROBES:  # a run too short for all of them
        setup_times.append(probe())
    span_end = len(tracer.spans) if tracer else 0
    reports = len(times)
    coverage = []
    if tracer and wl.coverage:
        try:
            coverage = tracer.uncovered(lambda: [wl.report(i) for i in wl.coverage], wl.REACHES)
        except Exception as exc:  # the report itself fails; the loop has counted that
            coverage = [f"tracer coverage not checked: {type(exc).__name__}: {exc}"]
    errors += coverage

    # inputs of the pool the run did not reach are rendered now, untimed
    pool = sorted(wl.order)
    late_failures = 0
    for i in pool:
        if i not in store.digest:
            try:
                store.add(i, wl.report(i))
            except Exception as exc:
                late_failures += 1
                errors.append(f"input {i} (after the run): {type(exc).__name__}: {exc}")
    failed_inputs = set()
    for i in sorted(store.digest):
        problems = wl.check(i, store.load(i))
        if problems:
            failed_inputs.add(i)
            errors += [f"input {i}: {p}" for p in problems[:3]]
    late = [i for i in pool if i not in input_of]
    attempted = reports + len(late)
    failed = late_failures + sum(
        1 for k, i in enumerate(input_of + late) if k in bad_reports or i in failed_inputs)

    ordered = sorted(times)
    tail_ns, tail_pct = tail(ordered)
    p50_ms = statistics.median(ordered) / 1e6
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(tracer),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "tail": {"percentile": tail_pct, "samples": len(times)},
        "distinct_inputs_reached": len(set(input_of)),
        # reports whose input an earlier report of the run already had: what
        # a cache kept across reports could gain from
        "repeat_share": 1 - len(set(input_of)) / reports,
        "output_digest": hashlib.sha256(
            "".join(store.digest.get(i, "-") for i in pool).encode()).hexdigest(),
        "errors": errors[:20],
    }
    if tracer:
        metrics, structure = layer_metrics(tracer, setup_end, span_end, reports)
        metrics["trace.report_ms_p50"] = p50_ms
        if wl.name == "cli_catalog":
            imp, run = zip(*wl.child_times[:reports])
            metrics["cli.process.import_ms"] = sum(imp) / reports
            metrics["cli.process.run_ms"] = sum(run) / reports
        record["call_structure_changes"] = sorted(set(structure))[:10]
        record["metrics"] = {m: {"value": metrics[m], "unit": u} for m, u in PER_LAYER.items()}
    else:
        values = {
            "report_ms_p50": p50_ms,
            "report_ms_tail": tail_ns / 1e6,
            "reports_per_s": reports / (wall_ns / 1e9),
            "setup_s": statistics.median(setup_times),
            "output_bytes": sum(store.size.get(i, 0) for i in pool),
            "peak_rss_mib": rss_kib / 1024,
        }
        record["metrics"] = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    record["correct"] = failed == 0 and not coverage
    return record


def layer_metrics(tracer, setup_end, span_end, reports):
    """Layer totals of the timed loop per report, and of ``from_dict`` per set-up.

    Spans before ``setup_end`` come from building the workload's inputs;
    of those only ``plumbing.from_dict`` is reported, as a total for the
    one set-up, so it does not change with how many reports a run fits in.
    """
    spans = tracer.spans[:span_end]
    self_ns = tracer.self_times()[:span_end]
    setup_ns = [ns for span, ns in zip(spans[:setup_end], self_ns)
                if span[0] == "plumbing.from_dict"]
    calls, self_total = defaultdict(int), defaultdict(int)
    snf_keys, snf_bits, classes, hits = set(), 0, 0, 0
    for idx, (name, _, _, _, (pre, post, ok)) in enumerate(spans):
        if idx < setup_end:
            continue
        calls[name] += 1
        self_total[name] += self_ns[idx]
        if name == "linalg.smith_normal_form":
            snf_keys.add(pre)
            snf_bits = max(snf_bits, post or 0)
        elif name == "wu.gamma2" and ok:
            classes += post
        elif name == "wu.realize_parallelization" and ok:
            hits += 1

    owners = {"cli.graph_payload", "cli.link_payload", "classify.table_row"}
    counted = defaultdict(lambda: [0, 0])
    tries = 0
    for idx, span in enumerate(spans):
        if span[0] in ("linalg.smith_normal_form", "linalg.signature"):
            owner = tracer.nearest(idx, owners)
            if owner is not None:
                counted[owner][span[0] == "linalg.signature"] += 1
        if span[0] == "wu.bockstein" and tracer.nearest(idx, {"wu.realize_parallelization"}) is not None:
            tries += 1
    # (SNF, signature) runs per payload in the seed's code; a refactor may
    # change them, so a difference is reported, not failed (missed
    # rebindings fail the run through Tracer.uncovered instead)
    structure = []
    at_seed = {"cli.link_payload": (3, 2), "classify.table_row": (1, 1)}
    for idx, (name, _, _, _, (_, post, ok)) in enumerate(spans):
        if name in owners and ok:
            want = (3 + post, 2) if name == "cli.graph_payload" else at_seed[name]
            if tuple(counted[idx]) != want:
                structure.append(f"{name} ran (SNF, signature) = {tuple(counted[idx])}, "
                                 f"{want} at seed")

    metrics = {}
    for name in LAYER_CALLS + LAYER_SELF_ONLY + ("catalog.singularity_record",):
        metrics[f"{name}.calls"] = calls[name] / reports
        metrics[f"{name}.self_ms"] = self_total[name] / 1e6 / reports
    metrics["plumbing.from_dict.calls"] = len(setup_ns)
    metrics["plumbing.from_dict.self_ms"] = sum(setup_ns) / 1e6
    snf_calls = calls["linalg.smith_normal_form"]
    metrics["linalg.smith_normal_form.distinct_ratio"] = len(snf_keys) / snf_calls if snf_calls else 0.0
    metrics["linalg.smith_normal_form.max_coeff_bits"] = snf_bits
    metrics["wu.gamma2.classes"] = classes / reports
    metrics["wu.realize_parallelization.hit_ratio"] = hits / tries if tries else 0.0
    metrics["cli.process.import_ms"] = metrics["cli.process.run_ms"] = 0.0
    return metrics, structure


def provenance():
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "machine": platform.machine(), "cpus": os.cpu_count(), "git_sha": sha}


# ---------------------------------------------------------------------------
# --all and --compare


def run_all(seed, seconds, out):
    results = provenance() | {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    tmp = workloads.make_tmp("all-")
    try:
        for name in workloads.WORKLOADS:
            entry = {}
            for trace in (0, 1):
                path = os.path.join(tmp, f"{name}-{trace}.json")
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                     str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", path],
                    cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    fail(f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr.strip()}")
                with open(path, encoding="utf-8") as fh:
                    entry["per_layer" if trace else "end_to_end"] = json.load(fh)
            ok &= entry["end_to_end"]["correct"] and entry["per_layer"]["correct"]
            results["workloads"][name] = summarize(entry)
    finally:
        workloads.remove_tmp(tmp)
    print_results(results)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
    return ok


def summarize(entry):
    e2e, layer = entry["end_to_end"], entry["per_layer"]
    untraced = e2e["metrics"]["report_ms_p50"]["value"]
    traced = layer["metrics"]["trace.report_ms_p50"]["value"]
    return {
        "end_to_end": e2e["metrics"] | {"error_rate": {"value": e2e["error_rate"], "unit": "ratio"}},
        "per_layer": layer["metrics"],
        "tail": e2e["tail"],
        "repeat_share": e2e["repeat_share"],
        "attempted": e2e["attempted"],
        "failed": e2e["failed"],
        "output_digest": e2e["output_digest"],
        "call_structure_changes": layer["call_structure_changes"],
        "trace_overhead_ms": traced - untraced,
        "errors": e2e["errors"] + layer["errors"],
    }


def print_results(results):
    print(f"python {results['python']}, git {results['git_sha']}, seed {results['seed']}, "
          f"{results['seconds']} s per run")
    for name, w in results["workloads"].items():
        changes = w["call_structure_changes"]
        print(f"\n{name}  (tail = p{w['tail']['percentile']:.1f} of {w['tail']['samples']} reports, "
              f"{w['repeat_share']:.0%} of them repeats; "
              f"call structure {'as at seed' if not changes else 'changed: ' + '; '.join(changes)})")
        for metric, m in w["end_to_end"].items():
            print(f"  {metric:<16} {m['value']:>14.4f} {m['unit']}")
        print(f"  tracing overhead {w['trace_overhead_ms']:>14.4f} ms per report (p50)")
        print(f"  output sha256    {w['output_digest']}")
        for err in w["errors"]:
            print(f"  ERROR {err}")


def compare(old_path, new_path):
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    for label, r in (("old", old), ("new", new)):
        print(f"{label}: python {r['python']}, git {r['git_sha']}, seed {r['seed']}")
    for name in old["workloads"]:
        if name not in new["workloads"]:
            print(f"\n{name}: missing from {new_path}")
            continue
        a, b = old["workloads"][name], new["workloads"][name]
        same = "same" if a["output_digest"] == b["output_digest"] else "DIFFERENT"
        print(f"\n{name}  (output digest {same})")
        print(f"  {'metric':<16} {'old':>14} {'new':>14} {'new/old':>8}")
        for metric, m in a["end_to_end"].items():
            x, y = m["value"], b["end_to_end"][metric]["value"]
            ratio = f"{y / x:8.3f}" if x else "       -"
            print(f"  {metric:<16} {x:>14.4f} {y:>14.4f} {ratio}  {m['unit']}")
        for metric, m in a["per_layer"].items():
            x, y = m["value"], b["per_layer"][metric]["value"]
            if x != y:
                print(f"  {metric:<44} {y - x:>+14.4f} {m['unit']:<6} -> {layer_target(metric)}")


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record to this file")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    import_library()
    if args.all:
        return 0 if run_all(args.seed, args.seconds, args.out) else 1
    if not args.workload:
        parser.error("--workload, --all or --compare is required")
    if args.setup_probe:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        wl.close()
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record | provenance(), fh, indent=2)
    for err in record["errors"]:
        print(f"{args.workload}: {err}", file=sys.stderr)
    for change in record.get("call_structure_changes", []):
        print(f"{args.workload}: call structure differs from seed: {change}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
