#!/usr/bin/env python3
"""Validates a gorder run report (--json-out) against schema v1.

Stdlib-only so it runs anywhere python3 exists (CI bench-smoke job).

Usage:
  tools/check_report.py REPORT.json [--require-depth=N]
                        [--require-metric=NAME ...]
                        [--require-span=NAME ...] [--trace=TRACE.json]

Exit status: 0 if the report (and optional trace) is valid, 1 otherwise,
with one diagnostic per violation on stderr.

Versioning: `schema_version` bumps on incompatible changes and must
match exactly; `schema_minor` (absent = 0) bumps on backward-compatible
additions and any value this validator does not know yet is accepted.
Minor 1 added the store.* family — pack/ordering-cache counters
(store.pack_hit, store.pack_miss, store.ordering_hit, store.ordering_miss,
store.ordering_write, store.pack_write_bytes, store.mmap_load_bytes, ...)
and spans (store.pack_write, store.mmap_load, store.ordering_lookup) —
emitted by runs with an active --store-dir.
Minor 2 added the serve.*/loadgen.*/net.* families (gorderd daemon and
its load generator).
Minor 3 added the top-level "windows" section: per-WindowedHistogram
{"10s": {...}, "60s": {...}} latency snapshots, each window carrying
count/sum/p50/p99/p999 as non-negative integers. Absent in pre-minor-3
reports; empty for runs that never record into a windowed histogram.
Minor 4 added env.affinity_cpus: the CPU count of the process's
sched_getaffinity mask, or -1 where that call failed.
"""

import argparse
import json
import math
import sys

SCHEMA_NAME = "gorder-run-report"
SCHEMA_VERSION = 1

_errors = []


def err(msg):
    _errors.append(msg)
    print(f"check_report: {msg}", file=sys.stderr)


def expect(cond, msg):
    if not cond:
        err(msg)
    return cond


def check_env(env, minor):
    if not expect(isinstance(env, dict), "env must be an object"):
        return
    keys = [
        ("cpu_model", str),
        ("compiler", str),
        ("git_sha", str),
        ("os", str),
        ("threads", int),
        ("hardware_concurrency", int),
        ("obs_enabled", bool),
        ("hw_counters_available", bool),
        ("cache", dict),
    ]
    if isinstance(minor, int) and minor >= 4:
        keys.append(("affinity_cpus", int))
    for key, kind in keys:
        value = env.get(key)
        # bool is an int subclass in Python; no int field may be a bool.
        expect(isinstance(value, kind) and
               (kind is bool or not isinstance(value, bool)),
               f"env.{key} must be {kind.__name__}")
    cache = env.get("cache", {})
    if isinstance(cache, dict):
        for key in ["l1d_bytes", "l2_bytes", "l3_bytes", "line_bytes"]:
            expect(isinstance(cache.get(key), int),
                   f"env.cache.{key} must be int")


def check_metrics(metrics):
    if not expect(isinstance(metrics, dict), "metrics must be an object"):
        return
    for name, value in metrics.items():
        expect(isinstance(name, str) and name,
               f"metric name {name!r} must be a non-empty string")
        expect(isinstance(value, int) and value >= 0,
               f"metric {name}: value must be a non-negative integer")


def check_histograms(hists):
    if not expect(isinstance(hists, dict), "histograms must be an object"):
        return
    for name, h in hists.items():
        if not expect(isinstance(h, dict), f"histogram {name} must be object"):
            continue
        expect(isinstance(h.get("count"), int),
               f"histogram {name}.count must be int")
        expect(isinstance(h.get("sum"), int),
               f"histogram {name}.sum must be int")
        buckets = h.get("buckets")
        if expect(isinstance(buckets, list),
                  f"histogram {name}.buckets must be a list"):
            expect(all(isinstance(b, int) and b >= 0 for b in buckets),
                   f"histogram {name}.buckets must be non-negative ints")
            expect(sum(buckets) == h.get("count"),
                   f"histogram {name}: bucket sum != count")


def check_windows(windows):
    if windows is None:
        return  # pre-minor-3 report
    if not expect(isinstance(windows, dict), "windows must be an object"):
        return
    for name, spec in windows.items():
        expect(isinstance(name, str) and name,
               f"window name {name!r} must be a non-empty string")
        if not expect(isinstance(spec, dict) and set(spec) == {"10s", "60s"},
                      f"windows[{name}] must hold exactly '10s' and '60s'"):
            continue
        for label, w in spec.items():
            path = f"windows[{name}].{label}"
            if not expect(isinstance(w, dict), f"{path} must be an object"):
                continue
            for key in ["count", "sum", "p50", "p99", "p999"]:
                v = w.get(key)
                expect(isinstance(v, int) and not isinstance(v, bool)
                       and v >= 0,
                       f"{path}.{key} must be a non-negative integer")
            if all(isinstance(w.get(k), int) for k in ["p50", "p99", "p999"]):
                expect(w["p50"] <= w["p99"] <= w["p999"],
                       f"{path}: quantiles must be non-decreasing "
                       f"(p50 <= p99 <= p999)")


def check_span(span, path, depth):
    if not expect(isinstance(span, dict), f"{path}: span must be an object"):
        return 0
    name = span.get("name")
    expect(isinstance(name, str) and name,
           f"{path}: span name must be a non-empty string")
    expect(isinstance(span.get("tid"), int), f"{path}: tid must be int")
    for key in ["start_s", "dur_s"]:
        v = span.get(key)
        ok = isinstance(v, (int, float)) and not isinstance(v, bool)
        expect(ok, f"{path}: {key} must be a number")
        if ok:
            expect(math.isfinite(v), f"{path}: {key} must be finite")
    dur = span.get("dur_s")
    if isinstance(dur, (int, float)):
        expect(dur >= 0, f"{path}: dur_s must be >= 0 (span left open?)")
    if "metrics" in span:
        check_metrics(span["metrics"])
    max_depth = depth
    for i, child in enumerate(span.get("children", [])):
        child_path = f"{path}.children[{i}]"
        max_depth = max(max_depth, check_span(child, child_path, depth + 1))
        if isinstance(child, dict):
            cs, ps = child.get("start_s"), span.get("start_s")
            if isinstance(cs, (int, float)) and isinstance(ps, (int, float)):
                expect(cs >= ps,
                       f"{child_path}: child starts before its parent")
    return max_depth


def span_names(span, out):
    if isinstance(span, dict):
        if isinstance(span.get("name"), str):
            out.add(span["name"])
        for child in span.get("children", []):
            span_names(child, out)


def check_report(doc, require_depth, require_metrics, require_spans):
    expect(doc.get("schema") == SCHEMA_NAME,
           f"schema must be {SCHEMA_NAME!r}, got {doc.get('schema')!r}")
    expect(doc.get("schema_version") == SCHEMA_VERSION,
           f"schema_version must be {SCHEMA_VERSION}")
    # Backward/forward-compatible minor: absent (pre-minor reports) = 0,
    # unknown larger values are fine by definition.
    minor = doc.get("schema_minor", 0)
    expect(isinstance(minor, int) and minor >= 0,
           f"schema_minor must be a non-negative int (got {minor!r})")
    expect(isinstance(doc.get("bench"), str) and doc.get("bench"),
           "bench must be a non-empty string")
    expect(isinstance(doc.get("timestamp_unix"), int),
           "timestamp_unix must be int")
    expect(isinstance(doc.get("flags"), dict), "flags must be an object")
    check_env(doc.get("env"), minor)
    check_metrics(doc.get("metrics", {}))
    check_histograms(doc.get("histograms", {}))
    check_windows(doc.get("windows"))
    if isinstance(minor, int) and minor >= 3:
        expect("windows" in doc,
               "schema_minor >= 3 requires a windows section")
    spans = doc.get("spans")
    if expect(isinstance(spans, list), "spans must be a list"):
        max_depth = max((check_span(s, f"spans[{i}]", 1)
                         for i, s in enumerate(spans)), default=0)
        if require_depth:
            expect(max_depth >= require_depth,
                   f"span tree depth {max_depth} < required {require_depth}")
    for name in require_metrics:
        value = doc.get("metrics", {}).get(name)
        expect(isinstance(value, int) and value > 0,
               f"required metric {name} missing or zero (got {value!r})")
    if require_spans:
        seen = set()
        for s in spans if isinstance(spans, list) else []:
            span_names(s, seen)
        for name in require_spans:
            expect(name in seen,
                   f"required span {name!r} not found in the span tree")


def check_trace(doc):
    events = doc.get("traceEvents")
    if not expect(isinstance(events, list) and events,
                  "trace: traceEvents must be a non-empty list"):
        return
    for i, ev in enumerate(events):
        if not expect(isinstance(ev, dict), f"trace[{i}]: must be object"):
            continue
        expect(ev.get("ph") == "X", f"trace[{i}]: ph must be 'X'")
        for key in ["name", "cat"]:
            expect(isinstance(ev.get(key), str), f"trace[{i}]: bad {key}")
        for key in ["ts", "dur"]:
            v = ev.get(key)
            expect(isinstance(v, (int, float)) and math.isfinite(v),
                   f"trace[{i}]: bad {key}")
        for key in ["pid", "tid"]:
            expect(isinstance(ev.get(key), int), f"trace[{i}]: bad {key}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report")
    parser.add_argument("--require-depth", type=int, default=0,
                        help="minimum span-tree nesting depth")
    parser.add_argument("--require-metric", action="append", default=[],
                        help="metric that must exist with a nonzero value")
    parser.add_argument("--require-span", action="append", default=[],
                        help="span name that must appear in the span tree")
    parser.add_argument("--trace", default=None,
                        help="also validate a --trace-out file")
    args = parser.parse_args()

    try:
        with open(args.report) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        err(f"{args.report}: {e}")
        return 1
    check_report(doc, args.require_depth, args.require_metric,
                 args.require_span)

    if args.trace is not None:
        try:
            with open(args.trace) as f:
                check_trace(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            err(f"{args.trace}: {e}")

    if _errors:
        print(f"check_report: {len(_errors)} violation(s) in {args.report}",
              file=sys.stderr)
        return 1
    print(f"check_report: {args.report} OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
