#!/usr/bin/env python3
"""Compare two BENCH_<figure>.json documents for performance regressions.

Usage:
    bench_diff.py BASELINE.json CANDIDATE.json [options]

Points are matched by their (app, x, series) sweep coordinates, which
must not repeat within a document: a repeated key is a usage error, since
one of the two points would drop out of the comparison. For every matched
point the tool compares:

  * sim_time, shuffle_bytes and rank_peak (the worst single rank's
    memory high-water, present when the point carries a stats profile)
    exactly: at a relative tolerance of 1e-9 (the JSON prints about 12
    significant digits) they must match in either direction. A field
    only one of the two documents carries fails the diff.
  * seconds, wait_seconds, mem_peak, io_wait_seconds and
    io_hidden_seconds of every phase the baseline point carries,
    exactly; a phase field a document lacks counts as 0. A phase only
    the candidate has is listed but never fails the diff; a baseline
    phase the candidate lacks does.
  * node_peak      (relative threshold, --mem-pct): it follows the
    interleaving of the rank threads.
  * wait fraction  (absolute threshold, --wait-abs): the run's total
    collective wait divided by nranks * sim_time, i.e. the mean share of
    rank time spent blocked in collectives. Only computed when both
    documents carry the schema-2 "wait" stats section.
  * imbalance_ratio (absolute threshold, --imbalance-abs): max over mean
    of per-rank received shuffle bytes — the metric mimir.balance exists
    to push down. Compared only when both documents carry it.
  * io_wait_fraction (absolute threshold, --io-wait-abs): the run's
    total exposed PFS stall divided by nranks * sim_time — the share of
    rank time spent blocked on the filesystem. An increase beyond the
    threshold is a regression.
  * io_hidden_seconds (relative threshold, --io-hidden-pct): PFS cost
    the async I/O pipeline covered with compute. Unlike every other
    metric, a *decrease* is the regression — less overlap means the
    pipeline stopped hiding I/O. Baselines written before the "io"
    stats section existed simply lack it: the diff reports "n/a" for
    both io metrics and never fails on them.

A point whose status degrades (ok/spill -> oom/err) is always a
regression; a baseline point missing from the candidate is too. New
points in the candidate are reported but never fail the diff. A
node_peak or io_hidden_seconds that is zero or absent in the baseline
has no meaningful relative change: it is reported as "n/a" and never
counts as a regression (the presence checks above still guard the
point itself).

--require NAME=VALUE (repeatable) asserts a flag in the candidate's
top-level "flags" object — e.g. `--require race_checked=false` lets a
perf-smoke baseline refuse numbers collected with the mimir-race
analyzer on (the accounting adds host-side work, and a perf baseline
must describe the configuration it claims to). Values compare as
strings after lowercasing, so booleans are written true/false.

Exit codes: 0 = no regression, 1 = regression found, 2 = usage error.
"""

import argparse
import json
import sys

RUNNABLE = {"ok", "spill"}
EXACT_REL = 1e-9
EXACT_PHASE_FIELDS = ("seconds", "wait_seconds", "mem_peak",
                      "io_wait_seconds", "io_hidden_seconds")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if "points" not in doc:
        print(f"bench_diff: {path} has no points array", file=sys.stderr)
        raise SystemExit(2)
    seen = set()
    for point in doc["points"]:
        key = point_key(point)
        if key in seen:
            print(f"bench_diff: {path} repeats point key "
                  f"{' / '.join(k for k in key if k)!r}", file=sys.stderr)
            raise SystemExit(2)
        seen.add(key)
    return doc


def point_key(point):
    return (point.get("app", ""), point.get("x", ""), point.get("series", ""))


def wait_fraction(point):
    """Mean share of rank time spent waiting, or None when unavailable."""
    stats = point.get("stats", {})
    wait = stats.get("wait")
    if wait is None:
        return None
    sim_time = point.get("sim_time", 0.0)
    nranks = len(wait.get("per_rank", []))
    if sim_time <= 0.0 or nranks == 0:
        return None
    return wait.get("total_seconds", 0.0) / (nranks * sim_time)


def io_stats(point):
    """The point's (wait_fraction, hidden_seconds) I/O attribution, or
    (None, None) when the document predates the "io" stats section."""
    stats = point.get("stats", {})
    io = stats.get("io")
    if io is None:
        return None, None
    hidden = io.get("hidden_seconds", 0.0)
    sim_time = point.get("sim_time", 0.0)
    nranks = len(io.get("per_rank_wait", []))
    if sim_time <= 0.0 or nranks == 0:
        return None, hidden
    return io.get("wait_seconds", 0.0) / (nranks * sim_time), hidden


def rel_change(base, cand):
    """Relative change against a non-zero baseline."""
    return (cand - base) / base


def fmt_pct(x):
    return f"{x * 100:+.2f}%"


def exact_equal(base, cand):
    return abs(cand - base) <= EXACT_REL * abs(base)


def exact_phase_diffs(base, cand):
    """Yields (metric, text, regressed) for every baseline phase
    field the candidate does not match, and for every phase only the
    candidate has (listed, never a regression)."""
    b_phases = base.get("stats", {}).get("phases", {})
    c_phases = cand.get("stats", {}).get("phases", {})
    for name, b_phase in b_phases.items():
        c_phase = c_phases.get(name)
        if c_phase is None:
            yield f"phase {name}", "missing from candidate", True
            continue
        for field in EXACT_PHASE_FIELDS:
            b_val, c_val = b_phase.get(field, 0), c_phase.get(field, 0)
            if not exact_equal(b_val, c_val):
                yield (f"phase {name}.{field}",
                       f"{b_val} -> {c_val} (exact)", True)
    for name in c_phases:
        if name not in b_phases:
            yield f"phase {name}", "new phase (not in baseline)", False


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bench_diff.py",
        description="Diff two BENCH_*.json files for regressions.")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--mem-pct", type=float, default=5.0,
                        help="allowed node_peak increase, percent (default 5)")
    parser.add_argument("--wait-abs", type=float, default=0.05,
                        help="allowed wait-fraction increase, absolute "
                             "(default 0.05)")
    parser.add_argument("--imbalance-abs", type=float, default=0.5,
                        help="allowed imbalance_ratio increase, absolute "
                             "(default 0.5)")
    parser.add_argument("--io-wait-abs", type=float, default=0.05,
                        help="allowed io-wait-fraction increase, absolute "
                             "(default 0.05)")
    parser.add_argument("--io-hidden-pct", type=float, default=25.0,
                        help="allowed io_hidden_seconds DECREASE, percent "
                             "(default 25)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="assert candidate flags[NAME] == VALUE "
                             "(repeatable), e.g. race_checked=false")
    args = parser.parse_args(argv)
    requirements = []
    for spec in args.require:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            parser.error(f"--require needs NAME=VALUE, got {spec!r}")
        requirements.append((name, value))
    for name in ("mem_pct", "wait_abs", "imbalance_abs", "io_wait_abs",
                 "io_hidden_pct"):
        if getattr(args, name) < 0:
            parser.error(f"--{name.replace('_', '-')} must be >= 0")

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)

    flag_failures = []
    cand_flags = cand_doc.get("flags", {})
    for name, want in requirements:
        if name not in cand_flags:
            flag_failures.append(
                f"required flag {name!r} missing from candidate "
                f"(flags present: {sorted(cand_flags) or 'none'})")
            continue
        got = json.dumps(cand_flags[name]) \
            if not isinstance(cand_flags[name], str) else cand_flags[name]
        if got.lower() != want.lower():
            flag_failures.append(
                f"flag {name!r} is {got}, required {want}")
    if flag_failures:
        for failure in flag_failures:
            print(f"bench_diff: {failure}", file=sys.stderr)
        print("bench_diff: FAIL")
        return 1

    base_points = {point_key(p): p for p in base_doc["points"]}
    cand_points = {point_key(p): p for p in cand_doc["points"]}

    rows = []
    regressions = []

    def note(key, metric, text, regressed):
        rows.append((" / ".join(k for k in key if k) or "(unlabelled)",
                     metric, text, regressed))
        if regressed:
            regressions.append(f"{' / '.join(k for k in key if k)}: {text}")

    for key, base in base_points.items():
        cand = cand_points.get(key)
        if cand is None:
            note(key, "presence", "point missing from candidate", True)
            continue

        b_status, c_status = base.get("status"), cand.get("status")
        if b_status in RUNNABLE and c_status not in RUNNABLE:
            note(key, "status", f"{b_status} -> {c_status}", True)
            continue
        if b_status != c_status:
            note(key, "status", f"{b_status} -> {c_status}", False)
        if c_status not in RUNNABLE:
            continue

        for field in ("sim_time", "rank_peak", "shuffle_bytes"):
            if field not in base and field not in cand:
                continue  # metric predates both documents (e.g. rank_peak)
            b_val, c_val = base.get(field, 0), cand.get(field, 0)
            if field not in base:
                note(key, field,
                     f"absent from baseline; candidate {c_val} (exact)", True)
            elif not exact_equal(b_val, c_val):
                note(key, field, f"{b_val} -> {c_val} (exact)", True)

        b_peak, c_peak = base.get("node_peak", 0), cand.get("node_peak", 0)
        if "node_peak" not in base or b_peak == 0:
            # A relative threshold is meaningless against a zero or
            # absent baseline: report the value, never fail on it.
            if "node_peak" not in base:
                note(key, "node_peak",
                     f"n/a (absent from baseline; candidate {c_peak})", False)
            elif c_peak != 0:
                note(key, "node_peak",
                     f"n/a (baseline is 0; candidate {c_peak})", False)
        else:
            change = rel_change(b_peak, c_peak)
            over = change * 100.0 > args.mem_pct
            if over or change != 0.0:
                note(key, "node_peak",
                     f"{b_peak} -> {c_peak} "
                     f"({fmt_pct(change)}, limit +{args.mem_pct:g}%)", over)

        for metric, text, regressed in exact_phase_diffs(base, cand):
            note(key, metric, text, regressed)

        b_wait, c_wait = wait_fraction(base), wait_fraction(cand)
        if b_wait is not None and c_wait is not None:
            delta = c_wait - b_wait
            over = delta > args.wait_abs
            if over or abs(delta) > 1e-12:
                note(key, "wait_fraction",
                     f"{b_wait:.4f} -> {c_wait:.4f} "
                     f"({delta:+.4f}, limit +{args.wait_abs:g})", over)

        b_imb, c_imb = base.get("imbalance_ratio"), cand.get("imbalance_ratio")
        if b_imb is None and c_imb is not None:
            # Baseline predates the metric: report, never regress.
            note(key, "imbalance_ratio",
                 f"n/a (absent from baseline; candidate {c_imb:.4f})", False)
        elif b_imb is not None and c_imb is not None:
            delta = c_imb - b_imb
            over = delta > args.imbalance_abs
            if over or abs(delta) > 1e-12:
                note(key, "imbalance_ratio",
                     f"{b_imb:.4f} -> {c_imb:.4f} "
                     f"({delta:+.4f}, limit +{args.imbalance_abs:g})", over)

        b_io_wait, b_io_hidden = io_stats(base)
        c_io_wait, c_io_hidden = io_stats(cand)
        if b_io_hidden is None and c_io_hidden is not None:
            # Baseline predates the "io" stats section: report, never
            # regress (mirrors imbalance_ratio above).
            note(key, "io_wait_fraction",
                 "n/a (absent from baseline; candidate "
                 f"{c_io_wait:.4f})" if c_io_wait is not None
                 else "n/a (absent from baseline)", False)
            note(key, "io_hidden_seconds",
                 f"n/a (absent from baseline; candidate {c_io_hidden:.4f})",
                 False)
        else:
            if b_io_wait is not None and c_io_wait is not None:
                delta = c_io_wait - b_io_wait
                over = delta > args.io_wait_abs
                if over or abs(delta) > 1e-12:
                    note(key, "io_wait_fraction",
                         f"{b_io_wait:.4f} -> {c_io_wait:.4f} "
                         f"({delta:+.4f}, limit +{args.io_wait_abs:g})",
                         over)
            if b_io_hidden is not None and c_io_hidden is not None:
                if b_io_hidden == 0:
                    if c_io_hidden != 0:
                        note(key, "io_hidden_seconds",
                             f"n/a (baseline is 0; candidate "
                             f"{c_io_hidden:.4f})", False)
                else:
                    change = rel_change(b_io_hidden, c_io_hidden)
                    # Hidden I/O shrinking means the pipeline stopped
                    # overlapping: the regression direction is down.
                    over = -change * 100.0 > args.io_hidden_pct
                    if over or change != 0.0:
                        note(key, "io_hidden_seconds",
                             f"{b_io_hidden:.4f} -> {c_io_hidden:.4f} "
                             f"({fmt_pct(change)}, limit "
                             f"-{args.io_hidden_pct:g}%)", over)

    for key in cand_points:
        if key not in base_points:
            note(key, "presence", "new point (not in baseline)", False)

    if rows:
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        print(f"{'point':<{widths[0]}}  {'metric':<{widths[1]}}  change")
        print(f"{'-' * widths[0]}  {'-' * widths[1]}  {'-' * widths[2]}")
        for point, metric, text, regressed in rows:
            marker = "  <-- REGRESSION" if regressed else ""
            print(f"{point:<{widths[0]}}  {metric:<{widths[1]}}  "
                  f"{text}{marker}")
    matched = sum(1 for k in base_points if k in cand_points)
    print(f"\n{matched} matched points, {len(regressions)} regressions")
    if regressions:
        print("bench_diff: FAIL")
        return 1
    print("bench_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
