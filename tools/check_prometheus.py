#!/usr/bin/env python3
"""Lint a Prometheus text-format exposition (as served by GET /metrics).

Usage:
    check_prometheus.py [file ...]      # no args: read stdin
    curl -s localhost:9101/metrics | tools/check_prometheus.py

Checks (text format 0.0.4):
  - metric names match [a-zA-Z_:][a-zA-Z0-9_:]*
  - `# TYPE <name> <type>` lines use a known type, at most once per name,
    and appear before the first sample of that name
  - label syntax: name{label="value",...} with valid label names and
    backslash-escaped values
  - sample values parse as numbers (including +Inf/-Inf/NaN)
  - every sample belongs to a declared metric family (exact name, or
    <family>_sum/_count for summaries/histograms, or <family>_bucket for
    histograms)
  - request-attribution families: when any zab_op_stage_* family appears,
    the full per-stage set (queue_wait, log_fsync, quorum_ack, commit,
    deliver, reply_write) must be declared as summaries, alongside
    zab_op_total_ns — a missing stage silently skews the p99 decomposition
  - wire-batching families: when any zab_batch_* family appears, the full
    set must travel together — zab_batch_propose_txns / _bytes as
    summaries, and the zab_ack_coalesced / zab_commit_coalesced companions
    — a partial scrape makes the frames-per-txn dashboards silently wrong
  - tiered-read families: when any zab_read_* or zab_sync_* family
    appears, the whole read-path set must travel together — the
    zab_read_served_local / _fenced / _not_ready counters plus the
    zab_read_parked_ns and zab_sync_barrier_ns summaries — a scrape with
    only part of the set makes the served-vs-parked read dashboards (and
    the not-ready rotation alarm) silently wrong
  - reconfiguration families: when any zab_reconfig_* family appears, the
    full membership set must travel together — the zab_reconfig_proposed /
    _committed / _aborted counters, the zab_reconfig_join_sync_ns summary,
    and the zab_reconfig_quorum_size / _config_version gauges — alerting on
    a config_version that never advances (or an aborted spike) needs the
    whole family in every scrape

Exit status 0 when clean, 1 with one "line N: ..." diagnostic per problem.
"""

import re
import sys

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}


def parse_value(text):
    if text in ("+Inf", "-Inf", "Inf", "NaN"):
        return True
    try:
        float(text)
        return True
    except ValueError:
        return False


def split_labels(body):
    """Split the inside of {...} into label="value" pairs; None on error."""
    pairs, i, n = [], 0, len(body)
    while i < n:
        eq = body.find("=", i)
        if eq < 0:
            return None
        name = body[i:eq]
        if eq + 1 >= n or body[eq + 1] != '"':
            return None
        j = eq + 2
        while j < n and body[j] != '"':
            j += 2 if body[j] == "\\" else 1
        if j >= n:
            return None
        pairs.append((name, body[eq + 2 : j]))
        i = j + 1
        if i < n:
            if body[i] != ",":
                return None
            i += 1
    return pairs


def lint(lines):
    errors = []
    types = {}  # family name -> type
    sampled = set()

    def err(lineno, msg):
        errors.append(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    err(lineno, f"malformed TYPE line: {line!r}")
                    continue
                _, _, name, typ = parts
                if not METRIC_NAME.match(name):
                    err(lineno, f"invalid metric name in TYPE: {name!r}")
                if typ not in TYPES:
                    err(lineno, f"unknown type {typ!r} for {name}")
                if name in types:
                    err(lineno, f"duplicate TYPE for {name}")
                if name in sampled:
                    err(lineno, f"TYPE for {name} after its first sample")
                types[name] = typ
            # HELP and free comments pass through.
            continue

        # Sample line: name[{labels}] value [timestamp]
        m = re.match(r"^([^\s{]+)(\{(.*)\})?\s+(\S+)(\s+-?\d+)?\s*$", line)
        if not m:
            err(lineno, f"unparseable sample: {line!r}")
            continue
        name, _, labels, value = m.group(1), m.group(2), m.group(3), m.group(4)
        if not METRIC_NAME.match(name):
            err(lineno, f"invalid metric name: {name!r}")
            continue
        if labels is not None:
            pairs = split_labels(labels)
            if pairs is None:
                err(lineno, f"malformed labels: {{{labels}}}")
            else:
                for lname, lvalue in pairs:
                    if not LABEL_NAME.match(lname):
                        err(lineno, f"invalid label name: {lname!r}")
                    if re.search(r'(?<!\\)"', lvalue):
                        err(lineno, f"unescaped quote in label {lname}")
        if not parse_value(value):
            err(lineno, f"non-numeric value {value!r} for {name}")

        family = name
        for suffix in ("_sum", "_count", "_bucket"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) in ("summary", "histogram"):
                if suffix == "_bucket" and types[base] != "histogram":
                    continue
                family = base
                break
        if family not in types:
            err(lineno, f"sample {name} has no preceding TYPE declaration")
        sampled.add(family)
        sampled.add(name)

    if not sampled and not errors:
        errors.append("line 0: exposition contains no samples")

    # Request-attribution families travel as a set: a scrape with some but
    # not all zab_op_stage_* summaries would render a partial (and therefore
    # wrong) p99 decomposition downstream.
    op_stages = {
        name
        for name in types
        if name.startswith("zab_op_stage_") and not name.endswith("_max")
    }
    if op_stages:
        expected = {
            "zab_op_stage_" + s
            for s in (
                "queue_wait",
                "log_fsync",
                "quorum_ack",
                "commit",
                "deliver",
                "reply_write",
            )
        }
        for name in sorted(expected - op_stages):
            errors.append(f"line 0: incomplete op-stage set: missing {name}")
        for name in sorted(op_stages - expected):
            errors.append(f"line 0: unknown op-stage family {name}")
        for name in sorted(op_stages & expected):
            if types[name] != "summary":
                errors.append(
                    f"line 0: {name} must be a summary, is {types[name]}"
                )
        if "zab_op_total_ns" not in types:
            errors.append(
                "line 0: zab_op_stage_* present without zab_op_total_ns"
            )

    # Wire-batching families travel as a set too: frames-per-txn dashboards
    # read the propose summaries beside the coalesced-frame counters, so a
    # scrape with only part of the family renders silently wrong ratios.
    batch = {
        name
        for name in types
        if name.startswith("zab_batch_") and not name.endswith("_max")
    }
    if batch:
        summaries = {"zab_batch_propose_txns", "zab_batch_propose_bytes"}
        for name in sorted(summaries - batch):
            errors.append(f"line 0: incomplete batching set: missing {name}")
        for name in sorted(batch - summaries):
            errors.append(f"line 0: unknown batching family {name}")
        for name in sorted(batch & summaries):
            if types[name] != "summary":
                errors.append(
                    f"line 0: {name} must be a summary, is {types[name]}"
                )
        for name in ("zab_ack_coalesced", "zab_commit_coalesced"):
            if types.get(name) != "counter":
                errors.append(
                    f"line 0: zab_batch_* present without counter {name}"
                )

    # Tiered-read families travel as a set as well: the read dashboards
    # plot served_local vs fenced vs not_ready against the parked/barrier
    # latency summaries, so a partial scrape misrepresents the read path.
    read = {
        name
        for name in types
        if (name.startswith("zab_read_") or name.startswith("zab_sync_"))
        and not name.endswith("_max")
    }
    if read:
        counters = {
            "zab_read_served_local",
            "zab_read_fenced",
            "zab_read_not_ready",
        }
        summaries = {"zab_read_parked_ns", "zab_sync_barrier_ns"}
        expected = counters | summaries
        for name in sorted(expected - read):
            errors.append(f"line 0: incomplete tiered-read set: missing {name}")
        for name in sorted(read - expected):
            errors.append(f"line 0: unknown tiered-read family {name}")
        for name in sorted(read & counters):
            if types[name] != "counter":
                errors.append(
                    f"line 0: {name} must be a counter, is {types[name]}"
                )
        for name in sorted(read & summaries):
            if types[name] != "summary":
                errors.append(
                    f"line 0: {name} must be a summary, is {types[name]}"
                )

    # Reconfiguration families travel as a set: the membership dashboards
    # join the proposed/committed/aborted rates against the config_version
    # and quorum_size gauges, and the join-sync summary is the capacity
    # signal for adding servers — a partial scrape hides a stuck or
    # thrashing reconfiguration.
    reconfig = {
        name
        for name in types
        if name.startswith("zab_reconfig_") and not name.endswith("_max")
    }
    if reconfig:
        counters = {
            "zab_reconfig_" + r for r in ("proposed", "committed", "aborted")
        }
        summaries = {"zab_reconfig_join_sync_ns"}
        gauges = {"zab_reconfig_quorum_size", "zab_reconfig_config_version"}
        expected = counters | summaries | gauges
        for name in sorted(expected - reconfig):
            errors.append(f"line 0: incomplete reconfig set: missing {name}")
        for name in sorted(reconfig - expected):
            errors.append(f"line 0: unknown reconfig family {name}")
        for name in sorted(reconfig & counters):
            if types[name] != "counter":
                errors.append(
                    f"line 0: {name} must be a counter, is {types[name]}"
                )
        for name in sorted(reconfig & summaries):
            if types[name] != "summary":
                errors.append(
                    f"line 0: {name} must be a summary, is {types[name]}"
                )
        for name in sorted(reconfig & gauges):
            if types[name] != "gauge":
                errors.append(
                    f"line 0: {name} must be a gauge, is {types[name]}"
                )
    return errors


def main(argv):
    if len(argv) > 1:
        inputs = [(p, open(p, encoding="utf-8").readlines()) for p in argv[1:]]
    else:
        inputs = [("<stdin>", sys.stdin.readlines())]
    failed = False
    for label, lines in inputs:
        errors = lint(lines)
        for e in errors:
            print(f"{label}: {e}", file=sys.stderr)
        if errors:
            failed = True
        else:
            n = sum(1 for l in lines if l.strip() and not l.startswith("#"))
            print(f"{label}: ok ({n} samples)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
