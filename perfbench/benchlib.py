"""Pure helpers of the perfbench benchmark: metric catalogue, statistics,
trace reduction and correctness checks. `run.py` does the process work;
everything here is a function of its arguments, so `tests/` can check it
without building the program."""

import hashlib
import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# (name, unit, better); the end-to-end metrics are measured with tracing off.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

# Per-layer metrics of the traced run. Layer names are the crates the
# program is made of (plus the shard checkpoint format and the driver).
PER_LAYER = [
    ("figures.setup_s", "s", "lower"),
    ("sim.campaign_s", "s", "lower"),
    ("sim.samples", "count", "higher"),
    ("sim.plan_cpu_s", "s", "lower"),
    ("sim.merge_cpu_s", "s", "lower"),
    ("memsim.generate_cpu_s", "s", "lower"),
    ("memsim.dies", "count", "lower"),
    ("memsim.faults", "count", "lower"),
    ("core.observe_cpu_s", "s", "lower"),
    ("apps.observe_cpu_s", "s", "lower"),
    ("apps.evaluations", "count", "lower"),
    ("analysis.reduce_cpu_s", "s", "lower"),
    ("analysis.results_s", "s", "lower"),
    ("analysis.yield_query_s", "s", "lower"),
    ("analysis.yield_queries", "count", "lower"),
    ("analysis.observations", "count", "lower"),
    ("figures.render_s", "s", "lower"),
    ("figures.doc_s", "s", "lower"),
    ("shard.write_s", "s", "lower"),
    ("shard.read_s", "s", "lower"),
    ("shard.merge_s", "s", "lower"),
    ("shard.bytes", "bytes", "lower"),
    ("driver.children", "count", "lower"),
    ("driver.retries", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

# Counts that must repeat exactly; a run whose count differs from the
# pinned value fails.
PINNED_COUNTS = [
    "sim.samples",
    "memsim.dies",
    "memsim.faults",
    "apps.evaluations",
    "analysis.yield_queries",
    "analysis.observations",
    "shard.bytes",
    "driver.children",
]

# Spans the tracer records, by layer metric. Replay spans (analysis.*) hang
# off their own root and are excluded from coverage.
SPAN_METRICS = {
    "figures.setup_s": "figures.setup",
    "sim.campaign_s": "sim.campaign",
    "analysis.results_s": "analysis.results",
    "analysis.yield_query_s": "analysis.yield_query",
    "figures.render_s": "figures.render",
    "figures.doc_s": "figures.doc",
    "shard.write_s": "shard.write",
    "shard.read_s": "shard.read",
    "shard.merge_s": "shard.merge",
}


def tail_percentile(values, beyond=10):
    """The highest whole percentile above the median that has at least
    `beyond` samples above it (nearest-rank), as `(percentile, value)`, or
    None when the sample count supports none."""
    ordered = sorted(values)
    n = len(ordered)
    for percentile in range(99, 50, -1):
        rank = math.ceil(percentile * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return percentile, ordered[rank - 1]
    return None


def span_seconds(spans, name):
    return sum(span["end"] - span["start"] for span in spans if span["name"] == name)


def descendants(spans, root):
    """Indices of every span below `root`."""
    children = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(index)
    found, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def coverage(spans, root, startup_s=0.0):
    """Share of the traced wall clock (process start-up plus the root span)
    that the union of the root's descendant spans covers. Concurrent spans
    (shards on parallel jobs) count once."""
    top = spans[root]
    wall = startup_s + (top["end"] - top["start"])
    if wall <= 0:
        raise ValueError("traced wall clock is not positive")
    intervals = sorted(
        (max(spans[i]["start"], top["start"]), min(spans[i]["end"], top["end"]))
        for i in descendants(spans, root)
    )
    covered, reach = 0.0, top["start"]
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered / wall


def layer_metrics(trace, startup_s):
    """Per-layer metrics of one traced run (everything but the driver and
    overhead figures, which come from the untraced runs)."""
    spans = trace["spans"]
    stages = trace["stage_seconds"]
    counters = trace["counters"]
    counts = trace["counts"]
    # fig7 evaluates its schemes through the apps layer's quality models;
    # the MSE figures through the core scheme models.
    apps = trace["figure"] == "fig7"
    metrics = {name: span_seconds(spans, span) for name, span in SPAN_METRICS.items()}
    metrics.update(
        {
            "sim.samples": counters["samples_evaluated"],
            "sim.plan_cpu_s": stages["plan"],
            "sim.merge_cpu_s": stages["merge"],
            "memsim.generate_cpu_s": stages["generate"],
            "memsim.dies": counters["dies_generated"],
            "memsim.faults": counters["faults_generated"],
            "core.observe_cpu_s": 0.0 if apps else stages["observe"],
            "apps.observe_cpu_s": stages["observe"] if apps else 0.0,
            "apps.evaluations": counts["evaluations"],
            "analysis.reduce_cpu_s": stages["reduce"],
            "analysis.yield_queries": counts["yield_queries"],
            "analysis.observations": counts["observations"],
            "shard.bytes": counts["shard_bytes"],
            "trace.coverage": coverage(spans, trace["root"], startup_s),
        }
    )
    return metrics


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def document_mismatch(data, pinned):
    """None when the figure document matches its pinned reference, else the
    reason it does not."""
    if data is None:
        return "no figure document was written"
    digest = sha256(data)
    if len(data) != pinned["bytes"] or digest != pinned["sha256"]:
        return (
            f"figure document differs from the reference: {len(data)} bytes "
            f"sha256 {digest}, pinned {pinned['bytes']} bytes sha256 {pinned['sha256']}"
        )
    return None


def count_mismatches(measured, pinned, names):
    """Every count in `names` the measurement misses or disagrees with."""
    return [
        f"{name} = {measured.get(name)} (pinned {pinned.get(name)})"
        for name in names
        if name not in pinned or measured.get(name) != pinned[name]
    ]


def driver_children(log_text):
    """(children spawned, retries) from a `campaign_run` log."""
    attempts = [
        int(match)
        for match in re.findall(r"^shard \d+/\d+ complete \((\d+) attempts?\)$", log_text, re.M)
    ]
    return sum(attempts), sum(a - 1 for a in attempts)
