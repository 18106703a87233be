#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the figure pipeline.

    python3 perfbench/run.py --workload fig9_mono --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The script builds the release
figure binaries and the in-process tracer (`perfbench/tracer`) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the workload as a
closed loop: one client starts one figure process at a time, with at most
`nproc` worker threads in total, until `--seconds` have passed. Every
figure document is checked against its pinned digest
(`perfbench/reference.json`).

`--trace 0` times the figure binaries untraced and reports the end-to-end
metrics. `--trace 1` alternates an untraced run with a traced run of the
tracer and reports the per-layer metrics. Human-readable lines come first;
the last line of standard output is the JSON result. See README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
FIGURE_BINARIES = ["fig9_data_sensitivity", "fig7_quality", "campaign_run", "campaign_shard"]
# Set-up probes before each timed figure process. Spreading them over the
# run makes their median follow the same host conditions as the figures.
SETUP_PROBES_PER_ROUND = 4
# A figure process that outlives this is killed and counted as failed.
PROCESS_LIMIT_S = 60.0

# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "fig9_mono": {
        "binary": "fig9_data_sensitivity",
        "figure": "fig9_data_sensitivity",
        "document": "fig9",
        "args": ["--samples", "100", "--threads", "2"],
        "workers": 2,
    },
    "fig9_sharded": {
        "binary": "campaign_run",
        "figure": "fig9_data_sensitivity",
        "document": "fig9",
        "args": ["--samples", "100", "--shards", "4", "--jobs", "2", "--threads", "1"],
        "workers": 2,
        "shards": 4,
    },
    "fig7_apps": {
        "binary": "fig7_quality",
        "figure": "fig7_quality",
        "document": "fig7",
        "args": ["--samples", "20", "--threads", "2"],
        "workers": 2,
    },
}

TRACED_COUNTS = [name for name in benchlib.PINNED_COUNTS if name != "driver.children"]


class Failure(Exception):
    """A benchmark operation that failed; counted, not fatal."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def tail(path, lines=12):
    try:
        return "\n".join(Path(path).read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def read_bytes(path):
    try:
        return Path(path).read_bytes()
    except OSError:
        return None


class Bench:
    def __init__(self, workload, build_dir, work):
        self.wl = WORKLOADS[workload]
        self.bin_dir = build_dir / "release"
        self.tracer = self.bin_dir / "perfbench-tracer"
        self.work = work
        self.reference = json.loads((BENCH_DIR / "reference.json").read_text())
        self.pinned = self.reference["counts"][workload]
        self.document = self.reference["documents"][self.wl["document"]]
        self.attempted = 0
        self.failures = []
        self.serial = 0

    def next_paths(self, stem):
        self.serial += 1
        base = self.work / f"{stem}-{self.serial}"
        return base.with_suffix(".json"), base.with_suffix(".log"), base.with_name(base.name + "-ck")

    def spawn(self, argv, log_path):
        """Runs one process through the tracer's `spawn` mode, in its own
        session so a hung process tree can be killed, and returns its
        report: wall clock, user+sys CPU and peak RSS of the process tree,
        and the epoch at spawn. A nonzero exit is a Failure."""
        report = log_path.with_name(log_path.name + ".usage")
        with open(log_path, "wb") as sink:
            proc = subprocess.Popen(
                [str(self.tracer), "spawn", str(report), *argv],
                stdout=sink,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=PROCESS_LIMIT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise Failure(f"{Path(argv[0]).name} ran over {PROCESS_LIMIT_S:g} s; killed")
        if proc.returncode != 0:
            raise Failure(f"could not measure {Path(argv[0]).name}:\n{tail(log_path)}")
        usage = json.loads(report.read_text())
        report.unlink()
        if usage["exit_code"] != 0:
            raise Failure(f"{Path(argv[0]).name} exited {usage['exit_code']}:\n{tail(log_path)}")
        return usage

    def attempt(self, operation):
        """Runs one counted operation; a Failure is recorded and yields None."""
        self.attempted += 1
        try:
            return operation()
        except Failure as failure:
            self.failures.append(str(failure))
            log(f"perfbench: FAILED: {failure}")
            return None

    def checked_run(self, argv, out, log_path, checkpoints):
        try:
            usage = self.spawn(argv, log_path)
            mismatch = benchlib.document_mismatch(read_bytes(out), self.document)
            if mismatch:
                raise Failure(mismatch)
            return usage
        finally:
            out.unlink(missing_ok=True)
            shutil.rmtree(checkpoints, ignore_errors=True)

    def untraced(self):
        """One figure process as a user runs it; returns its measurements."""
        out, log_path, checkpoints = self.next_paths("figure")
        argv = [str(self.bin_dir / self.wl["binary"])]
        if "shards" in self.wl:
            argv += ["--figure", self.wl["figure"], "--dir", str(checkpoints)]
        argv += self.wl["args"] + ["--json", str(out)]
        usage = self.checked_run(argv, out, log_path, checkpoints)
        children, retries = 0, 0
        if "shards" in self.wl:
            children, retries = benchlib.driver_children(log_path.read_text(errors="replace"))
        log_path.unlink(missing_ok=True)
        mismatches = benchlib.count_mismatches(
            {"driver.children": children}, self.pinned, ["driver.children"]
        )
        if mismatches:
            raise Failure("driver count differs: " + "; ".join(mismatches))
        return {
            "wall": usage["wall_s"],
            "cpu": usage["cpu_s"],
            "rss": usage["peak_rss_kib"] / 1024.0,
            "children": children,
            "retries": retries,
        }

    def traced(self):
        """One in-process traced run; returns its per-layer metrics and wall."""
        out, log_path, checkpoints = self.next_paths("traced")
        trace_path = out.with_name(out.stem + "-trace.json")
        argv = [
            str(self.tracer),
            "trace",
            "--trace-out",
            str(trace_path),
            "--figure",
            self.wl["figure"],
            *self.wl["args"],
            "--json",
            str(out),
        ]
        if "shards" in self.wl:
            argv += ["--dir", str(checkpoints)]
        try:
            epoch = self.checked_run(argv, out, log_path, checkpoints)["spawn_epoch_s"]
            trace = json.loads(trace_path.read_text())
        finally:
            trace_path.unlink(missing_ok=True)
        log_path.unlink(missing_ok=True)
        # Start-up before `main`, from the two processes' wall clocks.
        startup = max(0.0, trace["main_epoch_s"] - epoch)
        root = trace["spans"][trace["root"]]
        metrics = benchlib.layer_metrics(trace, startup)
        mismatches = benchlib.count_mismatches(metrics, self.pinned, TRACED_COUNTS)
        if mismatches:
            raise Failure("deterministic counts differ: " + "; ".join(mismatches))
        return metrics, startup + root["end"] - root["start"]

    def setup_probe(self):
        """CPU seconds from process start to set-up done, summed over the
        campaign's figure processes (one per shard on the sharded workload).
        CPU rather than wall: a 2 ms process's wall clock mostly measures how
        long it waited for a CPU on a shared host (README.md)."""
        _, log_path, _ = self.next_paths("setup")
        argv = [str(self.tracer), "setup", "--figure", self.wl["figure"], *self.wl["args"]]
        total = sum(
            self.spawn(argv, log_path)["cpu_s"] for _ in range(self.wl.get("shards", 1))
        )
        log_path.unlink(missing_ok=True)
        return total


def source_identity(root):
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if (root / ".git").exists():
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if head.returncode == 0:
            return "commit " + head.stdout.strip()
    digest = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ["crates", "vendor", "src", "perfbench"]:
        files += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return "sources sha256 " + digest.hexdigest()[:16]


def build(root, build_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    commands = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "faultmit-bench"]
        + [arg for name in FIGURE_BINARIES for arg in ("--bin", name)],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         str(BENCH_DIR / "tracer" / "Cargo.toml")],
    ]
    for command in commands:
        if subprocess.run(command, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(command)}")


def describe(name, unit, values):
    line = f"  {name:<16} median {statistics.median(values):.6g} {unit} (n={len(values)}"
    tail_value = benchlib.tail_percentile(values)
    if tail_value:
        line += f", p{tail_value[0]} {tail_value[1]:.6g} {unit}"
    else:
        line += ", too few samples for a tail percentile above the median"
    return line + f", min {min(values):.6g}, max {max(values):.6g} {unit})"


def measure_end_to_end(bench, seconds):
    setups, runs = [], []
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(SETUP_PROBES_PER_ROUND):
            probe = bench.attempt(bench.setup_probe)
            if probe:
                setups.append(probe)
        run = bench.attempt(bench.untraced)
        if run:
            runs.append(run)
        if time.perf_counter() >= deadline:
            break
    if not runs or not setups:
        return {}
    samples = bench.pinned["sim.samples"]
    series = {
        "wall_s": [r["wall"] for r in runs],
        "samples_per_s": [samples / r["wall"] for r in runs],
        "cpu_s": [r["cpu"] for r in runs],
        "peak_rss_mb": [r["rss"] for r in runs],
        "setup_s": setups,
    }
    print("end-to-end (tracing off):")
    units = {name: unit for name, unit, _ in benchlib.END_TO_END}
    for name, values in series.items():
        print(describe(name, units[name], values))
    return {name: statistics.median(values) for name, values in series.items()}


def measure_per_layer(bench, seconds):
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        run = bench.attempt(bench.untraced)
        if run:
            untraced.append(run)
        result = bench.attempt(bench.traced)
        if result:
            traced.append(result)
        if time.perf_counter() >= deadline:
            break
    if not untraced or not traced:
        return {}
    metrics = {
        name: statistics.median([layers[name] for layers, _ in traced])
        for name in traced[0][0]
    }
    untraced_wall = statistics.median([r["wall"] for r in untraced])
    traced_wall = statistics.median([wall for _, wall in traced])
    metrics["driver.children"] = max(r["children"] for r in untraced)
    metrics["driver.retries"] = max(r["retries"] for r in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    print(
        f"per-layer (traced, n={len(traced)}): traced wall {traced_wall:.4f} s, "
        f"untraced wall {untraced_wall:.4f} s (n={len(untraced)})"
    )
    units = {name: unit for name, unit, _ in benchlib.PER_LAYER}
    for name, _, _ in benchlib.PER_LAYER:
        print(f"  {name:<24} {metrics[name]:.6g} {units[name]}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "bench").is_dir():
        raise SystemExit("perfbench: run from the root of a source checkout (no Cargo.toml here)")
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if workload["workers"] > nproc:
        raise SystemExit(
            f"perfbench: {args.workload} needs {workload['workers']} workers, "
            f"this host offers {nproc}; refusing to oversubscribe"
        )

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(root, build_dir)
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, build_dir, work)

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(
        f"host: nproc {nproc}, {platform.machine()} {platform.system()} {platform.release()}, "
        f"python {platform.python_version()}; build: release (workspace profile, lto thin); "
        f"source: {source_identity(root)}"
    )
    print(
        f"settings: closed loop, 1 client; {workload['binary']} {' '.join(workload['args'])}; "
        f"{workload['workers']} worker thread(s) in total"
    )
    print(
        "seed: recorded only; the figure protocols fix their campaign seeds "
        "(no registry flag sets them yet)"
    )
    try:
        if args.trace:
            metrics = measure_per_layer(bench, args.seconds)
            catalogue = benchlib.PER_LAYER
        else:
            metrics = measure_end_to_end(bench, args.seconds)
            catalogue = benchlib.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = len(bench.failures)
    print(f"error_rate: {failed}/{bench.attempted} operations failed")
    if not metrics:
        raise SystemExit("perfbench: no successful measurement")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit, _ in catalogue
        },
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
