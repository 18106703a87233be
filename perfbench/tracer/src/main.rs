//! In-process traced runner behind `perfbench/run.py`.
//!
//! The runner takes the figure arguments the untraced figure binaries (or
//! `campaign_run`) receive, plus `--figure <name>`, in one of two modes:
//!
//! * `setup <args…>` resolves the figure spec and materialises its campaign
//!   (backend calibration, image or dataset materialisation), then exits.
//!   The process lifetime is the set-up a figure process pays before its
//!   first sample.
//! * `trace --trace-out <path> <args…>` runs the whole figure through the
//!   registry's public functions and records a span (name, start, end,
//!   parent) around every call into a layer, with a `faultmit_obs::Recorder`
//!   installed for the stage clocks and counters the pipeline keeps. With
//!   `--shards K` the run mirrors `campaign_run`: K shard evaluations on
//!   `--jobs` threads, checkpoints written to and read back from `--dir`,
//!   then merge and render.
//!
//! * `spawn <report> <program> <args…>` runs one process and writes its
//!   wall clock, the user+sys CPU of its process tree and the tree's peak
//!   resident memory to `<report>`. The figure processes are spawned from
//!   here rather than from the Python driver because Linux carries the
//!   parent's resident-memory high-water mark across `exec` into the
//!   child's `ru_maxrss`; this process is small, the interpreter is not.
//!
//! `FigureDef::render` is one call, so its analysis split cannot be timed
//! from outside it. After the figure JSON is on disk, a replay pass repeats
//! the analysis calls render makes (per-panel results, then the yield
//! queries) on a copy of the merged state, and checks every replayed value
//! against the written document. Replay spans hang off their own root, so
//! they count in neither the traced wall clock nor its coverage.

use faultmit_analysis::CatalogueAccumulator;
use faultmit_bench::figures::{
    fig9_image_words, find_figure, Fig7Campaign, Fig9Campaign, FigureDef, FigureError, FigureSpec,
    PanelState,
};
use faultmit_bench::json::{JsonValue, ToJson};
use faultmit_bench::metrics::ShardMetrics;
use faultmit_bench::shard::{load_shard_files, ShardPanelState, ShardState};
use faultmit_bench::RunOptions;
use faultmit_obs::{self as obs, Counter, MetricsSnapshot, Recorder, Stage};
use faultmit_sim::{Parallelism, ShardSpec};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

type Result<T> = std::result::Result<T, FigureError>;

/// One recorded span; times are seconds since `main` was entered.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span store, written out once the run ends.
struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end = self.now();
        self.spans.lock().expect("span store poisoned by a panic")[id].end = end;
    }

    fn span<T>(&self, name: &'static str, parent: Option<usize>, call: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let value = call();
        self.close(id);
        value
    }

    fn to_json(&self) -> JsonValue {
        let spans = self.spans.lock().expect("span store poisoned by a panic");
        JsonValue::Array(
            spans
                .iter()
                .map(|span| {
                    JsonValue::object([
                        ("name", span.name.to_json()),
                        ("start", span.start.to_json()),
                        ("end", span.end.to_json()),
                        ("parent", span.parent.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

/// Deterministic work counts the trace reports next to the obs counters.
#[derive(Default)]
struct Counts {
    /// Checkpoint bytes written, excluding the host-dependent telemetry
    /// section (its clocks change length from run to run).
    shard_bytes: u64,
    /// Scheme evaluations of the apps layer (samples × schemes per panel).
    evaluations: u64,
    /// Yield queries the replayed render made.
    yield_queries: u64,
    /// Observations in the reduced per-scheme results.
    observations: u64,
}

fn main() -> ExitCode {
    let main_epoch = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |since| since.as_secs_f64());
    let tracer = Tracer::new();
    let root = tracer.open("figure", None);
    match run(&tracer, root, main_epoch) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench-tracer: {error}");
            ExitCode::FAILURE
        }
    }
}

fn run(tracer: &Tracer, root: usize, main_epoch: f64) -> Result<()> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err("usage: perfbench-tracer setup|trace|spawn … (see the crate docs)".into());
    }
    let mode = args.remove(0);
    if mode == "spawn" {
        return spawn(&args);
    }
    let mut trace_out = None;
    if let Some(at) = args.iter().position(|arg| arg == "--trace-out") {
        if at + 1 >= args.len() {
            return Err("--trace-out needs a path".into());
        }
        trace_out = Some(PathBuf::from(args.remove(at + 1)));
        args.remove(at);
    }
    let options = RunOptions::parse(args);
    let errors: Vec<String> = options
        .spec_flag_errors
        .iter()
        .chain(&options.tuning_flag_errors)
        .chain(&options.driver_flag_errors)
        .chain(&options.shard_error)
        .cloned()
        .collect();
    if !errors.is_empty() {
        return Err(errors.join("; ").into());
    }
    let figure = find_figure(
        options
            .figure
            .as_deref()
            .ok_or("--figure <name> is required")?,
    )?;

    match mode.as_str() {
        "setup" => {
            let spec = figure.spec(&options);
            materialise(&spec, &options, options.parallelism())
        }
        "trace" => {
            let trace_out = trace_out.ok_or("trace mode needs --trace-out <path>")?;
            let out = options
                .json_path
                .clone()
                .ok_or("trace mode needs --json <path> for the figure document")?;
            let mut counts = Counts::default();
            let (spec, panels, snapshot) = if options.shards.is_some() {
                trace_sharded(tracer, root, figure, &options, &mut counts)?
            } else {
                trace_monolithic(tracer, root, figure, &options)?
            };
            if figure.name() == "fig7" {
                counts.evaluations = panels.iter().map(scheme_evaluations).sum();
            }
            // Replay input: taken before render consumes the panels.
            let replay_panels = panels.clone();
            let parallelism = options.parallelism();
            let rendered = tracer.span("figures.render", Some(root), || {
                figure.render(&spec, parallelism, panels)
            })?;
            tracer.span("figures.doc", Some(root), || {
                std::fs::write(&out, rendered.document.to_pretty_string())
            })?;
            tracer.close(root);
            replay(
                tracer,
                &spec,
                parallelism,
                replay_panels,
                &rendered.document,
                &mut counts,
            )?;
            let trace = trace_document(tracer, root, main_epoch, &spec, &snapshot, &counts);
            std::fs::write(trace_out, trace.to_pretty_string())?;
            Ok(())
        }
        other => Err(format!("unknown mode '{other}', expected setup, trace or spawn").into()),
    }
}

/// The campaign materialisation a figure process performs before its first
/// sample, through the same public constructors the figure uses.
fn materialise(spec: &FigureSpec, options: &RunOptions, parallelism: Parallelism) -> Result<()> {
    match spec.figure.as_str() {
        "fig9" => {
            let cells = Fig9Campaign::matrix_tuned(spec, options.tuning(), parallelism)?;
            let mut images = Vec::new();
            for cell in &cells {
                if !images.contains(&cell.image) {
                    images.push(cell.image);
                }
            }
            for image in images {
                black_box(fig9_image_words(image)?);
            }
            black_box(cells);
        }
        "fig7" => {
            black_box(Fig7Campaign::from_spec(spec, parallelism)?);
        }
        other => return Err(format!("perfbench traces fig7 and fig9, not '{other}'").into()),
    }
    Ok(())
}

fn trace_monolithic(
    tracer: &Tracer,
    root: usize,
    figure: &'static dyn FigureDef,
    options: &RunOptions,
) -> Result<(FigureSpec, Vec<PanelState>, MetricsSnapshot)> {
    let parallelism = options.parallelism();
    let spec = tracer.span("figures.setup", Some(root), || -> Result<FigureSpec> {
        let spec = figure.spec(options);
        materialise(&spec, options, parallelism)?;
        Ok(spec)
    })?;
    let recorder = Arc::new(Recorder::new());
    let run = tracer.span("sim.campaign", Some(root), || {
        let _installed = obs::install(&recorder);
        figure.run_shard_tuned(&spec, options.tuning(), parallelism, ShardSpec::solo())
    })?;
    Ok((spec, run.panels, recorder.snapshot()))
}

/// The `campaign_run` flow in one process: shards claimed by `--jobs`
/// threads (each evaluated the way a `campaign_shard` child evaluates it),
/// checkpoints read back, merged and split into panels.
fn trace_sharded(
    tracer: &Tracer,
    root: usize,
    figure: &'static dyn FigureDef,
    options: &RunOptions,
    counts: &mut Counts,
) -> Result<(FigureSpec, Vec<PanelState>, MetricsSnapshot)> {
    let shard_count = options.shards.ok_or("--shards is required")?;
    let jobs = options.jobs.unwrap_or(1).max(1);
    let dir = options.dir.clone().ok_or("sharded tracing needs --dir")?;
    let spec = tracer.span("figures.setup", Some(root), || figure.spec(options));
    std::fs::create_dir_all(&dir)?;

    let next = AtomicUsize::new(0);
    let totals = Mutex::new((MetricsSnapshot::default(), 0u64));
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= shard_count {
                    break;
                }
                let outcome = ShardSpec::new(index, shard_count)
                    .map_err(FigureError::from)
                    .and_then(|shard| trace_shard(tracer, root, figure, options, shard, &dir));
                match outcome {
                    Ok((snapshot, bytes)) => {
                        let mut totals = totals.lock().expect("totals poisoned by a panic");
                        totals.0.merge(&snapshot);
                        totals.1 += bytes;
                    }
                    Err(error) => failures
                        .lock()
                        .expect("failure list poisoned by a panic")
                        .push(format!("shard {index}/{shard_count}: {error}")),
                }
            });
        }
    });
    let failures = failures
        .into_inner()
        .expect("failure list poisoned by a panic");
    if !failures.is_empty() {
        return Err(failures.join("; ").into());
    }
    let (snapshot, shard_bytes) = totals.into_inner().expect("totals poisoned by a panic");
    counts.shard_bytes = shard_bytes;

    let paths: Vec<PathBuf> = ShardSpec::all(shard_count)
        .map(|shard| checkpoint_path(&dir, figure, shard))
        .collect();
    let states = tracer.span("shard.read", Some(root), || load_shard_files(&paths))?;
    let panels = tracer.span("shard.merge", Some(root), || -> Result<Vec<PanelState>> {
        let merged = ShardState::merge(states)?;
        if merged.spec != spec {
            return Err("merged shard set belongs to a different campaign".into());
        }
        Ok(merged.into_panels(&figure.panel_labels(&spec))?)
    })?;
    Ok((spec, panels, snapshot))
}

/// One shard as `campaign_shard` evaluates it: its own set-up, the campaign
/// under its own recorder, then the checkpoint write.
fn trace_shard(
    tracer: &Tracer,
    root: usize,
    figure: &'static dyn FigureDef,
    options: &RunOptions,
    shard: ShardSpec,
    dir: &Path,
) -> Result<(MetricsSnapshot, u64)> {
    let group = tracer.open("shard", Some(root));
    let parallelism = options.parallelism();
    let tuning = options.tuning();
    let spec = tracer.span("figures.setup", Some(group), || -> Result<FigureSpec> {
        let spec = figure.spec(options);
        materialise(&spec, options, parallelism)?;
        Ok(spec)
    })?;
    let recorder = Arc::new(Recorder::new());
    let started = Instant::now();
    let run = tracer.span("sim.campaign", Some(group), || {
        let _installed = obs::install(&recorder);
        figure.run_shard_tuned(&spec, tuning, parallelism, shard)
    })?;
    let elapsed_seconds = started.elapsed().as_secs_f64();
    let snapshot = recorder.snapshot();
    // The checkpoint's kernel telemetry re-materialises the campaign.
    let kernel = tracer.span("figures.setup", Some(group), || {
        figure.resolved_kernel_tuned(&spec, tuning)
    });
    let labels = figure.panel_labels(&spec);
    let state = ShardState {
        spec,
        shard,
        panels: labels
            .into_iter()
            .zip(run.panels)
            .map(|(label, state)| ShardPanelState { label, state })
            .collect(),
        metrics: ShardMetrics {
            elapsed_seconds: Some(elapsed_seconds),
            generation_seconds: run.generation_seconds,
            kernel,
            auto_threshold: options.auto_threshold,
            snapshot: Some(snapshot),
        },
    };
    let path = checkpoint_path(dir, figure, shard);
    let bytes = tracer.span("shard.write", Some(group), || -> Result<u64> {
        let text = state.to_json().to_pretty_string();
        std::fs::write(&path, &text)?;
        Ok(payload_bytes(&text))
    })?;
    tracer.close(group);
    Ok((snapshot, bytes))
}

/// The checkpoint file name `campaign_run` uses.
fn checkpoint_path(dir: &Path, figure: &dyn FigureDef, shard: ShardSpec) -> PathBuf {
    dir.join(format!(
        "{}-{}of{}.json",
        figure.name(),
        shard.shard_index(),
        shard.shard_count()
    ))
}

/// Checkpoint length without its `"metrics"` section, whose clocks change
/// length from run to run.
fn payload_bytes(text: &str) -> u64 {
    let section = text
        .find("\n  \"metrics\": ")
        .zip(text.find("\n  \"panels\": "))
        .map_or(0, |(start, end)| end.saturating_sub(start));
    (text.len() - section) as u64
}

fn scheme_evaluations(panel: &PanelState) -> u64 {
    match panel {
        PanelState::Catalogue {
            scheme_names,
            accumulator,
        } => (accumulator.samples_recorded() * scheme_names.len()) as u64,
        _ => 0,
    }
}

fn catalogue(panel: PanelState) -> Result<CatalogueAccumulator> {
    match panel {
        PanelState::Catalogue { accumulator, .. } => Ok(accumulator),
        other => Err(format!("expected a catalogue panel, found '{}'", other.kind_name()).into()),
    }
}

/// Repeats render's analysis calls on `panels` and checks each replayed
/// value against `document`.
fn replay(
    tracer: &Tracer,
    spec: &FigureSpec,
    parallelism: Parallelism,
    panels: Vec<PanelState>,
    document: &JsonValue,
    counts: &mut Counts,
) -> Result<()> {
    let group = tracer.open("replay", None);
    let rows = document
        .as_array()
        .ok_or("the figure document is not an array of rows")?;
    let mut checked = 0;
    let mut expect = |field: &str, value: Option<f64>| -> Result<()> {
        let row = rows
            .get(checked / 2)
            .ok_or("the replay produced more values than the document holds")?;
        let written = row.get(field).and_then(JsonValue::as_f64);
        checked += 1;
        if written.map(f64::to_bits) != value.map(f64::to_bits) {
            return Err(format!(
                "replayed {field} = {value:?} differs from the document's {written:?} (row {})",
                (checked - 1) / 2
            )
            .into());
        }
        Ok(())
    };
    match spec.figure.as_str() {
        "fig9" => {
            let cells = Fig9Campaign::matrix(spec, parallelism)?;
            for (cell, panel) in cells.iter().zip(panels) {
                let state = catalogue(panel)?;
                let results =
                    tracer.span("analysis.results", Some(group), || cell.results(state))?;
                for result in &results {
                    counts.observations += result.cdf.len() as u64;
                    let at_yield = tracer.span("analysis.yield_query", Some(group), || {
                        result.mse_for_yield(0.99)
                    });
                    let yield_1e6 = tracer.span("analysis.yield_query", Some(group), || {
                        result.yield_at_mse(1e6)
                    });
                    counts.yield_queries += 2;
                    expect("mse_at_99pct_yield", at_yield)?;
                    expect("yield_at_mse_1e6", Some(yield_1e6))?;
                }
            }
        }
        "fig7" => {
            let campaign = Fig7Campaign::from_spec(spec, parallelism)?;
            for (index, panel) in panels.into_iter().enumerate() {
                let state = catalogue(panel)?;
                let results = tracer.span("analysis.results", Some(group), || {
                    campaign.results(index, state)
                })?;
                for result in &results {
                    counts.observations += result.cdf.len() as u64;
                    let at_95 = tracer.span("analysis.yield_query", Some(group), || {
                        result.yield_at_min_quality(0.95)
                    });
                    let at_99 = tracer.span("analysis.yield_query", Some(group), || {
                        result.yield_at_min_quality(0.99)
                    });
                    counts.yield_queries += 2;
                    expect("yield_at_95pct", Some(at_95))?;
                    expect("yield_at_99pct", Some(at_99))?;
                }
            }
        }
        other => return Err(format!("no replay for figure '{other}'").into()),
    }
    if checked != 2 * rows.len() {
        return Err(format!(
            "the replay checked {} of the document's {} rows",
            checked / 2,
            rows.len()
        )
        .into());
    }
    tracer.close(group);
    Ok(())
}

fn trace_document(
    tracer: &Tracer,
    root: usize,
    main_epoch: f64,
    spec: &FigureSpec,
    snapshot: &MetricsSnapshot,
    counts: &Counts,
) -> JsonValue {
    JsonValue::object([
        ("figure", spec.figure.to_json()),
        ("main_epoch_s", main_epoch.to_json()),
        ("root", root.to_json()),
        ("spans", tracer.to_json()),
        (
            "counters",
            JsonValue::Object(
                Counter::ALL
                    .iter()
                    .map(|&c| (c.name().to_owned(), snapshot.counter(c).to_json()))
                    .collect(),
            ),
        ),
        (
            "stage_seconds",
            JsonValue::Object(
                Stage::ALL
                    .iter()
                    .map(|&s| (s.name().to_owned(), snapshot.stage_seconds(s).to_json()))
                    .collect(),
            ),
        ),
        (
            "counts",
            JsonValue::object([
                ("shard_bytes", counts.shard_bytes.to_json()),
                ("evaluations", counts.evaluations.to_json()),
                ("yield_queries", counts.yield_queries.to_json()),
                ("observations", counts.observations.to_json()),
            ]),
        ),
    ])
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then 14
/// `long` counters starting with `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    other: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

fn seconds(timeval: [i64; 2]) -> f64 {
    timeval[0] as f64 + timeval[1] as f64 * 1e-6
}

/// The `spawn` mode: runs `<program> <args…>`, reaps it with `wait4` (whose
/// usage covers the process and every descendant it waited for) and writes
/// the measurements to `<report>`. The child's exit status goes into the
/// report; this process fails only when it cannot measure.
fn spawn(args: &[String]) -> Result<()> {
    let [report, program, rest @ ..] = args else {
        return Err("usage: perfbench-tracer spawn <report> <program> [args…]".into());
    };
    let spawn_epoch = SystemTime::now().duration_since(UNIX_EPOCH)?.as_secs_f64();
    let started = Instant::now();
    let child = std::process::Command::new(program).args(rest).spawn()?;
    let pid = i32::try_from(child.id())?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, exclusively borrowed locals
    // whose layouts match what `wait4` writes (`int` and `struct rusage` on
    // 64-bit Linux), and `pid` is this process's own unreaped child.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = started.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(format!(
            "wait4 on {program} failed: {}",
            std::io::Error::last_os_error()
        )
        .into());
    }
    // WIFEXITED → WEXITSTATUS; killed by a signal → minus the signal.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    let measured = JsonValue::object([
        ("exit_code", f64::from(code).to_json()),
        ("spawn_epoch_s", spawn_epoch.to_json()),
        ("wall_s", wall.to_json()),
        (
            "cpu_s",
            (seconds(usage.utime) + seconds(usage.stime)).to_json(),
        ),
        ("peak_rss_kib", (usage.maxrss as f64).to_json()),
    ]);
    std::fs::write(report, measured.to_pretty_string())?;
    Ok(())
}
