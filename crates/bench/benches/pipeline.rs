//! Criterion benchmark of the parallel fault-injection pipeline: serial vs.
//! multi-worker campaign throughput (samples/sec) at a reduced Fig. 5
//! operating point (16 KB memory, `P_cell = 5·10⁻⁶` — the paper's memory
//! model with a trimmed Monte-Carlo budget so one iteration stays cheap).
//!
//! On a multi-core host the `workers/N` series should scale towards N× the
//! serial throughput; on a single-core host the parallel path only measures
//! the (small) orchestration overhead. Either way the results are
//! bit-identical across all worker counts — that invariant is pinned by the
//! `determinism` integration test, while this bench tracks the speed.

//! Besides the Criterion groups, `bench_throughput_json` measures the
//! worker-count sweep 1/2/4/8 plus single-threaded `sparse`-kernel rows at
//! three operating points and writes
//! `BENCH_pipeline.json` (path overridable via the `BENCH_PIPELINE_JSON`
//! environment variable) through the in-tree JSON emitter, so throughput can
//! be re-measured and tracked on any host. Worker counts above the host's
//! CPU count only measure oversubscription noise, so they are skipped by
//! default; pass `--force-worker-sweep` (the vendored harness ignores
//! unknown flags) to measure the full 1/2/4/8 sweep regardless, and read
//! the `host_cpus` stamp inside each JSON section to interpret the rows.
//! An `apps` section times the default Fig. 7 campaign (`fig7_quality`
//! without flags) single-threaded, one row per benchmark: die × scheme
//! evaluations per second and the share of them the residual-free
//! shortcut answers without fitting a model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use faultmit_analysis::{memory_mse_with, MonteCarloEngine};
use faultmit_bench::figures::{find_figure, Fig7Campaign, FigureSpec};
use faultmit_bench::json::{JsonValue, ToJson};
use faultmit_bench::RunOptions;
use faultmit_core::Scheme;
use faultmit_memsim::{FaultKindLaw, FaultMap, ImageSpec, MemoryConfig, SramVddBackend};
use faultmit_obs as obs;
use faultmit_sim::{Accumulator, Campaign, CampaignConfig, PairedSample, Parallelism, ShardSpec};
use std::time::Instant;

/// Reduced Fig. 5 operating point: same geometry and failure counts that
/// dominate the paper's campaign, small enough per-iteration budget for a
/// stable benchmark.
fn operating_point(parallelism: Parallelism) -> MonteCarloEngine {
    let config = CampaignConfig::new(MemoryConfig::paper_16kb(), 5e-6)
        .expect("valid paper P_cell")
        .with_samples_per_count(10)
        .with_max_failures(12)
        .with_parallelism(parallelism);
    MonteCarloEngine::new(config)
}

fn bench_campaign_throughput(c: &mut Criterion) {
    let schemes = Scheme::fig5_catalogue();
    let samples_per_run = 12u64 * 10;

    let mut group = c.benchmark_group("pipeline_fig5");
    group.sample_size(10);
    group.throughput(Throughput::Elements(samples_per_run));

    group.bench_function("serial", |b| {
        let engine = operating_point(Parallelism::Serial);
        b.iter(|| engine.run_catalogue(&schemes, 0xF165).unwrap())
    });

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for workers in [2usize, 4, cpus] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let engine = operating_point(Parallelism::threads(workers));
                b.iter(|| engine.run_catalogue(&schemes, 0xF165).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_single_scheme_vs_paired(c: &mut Criterion) {
    // The paired catalogue pass amortises die sampling over all schemes;
    // this quantifies the win over running the catalogue scheme-by-scheme.
    let schemes = Scheme::fig5_catalogue();
    let engine = operating_point(Parallelism::Serial);

    let mut group = c.benchmark_group("paired_vs_sequential");
    group.sample_size(10);

    group.bench_function("paired_catalogue", |b| {
        b.iter(|| engine.run_catalogue(&schemes, 7).unwrap())
    });
    group.bench_function("scheme_by_scheme", |b| {
        b.iter(|| {
            schemes
                .iter()
                .map(|scheme| engine.run(scheme, 7).unwrap())
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

/// One row of the `BENCH_pipeline.json` worker-count sweep.
struct WorkerScalingRow {
    workers: usize,
    mean_seconds_per_campaign: f64,
    samples_per_second: f64,
    words_per_second: f64,
    speedup_vs_serial: f64,
}

impl ToJson for WorkerScalingRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("workers", self.workers.to_json()),
            (
                "mean_seconds_per_campaign",
                self.mean_seconds_per_campaign.to_json(),
            ),
            ("samples_per_second", self.samples_per_second.to_json()),
            ("words_per_second", self.words_per_second.to_json()),
            ("speedup_vs_serial", self.speedup_vs_serial.to_json()),
        ])
    }
}

/// One single-threaded `sparse`-kernel row at one operating point.
struct KernelRow {
    config: &'static str,
    mean_seconds_per_campaign: f64,
    samples_per_second: f64,
    words_per_second: f64,
}

impl ToJson for KernelRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("config", self.config.to_json()),
            ("kernel", "sparse".to_json()),
            (
                "mean_seconds_per_campaign",
                self.mean_seconds_per_campaign.to_json(),
            ),
            ("samples_per_second", self.samples_per_second.to_json()),
            ("words_per_second", self.words_per_second.to_json()),
        ])
    }
}

/// Minimal accumulator for kernel timing: counts samples and folds every
/// metric into one sum, so the timed campaign does no per-sample
/// allocation and its result cannot be optimised away.
#[derive(Default)]
struct SumMetrics {
    total: f64,
    samples: u64,
}

impl Accumulator for SumMetrics {
    fn record(&mut self, sample: &PairedSample) {
        self.samples += 1;
        for metric in &sample.metrics {
            self.total += metric;
        }
    }

    fn merge(&mut self, other: Self) {
        self.total += other.total;
        self.samples += other.samples;
    }
}

/// Seed of the kernel campaigns (arbitrary fixed constant).
const KERNEL_SEED: u64 = 0x5E1F_F165;

/// Times `reps` runs of one single-threaded `sparse`-kernel campaign at an
/// operating point and appends its row. `written(row)` supplies the
/// point's stored words.
fn push_point<W>(
    rows: &mut Vec<KernelRow>,
    label: &'static str,
    memory: MemoryConfig,
    config: CampaignConfig<SramVddBackend>,
    schemes: &[Scheme],
    written: W,
    reps: u32,
) where
    W: Fn(usize) -> u64 + Sync,
{
    let campaign = Campaign::new(config);
    let run = || {
        let (sums, _) = campaign
            .execute(
                schemes,
                KERNEL_SEED,
                ShardSpec::solo(),
                |scheme: &Scheme, map: &FaultMap| memory_mse_with(scheme, map, &written),
                SumMetrics::default,
            )
            .unwrap();
        std::hint::black_box(sums.total);
        sums.samples
    };
    // One warm-up campaign, then the mean of the timed repetitions.
    let samples = run();
    let started = Instant::now();
    for _ in 0..reps {
        run();
    }
    let seconds = started.elapsed().as_secs_f64() / f64::from(reps);
    rows.push(KernelRow {
        config: label,
        mean_seconds_per_campaign: seconds,
        samples_per_second: samples as f64 / seconds,
        words_per_second: samples as f64 * memory.rows() as f64 / seconds,
    });
}

/// Times the `sparse` kernel at three single-threaded operating points:
///
/// * `fig5`: the paper's 16 KB array at `P_cell = 1e-4` (Fig. 9's matched
///   density on the Fig. 5 axis), all-zeros background, Fig. 5 catalogue;
/// * `fig9`: same array and density with the uniform-random data image and
///   the decay-style stuck-at law — the data-dependent path;
/// * `dense_ecc`: the deep-voltage-scaling end of the Fig. 5 axis — 8192
///   faults per die (`P_cell = 1/16`) on the ECC design space
///   (unprotected, the P-ECC protected-width sweep `4, 8, …, 28`, full
///   SECDED).
fn kernel_rows() -> Vec<KernelRow> {
    const REPS: u32 = 5;
    let memory = MemoryConfig::paper_16kb();
    let schemes = Scheme::fig5_catalogue();

    let config = |law: FaultKindLaw| {
        let backend = SramVddBackend::with_p_cell(memory, 1e-4)
            .unwrap()
            .with_kind_law(law)
            .unwrap();
        CampaignConfig::for_backend(backend)
            .unwrap()
            .with_samples_per_count(10)
            .with_max_failures(24)
            .with_parallelism(Parallelism::Serial)
    };
    let stuck = FaultKindLaw::AsymmetricStuckAt {
        p_stuck_at_zero: 0.9,
    };
    let image = ImageSpec::UniformRandom { seed: 0xF169_DA7A }
        .try_materialise(memory)
        .unwrap();
    let dense = image.materialise(memory.rows());

    let mut rows = Vec::new();
    push_point(
        &mut rows,
        "fig5_p1e-4",
        memory,
        config(FaultKindLaw::AlwaysFlip),
        &schemes,
        |_| 0,
        REPS,
    );
    push_point(
        &mut rows,
        "fig9_random_stuck",
        memory,
        config(stuck),
        &schemes,
        |row| dense[row],
        REPS,
    );

    // Deep-scaling density: exactly 8192 faults in every die (one cell in
    // sixteen), 256 dies per campaign.
    let ecc_schemes: Vec<Scheme> = std::iter::once(Scheme::unprotected32())
        .chain((1..=7).map(|i| Scheme::PriorityEcc {
            word_bits: 32,
            protected_bits: 4 * i,
        }))
        .chain(std::iter::once(Scheme::secded32()))
        .collect();
    let cells = (memory.rows() * 32) as f64;
    let dense_config =
        CampaignConfig::for_backend(SramVddBackend::with_p_cell(memory, 8192.0 / cells).unwrap())
            .unwrap()
            .with_samples_per_count(256)
            .with_exact_failures(8192)
            .with_parallelism(Parallelism::Serial);
    push_point(
        &mut rows,
        "dense_ecc_p6.3e-2",
        memory,
        dense_config,
        &ecc_schemes,
        |_| 0,
        REPS,
    );
    rows
}

/// One `apps` row: the default Fig. 7 campaign of one benchmark panel.
struct AppsRow {
    benchmark: &'static str,
    evaluations_per_campaign: u64,
    mean_seconds_per_campaign: f64,
    evaluations_per_second: f64,
    fits_skipped_share: f64,
}

impl ToJson for AppsRow {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("benchmark", self.benchmark.to_json()),
            (
                "evaluations_per_campaign",
                self.evaluations_per_campaign.to_json(),
            ),
            (
                "mean_seconds_per_campaign",
                self.mean_seconds_per_campaign.to_json(),
            ),
            (
                "evaluations_per_second",
                self.evaluations_per_second.to_json(),
            ),
            ("fits_skipped_share", self.fits_skipped_share.to_json()),
        ])
    }
}

/// Times each benchmark panel of a Fig. 7 spec, single-threaded: one
/// warm-up campaign, then the mean of the timed repetitions. The evaluation
/// and skipped-fit counts come from the warm-up's own recorder.
fn apps_rows(spec: &FigureSpec) -> Vec<AppsRow> {
    const REPS: u32 = 3;
    spec.benchmarks
        .iter()
        .map(|&benchmark| {
            let panel = FigureSpec {
                benchmarks: vec![benchmark],
                ..spec.clone()
            };
            let campaign =
                Fig7Campaign::from_spec(&panel, Parallelism::Serial).expect("valid fig7 spec");
            let run = || campaign.run_shard(ShardSpec::solo()).unwrap();
            let recorder = std::sync::Arc::new(obs::Recorder::new());
            let guard = obs::install(&recorder);
            std::hint::black_box(run());
            drop(guard);
            let snapshot = recorder.snapshot();
            let fits = snapshot.counter(obs::Counter::AppFits);
            let skipped = snapshot.counter(obs::Counter::AppFitsSkipped);
            let started = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(run());
            }
            let seconds = started.elapsed().as_secs_f64() / f64::from(REPS);
            let evaluations = fits + skipped;
            AppsRow {
                benchmark: benchmark.name(),
                evaluations_per_campaign: evaluations,
                mean_seconds_per_campaign: seconds,
                evaluations_per_second: evaluations as f64 / seconds,
                fits_skipped_share: skipped as f64 / evaluations as f64,
            }
        })
        .collect()
}

/// Times the reduced Fig. 5 campaign at 1/2/4/8 workers plus the kernel
/// rows and writes both series as
/// `BENCH_pipeline.json` — the ROADMAP's throughput baseline, reproducible
/// on any host.
///
/// Worker counts above `host_cpus` are skipped by default (they only
/// measure oversubscription, not scaling); `--force-worker-sweep` restores
/// the full fixed sweep so hosts of different widths can be compared
/// row-for-row.
fn bench_throughput_json(_c: &mut Criterion) {
    const REPS: u32 = 3;
    let schemes = Scheme::fig5_catalogue();
    let samples_per_run = 12u64 * 10;
    let words_per_sample = MemoryConfig::paper_16kb().rows() as f64;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let force_sweep = std::env::args().any(|arg| arg == "--force-worker-sweep");

    let measure = |parallelism: Parallelism| {
        let engine = operating_point(parallelism);
        // One warm-up campaign, then the mean of the timed repetitions.
        engine.run_catalogue(&schemes, 0xF165).unwrap();
        let started = Instant::now();
        for _ in 0..REPS {
            engine.run_catalogue(&schemes, 0xF165).unwrap();
        }
        started.elapsed().as_secs_f64() / f64::from(REPS)
    };

    // One recorder spans the whole bench; its aggregate snapshot is
    // written next to the throughput series.
    let recorder = std::sync::Arc::new(obs::Recorder::new());
    let _metrics_guard = obs::install(&recorder);

    println!("\n== group: pipeline_worker_scaling (BENCH_pipeline.json) ==");
    let serial_seconds = measure(Parallelism::Serial);
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        if workers > host_cpus && !force_sweep {
            println!(
                "workers/{workers:<2} skipped (host has {host_cpus} CPU(s); \
                 pass --force-worker-sweep to measure oversubscription)"
            );
            continue;
        }
        let seconds = if workers == 1 {
            serial_seconds
        } else {
            measure(Parallelism::threads(workers))
        };
        let row = WorkerScalingRow {
            workers,
            mean_seconds_per_campaign: seconds,
            samples_per_second: samples_per_run as f64 / seconds,
            words_per_second: samples_per_run as f64 * words_per_sample / seconds,
            speedup_vs_serial: serial_seconds / seconds,
        };
        println!(
            "workers/{:<2} {:>10.2} ms/campaign   ({:>8.1} samples/s, {:.3e} words/s, {:.2}x vs serial)",
            row.workers,
            row.mean_seconds_per_campaign * 1e3,
            row.samples_per_second,
            row.words_per_second,
            row.speedup_vs_serial,
        );
        rows.push(row);
    }

    println!("\n== group: pipeline_kernels (BENCH_pipeline.json) ==");
    let kernels = kernel_rows();
    for row in &kernels {
        println!(
            "{:<18} sparse {:>10.2} ms/campaign   ({:>8.1} samples/s, {:.3e} words/s)",
            row.config,
            row.mean_seconds_per_campaign * 1e3,
            row.samples_per_second,
            row.words_per_second,
        );
    }

    println!("\n== group: pipeline_apps (BENCH_pipeline.json) ==");
    let fig7_spec = find_figure("fig7")
        .expect("fig7 is registered")
        .spec(&RunOptions::default());
    let apps = apps_rows(&fig7_spec);
    for row in &apps {
        println!(
            "fig7 {:<10} {:>10.2} ms/campaign   ({:>8.1} evaluations/s, {:.1}% fits skipped)",
            row.benchmark,
            row.mean_seconds_per_campaign * 1e3,
            row.evaluations_per_second,
            row.fits_skipped_share * 100.0,
        );
    }

    // Each section carries its own `host_cpus` stamp so a row set stays
    // interpretable when sections from different hosts are compared side by
    // side (and so the worker sweep records why rows above the CPU count
    // are absent unless the sweep was forced).
    let mut document = JsonValue::object([
        ("bench", "pipeline_throughput".to_json()),
        ("host_cpus", host_cpus.to_json()),
        ("samples_per_campaign", samples_per_run.to_json()),
        (
            "worker_scaling",
            JsonValue::object([
                ("host_cpus", host_cpus.to_json()),
                ("forced_full_sweep", force_sweep.to_json()),
                ("rows", rows.to_json()),
            ]),
        ),
        (
            "kernels",
            JsonValue::object([
                ("host_cpus", host_cpus.to_json()),
                ("rows", kernels.to_json()),
            ]),
        ),
        (
            "apps",
            JsonValue::object([
                ("host_cpus", host_cpus.to_json()),
                ("threads", 1usize.to_json()),
                ("spec", fig7_spec.to_json()),
                ("rows", apps.to_json()),
            ]),
        ),
        (
            "metrics",
            faultmit_bench::metrics::snapshot_to_json(&recorder.snapshot()),
        ),
    ]);
    let path =
        std::env::var("BENCH_PIPELINE_JSON").unwrap_or_else(|_| "BENCH_pipeline.json".into());
    // The datapath bench owns the `"datapath"` section of the same file;
    // carry it over so whichever bench ran last doesn't discard the other's
    // series.
    let datapath = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| JsonValue::parse(&text).ok())
        .and_then(|existing| existing.get("datapath").cloned());
    if let (Some(section), JsonValue::Object(fields)) = (datapath, &mut document) {
        fields.push(("datapath".to_owned(), section));
    }
    match std::fs::write(&path, document.to_pretty_string()) {
        Ok(()) => println!("wrote throughput series to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(
    benches,
    bench_campaign_throughput,
    bench_single_scheme_vs_paired,
    bench_throughput_json
);
criterion_main!(benches);
