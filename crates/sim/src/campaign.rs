//! The campaign orchestrator: one engine from die sampling to metric CDFs.
//!
//! A [`Campaign`] drives the paper's Monte-Carlo protocol (§4/§5.2): for
//! every failure count `n = 1..=N_max` it draws `samples_per_count` fault
//! maps and evaluates **every scheme of the catalogue on the same die**
//! (paired comparison), weighting each sample by `Pr(N = n) /
//! samples_per_count` so the union describes the manufactured-die
//! population.
//!
//! The work is split into fixed-size chunks that worker threads claim
//! dynamically. Each sample derives its RNG from the campaign seed and its
//! global index ([`StreamSeeder`]), and chunk results merge in chunk order,
//! so a campaign is **bit-identical at any worker count** — the property the
//! serial-vs-parallel regression tests pin down.
//!
//! Campaigns are generic over the fault-generating [`FaultBackend`]: the
//! default [`SramVddBackend`] reproduces the paper's iid voltage-scaling
//! model bit-for-bit, while `DramRetentionBackend` / `MlcNvmBackend` (or
//! any user-defined backend) swap in structured, non-iid fault processes
//! without touching the campaign protocol — determinism and paired
//! comparison hold for every backend because per-sample RNG streams depend
//! only on `(seed, sample index)`.

use crate::accumulate::{Accumulator, PairedSample};
use crate::error::{RunError, SimError};
use crate::executor::{run_chunked_with, Parallelism};
use faultmit_core::MitigationScheme;
use faultmit_memsim::{
    BlockScratch, DieBlock, FailureCountDistribution, FaultBackend, FaultMap, ImageSpec,
    MemoryConfig, PlannedSample, SramVddBackend, StreamSeeder, W256,
};
use faultmit_obs as obs;
use std::convert::Infallible;
use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One shard of a campaign split across `shard_count` independent runs.
///
/// A campaign's work list is deterministic (it depends only on the
/// configuration), so it can be partitioned into `shard_count` disjoint
/// chunk ranges and each range evaluated by a separate process — or a
/// separate machine, since per-sample RNG streams derive from
/// `(seed, global sample index)` alone. Accumulators of the shards merged
/// **in shard order** are bit-identical to the monolithic run: the
/// monolithic path *is* the `0/1` shard ([`ShardSpec::solo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    shard_index: usize,
    shard_count: usize,
}

impl ShardSpec {
    /// Creates the spec for shard `shard_index` of `shard_count`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `shard_count` is zero or
    /// `shard_index` is out of range.
    pub fn new(shard_index: usize, shard_count: usize) -> Result<Self, SimError> {
        if shard_count == 0 {
            return Err(SimError::InvalidParameter {
                reason: "shard count must be at least 1".to_owned(),
            });
        }
        if shard_index >= shard_count {
            return Err(SimError::InvalidParameter {
                reason: format!("shard index {shard_index} outside 0..{shard_count}"),
            });
        }
        Ok(Self {
            shard_index,
            shard_count,
        })
    }

    /// The single shard covering the whole campaign — monolithic execution.
    #[must_use]
    pub fn solo() -> Self {
        Self {
            shard_index: 0,
            shard_count: 1,
        }
    }

    /// All shards of a `shard_count`-way split, in shard order — the work
    /// list a campaign driver schedules. An empty iterator for
    /// `shard_count == 0` (no valid spec exists).
    pub fn all(shard_count: usize) -> impl Iterator<Item = ShardSpec> {
        (0..shard_count).map(move |shard_index| Self {
            shard_index,
            shard_count,
        })
    }

    /// This shard's index in `0..shard_count()`.
    #[must_use]
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// Total number of shards the campaign is split into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// `true` when this spec covers the whole campaign (`0/1`).
    #[must_use]
    pub fn is_solo(&self) -> bool {
        self.shard_count == 1
    }

    /// The contiguous range of chunk indices this shard owns out of
    /// `chunk_count` total chunks.
    ///
    /// Ranges of consecutive shards tile `0..chunk_count` exactly (balanced
    /// to within one chunk), so concatenating all shards in shard order
    /// reproduces the monolithic chunk sequence.
    #[must_use]
    pub fn chunk_range(&self, chunk_count: usize) -> Range<usize> {
        let start = self.shard_index * chunk_count / self.shard_count;
        let end = (self.shard_index + 1) * chunk_count / self.shard_count;
        start..end
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.shard_index, self.shard_count)
    }
}

impl FromStr for ShardSpec {
    type Err = SimError;

    /// Parses the `I/K` notation used by the `--shard` CLI flag.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let invalid = || SimError::InvalidParameter {
            reason: format!("shard spec '{s}' must be I/K with 0 <= I < K"),
        };
        let (index, count) = s.split_once('/').ok_or_else(invalid)?;
        let index: usize = index.trim().parse().map_err(|_| invalid())?;
        let count: usize = count.trim().parse().map_err(|_| invalid())?;
        Self::new(index, count)
    }
}

/// How sampled fault maps are filtered before evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapPolicy {
    /// Keep every sampled map (the Fig. 5 protocol).
    #[default]
    Unrestricted,
    /// Redraw (up to the given bound) maps that place more than one fault in
    /// a single row — the Fig. 7 protocol under which SECDED is error-free.
    ///
    /// The filter is **best-effort**: when the budget is exhausted the last
    /// map is kept even if it still has multi-fault rows. Under the iid SRAM
    /// backend at Fig. 7 densities redraws virtually always succeed, but
    /// spatially structured backends (clustered DRAM retention) collide by
    /// construction, so at higher fault counts most kept maps retain
    /// multi-fault rows and word-level ECC is *not* error-free — an expected
    /// property of those technologies, not a sampling artefact.
    SingleFaultPerRow {
        /// Maximum redraws per sample before giving up and keeping the map.
        max_redraws: usize,
    },
}

/// Timing breakdown of one shard run, returned by [`Campaign::execute`]
/// next to the accumulator. The stats are observability, not
/// configuration: the accumulator never depends on them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Wall-clock seconds spent generating dies (sampling fault maps /
    /// blocks), summed across worker threads — with more than one worker
    /// this is CPU time and can exceed the shard's elapsed time.
    pub generation_seconds: f64,
    /// Everything the observability layer recorded during the run: the
    /// delta of the calling thread's current [`faultmit_obs::Recorder`]
    /// across the shard (zero when no recorder is installed). Counter
    /// totals obey the same worker-count bit-identity contract as the
    /// results; stage times and realloc events are host-dependent.
    pub metrics: obs::MetricsSnapshot,
}

/// Which evaluation kernel a campaign drives. Both fixed kernels produce
/// **bit-identical** per-panel results (the `kernel_equivalence` suite pins
/// this against the scalar `observe` oracle); they differ only in
/// throughput. [`KernelKind::Auto`] resolves to one of them per campaign
/// before any sampling happens, so it inherits the same guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelKind {
    /// The event-driven kernel walking only fault-bearing rows through
    /// `observe_sparse` — the default.
    #[default]
    Sparse,
    /// The bit-sliced kernel: up to 256 dies transposed into [`W256`] lanes
    /// (four `u64` words per lane, autovectorisable element-wise ops) and
    /// evaluated together through the block observer, with a per-die tail
    /// for leftover samples.
    Bitsliced256,
    /// Density-adaptive choice: resolves to [`KernelKind::Bitsliced256`]
    /// when the expected fault density meets
    /// [`AUTO_FAULTS_PER_ROW_THRESHOLD`] faults per row, and to
    /// [`KernelKind::Sparse`] otherwise. See [`KernelKind::resolve`].
    Auto,
}

/// The density threshold of the `auto` kernel policy, in expected faults
/// per memory row.
///
/// At or above this density (one expected fault per sixteen rows), most
/// sampled dies carry enough fault-bearing rows that the per-row transpose
/// and lane-wide evaluation of the 256-die bit-sliced kernel amortises its
/// fixed cost; below it, the event-driven sparse kernel's skip-empty-rows
/// advantage wins. The constant is pinned by a unit test against the benched
/// operating points in `benches/pipeline.rs`.
pub const AUTO_FAULTS_PER_ROW_THRESHOLD: f64 = 1.0 / 16.0;

impl KernelKind {
    /// All kernels, in sparse → bitsliced256 → auto order.
    pub const ALL: [KernelKind; 3] = [
        KernelKind::Sparse,
        KernelKind::Bitsliced256,
        KernelKind::Auto,
    ];

    /// Names of kernels earlier releases offered and this one no longer
    /// runs; parsing one fails with a message saying so.
    pub const REMOVED: [&'static str; 2] = ["scalar", "bitsliced"];

    /// The CLI / telemetry name of the kernel.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelKind::Sparse => "sparse",
            KernelKind::Bitsliced256 => "bitsliced256",
            KernelKind::Auto => "auto",
        }
    }

    /// Resolves the density-adaptive `auto` kernel to a fixed kernel for a
    /// campaign expecting `expected_faults_per_die` faults spread over
    /// `rows` memory rows; fixed kernels return themselves unchanged.
    ///
    /// `Auto` picks [`KernelKind::Bitsliced256`] when the expected density
    /// reaches `faults_per_row_threshold` faults per row (the default is
    /// [`AUTO_FAULTS_PER_ROW_THRESHOLD`]; `--auto-threshold` overrides it)
    /// and [`KernelKind::Sparse`] otherwise, including the degenerate
    /// `rows == 0` case.
    #[must_use]
    pub fn resolve(
        self,
        expected_faults_per_die: f64,
        rows: usize,
        faults_per_row_threshold: f64,
    ) -> KernelKind {
        match self {
            KernelKind::Auto => {
                #[allow(clippy::cast_precision_loss)]
                let dense_threshold = rows as f64 * faults_per_row_threshold;
                if rows > 0 && expected_faults_per_die >= dense_threshold {
                    KernelKind::Bitsliced256
                } else {
                    KernelKind::Sparse
                }
            }
            fixed => fixed,
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for KernelKind {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let name = s.trim();
        match name {
            "sparse" => Ok(KernelKind::Sparse),
            "bitsliced256" => Ok(KernelKind::Bitsliced256),
            "auto" => Ok(KernelKind::Auto),
            removed if KernelKind::REMOVED.contains(&removed) => Err(SimError::InvalidParameter {
                reason: format!(
                    "kernel '{removed}' was removed (expected sparse|bitsliced256|auto)"
                ),
            }),
            other => Err(SimError::InvalidParameter {
                reason: format!("unknown kernel '{other}' (expected sparse|bitsliced256|auto)"),
            }),
        }
    }
}

/// Configuration of a fault-injection campaign, generic over the
/// fault-generating [`FaultBackend`] (default: the paper's SRAM model, so
/// existing `(memory, p_cell)` call sites are unchanged and bit-identical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig<B: FaultBackend = SramVddBackend> {
    backend: B,
    samples_per_count: usize,
    max_failures: Option<u64>,
    exact_failures: Option<u64>,
    coverage: f64,
    chunk_size: usize,
    parallelism: Parallelism,
    map_policy: MapPolicy,
    image: ImageSpec,
    kernel: KernelKind,
    auto_threshold: Option<f64>,
}

impl CampaignConfig<SramVddBackend> {
    /// Creates a campaign over an SRAM memory with the given geometry and
    /// cell failure probability — the legacy constructor, equivalent to
    /// [`CampaignConfig::for_backend`] with
    /// [`SramVddBackend::with_p_cell`].
    ///
    /// Defaults: 100 fault maps per failure count, failure counts up to the
    /// 99th percentile of the binomial distribution (the paper's `N_max`
    /// choice), unrestricted maps, chunked in blocks of 32 samples, one
    /// worker per CPU, the all-zeros image and the sparse kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when `p_cell` is outside
    /// `[0, 1]`.
    pub fn new(memory: MemoryConfig, p_cell: f64) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&p_cell) || p_cell.is_nan() {
            return Err(SimError::InvalidParameter {
                reason: format!("cell failure probability {p_cell} outside [0, 1]"),
            });
        }
        Self::for_backend(SramVddBackend::with_p_cell(memory, p_cell)?)
    }
}

impl<B: FaultBackend> CampaignConfig<B> {
    /// Creates a campaign drawing dies from the given backend, with the
    /// same defaults as [`CampaignConfig::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when the backend reports a
    /// per-cell fault probability outside `[0, 1]`.
    pub fn for_backend(backend: B) -> Result<Self, SimError> {
        let p_cell = backend.p_cell();
        if !(0.0..=1.0).contains(&p_cell) || p_cell.is_nan() {
            return Err(SimError::InvalidParameter {
                reason: format!(
                    "backend '{}' reports cell failure probability {p_cell} outside [0, 1]",
                    backend.name()
                ),
            });
        }
        Ok(Self {
            backend,
            samples_per_count: 100,
            max_failures: None,
            exact_failures: None,
            coverage: 0.99,
            chunk_size: 32,
            parallelism: Parallelism::default(),
            map_policy: MapPolicy::default(),
            image: ImageSpec::Zeros,
            kernel: KernelKind::default(),
            auto_threshold: None,
        })
    }

    /// Sets the number of fault maps drawn per failure count.
    #[must_use]
    pub fn with_samples_per_count(mut self, samples: usize) -> Self {
        self.samples_per_count = samples.max(1);
        self
    }

    /// Caps the largest simulated failure count.
    #[must_use]
    pub fn with_max_failures(mut self, max_failures: u64) -> Self {
        self.max_failures = Some(max_failures);
        self
    }

    /// Simulates a single fixed failure count instead of the binomial sweep
    /// (used by ablations that operate at explicit fault densities). Every
    /// sample then carries weight `1 / samples_per_count`.
    #[must_use]
    pub fn with_exact_failures(mut self, failures: u64) -> Self {
        self.exact_failures = Some(failures);
        self
    }

    /// Sets the probability mass the automatically derived `N_max` covers
    /// (default 0.99, the paper's choice).
    #[must_use]
    pub fn with_coverage(mut self, coverage: f64) -> Self {
        self.coverage = coverage.clamp(0.0, 1.0);
        self
    }

    /// Sets the number of samples per work chunk.
    ///
    /// The chunk size trades scheduling overhead against load balance; it
    /// does **not** affect results (chunks merge in order).
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Sets the worker-thread policy.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the fault-map filtering policy.
    #[must_use]
    pub fn with_map_policy(mut self, map_policy: MapPolicy) -> Self {
        self.map_policy = map_policy;
        self
    }

    /// Declares the data image the campaign's metric is evaluated against
    /// (default: [`ImageSpec::Zeros`], the paper's all-zeros background).
    ///
    /// The campaign core hands every evaluator the raw fault map regardless
    /// of the image — data-awareness belongs to the metric — but recording
    /// the image here makes it part of the campaign's identity, so
    /// data-aware evaluator layers (the MSE engine of `faultmit-analysis`)
    /// and campaign reports read one authoritative value.
    #[must_use]
    pub fn with_image(mut self, image: ImageSpec) -> Self {
        self.image = image;
        self
    }

    /// The data image the campaign's metric is declared against.
    #[must_use]
    pub fn image(&self) -> ImageSpec {
        self.image
    }

    /// Selects the evaluation kernel a data-aware evaluator layer (the MSE
    /// engine of `faultmit-analysis`) dispatches to (default:
    /// [`KernelKind::Sparse`]).
    ///
    /// All kernels accumulate **bit-identical** results; the choice only
    /// trades throughput. `auto` resolves to `sparse` or `bitsliced256`
    /// from the campaign's expected fault density before any sampling
    /// happens (see [`CampaignConfig::resolved_kernel`]).
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// The evaluation kernel as configured (`auto` stays `auto`; see
    /// [`CampaignConfig::resolved_kernel`] for the kernel that executes).
    #[must_use]
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Overrides the density threshold (in expected faults per row) at
    /// which [`KernelKind::Auto`] picks the dense bit-sliced kernel over
    /// the sparse one — the `--auto-threshold` CLI knob. `None` (the
    /// default) keeps [`AUTO_FAULTS_PER_ROW_THRESHOLD`]. Fixed kernels
    /// ignore the threshold.
    #[must_use]
    pub fn with_auto_threshold(mut self, auto_threshold: Option<f64>) -> Self {
        self.auto_threshold = auto_threshold;
        self
    }

    /// The configured `auto`-kernel density threshold override, if any.
    #[must_use]
    pub fn auto_threshold(&self) -> Option<f64> {
        self.auto_threshold
    }

    /// The fault-generating backend under study.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Memory geometry under study.
    #[must_use]
    pub fn memory(&self) -> MemoryConfig {
        self.backend.config()
    }

    /// Marginal cell failure probability at the backend's operating point.
    #[must_use]
    pub fn p_cell(&self) -> f64 {
        self.backend.p_cell()
    }

    /// Number of fault maps per failure count.
    #[must_use]
    pub fn samples_per_count(&self) -> usize {
        self.samples_per_count
    }

    /// The configured worker-thread policy.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The configured fault-map policy.
    #[must_use]
    pub fn map_policy(&self) -> MapPolicy {
        self.map_policy
    }

    /// The failure-count distribution implied by the configuration.
    ///
    /// # Errors
    ///
    /// Propagates invalid-probability errors (none occur for a validated
    /// configuration).
    pub fn failure_distribution(&self) -> Result<FailureCountDistribution, SimError> {
        Ok(self.backend.failure_distribution()?)
    }

    /// The largest failure count that will be simulated.
    ///
    /// # Errors
    ///
    /// Propagates errors from building the failure distribution.
    pub fn effective_max_failures(&self) -> Result<u64, SimError> {
        match self.max_failures {
            Some(n) => Ok(n),
            None => Ok(self.failure_distribution()?.n_max(self.coverage)),
        }
    }

    /// The expected number of faults injected per sampled die, used by the
    /// [`KernelKind::Auto`] density policy.
    ///
    /// An exact-failure campaign injects exactly that count into every die;
    /// a swept campaign runs `samples_per_count` dies at every count in
    /// `1..=effective_max_failures`, so the mean over the whole campaign is
    /// the midpoint `(1 + n_max) / 2`.
    ///
    /// # Errors
    ///
    /// Propagates errors from building the failure distribution.
    pub fn expected_faults_per_die(&self) -> Result<f64, SimError> {
        #[allow(clippy::cast_precision_loss)]
        match self.exact_failures {
            Some(n) => Ok(n as f64),
            None => Ok((1.0 + self.effective_max_failures()? as f64) / 2.0),
        }
    }

    /// The fixed kernel the configured [`KernelKind`] resolves to: fixed
    /// kernels return themselves, and [`KernelKind::Auto`] applies
    /// [`KernelKind::resolve`] to [`CampaignConfig::expected_faults_per_die`]
    /// over the memory's rows at the configured (or default) threshold. The
    /// answer depends only on the configuration, so every shard of a
    /// campaign resolves identically.
    ///
    /// # Errors
    ///
    /// Propagates errors from building the failure distribution.
    pub fn resolved_kernel(&self) -> Result<KernelKind, SimError> {
        Ok(self.kernel.resolve(
            self.expected_faults_per_die()?,
            self.memory().rows(),
            self.auto_threshold.unwrap_or(AUTO_FAULTS_PER_ROW_THRESHOLD),
        ))
    }

    /// The fixed failure count of an exact-failure campaign (see
    /// [`CampaignConfig::with_exact_failures`]); `None` for the binomial
    /// sweep.
    #[must_use]
    pub fn exact_failures(&self) -> Option<u64> {
        self.exact_failures
    }
}

/// The parallel fault-injection campaign engine, generic over the
/// fault-generating backend.
#[derive(Debug, Clone)]
pub struct Campaign<B: FaultBackend = SramVddBackend> {
    config: CampaignConfig<B>,
}

impl<B: FaultBackend> Campaign<B> {
    /// Creates an engine for the given configuration.
    #[must_use]
    pub fn new(config: CampaignConfig<B>) -> Self {
        Self { config }
    }

    /// The campaign configuration.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig<B> {
        &self.config
    }

    /// The number of chunks the campaign's work list is split into — the
    /// granularity at which [`ShardSpec::chunk_range`] partitions work.
    ///
    /// # Errors
    ///
    /// Propagates errors from building the failure distribution.
    pub fn chunk_count(&self) -> Result<usize, SimError> {
        Ok(self.plan_len()?.div_ceil(self.config.chunk_size))
    }

    /// The global sample-index range the given shard evaluates.
    ///
    /// Shard ranges are disjoint and tile `0..total samples` in shard
    /// order; an empty range means the shard has no work (more shards than
    /// chunks).
    ///
    /// # Errors
    ///
    /// Propagates errors from building the failure distribution.
    pub fn shard_sample_range(&self, shard: ShardSpec) -> Result<Range<u64>, SimError> {
        let plan_len = self.plan_len()?;
        let chunks = shard.chunk_range(plan_len.div_ceil(self.config.chunk_size));
        let start = (chunks.start * self.config.chunk_size).min(plan_len);
        let end = (chunks.end * self.config.chunk_size).min(plan_len);
        Ok(start as u64..end as u64)
    }

    fn plan_len(&self) -> Result<usize, SimError> {
        Ok(match self.config.exact_failures {
            Some(_) => self.config.samples_per_count,
            None => self.config.effective_max_failures()? as usize * self.config.samples_per_count,
        })
    }

    /// The global work list and the per-failure-count sample weights
    /// (`weights[n]` is `Pr(N = n) / samples_per_count`, or
    /// `1 / samples_per_count` at an exact failure count).
    fn plan(&self) -> Result<(Vec<PlannedSample>, Vec<f64>), SimError> {
        let samples_per_count = self.config.samples_per_count;
        Ok(match self.config.exact_failures {
            Some(n) => {
                let plan = (0..samples_per_count as u64)
                    .map(|k| PlannedSample {
                        index: k,
                        n_faults: n,
                    })
                    .collect();
                let mut weights = vec![0.0; n as usize + 1];
                weights[n as usize] = 1.0 / samples_per_count as f64;
                (plan, weights)
            }
            None => {
                let distribution = self.config.failure_distribution()?;
                let max_failures = self.config.effective_max_failures()?;
                let weights = (0..=max_failures)
                    .map(|n| distribution.pmf(n) / samples_per_count as f64)
                    .collect();
                (build_plan(max_failures, samples_per_count), weights)
            }
        })
    }

    /// Runs one shard of the campaign — the single run entry point.
    ///
    /// Only the chunks of [`ShardSpec::chunk_range`] are generated and
    /// evaluated, but chunk boundaries and per-sample RNG streams come from
    /// the *global* plan, so shard accumulators merged in shard order (in
    /// the sense of [`Accumulator::merge`]) are **bit-identical** to the
    /// [`ShardSpec::solo`] run — including order-sensitive floating-point
    /// weight sums — for every backend and any worker count.
    ///
    /// `evaluator` is built with [`per_die`] (every scheme sees each die's
    /// [`FaultMap`]) or [`blocks`] (dies are grouped into transposed
    /// [`DieBlock`]s of up to [`W256::LANES`] dies, with lone samples taking
    /// the per-die metric). Either way every scheme sees the identical die,
    /// and when the block and per-die metrics agree per die the accumulator
    /// is the same under both evaluators. `make_accumulator` creates one
    /// chunk-local accumulator per work chunk; chunk results merge in chunk
    /// order into the returned accumulator.
    ///
    /// The run is always timed: the returned [`ShardStats`] carry the
    /// generation seconds and the recorder delta of the shard.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Sim`] for pipeline errors and [`RunError::Eval`]
    /// with the first evaluator error in deterministic (chunk-order)
    /// position within the shard.
    pub fn execute<S, V, A>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        evaluator: V,
        make_accumulator: impl Fn() -> A + Sync,
    ) -> Result<(A, ShardStats), RunError<V::Error>>
    where
        S: MitigationScheme + Sync,
        V: Evaluator<S>,
        A: Accumulator,
    {
        // The calling thread's recorder (if any) is re-installed on every
        // worker so hot-path counters land in one place regardless of the
        // thread the chunk happens to run on.
        let recorder = obs::current();
        let before = recorder.as_ref().map(|r| r.snapshot());
        let plan_span = obs::span(obs::Stage::Plan);
        let (plan, weights) = self.plan()?;
        drop(plan_span);

        let backend = &self.config.backend;
        let seeder = StreamSeeder::new(seed);
        let chunk_size = self.config.chunk_size;
        // Chunk boundaries come from the global plan; the shard only selects
        // which contiguous run of chunks to evaluate, so every chunk's
        // contents (and its samples' RNG streams) are identical whether the
        // campaign runs monolithically or split across processes.
        let owned_chunks = shard.chunk_range(plan.len().div_ceil(chunk_size));
        // The single-fault-per-row protocol threads through both generators
        // as a redraw budget so RNG consumption stays identical.
        let max_redraws = match self.config.map_policy {
            MapPolicy::Unrestricted => None,
            MapPolicy::SingleFaultPerRow { max_redraws } => Some(max_redraws),
        };
        let gen_timer = AtomicU64::new(0);

        // Per-worker scratch: one warm arena (fault map + transposed block
        // buffers), a recycled per-die metrics vector and the per-scheme
        // block output matrix (schemes × block width), all reused across
        // every chunk the worker claims. Scratch holds storage only — each
        // chunk's result stays a pure function of its index, so
        // bit-identity at any worker count is unaffected.
        let chunk_results: Vec<Result<A, RunError<V::Error>>> = run_chunked_with(
            owned_chunks.len(),
            self.config.parallelism.worker_count(),
            || {
                (
                    recorder.as_ref().map(obs::install),
                    BlockScratch::new(backend.config()),
                    Vec::<f64>::with_capacity(schemes.len()),
                    vec![0.0f64; schemes.len() * V::BLOCK_DIES],
                )
            },
            |(_recorder_guard, scratch, metrics, block_out), local_index| {
                let chunk_index = owned_chunks.start + local_index;
                let start = chunk_index * chunk_size;
                let end = (start + chunk_size).min(plan.len());
                let mut accumulator = make_accumulator();
                // Timing is accumulated locally per chunk and flushed with
                // one atomic add (and one arena flush), so the stage clocks
                // cost a few reads per die and nothing cross-thread.
                let mut arena = obs::MetricsArena::new();
                let mut gen_nanos = 0u64;
                let mut observe_nanos = 0u64;
                let mut reduce_nanos = 0u64;
                let mut record = |planned: &PlannedSample, metrics: &mut Vec<f64>| {
                    let sample = PairedSample {
                        sample_index: planned.index,
                        n_faults: planned.n_faults,
                        weight: weights[planned.n_faults as usize],
                        metrics: std::mem::take(metrics),
                    };
                    accumulator.record(&sample);
                    // Reclaim the metrics buffer for the next die.
                    *metrics = sample.metrics;
                };

                for group in plan[start..end].chunks(V::BLOCK_DIES) {
                    let clock = Instant::now();
                    if let [planned] = group {
                        // Per-die path (and the block kernels' tail: a lone
                        // sample is cheaper through the sparse walk than
                        // through transposition).
                        let mut rng = seeder.rng_for_sample(planned.index);
                        let n = planned.n_faults as usize;
                        let scalar = scratch.scalar_mut();
                        let map = match max_redraws {
                            None => scalar.generate(backend, &mut rng, n),
                            Some(budget) => {
                                scalar.generate_single_fault_per_row(backend, &mut rng, n, budget)
                            }
                        }
                        .map_err(|e| RunError::Sim(SimError::from(e)))?;
                        let clock = lap(clock, &mut gen_nanos);
                        metrics.clear();
                        for scheme in schemes {
                            metrics.push(evaluator.die(scheme, map).map_err(RunError::Eval)?);
                        }
                        let clock = lap(clock, &mut observe_nanos);
                        record(planned, metrics);
                        lap(clock, &mut reduce_nanos);
                        continue;
                    }

                    let block = scratch
                        .generate_block(backend, &seeder, group, max_redraws)
                        .map_err(|e| RunError::Sim(SimError::from(e)))?;
                    let clock = lap(clock, &mut gen_nanos);
                    let width = V::BLOCK_DIES;
                    for (s, scheme) in schemes.iter().enumerate() {
                        evaluator.block(scheme, &block, &mut block_out[s * width..(s + 1) * width]);
                    }
                    let clock = lap(clock, &mut observe_nanos);
                    for (j, planned) in group.iter().enumerate() {
                        metrics.clear();
                        metrics.extend((0..schemes.len()).map(|s| block_out[s * width + j]));
                        record(planned, metrics);
                    }
                    lap(clock, &mut reduce_nanos);
                }

                let evaluated = (end - start) as u64;
                gen_timer.fetch_add(gen_nanos, Ordering::Relaxed);
                arena.count(obs::Counter::ChunksExecuted, 1);
                arena.count(obs::Counter::SamplesEvaluated, evaluated);
                arena.add_stage(obs::Stage::Generate, gen_nanos, evaluated);
                arena.add_stage(obs::Stage::Observe, observe_nanos, evaluated);
                arena.add_stage(obs::Stage::Reduce, reduce_nanos, evaluated);
                arena.flush();
                Ok(accumulator)
            },
        );

        let merge_span = obs::span(obs::Stage::Merge);
        let mut merged = make_accumulator();
        for result in chunk_results {
            merged.merge(result?);
        }
        drop(merge_span);
        let stats = ShardStats {
            generation_seconds: gen_timer.load(Ordering::Relaxed) as f64 * 1e-9,
            metrics: match (&recorder, &before) {
                (Some(recorder), Some(before)) => recorder.snapshot().since(before),
                _ => obs::MetricsSnapshot::default(),
            },
        };
        Ok((merged, stats))
    }
}

/// Adds the nanoseconds since `since` to `total` and returns the new lap
/// start.
fn lap(since: Instant, total: &mut u64) -> Instant {
    let now = Instant::now();
    *total += now.duration_since(since).as_nanos() as u64;
    now
}

/// The metric a per-die evaluator returns: a bare `f64` (the evaluator
/// cannot fail) or a `Result<f64, E>` whose error aborts the run as
/// [`RunError::Eval`].
pub trait DieMetric {
    /// The evaluator's error type ([`Infallible`] for a bare `f64`).
    type Error: Send;

    /// The metric value, or the evaluator's error.
    ///
    /// # Errors
    ///
    /// Returns the evaluator's error unchanged.
    fn into_result(self) -> Result<f64, Self::Error>;
}

impl DieMetric for f64 {
    type Error = Infallible;

    fn into_result(self) -> Result<f64, Infallible> {
        Ok(self)
    }
}

impl<E: Send> DieMetric for Result<f64, E> {
    type Error = E;

    fn into_result(self) -> Result<f64, E> {
        self
    }
}

/// How [`Campaign::execute`] evaluates sampled dies. Build one with
/// [`per_die`] or [`blocks`].
pub trait Evaluator<S>: Sync {
    /// Error type of the per-die metric.
    type Error: Send;
    /// Dies evaluated together as one block; `1` evaluates die by die.
    const BLOCK_DIES: usize;

    /// The metric of one die under `scheme`.
    ///
    /// # Errors
    ///
    /// Returns the evaluator's error, which aborts the run.
    fn die(&self, scheme: &S, map: &FaultMap) -> Result<f64, Self::Error>;

    /// Fills `out[j]` with die `j`'s metric under `scheme` for every die
    /// of `block`.
    fn block(&self, scheme: &S, block: &DieBlock<'_>, out: &mut [f64]);
}

/// A borrowed evaluator runs exactly like the owned one, so one evaluator
/// can drive several campaigns.
impl<S, V: Evaluator<S>> Evaluator<S> for &V {
    type Error = V::Error;
    const BLOCK_DIES: usize = V::BLOCK_DIES;

    fn die(&self, scheme: &S, map: &FaultMap) -> Result<f64, V::Error> {
        (**self).die(scheme, map)
    }

    fn block(&self, scheme: &S, block: &DieBlock<'_>, out: &mut [f64]) {
        (**self).block(scheme, block, out);
    }
}

/// A per-die evaluator (see [`per_die`]).
#[derive(Debug, Clone, Copy)]
pub struct PerDie<F>(F);

/// A block evaluator with a per-die tail (see [`blocks`]).
#[derive(Debug, Clone, Copy)]
pub struct Blocks<F, G> {
    die: F,
    block: G,
}

/// Evaluates every die on its own: `metric(scheme, map)` returns an `f64`
/// or a `Result<f64, E>` (see [`DieMetric`]).
pub fn per_die<S, F, M>(metric: F) -> PerDie<F>
where
    F: Fn(&S, &FaultMap) -> M + Sync,
    M: DieMetric,
{
    PerDie(metric)
}

/// Evaluates dies up to [`W256::LANES`] at a time: `block(scheme, block,
/// out)` fills `out[j]` with die `j`'s metric, and a lone sample left at
/// the end of a chunk takes `metric(scheme, map)` instead, so any
/// `(samples, chunk size, shard)` plan works.
pub fn blocks<S, F, M, G>(metric: F, block: G) -> Blocks<F, G>
where
    F: Fn(&S, &FaultMap) -> M + Sync,
    M: DieMetric,
    G: Fn(&S, &DieBlock<'_>, &mut [f64]) + Sync,
{
    Blocks { die: metric, block }
}

impl<S, F, M> Evaluator<S> for PerDie<F>
where
    F: Fn(&S, &FaultMap) -> M + Sync,
    M: DieMetric,
{
    type Error = M::Error;
    const BLOCK_DIES: usize = 1;

    fn die(&self, scheme: &S, map: &FaultMap) -> Result<f64, M::Error> {
        (self.0)(scheme, map).into_result()
    }

    fn block(&self, _: &S, _: &DieBlock<'_>, _: &mut [f64]) {
        unreachable!("one-die groups always take the per-die path")
    }
}

impl<S, F, M, G> Evaluator<S> for Blocks<F, G>
where
    F: Fn(&S, &FaultMap) -> M + Sync,
    M: DieMetric,
    G: Fn(&S, &DieBlock<'_>, &mut [f64]) + Sync,
{
    type Error = M::Error;
    const BLOCK_DIES: usize = W256::LANES;

    fn die(&self, scheme: &S, map: &FaultMap) -> Result<f64, M::Error> {
        (self.die)(scheme, map).into_result()
    }

    fn block(&self, scheme: &S, block: &DieBlock<'_>, out: &mut [f64]) {
        (self.block)(scheme, block, out);
    }
}

/// The campaign's work list: `samples_per_count` samples for every failure
/// count `1..=max_failures`, with globally unique, dense sample indices.
fn build_plan(max_failures: u64, samples_per_count: usize) -> Vec<PlannedSample> {
    let mut plan = Vec::with_capacity(max_failures as usize * samples_per_count);
    for n in 1..=max_failures {
        for k in 0..samples_per_count as u64 {
            plan.push(PlannedSample {
                index: (n - 1) * samples_per_count as u64 + k,
                n_faults: n,
            });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulate::CollectRecords;
    use faultmit_core::Scheme;

    /// Runs one shard of `campaign` with a per-die metric, collecting
    /// every record.
    fn collect<B: FaultBackend>(
        campaign: &Campaign<B>,
        schemes: &[Scheme],
        seed: u64,
        shard: ShardSpec,
        metric: impl Fn(&Scheme, &FaultMap) -> f64 + Sync,
    ) -> CollectRecords {
        campaign
            .execute(schemes, seed, shard, per_die(metric), CollectRecords::new)
            .unwrap()
            .0
    }

    fn config() -> CampaignConfig {
        CampaignConfig::new(MemoryConfig::new(128, 32).unwrap(), 1e-3)
            .unwrap()
            .with_samples_per_count(10)
            .with_max_failures(6)
            .with_chunk_size(4)
    }

    #[test]
    fn config_validation() {
        assert!(CampaignConfig::new(MemoryConfig::new(16, 32).unwrap(), -0.1).is_err());
        assert!(CampaignConfig::new(MemoryConfig::new(16, 32).unwrap(), 1.5).is_err());
        assert!(CampaignConfig::new(MemoryConfig::new(16, 32).unwrap(), f64::NAN).is_err());
    }

    #[test]
    fn image_spec_rides_in_the_config_identity() {
        use faultmit_memsim::ImageSpec;
        let base = config();
        assert!(base.image().is_zeros());
        let imaged = base.with_image(ImageSpec::UniformRandom { seed: 5 });
        assert_eq!(imaged.image(), ImageSpec::UniformRandom { seed: 5 });
        assert_ne!(base, imaged, "the image is part of the campaign identity");
    }

    #[test]
    fn plan_indices_are_dense_and_unique() {
        let plan = build_plan(5, 7);
        assert_eq!(plan.len(), 35);
        for (i, sample) in plan.iter().enumerate() {
            assert_eq!(sample.index, i as u64);
            assert_eq!(sample.n_faults, 1 + i as u64 / 7);
        }
    }

    #[test]
    fn paired_metrics_line_up_with_schemes() {
        let campaign = Campaign::new(config());
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];
        let result = collect(
            &campaign,
            &schemes,
            1,
            ShardSpec::solo(),
            |scheme: &Scheme, map| map.fault_count() as f64 + scheme.extra_bits_per_row() as f64,
        );
        assert_eq!(result.records.len(), 60);
        for record in &result.records {
            assert_eq!(record.metrics.len(), 2);
            // Same die for both schemes: the metrics differ exactly by the
            // extra-bits term, proving the map is shared.
            assert_eq!(record.metrics[1] - record.metrics[0], 7.0);
            assert_eq!(record.metrics[0], record.n_faults as f64);
        }
    }

    #[test]
    fn records_arrive_in_global_sample_order() {
        let campaign = Campaign::new(config().with_parallelism(Parallelism::threads(4)));
        let result = collect(
            &campaign,
            &[Scheme::unprotected32()],
            2,
            ShardSpec::solo(),
            |_, map| map.fault_count() as f64,
        );
        let indices: Vec<u64> = result.records.iter().map(|r| r.sample_index).collect();
        assert_eq!(indices, (0..60).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        let serial = Campaign::new(config().with_parallelism(Parallelism::Serial));
        let parallel = Campaign::new(config().with_parallelism(Parallelism::threads(8)));
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
        let evaluate =
            |scheme: &Scheme, map: &FaultMap| map.fault_count() as f64 * scheme.word_bits() as f64;
        let a = collect(&serial, &schemes, 7, ShardSpec::solo(), evaluate);
        let b = collect(&parallel, &schemes, 7, ShardSpec::solo(), evaluate);
        assert_eq!(a, b);
    }

    #[test]
    fn chunk_size_does_not_change_results() {
        let schemes = [Scheme::unprotected32()];
        let evaluate = |_: &Scheme, map: &FaultMap| map.fault_count() as f64;
        let small = collect(
            &Campaign::new(config().with_chunk_size(1)),
            &schemes,
            3,
            ShardSpec::solo(),
            evaluate,
        );
        let large = collect(
            &Campaign::new(config().with_chunk_size(1000)),
            &schemes,
            3,
            ShardSpec::solo(),
            evaluate,
        );
        assert_eq!(small, large);
    }

    #[test]
    fn weights_follow_the_binomial_pmf() {
        let campaign = Campaign::new(config());
        let distribution = campaign.config().failure_distribution().unwrap();
        let result = collect(
            &campaign,
            &[Scheme::unprotected32()],
            5,
            ShardSpec::solo(),
            |_, _| 0.0,
        );
        for record in &result.records {
            let expected = distribution.pmf(record.n_faults) / 10.0;
            assert!((record.weight - expected).abs() <= 1e-18 + expected * 1e-12);
        }
    }

    #[test]
    fn single_fault_per_row_policy_is_applied() {
        let campaign = Campaign::new(
            config().with_map_policy(MapPolicy::SingleFaultPerRow { max_redraws: 1000 }),
        );
        let result = collect(
            &campaign,
            &[Scheme::secded32()],
            11,
            ShardSpec::solo(),
            |scheme, map| {
                // Under the policy SECDED corrects every die.
                faultmit_core::MitigationScheme::observe(scheme, map, 0, 0).value as f64
            },
        );
        assert!(!result.records.is_empty());
    }

    #[test]
    fn exact_failure_count_mode_samples_one_count() {
        let campaign = Campaign::new(config().with_exact_failures(5));
        let result = collect(
            &campaign,
            &[Scheme::unprotected32()],
            9,
            ShardSpec::solo(),
            |_, map| map.fault_count() as f64,
        );
        assert_eq!(result.records.len(), 10);
        for record in &result.records {
            assert_eq!(record.n_faults, 5);
            assert_eq!(record.metrics[0], 5.0);
            assert!((record.weight - 0.1).abs() < 1e-15);
        }
    }

    #[test]
    fn evaluator_errors_surface_deterministically() {
        let campaign = Campaign::new(config().with_parallelism(Parallelism::threads(4)));
        let result = campaign.execute(
            &[Scheme::unprotected32()],
            1,
            ShardSpec::solo(),
            per_die(|_: &Scheme, map: &FaultMap| {
                if map.fault_count() >= 3 {
                    Err("too many faults")
                } else {
                    Ok(0.0)
                }
            }),
            CollectRecords::new,
        );
        assert_eq!(result.unwrap_err(), RunError::Eval("too many faults"));
    }

    #[test]
    fn execute_reports_generation_time_and_the_recorder_delta() {
        let campaign = Campaign::new(config().with_parallelism(Parallelism::threads(2)));
        let schemes = [Scheme::unprotected32()];
        let metric = |_: &Scheme, map: &FaultMap| map.fault_count() as f64;
        // No recorder installed: the delta is empty, the clock still runs.
        let (plain, stats) = campaign
            .execute(
                &schemes,
                4,
                ShardSpec::solo(),
                per_die(metric),
                CollectRecords::new,
            )
            .unwrap();
        assert!(stats.generation_seconds > 0.0);
        assert_eq!(stats.metrics, obs::MetricsSnapshot::default());
        // With a recorder, the delta counts exactly this shard's samples.
        let recorder = std::sync::Arc::new(obs::Recorder::new());
        let _guard = obs::install(&recorder);
        let (recorded, stats) = campaign
            .execute(
                &schemes,
                4,
                ShardSpec::solo(),
                per_die(metric),
                CollectRecords::new,
            )
            .unwrap();
        assert_eq!(recorded, plain);
        assert_eq!(stats.metrics.counter(obs::Counter::SamplesEvaluated), 60);
        assert_eq!(stats.metrics.counter(obs::Counter::ChunksExecuted), 15);
    }

    #[test]
    fn effective_max_failures_uses_coverage_or_override() {
        let auto = CampaignConfig::new(MemoryConfig::new(4096, 32).unwrap(), 1e-3).unwrap();
        let n_auto = auto.effective_max_failures().unwrap();
        assert!(n_auto > 131, "n_max must exceed the mean failure count");
        assert_eq!(
            auto.with_max_failures(20).effective_max_failures().unwrap(),
            20
        );
    }

    #[test]
    fn legacy_constructor_is_bit_identical_to_the_sram_backend_path() {
        use faultmit_memsim::SramVddBackend;
        let memory = MemoryConfig::new(128, 32).unwrap();
        let legacy = Campaign::new(
            CampaignConfig::new(memory, 1e-3)
                .unwrap()
                .with_samples_per_count(10)
                .with_max_failures(6),
        );
        let explicit = Campaign::new(
            CampaignConfig::for_backend(SramVddBackend::with_p_cell(memory, 1e-3).unwrap())
                .unwrap()
                .with_samples_per_count(10)
                .with_max_failures(6),
        );
        let schemes = [Scheme::unprotected32()];
        let evaluate = |_: &Scheme, map: &FaultMap| map.fault_count() as f64;
        let a = collect(&legacy, &schemes, 31, ShardSpec::solo(), evaluate);
        let b = collect(&explicit, &schemes, 31, ShardSpec::solo(), evaluate);
        assert_eq!(a, b);
    }

    #[test]
    fn campaigns_run_identically_on_every_backend_at_any_worker_count() {
        use faultmit_memsim::{Backend, BackendKind};
        let memory = MemoryConfig::new(128, 32).unwrap();
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
        let evaluate = |_: &Scheme, map: &FaultMap| map.fault_count() as f64;
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
            let base = CampaignConfig::for_backend(backend)
                .unwrap()
                .with_samples_per_count(8)
                .with_max_failures(5)
                .with_chunk_size(3);
            let serial = collect(
                &Campaign::new(base.with_parallelism(Parallelism::Serial)),
                &schemes,
                13,
                ShardSpec::solo(),
                evaluate,
            );
            let threaded = collect(
                &Campaign::new(base.with_parallelism(Parallelism::threads(4))),
                &schemes,
                13,
                ShardSpec::solo(),
                evaluate,
            );
            assert_eq!(serial, threaded, "{kind} diverges across worker counts");
            assert_eq!(serial.records.len(), 40, "{kind}");
        }
    }

    #[test]
    fn shard_spec_validates_and_parses() {
        assert!(ShardSpec::new(0, 0).is_err());
        assert!(ShardSpec::new(3, 3).is_err());
        let spec = ShardSpec::new(1, 4).unwrap();
        assert_eq!(spec.shard_index(), 1);
        assert_eq!(spec.shard_count(), 4);
        assert!(!spec.is_solo());
        assert!(ShardSpec::solo().is_solo());
        assert_eq!(spec.to_string(), "1/4");
        assert_eq!("1/4".parse::<ShardSpec>().unwrap(), spec);
        assert_eq!("0/1".parse::<ShardSpec>().unwrap(), ShardSpec::solo());
        assert_eq!(
            ShardSpec::all(3).collect::<Vec<_>>(),
            vec![
                ShardSpec::new(0, 3).unwrap(),
                ShardSpec::new(1, 3).unwrap(),
                ShardSpec::new(2, 3).unwrap(),
            ]
        );
        assert_eq!(ShardSpec::all(0).count(), 0);
        assert!("4/4".parse::<ShardSpec>().is_err());
        assert!("1".parse::<ShardSpec>().is_err());
        assert!("a/b".parse::<ShardSpec>().is_err());
        assert!("1/0".parse::<ShardSpec>().is_err());
    }

    #[test]
    fn shard_chunk_ranges_tile_the_chunk_space() {
        for chunk_count in [0usize, 1, 2, 5, 16, 37] {
            for shard_count in [1usize, 2, 3, 7, 40] {
                let mut next = 0;
                for index in 0..shard_count {
                    let range = ShardSpec::new(index, shard_count)
                        .unwrap()
                        .chunk_range(chunk_count);
                    assert_eq!(
                        range.start, next,
                        "{chunk_count} chunks, {shard_count} shards"
                    );
                    next = range.end;
                }
                assert_eq!(next, chunk_count);
            }
        }
    }

    #[test]
    fn sharded_runs_merged_in_order_match_the_monolithic_run() {
        let campaign = Campaign::new(config().with_parallelism(Parallelism::threads(4)));
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
        let evaluate =
            |scheme: &Scheme, map: &FaultMap| map.fault_count() as f64 * scheme.word_bits() as f64;
        let monolithic = collect(&campaign, &schemes, 19, ShardSpec::solo(), evaluate);
        for shard_count in [1usize, 2, 3, 7, 64] {
            let mut merged = CollectRecords::new();
            for index in 0..shard_count {
                let shard = ShardSpec::new(index, shard_count).unwrap();
                let part = collect(&campaign, &schemes, 19, shard, evaluate);
                merged.merge(part);
            }
            assert_eq!(merged, monolithic, "{shard_count} shards diverge");
        }
    }

    #[test]
    fn shard_sample_ranges_are_disjoint_and_complete() {
        let campaign = Campaign::new(config());
        let total = campaign.shard_sample_range(ShardSpec::solo()).unwrap();
        assert_eq!(total, 0..60);
        assert_eq!(campaign.chunk_count().unwrap(), 15);
        for shard_count in [2usize, 3, 7, 100] {
            let mut next = 0;
            for index in 0..shard_count {
                let range = campaign
                    .shard_sample_range(ShardSpec::new(index, shard_count).unwrap())
                    .unwrap();
                assert_eq!(range.start, next, "{shard_count} shards");
                next = range.end;
            }
            assert_eq!(next, 60);
        }
    }

    #[test]
    fn exact_failure_campaigns_shard_identically() {
        let campaign = Campaign::new(config().with_exact_failures(4));
        let schemes = [Scheme::unprotected32()];
        let evaluate = |_: &Scheme, map: &FaultMap| map.fault_count() as f64;
        let monolithic = collect(&campaign, &schemes, 5, ShardSpec::solo(), evaluate);
        let mut merged = CollectRecords::new();
        for index in 0..3 {
            merged.merge(collect(
                &campaign,
                &schemes,
                5,
                ShardSpec::new(index, 3).unwrap(),
                evaluate,
            ));
        }
        assert_eq!(merged, monolithic);
    }

    #[test]
    fn kernel_kind_parses_and_displays() {
        assert_eq!(KernelKind::ALL.len(), 3);
        for kernel in KernelKind::ALL {
            assert_eq!(kernel.as_str().parse::<KernelKind>().unwrap(), kernel);
            assert_eq!(kernel.to_string(), kernel.as_str());
        }
        assert_eq!(KernelKind::default(), KernelKind::Sparse);
        let error = "simd".parse::<KernelKind>().unwrap_err().to_string();
        assert!(
            error.contains("sparse|bitsliced256|auto"),
            "the unknown-kernel error must list the full valid set: {error}"
        );
        for removed in KernelKind::REMOVED {
            let error = removed.parse::<KernelKind>().unwrap_err().to_string();
            assert!(
                error.contains(&format!("kernel '{removed}' was removed")),
                "{error}"
            );
        }
    }

    #[test]
    fn auto_kernel_resolves_by_fault_density() {
        let default = AUTO_FAULTS_PER_ROW_THRESHOLD;
        // Fixed kernels resolve to themselves regardless of density.
        for kernel in [KernelKind::Sparse, KernelKind::Bitsliced256] {
            assert_eq!(kernel.resolve(1e9, 128, default), kernel);
            assert_eq!(kernel.resolve(0.0, 128, default), kernel);
        }
        // Auto flips exactly at rows / 16 expected faults per die.
        let rows = 4096usize;
        let threshold = rows as f64 * default;
        assert_eq!(
            KernelKind::Auto.resolve(threshold, rows, default),
            KernelKind::Bitsliced256
        );
        assert_eq!(
            KernelKind::Auto.resolve(threshold - 1.0, rows, default),
            KernelKind::Sparse
        );
        // Degenerate geometry falls back to sparse.
        assert_eq!(
            KernelKind::Auto.resolve(10.0, 0, default),
            KernelKind::Sparse
        );
    }

    #[test]
    fn expected_faults_per_die_follows_the_campaign_plan() {
        // An exact-failure campaign injects that count into every die.
        let exact = config().with_exact_failures(8192);
        assert_eq!(exact.expected_faults_per_die().unwrap(), 8192.0);
        // A swept campaign averages the uniform 1..=n_max plan.
        let swept = config().with_max_failures(13);
        assert_eq!(swept.expected_faults_per_die().unwrap(), 7.0);
    }

    #[test]
    fn auto_kernel_resolution_tracks_the_campaign_density() {
        // 3 expected faults ((1 + 5) / 2) over 128 rows is below the
        // 8-per-die threshold (128 / 16) → sparse; the same campaign over an
        // 8-row memory crosses its 0.5-per-die threshold → bitsliced256.
        let sparse = config().with_max_failures(5).with_kernel(KernelKind::Auto);
        assert_eq!(sparse.kernel(), KernelKind::Auto);
        assert_eq!(sparse.resolved_kernel().unwrap(), KernelKind::Sparse);
        let dense = CampaignConfig::new(MemoryConfig::new(8, 32).unwrap(), 1e-3)
            .unwrap()
            .with_max_failures(5)
            .with_kernel(KernelKind::Auto);
        assert_eq!(dense.resolved_kernel().unwrap(), KernelKind::Bitsliced256);
        // Fixed kernels resolve to themselves on either side of the
        // threshold; the default configuration runs sparse.
        assert_eq!(config().resolved_kernel().unwrap(), KernelKind::Sparse);
        for kernel in [KernelKind::Sparse, KernelKind::Bitsliced256] {
            assert_eq!(
                sparse.with_kernel(kernel).resolved_kernel().unwrap(),
                kernel
            );
            assert_eq!(dense.with_kernel(kernel).resolved_kernel().unwrap(), kernel);
        }
        // An `--auto-threshold` override moves the break-even: 3 faults per
        // die over 128 rows reaches 1/64 fault per row (2 per die) but not
        // 1/32 (4 per die).
        let low = sparse.with_auto_threshold(Some(1.0 / 64.0));
        assert_eq!(low.auto_threshold(), Some(1.0 / 64.0));
        assert_eq!(low.resolved_kernel().unwrap(), KernelKind::Bitsliced256);
        let high = low.with_auto_threshold(Some(1.0 / 32.0));
        assert_eq!(high.resolved_kernel().unwrap(), KernelKind::Sparse);
        // An exact-failure campaign resolves from its exact count, not from
        // the swept midpoint: 8 faults per die over 128 rows is dense,
        // although the 1..=5 sweep the config also carries is not.
        let exact = sparse.with_exact_failures(8);
        assert_eq!(exact.exact_failures(), Some(8));
        assert_eq!(exact.resolved_kernel().unwrap(), KernelKind::Bitsliced256);
        assert_eq!(
            sparse.with_exact_failures(7).resolved_kernel().unwrap(),
            KernelKind::Sparse
        );
    }

    #[test]
    fn block_scheduling_matches_the_per_sample_pipeline() {
        // A per-die metric computable from both representations: the die's
        // fault count. The block path must reproduce the per-sample path's
        // records exactly — indices, weights, metric values, order — for
        // non-multiple-of-lane-width plans, any shard split and both map
        // policies.
        use faultmit_memsim::{Backend, BackendKind};
        let count_block = |_: &Scheme, block: &DieBlock<'_>, out: &mut [f64]| {
            out[..block.die_count()].fill(0.0);
            for row in block.rows() {
                for cell in row.cells {
                    cell.presence().for_each_die(|die| out[die] += 1.0);
                }
            }
        };
        let count_sample = |_: &Scheme, map: &FaultMap| map.fault_count() as f64;
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
        for kind in [BackendKind::Sram, BackendKind::Dram] {
            for policy in [
                MapPolicy::Unrestricted,
                MapPolicy::SingleFaultPerRow { max_redraws: 50 },
            ] {
                let backend =
                    Backend::at_p_cell(kind, MemoryConfig::new(128, 32).unwrap(), 1e-3).unwrap();
                // 49 samples per count × 13 counts = 637 samples: the
                // first 513-sample chunk splits into two full 256-die
                // blocks plus a lone per-die tail, and the last chunk
                // leaves a 124-die block that ends inside its second lane
                // word.
                let base = CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(49)
                    .with_max_failures(13)
                    .with_chunk_size(513)
                    .with_map_policy(policy);
                let campaign = Campaign::new(base);
                let reference = collect(&campaign, &schemes, 23, ShardSpec::solo(), count_sample);
                for shard_count in [1usize, 2] {
                    let mut merged = CollectRecords::new();
                    for index in 0..shard_count {
                        let shard = ShardSpec::new(index, shard_count).unwrap();
                        let (part, _) = campaign
                            .execute(
                                &schemes,
                                23,
                                shard,
                                blocks(count_sample, count_block),
                                CollectRecords::new,
                            )
                            .unwrap();
                        merged.merge(part);
                    }
                    assert_eq!(merged, reference, "{kind} {policy:?} {shard_count} shards");
                }
            }
        }
    }

    #[test]
    fn block_scheduling_takes_the_scalar_tail_for_lone_samples() {
        // chunk_size 1 forces every group down the scalar tail; results
        // must still match.
        let campaign = Campaign::new(config().with_chunk_size(1));
        let schemes = [Scheme::unprotected32()];
        let reference = collect(&campaign, &schemes, 3, ShardSpec::solo(), |_, map| {
            map.fault_count() as f64
        });
        let (lone, _) = campaign
            .execute(
                &schemes,
                3,
                ShardSpec::solo(),
                blocks(
                    |_: &Scheme, map: &FaultMap| map.fault_count() as f64,
                    |_, _: &DieBlock<'_>, _: &mut [f64]| {
                        panic!("single-sample groups must use the scalar tail")
                    },
                ),
                CollectRecords::new,
            )
            .unwrap();
        assert_eq!(lone, reference);
    }

    #[test]
    fn single_fault_per_row_policy_works_for_structured_backends() {
        use faultmit_memsim::DramRetentionBackend;
        let memory = MemoryConfig::new(64, 32).unwrap();
        let backend = DramRetentionBackend::new(memory, 64.0, 45.0).unwrap();
        let campaign = Campaign::new(
            CampaignConfig::for_backend(backend)
                .unwrap()
                .with_samples_per_count(6)
                .with_max_failures(4)
                .with_map_policy(MapPolicy::SingleFaultPerRow { max_redraws: 2000 }),
        );
        let result = collect(
            &campaign,
            &[Scheme::unprotected32()],
            3,
            ShardSpec::solo(),
            |_, map| map.max_faults_per_row() as f64,
        );
        // Clustered placement collides often; the redraw budget must still
        // deliver single-fault rows for these low counts.
        for record in &result.records {
            assert!(
                record.metrics[0] <= 1.0,
                "sample {} kept a multi-fault row",
                record.sample_index
            );
        }
    }
}
