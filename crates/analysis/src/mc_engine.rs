//! The Monte-Carlo fault-injection campaign behind Fig. 5.
//!
//! Since the pipeline refactor this module is a thin, MSE-specialised facade
//! over [`faultmit_sim::Campaign`]: for every failure count `n = 1..=N_max`
//! the pipeline draws random fault maps (bit-flip locations distributed
//! uniformly over the array), evaluates the memory MSE of Eq. (6) under
//! **every** protection scheme on the *same* die (paired comparison), and
//! weighs each sample by `Pr(N = n)` so that the aggregated CDF describes
//! the population of manufactured dies.
//!
//! Campaigns are deterministic in the campaign seed and bit-identical at any
//! worker count — see the `determinism` integration test.

use crate::accumulate::CatalogueAccumulator;
use crate::cdf::EmpiricalCdf;
use crate::error::AnalysisError;
use crate::mse::{block_mse_into, memory_mse_sparse_with};
use crate::yield_model::YieldModel;
use faultmit_core::MitigationScheme;
use faultmit_memsim::{DieBlock, FaultBackend, ImageSpec, SramVddBackend};
use faultmit_obs as obs;
use faultmit_sim::{blocks, per_die, Campaign, CampaignConfig, KernelKind, ShardSpec, ShardStats};

/// The outcome of evaluating one protection scheme in a Monte-Carlo campaign.
#[derive(Debug, Clone)]
pub struct SchemeMseResult {
    /// Human-readable scheme name (as reported by
    /// [`MitigationScheme::name`]).
    pub scheme_name: String,
    /// The weighted MSE CDF over the simulated die population (the Fig. 5
    /// series for this scheme).
    pub cdf: EmpiricalCdf,
    /// The full yield model, for quality-vs-yield queries.
    pub yield_model: YieldModel,
    /// Largest simulated failure count.
    pub max_failures: u64,
}

impl SchemeMseResult {
    /// Yield at an MSE constraint (`Pr(MSE ≤ mse_max)`).
    #[must_use]
    pub fn yield_at_mse(&self, mse_max: f64) -> f64 {
        self.yield_model.yield_at_quality(mse_max)
    }

    /// The MSE that must be tolerated to reach `target_yield`, if reachable.
    #[must_use]
    pub fn mse_for_yield(&self, target_yield: f64) -> Option<f64> {
        self.yield_model
            .quality_for_yield(target_yield)
            .map(|band| band.max_quality)
    }
}

/// The Monte-Carlo fault-injection engine — an MSE-specialised facade over
/// the parallel pipeline, generic over the fault-generating backend.
///
/// The campaign is one [`CampaignConfig`]: the backend, sampling budget,
/// image and kernel choice all live there, and
/// [`CampaignConfig::resolved_kernel`] picks the kernel the engine runs.
#[derive(Debug, Clone)]
pub struct MonteCarloEngine<B: FaultBackend = SramVddBackend> {
    campaign: Campaign<B>,
}

impl<B: FaultBackend> MonteCarloEngine<B> {
    /// Creates an engine for the given campaign configuration.
    #[must_use]
    pub fn new(config: CampaignConfig<B>) -> Self {
        Self {
            campaign: Campaign::new(config),
        }
    }

    /// The campaign configuration.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig<B> {
        self.campaign.config()
    }

    /// Runs the campaign for a single protection scheme (thin shim over
    /// [`MonteCarloEngine::run_catalogue`] with a one-element catalogue).
    ///
    /// The `seed` makes the campaign reproducible; reusing the same seed
    /// across calls evaluates every scheme on identical fault maps.
    ///
    /// # Errors
    ///
    /// Propagates configuration and sampling errors.
    pub fn run<S: MitigationScheme + Sync + ?Sized>(
        &self,
        scheme: &S,
        seed: u64,
    ) -> Result<SchemeMseResult, AnalysisError> {
        let mut results = self.run_catalogue(&[scheme], seed)?;
        Ok(results.remove(0))
    }

    /// Runs one paired campaign over the whole scheme catalogue: every
    /// scheme is evaluated against the **same** fault map of every sampled
    /// die, so per-die comparisons are exact rather than only statistically
    /// matched.
    ///
    /// This is the monolithic ([`ShardSpec::solo`]) special case of the
    /// sharded path: one full-coverage shard state, immediately reduced to
    /// results.
    ///
    /// # Errors
    ///
    /// Propagates the first error encountered.
    pub fn run_catalogue<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
    ) -> Result<Vec<SchemeMseResult>, AnalysisError> {
        let (state, _) = self.run_catalogue_shard(schemes, seed, ShardSpec::solo(), None)?;
        self.results_from_state(schemes, state)
    }

    /// Runs one shard of the paired campaign, returning the raw accumulator
    /// state instead of finished results, with the shard's [`ShardStats`].
    ///
    /// `data` holds one stored word per memory row, for callers that
    /// materialise image words themselves (the apps layer resolves
    /// [`ImageSpec::App`] matrices this way). `None` evaluates against the
    /// configured image: the all-zeros fast path for [`ImageSpec::Zeros`]
    /// — bit-identical to `Some` of an explicit all-zeros vector, since a
    /// fault's observed word does not depend on how the zero background is
    /// spelled — and a per-row gather from any other self-contained image.
    ///
    /// Shard states merged in shard order (via
    /// [`faultmit_sim::Accumulator::merge`]) are bit-identical to the
    /// monolithic [`MonteCarloEngine::run_catalogue`] accumulation; feed the
    /// merged state to [`MonteCarloEngine::results_from_state`] to obtain
    /// the exact monolithic results.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when the configuration
    /// sets [`CampaignConfig::with_exact_failures`] (the MSE results weight
    /// each failure count by its binomial probability, which a single fixed
    /// count does not have) or when `data` has fewer entries than the memory
    /// has rows, propagates the "resolve through the apps layer" error of an
    /// [`ImageSpec::App`] image passed without `data`, and propagates
    /// campaign errors.
    pub fn run_catalogue_shard<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        data: Option<&[u64]>,
    ) -> Result<(CatalogueAccumulator, ShardStats), AnalysisError> {
        if let Some(failures) = self.config().exact_failures() {
            return Err(AnalysisError::InvalidParameter {
                reason: format!(
                    "exact failure count {failures}: the MSE engine weights the \
                     binomial failure-count sweep"
                ),
            });
        }
        if let Some(data) = data {
            let rows = self.config().memory().rows();
            if data.len() < rows {
                return Err(AnalysisError::InvalidParameter {
                    reason: format!(
                        "data image has {} words but the memory has {rows} rows",
                        data.len()
                    ),
                });
            }
            return self.run_campaign_kernel(schemes, seed, shard, |row| data[row]);
        }
        match self.config().image() {
            // `memory_mse_sparse` is `memory_mse_sparse_with` against the
            // `|_| 0` word source, so the zeros fast path and an explicit
            // zeros vector share one dispatcher without a bit of drift.
            ImageSpec::Zeros => self.run_campaign_kernel(schemes, seed, shard, |_| 0),
            spec => {
                // Self-contained images resolve here; App images propagate
                // memsim's "resolve through the apps layer" error. The
                // kernels gather image words per faulty row, so the image
                // is never materialised memory-wide.
                let image = spec.try_materialise(self.config().memory())?;
                self.run_campaign_kernel(schemes, seed, shard, |row| image.word(row))
            }
        }
    }

    /// Dispatches one shard of the paired campaign to the configured
    /// evaluation kernel (`auto` resolves first, via
    /// [`CampaignConfig::resolved_kernel`]), with `written` supplying the
    /// stored word of every row. Both kernels fold the identical per-die
    /// squared-error sums in the identical order, so the returned
    /// accumulator is bit-identical across [`KernelKind`] choices.
    fn run_campaign_kernel<S, W>(
        &self,
        schemes: &[S],
        seed: u64,
        shard: ShardSpec,
        written: W,
    ) -> Result<(CatalogueAccumulator, ShardStats), AnalysisError>
    where
        S: MitigationScheme + Sync,
        W: Fn(usize) -> u64 + Sync,
    {
        let accumulator = || CatalogueAccumulator::new(schemes.len());
        let metric = |scheme: &S, map: &_| memory_mse_sparse_with(scheme, map, &written);
        // One dispatch event per shard run: `auto` resolves before any
        // sampling, so the counters record the kernel that actually executed.
        let run = match self.config().resolved_kernel()? {
            KernelKind::Auto => unreachable!("resolved_kernel always returns a fixed kernel"),
            KernelKind::Sparse => {
                obs::count(obs::Counter::DispatchSparse, 1);
                self.campaign
                    .execute(schemes, seed, shard, per_die(metric), accumulator)
            }
            KernelKind::Bitsliced256 => {
                obs::count(obs::Counter::DispatchBitsliced256, 1);
                let block = |scheme: &S, block: &DieBlock<'_>, out: &mut [f64]| {
                    block_mse_into(scheme, block, &written, out);
                };
                self.campaign
                    .execute(schemes, seed, shard, blocks(metric, block), accumulator)
            }
        };
        Ok(run.map_err(faultmit_sim::SimError::from)?)
    }

    /// Converts accumulated (possibly shard-merged) campaign state into the
    /// per-scheme MSE results — the reduction half of
    /// [`MonteCarloEngine::run_catalogue`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when the state tracks a
    /// different number of schemes than the catalogue, and propagates
    /// distribution errors.
    pub fn results_from_state<S: MitigationScheme + Sync>(
        &self,
        schemes: &[S],
        state: CatalogueAccumulator,
    ) -> Result<Vec<SchemeMseResult>, AnalysisError> {
        if state.scheme_count() != schemes.len() {
            return Err(AnalysisError::InvalidParameter {
                reason: format!(
                    "campaign state tracks {} schemes, catalogue has {}",
                    state.scheme_count(),
                    schemes.len()
                ),
            });
        }
        let distribution = self.config().failure_distribution()?;
        let max_failures = self.config().effective_max_failures()?;
        Ok(state
            .into_yield_models(distribution)
            .into_iter()
            .zip(schemes)
            .map(|(yield_model, scheme)| SchemeMseResult {
                scheme_name: scheme.name(),
                cdf: yield_model.combined_cdf(),
                yield_model,
                max_failures,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_core::Scheme;
    use faultmit_memsim::MemoryConfig;
    use faultmit_sim::Parallelism;

    fn small_config() -> CampaignConfig {
        CampaignConfig::new(MemoryConfig::new(128, 32).unwrap(), 1e-3)
            .unwrap()
            .with_samples_per_count(30)
            .with_max_failures(10)
    }

    #[test]
    fn identical_seeds_reproduce_identical_results() {
        let engine = MonteCarloEngine::new(small_config());
        let scheme = Scheme::unprotected32();
        let a = engine.run(&scheme, 7).unwrap();
        let b = engine.run(&scheme, 7).unwrap();
        assert_eq!(a.cdf.len(), b.cdf.len());
        assert!((a.cdf.mean().unwrap() - b.cdf.mean().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn single_run_matches_catalogue_entry() {
        // A scheme evaluated alone and as part of a catalogue sees the same
        // dies (shared seed → shared fault maps), so the CDFs are identical.
        let engine = MonteCarloEngine::new(small_config());
        let alone = engine.run(&Scheme::pecc32(), 21).unwrap();
        let catalogue = engine
            .run_catalogue(&[Scheme::unprotected32(), Scheme::pecc32()], 21)
            .unwrap();
        assert_eq!(alone.cdf, catalogue[1].cdf);
    }

    #[test]
    fn secded_has_lowest_mse_and_unprotected_the_highest() {
        let engine = MonteCarloEngine::new(small_config());
        let results = engine
            .run_catalogue(
                &[
                    Scheme::unprotected32(),
                    Scheme::shuffle32(5).unwrap(),
                    Scheme::secded32(),
                ],
                3,
            )
            .unwrap();
        let (unprotected, shuffled, secded) = (&results[0], &results[1], &results[2]);

        let q = 0.99;
        let mse_unprotected = unprotected.cdf.quantile(q);
        let mse_shuffled = shuffled.cdf.quantile(q);
        assert!(
            mse_shuffled < mse_unprotected / 1e3,
            "shuffling must cut the MSE by orders of magnitude"
        );
        // SECDED corrects everything except the (rare at this fault density)
        // words with two or more faults, so on average it is far better than
        // the unprotected memory even though its tail is not necessarily
        // better than fine-grained shuffling.
        assert!(secded.cdf.mean().unwrap() < unprotected.cdf.mean().unwrap() / 5.0);
        // At the median, SECDED memories are error-free.
        assert_eq!(secded.cdf.quantile(0.5), 0.0);
    }

    #[test]
    fn shuffle_mse_improves_with_finer_segments() {
        let engine = MonteCarloEngine::new(small_config());
        let results = engine
            .run_catalogue(
                &[Scheme::shuffle32(1).unwrap(), Scheme::shuffle32(5).unwrap()],
                11,
            )
            .unwrap();
        assert!(results[1].cdf.quantile(0.99) <= results[0].cdf.quantile(0.99));
    }

    #[test]
    fn paired_comparison_holds_per_die_not_just_in_distribution() {
        // On every single die, finest-grain shuffling can never lose to no
        // protection — an exact paired comparison, impossible with
        // per-scheme resampling.
        let engine = MonteCarloEngine::new(small_config());
        let results = engine
            .run_catalogue(
                &[Scheme::unprotected32(), Scheme::shuffle32(5).unwrap()],
                17,
            )
            .unwrap();
        // Both schemes share every die, so their per-count sample sequences
        // line up one-to-one.
        for (n, unprotected_cdf) in results[0].yield_model.per_count_cdfs() {
            let shuffle_cdf = &results[1].yield_model.per_count_cdfs()[n];
            for ((mse_u, _), (mse_s, _)) in unprotected_cdf.samples().zip(shuffle_cdf.samples()) {
                assert!(
                    mse_s <= mse_u + 1e-12,
                    "n = {n}: shuffle {mse_s} > unprotected {mse_u}"
                );
            }
        }
    }

    #[test]
    fn serial_and_parallel_engines_agree_exactly() {
        let serial = MonteCarloEngine::new(small_config().with_parallelism(Parallelism::Serial));
        let parallel =
            MonteCarloEngine::new(small_config().with_parallelism(Parallelism::threads(4)));
        let schemes = [Scheme::unprotected32(), Scheme::pecc32()];
        let a = serial.run_catalogue(&schemes, 5).unwrap();
        let b = parallel.run_catalogue(&schemes, 5).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cdf, y.cdf);
        }
    }

    #[test]
    fn yield_at_mse_is_monotone() {
        let engine = MonteCarloEngine::new(small_config());
        let result = engine.run(&Scheme::pecc32(), 5).unwrap();
        let mut previous = 0.0;
        for mse in [0.0, 1.0, 1e3, 1e6, 1e12, 1e19] {
            let y = result.yield_at_mse(mse);
            assert!(y >= previous - 1e-12);
            assert!(y <= 1.0 + 1e-12);
            previous = y;
        }
    }

    #[test]
    fn mse_for_yield_inverts_yield_at_mse() {
        let engine = MonteCarloEngine::new(small_config());
        let result = engine.run(&Scheme::shuffle32(2).unwrap(), 13).unwrap();
        if let Some(threshold) = result.mse_for_yield(0.95) {
            assert!(result.yield_at_mse(threshold) >= 0.95);
        }
    }

    #[test]
    fn engine_runs_on_every_backend_and_reports_its_operating_point() {
        use faultmit_memsim::{Backend, BackendKind};
        let memory = MemoryConfig::new(128, 32).unwrap();
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(3).unwrap()];
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
            let op = backend.operating_point();
            let config = CampaignConfig::for_backend(backend)
                .unwrap()
                .with_samples_per_count(10)
                .with_max_failures(6);
            assert_eq!(config.backend().operating_point(), op);
            let engine = MonteCarloEngine::new(config);
            let results = engine.run_catalogue(&schemes, 29).unwrap();
            assert_eq!(results.len(), 2, "{kind}");
            // Shuffling never loses to no protection, whatever the backend's
            // spatial law.
            assert!(
                results[1].cdf.quantile(0.99) <= results[0].cdf.quantile(0.99),
                "{kind}: shuffle q99 exceeds unprotected q99"
            );
        }
    }

    #[test]
    fn shard_states_merged_in_order_reproduce_the_monolithic_results() {
        use faultmit_sim::Accumulator;
        let engine = MonteCarloEngine::new(small_config());
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(2).unwrap()];
        let monolithic = engine.run_catalogue(&schemes, 37).unwrap();
        for shard_count in [1usize, 2, 3, 7] {
            let mut merged = CatalogueAccumulator::new(schemes.len());
            for index in 0..shard_count {
                let shard = ShardSpec::new(index, shard_count).unwrap();
                merged.merge(
                    engine
                        .run_catalogue_shard(&schemes, 37, shard, None)
                        .unwrap()
                        .0,
                );
            }
            let results = engine.results_from_state(&schemes, merged).unwrap();
            for (a, b) in monolithic.iter().zip(&results) {
                assert_eq!(a.scheme_name, b.scheme_name, "{shard_count} shards");
                assert_eq!(a.cdf, b.cdf, "{shard_count} shards: {}", a.scheme_name);
                assert_eq!(
                    a.cdf.total_weight().to_bits(),
                    b.cdf.total_weight().to_bits(),
                    "{shard_count} shards"
                );
            }
        }
    }

    #[test]
    fn zeros_image_is_bit_identical_to_the_legacy_path() {
        // Explicit Zeros image, an explicit all-zeros word vector, and the
        // legacy (imageless) engine must all accumulate identical bits.
        let legacy = MonteCarloEngine::new(small_config());
        let imaged = MonteCarloEngine::new(small_config().with_image(ImageSpec::Zeros));
        let schemes = [Scheme::unprotected32(), Scheme::shuffle32(2).unwrap()];
        let a = legacy
            .run_catalogue_shard(&schemes, 23, ShardSpec::solo(), None)
            .unwrap()
            .0;
        let b = imaged
            .run_catalogue_shard(&schemes, 23, ShardSpec::solo(), None)
            .unwrap()
            .0;
        let zeros = vec![0u64; legacy.config().memory().rows()];
        let c = legacy
            .run_catalogue_shard(&schemes, 23, ShardSpec::solo(), Some(&zeros))
            .unwrap()
            .0;
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn every_kernel_accumulates_identical_bits_on_zeros_and_data_images() {
        use faultmit_memsim::{FaultKindLaw, SramVddBackend};
        let memory = MemoryConfig::new(128, 32).unwrap();
        let backend = SramVddBackend::with_p_cell(memory, 1e-3)
            .unwrap()
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 0.6,
            })
            .unwrap();
        let schemes = [
            Scheme::unprotected32(),
            Scheme::secded32(),
            Scheme::shuffle32(2).unwrap(),
        ];
        for image in [ImageSpec::Zeros, ImageSpec::UniformRandom { seed: 0xB17 }] {
            let run = |kernel| {
                // 350 samples in chunks of 349: one full 256-die block, a
                // 93-die partial block, then a lone sample on the per-die
                // tail.
                let config = CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(70)
                    .with_max_failures(5)
                    .with_chunk_size(349)
                    .with_image(image)
                    .with_kernel(kernel);
                MonteCarloEngine::new(config)
                    .run_catalogue_shard(&schemes, 91, ShardSpec::solo(), None)
                    .unwrap()
                    .0
            };
            let sparse = run(KernelKind::Sparse);
            assert_eq!(
                sparse,
                run(KernelKind::Bitsliced256),
                "{image:?}: bitsliced256"
            );
            assert_eq!(sparse, run(KernelKind::Auto), "{image:?}: auto");
        }
    }

    #[test]
    fn bitsliced_kernel_matches_the_per_die_kernel_on_observe_only_schemes() {
        use crate::mse::tests::Stripped;
        let schemes = [Scheme::unprotected32(), Scheme::pecc32()].map(|inner| Stripped {
            inner,
            sparse: false,
        });
        // 300 samples in one chunk: a full 256-die block and a 44-die block.
        let run = |kernel| {
            let config = small_config().with_chunk_size(300).with_kernel(kernel);
            MonteCarloEngine::new(config)
                .run_catalogue_shard(&schemes, 19, ShardSpec::solo(), None)
                .unwrap()
                .0
        };
        assert_eq!(run(KernelKind::Sparse), run(KernelKind::Bitsliced256));
    }

    #[test]
    fn exact_failure_campaigns_are_rejected() {
        let engine = MonteCarloEngine::new(small_config().with_exact_failures(4));
        let error = engine
            .run_catalogue_shard(&[Scheme::unprotected32()], 1, ShardSpec::solo(), None)
            .unwrap_err();
        assert!(
            matches!(error, AnalysisError::InvalidParameter { .. }),
            "{error}"
        );
        assert!(
            error.to_string().contains("exact failure count 4"),
            "{error}"
        );
    }

    #[test]
    fn stuck_at_zero_faults_are_silent_on_zeros_and_observable_on_ones() {
        use faultmit_memsim::{FaultKindLaw, SramVddBackend};
        let memory = MemoryConfig::new(128, 32).unwrap();
        let backend = SramVddBackend::with_p_cell(memory, 1e-3)
            .unwrap()
            .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                p_stuck_at_zero: 1.0,
            })
            .unwrap();
        let build = |image| {
            MonteCarloEngine::new(
                CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(10)
                    .with_max_failures(6)
                    .with_image(image),
            )
        };
        let schemes = [Scheme::unprotected32(), Scheme::secded32()];
        let silent = build(ImageSpec::Zeros).run_catalogue(&schemes, 3).unwrap();
        for result in &silent {
            assert_eq!(
                result.cdf.mean().unwrap_or(0.0),
                0.0,
                "{}: stuck-at-0 over zeros must be invisible",
                result.scheme_name
            );
        }
        let loud = build(ImageSpec::Ones).run_catalogue(&schemes, 3).unwrap();
        assert!(
            loud[0].cdf.mean().unwrap() > 0.0,
            "stuck-at-0 over ones must corrupt the unprotected memory"
        );
    }

    #[test]
    fn app_images_are_deferred_to_the_apps_layer() {
        use faultmit_memsim::AppImage;
        let engine =
            MonteCarloEngine::new(small_config().with_image(ImageSpec::App(AppImage::Wine)));
        assert_eq!(engine.config().image(), ImageSpec::App(AppImage::Wine));
        let error = engine
            .run_catalogue(&[Scheme::unprotected32()], 1)
            .unwrap_err();
        assert!(error.to_string().contains("apps layer"), "{error}");
    }

    #[test]
    fn short_data_images_are_rejected() {
        let engine = MonteCarloEngine::new(small_config());
        let error = engine
            .run_catalogue_shard(
                &[Scheme::unprotected32()],
                1,
                ShardSpec::solo(),
                Some(&[0u64; 3]),
            )
            .unwrap_err();
        assert!(error.to_string().contains("3 words"), "{error}");
    }

    #[test]
    fn results_from_state_rejects_catalogue_size_mismatches() {
        let engine = MonteCarloEngine::new(small_config());
        let schemes = [Scheme::unprotected32(), Scheme::pecc32()];
        let state = CatalogueAccumulator::new(3);
        assert!(engine.results_from_state(&schemes, state).is_err());
    }

    #[test]
    fn run_catalogue_preserves_scheme_order_and_names() {
        let engine = MonteCarloEngine::new(small_config().with_samples_per_count(5));
        let schemes = [Scheme::unprotected32(), Scheme::pecc32()];
        let results = engine.run_catalogue(&schemes, 1).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].scheme_name, "no-correction");
        assert!(results[1].scheme_name.contains("P-ECC"));
    }
}
