//! Equivalence suite for the evaluation kernel: the sparse MSE kernel
//! (`memory_mse_with`, a walk over the flat fault map's row groups) must
//! be **bit-identical** to the dense-image oracle (`memory_mse_for_data`)
//! on every backend, image, fault-kind law and map policy, all run through
//! `Campaign::execute`; the MSE engine must reproduce the oracle's
//! accumulator; and the campaign's
//! reusable arenas must reproduce the fresh-allocation `DieBatch` oracle
//! sample for sample with zero steady-state heap traffic.

use faultmit::analysis::{
    memory_mse, memory_mse_for_data, memory_mse_with, CatalogueAccumulator, MonteCarloEngine,
};
use faultmit::core::Scheme;
use faultmit::memsim::{
    Backend, BackendKind, DieBatch, DieScratch, FaultBackend, FaultKindLaw, FaultMap, ImageSpec,
    MemoryConfig, PlannedSample, StreamSeeder,
};
use faultmit::sim::{
    Accumulator, Campaign, CampaignConfig, CollectRecords, MapPolicy, Parallelism, ShardSpec,
};

const SEED: u64 = 0x5AB5_EED6;

fn geometries() -> Vec<MemoryConfig> {
    // Deliberately irregular row counts: power-of-two, prime, and the
    // paper's 16 KB array.
    vec![
        MemoryConfig::new(64, 32).unwrap(),
        MemoryConfig::new(233, 32).unwrap(),
        MemoryConfig::paper_16kb(),
    ]
}

fn kind_laws() -> Vec<FaultKindLaw> {
    vec![
        FaultKindLaw::AlwaysFlip,
        FaultKindLaw::AsymmetricStuckAt {
            p_stuck_at_zero: 0.35,
        },
    ]
}

fn images() -> Vec<ImageSpec> {
    vec![
        ImageSpec::Zeros,
        ImageSpec::Ones,
        ImageSpec::UniformRandom { seed: 3 },
        ImageSpec::Sparse { seed: 3 },
    ]
}

fn campaign_config(backend: Backend) -> CampaignConfig<Backend> {
    CampaignConfig::for_backend(backend)
        .unwrap()
        .with_samples_per_count(5)
        .with_max_failures(6)
        .with_parallelism(Parallelism::Serial)
}

/// The whole campaign (`0/1` shard) through `Campaign::execute`, collecting
/// every record.
fn records(
    config: CampaignConfig<Backend>,
    schemes: &[Scheme],
    metric: impl Fn(&Scheme, &FaultMap) -> f64 + Sync,
) -> CollectRecords {
    Campaign::new(config)
        .execute(
            schemes,
            SEED,
            ShardSpec::solo(),
            metric,
            CollectRecords::new,
        )
        .unwrap()
        .0
}

fn assert_records_bit_identical(a: &CollectRecords, b: &CollectRecords, context: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{context}: record count");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.sample_index, y.sample_index, "{context}");
        assert_eq!(x.n_faults, y.n_faults, "{context}");
        assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "{context}");
        assert_eq!(x.metrics.len(), y.metrics.len(), "{context}");
        for (m, n) in x.metrics.iter().zip(&y.metrics) {
            // to_bits: -0.0 vs +0.0 and NaN payloads must match exactly.
            assert_eq!(
                m.to_bits(),
                n.to_bits(),
                "{context}: sample {} metric {m} vs {n}",
                x.sample_index
            );
        }
    }
}

fn map_policies() -> [MapPolicy; 2] {
    [
        MapPolicy::Unrestricted,
        MapPolicy::SingleFaultPerRow { max_redraws: 100 },
    ]
}

/// The kernel agrees with the dense-image oracle bit for bit on every
/// (geometry × backend × kind-law × image × map-policy) combination,
/// sample for sample — so no figure can move by even one ULP between the
/// two.
#[test]
fn sparse_mse_kernel_is_bit_identical_to_the_scalar_kernel() {
    let schemes = Scheme::fig5_catalogue();
    for memory in geometries() {
        for kind in BackendKind::ALL {
            for law in kind_laws() {
                for spec in images() {
                    for policy in map_policies() {
                        let backend = Backend::at_p_cell(kind, memory, 1e-3)
                            .unwrap()
                            .with_kind_law(law)
                            .unwrap();
                        let config = campaign_config(backend).with_map_policy(policy);
                        let context =
                            format!("{kind} {law:?} {spec:?} {policy:?} rows={}", memory.rows());
                        let image = spec.try_materialise(memory).unwrap();
                        let words = image.materialise(memory.rows());

                        // Dense oracle: every faulty row against a
                        // materialised image vector.
                        let oracle =
                            records(config, &schemes, |scheme: &Scheme, map: &FaultMap| {
                                memory_mse_for_data(scheme, map, &words)
                            });

                        // Kernel: row-group walk, per-faulty-row image
                        // gather.
                        let kernel =
                            records(config, &schemes, |scheme: &Scheme, map: &FaultMap| {
                                memory_mse_with(scheme, map, |row| image.word(row))
                            });

                        assert_records_bit_identical(&oracle, &kernel, &context);
                    }
                }
            }
        }
    }
}

/// The zeros-background entry point (`memory_mse`, the historical Fig. 5
/// path) agrees with the dense oracle on an all-zeros image, including
/// through the single-fault-per-row redraw policy.
#[test]
fn zeros_background_kernels_agree_under_every_map_policy() {
    let schemes = Scheme::fig5_catalogue();
    let memory = MemoryConfig::new(128, 32).unwrap();
    let zeros = vec![0u64; memory.rows()];
    for kind in BackendKind::ALL {
        for policy in map_policies() {
            let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
            let config = campaign_config(backend).with_map_policy(policy);
            let oracle = records(config, &schemes, |scheme: &Scheme, map: &FaultMap| {
                memory_mse_for_data(scheme, map, &zeros)
            });
            let kernel = records(config, &schemes, memory_mse);
            assert_records_bit_identical(&oracle, &kernel, &format!("{kind} {policy:?}"));
        }
    }
}

/// The campaign's warm per-worker arenas must be indistinguishable from
/// fresh allocation: records built die by die from the allocating
/// `DieBatch` oracle — the same plan, seeds and weights — match the
/// campaign's records bit for bit under both map policies.
#[test]
fn scratch_arena_matches_the_die_batch_oracle_sample_for_sample() {
    let schemes = [Scheme::unprotected32(), Scheme::shuffle32(2).unwrap()];
    let memory = MemoryConfig::new(256, 32).unwrap();
    let (samples_per_count, max_failures) = (5u64, 6u64);
    let plan: Vec<PlannedSample> = (0..samples_per_count * max_failures)
        .map(|index| PlannedSample {
            index,
            n_faults: 1 + index / samples_per_count,
        })
        .collect();
    let seeder = StreamSeeder::new(SEED);
    for kind in BackendKind::ALL {
        for law in kind_laws() {
            for policy in map_policies() {
                let backend = Backend::at_p_cell(kind, memory, 2e-3)
                    .unwrap()
                    .with_kind_law(law)
                    .unwrap();
                let context = format!("{kind} {law:?} {policy:?}");
                let campaign = records(
                    campaign_config(backend).with_map_policy(policy),
                    &schemes,
                    memory_mse,
                );

                let batch = match policy {
                    MapPolicy::Unrestricted => {
                        DieBatch::generate_with_backend(&backend, &seeder, &plan)
                    }
                    MapPolicy::SingleFaultPerRow { max_redraws } => {
                        DieBatch::generate_single_fault_per_row_with_backend(
                            &backend,
                            &seeder,
                            &plan,
                            max_redraws,
                        )
                    }
                }
                .unwrap();
                let distribution = backend.failure_distribution().unwrap();
                let mut oracle = CollectRecords::new();
                for (planned, map) in batch.iter() {
                    oracle.record(&faultmit::sim::PairedSample {
                        sample_index: planned.index,
                        n_faults: planned.n_faults,
                        weight: distribution.pmf(planned.n_faults) / samples_per_count as f64,
                        metrics: schemes.iter().map(|s| memory_mse(s, map)).collect(),
                    });
                }
                assert_records_bit_identical(&oracle, &campaign, &context);
            }
        }
    }
}

/// Scratch reuse stays bit-identical at any worker count (per-worker arenas
/// must not leak state between chunks).
#[test]
fn scratch_reuse_is_bit_identical_across_worker_counts() {
    let schemes = Scheme::fig7_catalogue();
    let memory = MemoryConfig::new(512, 32).unwrap();
    let backend = Backend::at_p_cell(BackendKind::Sram, memory, 1e-3).unwrap();
    let reference = records(campaign_config(backend), &schemes, memory_mse);
    for workers in [2usize, 4, 8] {
        let threaded = records(
            campaign_config(backend)
                .with_parallelism(Parallelism::threads(workers))
                .with_chunk_size(3),
            &schemes,
            memory_mse,
        );
        assert_records_bit_identical(&reference, &threaded, &format!("{workers} workers"));
    }
}

/// A tiny deterministic xorshift for the sweep parameters below — the
/// vendored `rand` streams stay reserved for the RNG-authority fault
/// sampling, so test-plan randomisation uses its own generator.
struct SweepRng(u64);

impl SweepRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A value in `lo..=hi`.
    fn pick(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo + 1)
    }
}

/// A randomized sweep of backend × image × kind-law × campaign shape —
/// odd sample budgets and chunk sizes from one sample to past a whole
/// failure count, so chunk boundaries fall everywhere in the plan — on
/// which the sparse kernel agrees with the dense oracle bit for bit,
/// sample for sample, and the MSE engine accumulates exactly the oracle's
/// state.
#[test]
fn sparse_kernel_is_bit_identical_across_a_randomized_sweep() {
    let schemes = Scheme::fig5_catalogue();
    let mut sweep = SweepRng(SEED | 1);
    for kind in BackendKind::ALL {
        for law in kind_laws() {
            for spec in images() {
                // Odd budgets on both axes keep the total sample count odd.
                let max_failures = 2 * sweep.pick(2, 5) as u64 + 1;
                let samples_per_count = 2 * sweep.pick(1, 32) + 1;
                let chunk_size = sweep.pick(1, 400);
                let memory = MemoryConfig::new(64 + sweep.pick(0, 192), 32).unwrap();
                let backend = Backend::at_p_cell(kind, memory, 2e-3)
                    .unwrap()
                    .with_kind_law(law)
                    .unwrap();
                let context = format!(
                    "{kind} {law:?} {spec:?} rows={} spc={samples_per_count} \
                     max={max_failures} chunk={chunk_size}",
                    memory.rows()
                );
                let image = spec.try_materialise(memory).unwrap();
                let words = image.materialise(memory.rows());
                let config = CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(samples_per_count)
                    .with_max_failures(max_failures)
                    .with_parallelism(Parallelism::Serial)
                    .with_chunk_size(chunk_size);
                let oracle_metric =
                    |scheme: &Scheme, map: &FaultMap| memory_mse_for_data(scheme, map, &words);

                let oracle = records(config, &schemes, oracle_metric);
                let kernel = records(config, &schemes, |scheme: &Scheme, map: &FaultMap| {
                    memory_mse_with(scheme, map, |row| image.word(row))
                });
                assert_records_bit_identical(&oracle, &kernel, &context);

                // The engine against the oracle's accumulator.
                let (oracle_state, _) = Campaign::new(config)
                    .execute(&schemes, SEED, ShardSpec::solo(), oracle_metric, || {
                        CatalogueAccumulator::new(schemes.len())
                    })
                    .unwrap();
                let (state, _) = MonteCarloEngine::new(config.with_image(spec))
                    .run_catalogue_shard(&schemes, SEED, ShardSpec::solo(), None)
                    .unwrap();
                assert_eq!(state, oracle_state, "{context}: engine");
            }
        }
    }
}

/// Steady-state die generation through the arena performs **zero** heap
/// allocation: after a warm-up at the largest fault count, the arena's
/// reallocation counter stays flat for hundreds of dies on every backend.
#[test]
fn die_generation_reaches_zero_allocation_steady_state() {
    let memory = MemoryConfig::new(256, 32).unwrap();
    let seeder = StreamSeeder::new(SEED);
    for kind in BackendKind::ALL {
        let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
        let mut scratch = DieScratch::new(memory);
        // Warm-up: let every buffer grow to the campaign's peak demand.
        for sample in 0..8u64 {
            let mut rng = seeder.rng_for_sample(sample);
            scratch.generate(&backend, &mut rng, 48).unwrap();
        }
        let after_warmup = scratch.realloc_events();
        for sample in 8..308u64 {
            let mut rng = seeder.rng_for_sample(sample);
            let n = 1 + (sample as usize * 7) % 48;
            scratch.generate(&backend, &mut rng, n).unwrap();
        }
        assert_eq!(
            scratch.realloc_events(),
            after_warmup,
            "{kind}: steady-state generation must not touch the heap"
        );
    }
}

/// The zero-allocation guarantee holds with metrics recording switched on:
/// an installed recorder turns the hot-path counter hooks into relaxed
/// atomic adds on preallocated slots, so steady-state generation still
/// never touches the heap — and the recorder's realloc counter agrees with
/// the arenas' own (only warm-up growth events, none in steady state).
#[test]
fn zero_allocation_steady_state_holds_with_metrics_recording_on() {
    use faultmit::obs;
    let recorder = std::sync::Arc::new(obs::Recorder::new());
    let guard = obs::install(&recorder);

    die_generation_reaches_zero_allocation_steady_state();

    drop(guard);
    let snapshot = recorder.snapshot();
    // The gates really were recorded: dies flowed through the counters and
    // the only realloc events are the warm-up growth the gates tolerate.
    assert!(snapshot.counter(obs::Counter::DiesGenerated) > 0);
    assert!(snapshot.counter(obs::Counter::ReallocEvents) > 0);
    assert!(
        snapshot
            .histogram(obs::Histogram::FaultsPerDie)
            .iter()
            .sum::<u64>()
            > 0
    );
}
