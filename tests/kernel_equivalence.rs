//! Equivalence suite for the evaluation kernels: the sparse MSE kernel
//! (`memory_mse_sparse*`, built on `observe_sparse` and the flat fault
//! map's row groups) and the bit-sliced block kernel (`block_mse_into` over
//! 256-die `DieBlock` lanes, with a per-die tail) must be
//! **bit-identical** to the scalar `observe`-based oracle
//! (`memory_mse_for_data`) on every backend, image, and fault-kind law,
//! all run through `Campaign::execute`; the engine's `sparse`,
//! `bitsliced256` and `auto` kernels must reproduce the oracle's
//! accumulator; the campaign's reusable arenas must reproduce the
//! fresh-allocation `DieBatch` oracle sample for sample with zero
//! steady-state heap traffic, with lane-interleaved wide fault generation
//! matching scalar generation; and `--kernel auto` must resolve to the
//! documented kernel at every benched operating point.

use faultmit::analysis::{
    block_mse_into, memory_mse, memory_mse_for_data, memory_mse_sparse, memory_mse_sparse_with,
    CatalogueAccumulator, MonteCarloEngine,
};
use faultmit::core::Scheme;
use faultmit::memsim::{
    Backend, BackendKind, BlockScratch, DieBatch, DieBlock, DieScratch, FaultBackend, FaultKindLaw,
    FaultMap, ImageSpec, MemoryConfig, PlannedSample, SramVddBackend, StreamSeeder, W256,
};
use faultmit::sim::{
    blocks, per_die, Accumulator, Campaign, CampaignConfig, CollectRecords, Evaluator, KernelKind,
    MapPolicy, Parallelism, ShardSpec, AUTO_FAULTS_PER_ROW_THRESHOLD,
};
use std::convert::Infallible;

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
fn records<V>(config: CampaignConfig<Backend>, schemes: &[Scheme], evaluator: V) -> CollectRecords
where
    V: Evaluator<Scheme, Error = Infallible>,
{
    Campaign::new(config)
        .execute(
            schemes,
            SEED,
            ShardSpec::solo(),
            evaluator,
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

/// The tentpole guarantee: sparse and scalar MSE kernels agree bit for bit
/// on every (geometry × backend × kind-law × image) combination, sample for
/// sample — so flipping the engine to the sparse kernel cannot move any
/// figure by even one ULP.
#[test]
fn sparse_mse_kernel_is_bit_identical_to_the_scalar_kernel() {
    let schemes = Scheme::fig5_catalogue();
    for memory in geometries() {
        for kind in BackendKind::ALL {
            for law in kind_laws() {
                for spec in images() {
                    let backend = Backend::at_p_cell(kind, memory, 1e-3)
                        .unwrap()
                        .with_kind_law(law)
                        .unwrap();
                    let context = format!("{kind} {law:?} {spec:?} rows={}", memory.rows());
                    let image = spec.try_materialise(memory).unwrap();
                    let words = image.materialise(memory.rows());

                    // Scalar oracle: generic observe path over a dense
                    // image vector.
                    let scalar = records(
                        campaign_config(backend),
                        &schemes,
                        per_die(|scheme: &Scheme, map: &FaultMap| {
                            memory_mse_for_data(scheme, map, &words)
                        }),
                    );

                    // Sparse kernel: row-group walk, observe_sparse,
                    // per-faulty-row image gather.
                    let sparse = records(
                        campaign_config(backend),
                        &schemes,
                        per_die(|scheme: &Scheme, map: &FaultMap| {
                            memory_mse_sparse_with(scheme, map, |row| image.word(row))
                        }),
                    );

                    assert_records_bit_identical(&scalar, &sparse, &context);
                }
            }
        }
    }
}

/// The zeros-background kernels (the historical Fig. 5 path) agree too,
/// including through the single-fault-per-row redraw policy.
#[test]
fn zeros_background_kernels_agree_under_every_map_policy() {
    let schemes = Scheme::fig5_catalogue();
    let memory = MemoryConfig::new(128, 32).unwrap();
    for kind in BackendKind::ALL {
        for policy in [
            MapPolicy::Unrestricted,
            MapPolicy::SingleFaultPerRow { max_redraws: 100 },
        ] {
            let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
            let config = campaign_config(backend).with_map_policy(policy);
            let scalar = records(config, &schemes, per_die(memory_mse));
            let sparse = records(config, &schemes, per_die(memory_mse_sparse));
            assert_records_bit_identical(&scalar, &sparse, &format!("{kind} {policy:?}"));
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
            for policy in [
                MapPolicy::Unrestricted,
                MapPolicy::SingleFaultPerRow { max_redraws: 100 },
            ] {
                let backend = Backend::at_p_cell(kind, memory, 2e-3)
                    .unwrap()
                    .with_kind_law(law)
                    .unwrap();
                let context = format!("{kind} {law:?} {policy:?}");
                let campaign = records(
                    campaign_config(backend).with_map_policy(policy),
                    &schemes,
                    per_die(memory_mse),
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
    let reference = records(
        campaign_config(backend),
        &schemes,
        per_die(memory_mse_sparse),
    );
    for workers in [2usize, 4, 8] {
        let threaded = records(
            campaign_config(backend)
                .with_parallelism(Parallelism::threads(workers))
                .with_chunk_size(3),
            &schemes,
            per_die(memory_mse_sparse),
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

/// Which block shapes a campaign plan hands the block kernel, given the
/// executor's grouping: each chunk splits into full `W256::LANES` blocks
/// plus one remainder, and a one-sample remainder takes the per-die tail.
#[derive(Debug, Default)]
struct BlockShapes {
    full_block: bool,
    word_crossing_partial: bool,
    lone_tail: bool,
}

impl BlockShapes {
    fn observe(&mut self, samples: usize, chunk_size: usize) {
        for start in (0..samples).step_by(chunk_size) {
            let len = chunk_size.min(samples - start);
            self.full_block |= len >= W256::LANES;
            match len % W256::LANES {
                1 => self.lone_tail = true,
                rem if rem > 64 => self.word_crossing_partial = true,
                _ => {}
            }
        }
    }
}

/// The bit-sliced block kernel joins the equivalence family: across a
/// randomized sweep of backend × image × kind-law × campaign shape —
/// including budgets that are **not** multiples of the 256-die lane width,
/// and chunk sizes that produce full blocks, partial blocks crossing the
/// `W256` word boundaries and lone per-die tails — the `sparse` kernel and
/// the block kernel agree with the scalar oracle bit for bit, sample for
/// sample, and the engine's `sparse`, `bitsliced256` and `auto` kernels
/// accumulate exactly the oracle's state. The block runs generate faults
/// through the lane-interleaved wide RNG path (on backends that opt in), so
/// the sweep also pins wide generation to the scalar RNG schedule; a
/// block-by-block comparison against `BlockScratch` with wide generation
/// switched off closes the loop on the pure scalar generation path.
#[test]
fn bitsliced_kernel_is_bit_identical_across_a_randomized_sweep() {
    let schemes = Scheme::fig5_catalogue();
    let mut sweep = SweepRng(SEED | 1);
    let mut shapes = BlockShapes::default();
    let mut combo = 0usize;
    for kind in BackendKind::ALL {
        for law in kind_laws() {
            for spec in images() {
                // Odd budgets on both axes keep the total sample count an
                // odd number, never a multiple of 64 (let alone 256). The
                // chunk-size class rotates so every block shape recurs:
                // small chunks (many small blocks, lone tails), one partial
                // block per chunk that crosses lane words, and chunks past
                // one full block with a remainder.
                let max_failures = 2 * sweep.pick(2, 5) as u64 + 1;
                let (samples_per_count, chunk_size) = match combo % 3 {
                    0 => (2 * sweep.pick(1, 4) + 1, sweep.pick(1, 17)),
                    1 => (2 * sweep.pick(4, 12) + 1, sweep.pick(65, 255)),
                    _ => (2 * sweep.pick(24, 32) + 1, sweep.pick(257, 400)),
                };
                combo += 1;
                shapes.observe(samples_per_count * max_failures as usize, chunk_size);
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
                let written = |row: usize| image.word(row);
                let config = CampaignConfig::for_backend(backend)
                    .unwrap()
                    .with_samples_per_count(samples_per_count)
                    .with_max_failures(max_failures)
                    .with_parallelism(Parallelism::Serial)
                    .with_chunk_size(chunk_size);
                let oracle_metric =
                    |scheme: &Scheme, map: &FaultMap| memory_mse_for_data(scheme, map, &words);
                let sparse_metric =
                    |scheme: &Scheme, map: &FaultMap| memory_mse_sparse_with(scheme, map, written);

                let scalar = records(config, &schemes, per_die(oracle_metric));
                let sparse = records(config, &schemes, per_die(sparse_metric));
                let bitsliced = records(
                    config,
                    &schemes,
                    blocks(sparse_metric, |scheme, block: &DieBlock<'_>, out| {
                        block_mse_into(scheme, block, written, out);
                    }),
                );
                assert_records_bit_identical(&scalar, &sparse, &context);
                assert_records_bit_identical(&scalar, &bitsliced, &format!("{context} (blocks)"));

                // The engine's user-facing kernels, `auto` included (the
                // sweep's densities resolve it both ways), against the
                // oracle's accumulator.
                let (oracle_state, _) = Campaign::new(config)
                    .execute(
                        &schemes,
                        SEED,
                        ShardSpec::solo(),
                        per_die(oracle_metric),
                        || CatalogueAccumulator::new(schemes.len()),
                    )
                    .unwrap();
                for kernel in KernelKind::ALL {
                    let engine = MonteCarloEngine::new(
                        CampaignConfig::for_backend(backend)
                            .unwrap()
                            .with_samples_per_count(samples_per_count)
                            .with_max_failures(max_failures)
                            .with_parallelism(Parallelism::Serial)
                            .with_chunk_size(chunk_size)
                            .with_image(spec)
                            .with_kernel(kernel),
                    );
                    let (state, _) = engine
                        .run_catalogue_shard(&schemes, SEED, ShardSpec::solo(), None)
                        .unwrap();
                    assert_eq!(state, oracle_state, "{context}: kernel {kernel}");
                }

                // Wide generation against scalar generation, block by block
                // over the campaign plan.
                let seeder = StreamSeeder::new(SEED);
                let plan: Vec<PlannedSample> = (0..samples_per_count as u64 * max_failures)
                    .map(|index| PlannedSample {
                        index,
                        n_faults: 1 + index / samples_per_count as u64,
                    })
                    .collect();
                let mut wide_gen = BlockScratch::new(memory);
                let mut scalar_gen = BlockScratch::new(memory);
                scalar_gen.set_wide_generation(false);
                let mut wide_out = vec![0.0; W256::LANES];
                let mut scalar_out = vec![0.0; W256::LANES];
                for group in plan.chunks(W256::LANES) {
                    let wide_block = wide_gen
                        .generate_block(&backend, &seeder, group, None)
                        .unwrap();
                    let scalar_block = scalar_gen
                        .generate_block(&backend, &seeder, group, None)
                        .unwrap();
                    for scheme in &schemes {
                        block_mse_into(scheme, &wide_block, written, &mut wide_out);
                        block_mse_into(scheme, &scalar_block, written, &mut scalar_out);
                        for die in 0..group.len() {
                            assert_eq!(
                                wide_out[die].to_bits(),
                                scalar_out[die].to_bits(),
                                "{context}: wide vs scalar generation, sample {}",
                                group[die].index
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(
        shapes.full_block && shapes.word_crossing_partial && shapes.lone_tail,
        "the sweep must cover every block shape: {shapes:?}"
    );
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

/// The transposed block path holds the same guarantee: once the lane
/// buffers have grown to the campaign's peak demand (`W256::LANES` dies at
/// the largest fault count), steady-state
/// `generate_block` calls — full blocks and partial tails alike — never
/// touch the heap. The gate runs with lane-interleaved wide generation
/// both on (the default, exercising the `WideRng` batch path on backends
/// that opt in) and off (the per-die scalar path), one test each, since
/// the two paths use different working buffers.
fn block_zero_alloc_gate(label: &str, wide_generation: bool) {
    let memory = MemoryConfig::new(256, 32).unwrap();
    let seeder = StreamSeeder::new(SEED);
    let lanes = W256::LANES as u64;
    let block_plan = |start: u64, len: usize, n_faults: &dyn Fn(u64) -> u64| {
        (0..len as u64)
            .map(|j| PlannedSample {
                index: start + j,
                n_faults: n_faults(start + j),
            })
            .collect::<Vec<_>>()
    };
    for kind in BackendKind::ALL {
        let backend = Backend::at_p_cell(kind, memory, 1e-3).unwrap();
        let mut scratch = BlockScratch::new(memory);
        scratch.set_wide_generation(wide_generation);
        // Warm-up: full blocks at the peak fault count grow every lane
        // buffer to the campaign's maximum demand.
        for block in 0..4u64 {
            let plan = block_plan(block * lanes, W256::LANES, &|_| 48);
            scratch
                .generate_block(&backend, &seeder, &plan, None)
                .unwrap();
        }
        let after_warmup = scratch.realloc_events();
        for block in 0..64u64 {
            let start = 4 * lanes + block * lanes;
            // Partial tails (any length up to the lane width) and varying
            // per-die fault counts must all stay inside grown capacity.
            let len = 1 + (block as usize * 13) % W256::LANES;
            let plan = block_plan(start, len, &|index| 1 + index % 48);
            scratch
                .generate_block(&backend, &seeder, &plan, None)
                .unwrap();
        }
        assert_eq!(
            scratch.realloc_events(),
            after_warmup,
            "{kind} ({label}, wide_generation={wide_generation}): \
             steady-state block generation must not touch the heap"
        );
    }
}

/// The per-die scalar generation path (wide generation off).
#[test]
fn block_generation_reaches_zero_allocation_steady_state() {
    block_zero_alloc_gate("metrics off", false);
}

/// The lane-interleaved wide generation path (the default).
#[test]
fn wide_block_generation_reaches_zero_allocation_steady_state() {
    block_zero_alloc_gate("metrics off", true);
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
    block_zero_alloc_gate("metrics on", true);

    drop(guard);
    let snapshot = recorder.snapshot();
    // The gates really were recorded: dies flowed through the counters and
    // the only realloc events are the warm-up growth the gates tolerate.
    assert!(snapshot.counter(obs::Counter::DiesGenerated) > 0);
    assert!(snapshot.counter(obs::Counter::WideGenLaneSteps) > 0);
    assert!(snapshot.counter(obs::Counter::ReallocEvents) > 0);
    assert!(
        snapshot
            .histogram(obs::Histogram::FaultsPerDie)
            .iter()
            .sum::<u64>()
            > 0
    );
}

/// `--kernel auto` resolves to the documented kernel at each benched
/// operating point of `BENCH_pipeline.json`: the Fig. 5 / Fig. 9 densities
/// (a 16 KB array simulated up to 24 faults per die) sit far below the
/// wide kernel's break-even and stay on the sparse kernel, while the
/// dense-ECC point (8192 faults per die, `P_cell ≈ 6.3e-2`) crosses it and
/// picks the 256-die bit-sliced kernel. Fixed kernels resolve to
/// themselves.
#[test]
fn auto_kernel_resolves_to_the_documented_kernel_at_each_benched_point() {
    let memory = MemoryConfig::paper_16kb();
    let threshold = memory.rows() as f64 * AUTO_FAULTS_PER_ROW_THRESHOLD;

    // `fig5_p1e-4` and `fig9_random_stuck` share the campaign shape: only
    // the kind law and stored image differ, neither of which feeds the
    // density policy.
    let sparse_point = {
        let backend = SramVddBackend::with_p_cell(memory, 1e-4).unwrap();
        CampaignConfig::for_backend(backend)
            .unwrap()
            .with_samples_per_count(10)
            .with_max_failures(24)
    };
    let expected = sparse_point.expected_faults_per_die().unwrap();
    assert_eq!(expected, 12.5, "mean of the 1..=24 failure-count sweep");
    assert!(expected < threshold);
    assert_eq!(
        sparse_point
            .with_kernel(KernelKind::Auto)
            .resolved_kernel()
            .unwrap(),
        KernelKind::Sparse
    );

    // `dense_ecc_p6.3e-2` plans every die at exactly 8192 faults.
    let cells = (memory.rows() * 32) as f64;
    let dense_point = {
        let backend = SramVddBackend::with_p_cell(memory, 8192.0 / cells).unwrap();
        CampaignConfig::for_backend(backend)
            .unwrap()
            .with_samples_per_count(256)
            .with_exact_failures(8192)
    };
    let expected = dense_point.expected_faults_per_die().unwrap();
    assert_eq!(expected, 8192.0, "exact-failure plans pin the density");
    assert!(expected >= threshold);
    assert_eq!(
        dense_point
            .with_kernel(KernelKind::Auto)
            .resolved_kernel()
            .unwrap(),
        KernelKind::Bitsliced256
    );

    // Fixed kernels ignore the density entirely.
    for kernel in [KernelKind::Sparse, KernelKind::Bitsliced256] {
        assert_eq!(
            dense_point.with_kernel(kernel).resolved_kernel().unwrap(),
            kernel
        );
    }
}
