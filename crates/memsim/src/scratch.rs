//! Reusable per-worker scratch storage for allocation-free die generation.
//!
//! Each Monte-Carlo worker owns one [`DieScratch`] arena: the warm
//! [`FaultMap`] plus every auxiliary container the backends' samplers need
//! — the Floyd-sampling index buffers for iid placement, the occupancy set
//! for rejection placement. After a short warm-up the containers reach
//! their high-water capacities and steady-state die generation performs
//! **zero heap allocations** — the arena is cleared, never dropped, between
//! dies. The [`DieScratch::realloc_events`] counter makes that claim
//! testable: it increments whenever a generation call grows any tracked
//! container, so a regression test can pin it flat across a long campaign
//! tail.

use crate::backend::FaultBackend;
use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::fault::FaultMap;
use faultmit_obs as obs;
use rand::rngs::StdRng;
use std::collections::HashSet;

/// A reusable arena for sampling one die at a time without steady-state
/// heap allocation.
///
/// Create one per worker thread ([`DieScratch::new`]), then call
/// [`DieScratch::generate`] (or
/// [`DieScratch::generate_single_fault_per_row`]) once per die. The
/// resulting [`FaultMap`] view is borrowed from the arena and valid until
/// the next generation call. RNG consumption is bit-identical to the
/// allocating [`FaultBackend::sample_with_count`] path, so campaigns built
/// on scratch reuse reproduce the legacy results exactly.
#[derive(Debug)]
pub struct DieScratch {
    /// The die's fault map, cleared (capacity kept) between generations.
    pub(crate) map: FaultMap,
    /// Occupied-cell set for the backends' rejection placement
    /// (`place_distinct_into`).
    pub(crate) taken: HashSet<usize>,
    /// Chosen-index set for Floyd's sampling algorithm
    /// (`rand::seq::index::sample_into`).
    pub(crate) chosen: HashSet<usize>,
    /// Sampled-index output buffer for Floyd's algorithm.
    pub(crate) indices: Vec<usize>,
    realloc_events: u64,
}

impl DieScratch {
    /// Creates an empty (cold) arena for dies of the given geometry.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self {
            map: FaultMap::new(config),
            taken: HashSet::new(),
            chosen: HashSet::new(),
            indices: Vec::new(),
            realloc_events: 0,
        }
    }

    /// The most recently generated die.
    #[must_use]
    pub fn map(&self) -> &FaultMap {
        &self.map
    }

    /// Consumes the arena, returning the generated map.
    #[must_use]
    pub fn into_map(self) -> FaultMap {
        self.map
    }

    /// Replaces the arena's fault map wholesale. This is the fallback entry
    /// point for custom [`FaultBackend`]s that do not override
    /// [`FaultBackend::sample_into`] — it hands ownership of a freshly
    /// allocated map to the arena (and therefore counts as a realloc event
    /// on every call).
    pub fn replace_map(&mut self, map: FaultMap) {
        self.map = map;
    }

    /// How many generation calls grew a tracked container (or replaced the
    /// map wholesale). Flat after warm-up ⇔ steady-state die generation is
    /// allocation-free.
    #[must_use]
    pub fn realloc_events(&self) -> u64 {
        self.realloc_events
    }

    /// Clears the map for a new die of geometry `config`, keeping capacity
    /// when the geometry is unchanged.
    pub(crate) fn reset_map(&mut self, config: MemoryConfig) {
        if self.map.config() == config {
            self.map.clear();
        } else {
            self.map = FaultMap::new(config);
        }
    }

    fn capacity_signature(&self) -> [usize; 4] {
        [
            self.map.capacity(),
            self.taken.capacity(),
            self.chosen.capacity(),
            self.indices.capacity(),
        ]
    }

    /// Generates one die with exactly `n_faults` faults into the arena —
    /// the allocation-free twin of [`FaultBackend::sample_with_count`],
    /// bit-identical at the same RNG state.
    ///
    /// # Errors
    ///
    /// Propagates the backend's sampling errors (e.g. `n_faults` exceeding
    /// the cell count).
    pub fn generate<B: FaultBackend + ?Sized>(
        &mut self,
        backend: &B,
        rng: &mut StdRng,
        n_faults: usize,
    ) -> Result<&FaultMap, MemError> {
        let before = self.capacity_signature();
        backend.sample_into(rng, n_faults, self)?;
        if self.capacity_signature() != before {
            self.realloc_events += 1;
            obs::count(obs::Counter::ReallocEvents, 1);
        }
        obs::count(obs::Counter::DiesGenerated, 1);
        obs::count(obs::Counter::FaultsGenerated, n_faults as u64);
        obs::record(obs::Histogram::FaultsPerDie, n_faults as u64);
        Ok(&self.map)
    }

    /// Generates one die, redrawing it (up to `max_redraws` times) while any
    /// row holds more than one fault — the arena twin of the seeder's
    /// single-fault-per-row protocol, with identical RNG consumption.
    ///
    /// # Errors
    ///
    /// Propagates the backend's sampling errors.
    pub fn generate_single_fault_per_row<B: FaultBackend + ?Sized>(
        &mut self,
        backend: &B,
        rng: &mut StdRng,
        n_faults: usize,
        max_redraws: usize,
    ) -> Result<&FaultMap, MemError> {
        let before = self.capacity_signature();
        backend.sample_into(rng, n_faults, self)?;
        for _ in 0..max_redraws {
            if self.map.max_faults_per_row() <= 1 {
                break;
            }
            backend.sample_into(rng, n_faults, self)?;
        }
        if self.capacity_signature() != before {
            self.realloc_events += 1;
            obs::count(obs::Counter::ReallocEvents, 1);
        }
        obs::count(obs::Counter::DiesGenerated, 1);
        obs::count(obs::Counter::FaultsGenerated, n_faults as u64);
        obs::record(obs::Histogram::FaultsPerDie, n_faults as u64);
        Ok(&self.map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, BackendKind, FaultKindLaw};
    use rand::SeedableRng;

    fn config() -> MemoryConfig {
        MemoryConfig::new(128, 32).unwrap()
    }

    #[test]
    fn scratch_generation_is_bit_identical_to_the_allocating_path_per_backend() {
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3).unwrap();
            let mut scratch = DieScratch::new(config());
            for seed in 0..12u64 {
                let mut rng_scratch = StdRng::seed_from_u64(seed);
                let mut rng_fresh = StdRng::seed_from_u64(seed);
                let n = (seed as usize * 3) % 40;
                let fresh = backend.sample_with_count(&mut rng_fresh, n).unwrap();
                let reused = scratch.generate(&backend, &mut rng_scratch, n).unwrap();
                assert_eq!(reused, &fresh, "{kind}, seed {seed}");
                // The RNGs must land in the same state (same consumption).
                use rand::Rng;
                assert_eq!(rng_scratch.gen::<u64>(), rng_fresh.gen::<u64>(), "{kind}");
            }
        }
    }

    #[test]
    fn scratch_generation_is_bit_identical_under_stuck_at_laws() {
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3)
                .unwrap()
                .with_kind_law(FaultKindLaw::AsymmetricStuckAt {
                    p_stuck_at_zero: 0.7,
                })
                .unwrap();
            let mut scratch = DieScratch::new(config());
            for seed in 0..8u64 {
                let mut rng_scratch = StdRng::seed_from_u64(seed);
                let mut rng_fresh = StdRng::seed_from_u64(seed);
                let fresh = backend.sample_with_count(&mut rng_fresh, 25).unwrap();
                let reused = scratch.generate(&backend, &mut rng_scratch, 25).unwrap();
                assert_eq!(reused, &fresh, "{kind}, seed {seed}");
            }
        }
    }

    #[test]
    fn steady_state_generation_performs_no_reallocation() {
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, config(), 1e-3).unwrap();
            let mut scratch = DieScratch::new(config());
            let mut rng = StdRng::seed_from_u64(7);
            // Warm-up: containers grow to their high-water capacities.
            for n in [40usize, 40, 40, 40] {
                scratch.generate(&backend, &mut rng, n).unwrap();
            }
            let warm = scratch.realloc_events();
            // Steady state at or below the high-water fault count: no growth.
            for i in 0..200usize {
                scratch.generate(&backend, &mut rng, i % 41).unwrap();
            }
            assert_eq!(
                scratch.realloc_events(),
                warm,
                "{kind}: steady-state die generation reallocated"
            );
        }
    }

    #[test]
    fn overfull_requests_error_through_the_scratch_path() {
        let small = MemoryConfig::new(4, 8).unwrap();
        for kind in BackendKind::ALL {
            let backend = Backend::at_p_cell(kind, small, 1e-2).unwrap();
            let mut scratch = DieScratch::new(small);
            let mut rng = StdRng::seed_from_u64(1);
            assert!(
                scratch.generate(&backend, &mut rng, 33).is_err(),
                "{kind}: 33 faults in 32 cells must be rejected"
            );
            // The arena stays usable after a rejected request.
            assert!(scratch.generate(&backend, &mut rng, 32).is_ok(), "{kind}");
            assert_eq!(scratch.map().fault_count(), 32, "{kind}");
        }
    }

    #[test]
    fn die_scratch_matches_the_die_batch_oracle_die_by_die() {
        // `DieBatch` allocates every map afresh and is the oracle the
        // campaign's warm per-worker arena must reproduce: one scratch
        // walks a whole plan in order, as a campaign worker does.
        use crate::seeder::{DieBatch, PlannedSample, StreamSeeder};
        let seeder = StreamSeeder::new(0xBA7C);
        let plan: Vec<PlannedSample> = (0..40u64)
            .map(|index| PlannedSample {
                index,
                n_faults: 1 + (index * 7) % 30,
            })
            .collect();
        for kind in BackendKind::ALL {
            for law in [
                FaultKindLaw::AlwaysFlip,
                FaultKindLaw::AsymmetricStuckAt {
                    p_stuck_at_zero: 0.35,
                },
            ] {
                let backend = Backend::at_p_cell(kind, config(), 2e-3)
                    .unwrap()
                    .with_kind_law(law)
                    .unwrap();
                let batch = DieBatch::generate_with_backend(&backend, &seeder, &plan).unwrap();
                let mut scratch = DieScratch::new(config());
                for (planned, expected) in batch.iter() {
                    let mut rng = seeder.rng_for_sample(planned.index);
                    let map = scratch
                        .generate(&backend, &mut rng, planned.n_faults as usize)
                        .unwrap();
                    assert_eq!(map, expected, "{kind} {law:?} sample {}", planned.index);
                }
            }
        }
    }

    #[test]
    fn single_fault_per_row_redraw_matches_the_seeder_protocol() {
        use crate::seeder::{DieBatch, PlannedSample, StreamSeeder};
        let backend = Backend::at_p_cell(BackendKind::Sram, config(), 1e-3).unwrap();
        let seeder = StreamSeeder::new(99);
        let plan: Vec<PlannedSample> = (0..24u64)
            .map(|index| PlannedSample {
                index,
                n_faults: 20,
            })
            .collect();
        let batch =
            DieBatch::generate_single_fault_per_row_with_backend(&backend, &seeder, &plan, 8)
                .unwrap();
        let mut scratch = DieScratch::new(config());
        for (planned, expected) in batch.iter() {
            let mut rng = seeder.rng_for_sample(planned.index);
            let map = scratch
                .generate_single_fault_per_row(&backend, &mut rng, planned.n_faults as usize, 8)
                .unwrap();
            assert_eq!(map, expected, "sample {}", planned.index);
        }
    }
}
