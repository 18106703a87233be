//! Randomized property tests of the bit-shuffling invariants — the heart of
//! the paper's claim: for any single fault and any stored value, the error
//! magnitude is bounded by `2^(S-1)`.
//!
//! The offline build has no `proptest`, so each property is exercised over a
//! seeded random sweep.

use faultmit_core::{
    rotate_left, rotate_right, FmLut, MitigationScheme, ObservedWord, Scheme, SegmentGeometry,
    ShuffledMemory,
};
use faultmit_memsim::{Fault, FaultKind, FaultMap, MemoryConfig, SramArray};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const CASES: usize = 256;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn random_kind(rng: &mut StdRng) -> FaultKind {
    match rng.gen_range(0..3) {
        0 => FaultKind::StuckAtZero,
        1 => FaultKind::StuckAtOne,
        _ => FaultKind::BitFlip,
    }
}

/// Rotation is a bijection: rotate right then left restores the word for
/// any width, shift and value.
#[test]
fn rotation_round_trips() {
    let mut rng = rng(201);
    for _ in 0..CASES {
        let width = 1usize << rng.gen_range(0u32..7); // 1, 2, 4, ..., 64
        let shift = rng.gen_range(0usize..256);
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let value = rng.gen::<u64>() & mask;
        let stored = rotate_right(value, shift, width);
        assert_eq!(rotate_left(stored, shift, width), value);
        assert_eq!(stored & !mask, 0);
        assert_eq!(stored.count_ones(), value.count_ones());
    }
}

/// The headline invariant: a single fault anywhere in the word, any fault
/// kind, any stored value, any segment size — the observed error is at
/// most `2^(S-1)`.
#[test]
fn single_fault_error_is_bounded_for_all_geometries() {
    let mut rng = rng(202);
    for _ in 0..CASES {
        let value = rng.gen::<u32>() as u64;
        let col = rng.gen_range(0usize..32);
        let n_fm = rng.gen_range(1usize..=5);
        let kind = random_kind(&mut rng);
        let row = rng.gen_range(0usize..16);

        let geometry = SegmentGeometry::new(32, n_fm).unwrap();
        let config = MemoryConfig::new(16, 32).unwrap();
        let faults = FaultMap::from_faults(config, [Fault::new(row, col, kind)]).unwrap();
        let mut memory = ShuffledMemory::from_fault_map(geometry, faults).unwrap();
        memory.write(row, value).unwrap();
        let read = memory.read(row).unwrap();
        assert!(
            read.abs_diff(value) <= geometry.max_error_magnitude(),
            "error {} exceeds bound {}",
            read.abs_diff(value),
            geometry.max_error_magnitude()
        );
    }
}

/// A die of 8 rows whose `row` holds 1–8 faults at distinct columns, each of
/// a random kind, plus one fault on the next row that must not leak into
/// `row`'s read-back.
fn random_faulty_row(rng: &mut StdRng, row: usize) -> FaultMap {
    let config = MemoryConfig::new(8, 32).unwrap();
    let n_faults = rng.gen_range(1usize..=8);
    let mut columns = BTreeSet::new();
    while columns.len() < n_faults {
        columns.insert(rng.gen_range(0usize..32));
    }
    let mut faults: Vec<Fault> = columns
        .into_iter()
        .map(|col| Fault::new(row, col, random_kind(rng)))
        .collect();
    let neighbour = (row + 1) % config.rows();
    faults.push(Fault::new(
        neighbour,
        rng.gen_range(0usize..32),
        random_kind(rng),
    ));
    FaultMap::from_faults(config, faults).unwrap()
}

/// The stateless scheme models agree with the stateful hardware datapaths
/// on rows of 1–8 mixed bit-flip / stuck-at faults and random stored
/// words: `Scheme::Unprotected` with a raw `SramArray` write/read, and
/// `Scheme::BitShuffle` at every `n_FM` with `ShuffledMemory` (BIST-built
/// FM-LUT, barrel shifter, faulty array).
#[test]
fn scheme_model_matches_hardware_datapath() {
    let mut rng = rng(203);
    for _ in 0..CASES {
        let row = rng.gen_range(0usize..8);
        let faults = random_faulty_row(&mut rng, row);
        let value = rng.gen::<u32>() as u64;
        let context = format!(
            "row {row}, value {value:#x}, faults {:?}",
            faults.row_faults(row)
        );

        let mut sram = SramArray::with_faults(faults.config(), faults.clone());
        sram.write(row, value).unwrap();
        let hardware = ObservedWord {
            value: sram.read(row).unwrap(),
            reliable: true,
        };
        let model = Scheme::unprotected32().observe(faults.row_faults(row), value);
        assert_eq!(model, hardware, "no-correction: {context}");

        for n_fm in 1..=5usize {
            let geometry = SegmentGeometry::new(32, n_fm).unwrap();
            let mut memory = ShuffledMemory::from_fault_map(geometry, faults.clone()).unwrap();
            memory.write(row, value).unwrap();
            let hardware = ObservedWord {
                value: memory.read(row).unwrap(),
                reliable: true,
            };
            let model = Scheme::BitShuffle(geometry).observe(faults.row_faults(row), value);
            assert_eq!(model, hardware, "n_FM {n_fm}: {context}");
        }
    }
}

/// Bit-shuffling never makes things worse than no protection for
/// single-fault rows: the per-bit worst-case error magnitude is bounded by
/// the unprotected one for every scheme in the catalogue.
#[test]
fn worst_case_error_never_exceeds_unprotected() {
    let unprotected = Scheme::unprotected32();
    for bit in 0usize..32 {
        for scheme in Scheme::fig5_catalogue() {
            assert!(
                scheme.worst_case_error_magnitude(bit)
                    <= unprotected.worst_case_error_magnitude(bit)
            );
        }
    }
}

/// The FM-LUT shift choice places the faulty cell inside the least
/// significant shifted segment for single-fault rows: the affected data
/// bit is always below the segment size.
#[test]
fn chosen_shift_maps_fault_to_lsb_segment() {
    for col in 0usize..32 {
        for n_fm in 1usize..=5 {
            let geometry = SegmentGeometry::new(32, n_fm).unwrap();
            let x = FmLut::choose_shift(geometry, [col].into_iter());
            let shift = geometry.shift_amount(x).unwrap();
            // Data bit stored in the faulty physical column after the write
            // rotation: (col + shift) mod W must be a low-significance bit.
            let affected = (col + shift) % 32;
            assert!(affected < geometry.segment_bits());
        }
    }
}

/// Multi-fault rows: the optimised shift choice is never worse (in summed
/// squared error magnitude) than naively aligning to the most significant
/// faulty bit.
#[test]
fn multi_fault_shift_choice_is_optimal_enough() {
    let mut rng = rng(204);
    for _ in 0..CASES {
        let n_fm = rng.gen_range(1usize..=5);
        let n_cols = rng.gen_range(1usize..5);
        let cols: BTreeSet<usize> = (0..n_cols).map(|_| rng.gen_range(0usize..32)).collect();

        let geometry = SegmentGeometry::new(32, n_fm).unwrap();
        let columns: Vec<usize> = cols.into_iter().collect();
        let cost = |x: usize| -> u128 {
            let shift = x * geometry.segment_bits();
            columns
                .iter()
                .map(|&col| {
                    let bit = (col + 32 - shift) % 32;
                    (1u128 << bit).pow(2)
                })
                .sum()
        };
        let chosen = FmLut::choose_shift(geometry, columns.iter().copied());
        let naive = geometry.segment_of_bit(*columns.iter().max().unwrap());
        assert!(cost(chosen) <= cost(naive));
    }
}
