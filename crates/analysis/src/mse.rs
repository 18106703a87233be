//! The local mean-square-error quality function (Eq. (6) of the paper).
//!
//! The paper uses the MSE over the error magnitudes of all words in the
//! memory as a fast, application-agnostic proxy for output quality:
//!
//! ```text
//!   MSE = (1/R) · Σ_i (2^{b_i})²         0 ≤ b_i < W
//! ```
//!
//! where `b_i` is the data-bit position affected by the `i`-th failure after
//! the protection scheme has done its work (a corrected failure contributes
//! nothing; an unprotected failure at the MSB contributes `4^{W-1}`).
//!
//! The implementation evaluates each faulty row through the scheme's
//! [`observe`](faultmit_core::MitigationScheme::observe) path with an
//! all-zeros background so that every bit-flip fault is observable, and sums
//! `4^b` over the bit positions that differ — identical to Eq. (6) for the
//! paper's bit-flip injection model.
//!
//! [`memory_mse_with`] is the one kernel every campaign runs: it walks the
//! fault map's sorted row groups once, hands each scheme its row slice, and
//! queries the written word only for fault-bearing rows. [`memory_mse`] is
//! that kernel on the all-zeros background. [`memory_mse_for_data`] visits
//! the same rows against a dense data image and is the equivalence suite's
//! oracle for image-backed campaigns (no campaign dispatches to it). All
//! three accumulate per-row contributions in ascending row order, so they
//! agree **bit for bit** (the `kernel_equivalence` integration suite pins
//! this).

use faultmit_core::MitigationScheme;
use faultmit_memsim::FaultMap;

/// Exact `4^b` for every data-bit position, precomputed so the hot
/// squared-error loop avoids `powi`.
///
/// `4^b = 2^(2b)` is a power of two, so the entry is just the IEEE-754
/// exponent field `1023 + 2b` — bit-identical to `4.0f64.powi(b)`, which
/// multiplies exactly representable powers of two.
const POW4: [f64; 64] = {
    let mut table = [0.0f64; 64];
    let mut b = 0;
    while b < 64 {
        table[b] = f64::from_bits(((1023 + 2 * b) as u64) << 52);
        b += 1;
    }
    table
};

/// Squared error magnitude of one corrupted word: `Σ 4^b` over the bit
/// positions where `observed` differs from `written`.
///
/// # Example
///
/// ```
/// use faultmit_analysis::word_squared_error;
///
/// assert_eq!(word_squared_error(0b0000, 0b0001), 1.0);        // bit 0
/// assert_eq!(word_squared_error(0b0000, 0b1000), 64.0);       // bit 3 → 4^3
/// assert_eq!(word_squared_error(0b0000, 0b1001), 65.0);       // both
/// assert_eq!(word_squared_error(42, 42), 0.0);
/// ```
#[must_use]
pub fn word_squared_error(written: u64, observed: u64) -> f64 {
    let mut diff = written ^ observed;
    let mut total = 0.0;
    while diff != 0 {
        let bit = diff.trailing_zeros();
        total += POW4[bit as usize];
        diff &= diff - 1;
    }
    total
}

/// The memory-wide MSE of Eq. (6): the mean over all `R` rows of the squared
/// error magnitude each row exhibits under the given protection scheme, on
/// an all-zeros data background (every bit-flip fault is observable,
/// matching the paper's injection model).
///
/// Rows without faults contribute zero, so only faulty rows are visited.
#[must_use]
pub fn memory_mse<S: MitigationScheme + ?Sized>(scheme: &S, faults: &FaultMap) -> f64 {
    memory_mse_with(scheme, faults, |_| 0)
}

/// The memory-wide MSE for a specific data image (one value per row), using
/// the actual written values instead of the all-zeros background. Stuck-at
/// faults that happen to agree with the stored data then contribute nothing.
///
/// # Panics
///
/// Panics if `data` has fewer entries than the memory has rows.
#[must_use]
pub fn memory_mse_for_data<S: MitigationScheme + ?Sized>(
    scheme: &S,
    faults: &FaultMap,
    data: &[u64],
) -> f64 {
    let rows = faults.config().rows();
    assert!(
        data.len() >= rows,
        "data image has {} entries but the memory has {rows} rows",
        data.len()
    );
    let total: f64 = faults
        .faulty_rows()
        .map(|row| {
            let observed = scheme.observe(faults.row_faults(row), data[row]);
            word_squared_error(data[row], observed.value)
        })
        .sum();
    total / rows as f64
}

/// [`memory_mse`] against an arbitrary written-word source (a
/// [`faultmit_memsim::DataImage`] row lookup, a dense slice, ...): one pass
/// over the fault map's sorted row groups, each fault-bearing row evaluated
/// through [`MitigationScheme::observe`] on its fault slice.
///
/// Only fault-bearing rows query `written`, so data images need never be
/// materialised memory-wide: at sparse fault densities almost every row is
/// clean and contributes exactly zero. Bit-identical to
/// [`memory_mse_for_data`] when `written` agrees with the dense image.
#[must_use]
pub fn memory_mse_with<S, W>(scheme: &S, faults: &FaultMap, written: W) -> f64
where
    S: MitigationScheme + ?Sized,
    W: Fn(usize) -> u64,
{
    let rows = faults.config().rows() as f64;
    // -0.0 is the IEEE additive identity and what `Iterator::sum::<f64>`
    // folds from: a fault-free die must yield the same bits (-0.0, not
    // +0.0) as the dense oracle's empty sum.
    let mut total = -0.0;
    for (row, row_faults) in faults.rows_with_faults() {
        let stored = written(row);
        let observed = scheme.observe(row_faults, stored);
        total += word_squared_error(stored, observed.value);
    }
    total / rows
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use faultmit_core::Scheme;
    use faultmit_memsim::{Fault, MemoryConfig};

    fn map(faults: &[Fault]) -> FaultMap {
        let config = MemoryConfig::new(64, 32).unwrap();
        FaultMap::from_faults(config, faults.iter().copied()).unwrap()
    }

    #[test]
    fn word_squared_error_basic_cases() {
        assert_eq!(word_squared_error(0, 0), 0.0);
        assert_eq!(word_squared_error(0, 1 << 31), 4.0_f64.powi(31));
        assert_eq!(
            word_squared_error(0xFF, 0x0F),
            4.0_f64.powi(4) + 4.0_f64.powi(5) + 4.0_f64.powi(6) + 4.0_f64.powi(7)
        );
    }

    #[test]
    fn unprotected_mse_matches_equation_6() {
        // Two failures at bits 31 and 3 in a 64-row memory:
        // MSE = (4^31 + 4^3) / 64.
        let faults = map(&[Fault::bit_flip(0, 31), Fault::bit_flip(17, 3)]);
        let mse = memory_mse(&Scheme::unprotected32(), &faults);
        let expected = (4.0_f64.powi(31) + 4.0_f64.powi(3)) / 64.0;
        assert!((mse - expected).abs() < expected * 1e-12);
    }

    #[test]
    fn secded_mse_is_zero_for_single_fault_per_word() {
        let faults = map(&[Fault::bit_flip(0, 31), Fault::bit_flip(17, 3)]);
        assert_eq!(memory_mse(&Scheme::secded32(), &faults), 0.0);
    }

    #[test]
    fn secded_mse_is_nonzero_for_double_fault_words() {
        let faults = map(&[Fault::bit_flip(4, 30), Fault::bit_flip(4, 2)]);
        assert!(memory_mse(&Scheme::secded32(), &faults) > 0.0);
    }

    #[test]
    fn shuffle_mse_is_bounded_by_segment_size() {
        // 10 single-fault rows, all at high-significance bits.
        let faults: Vec<Fault> = (0..10).map(|r| Fault::bit_flip(r, 31 - r)).collect();
        let faults = map(&faults);
        for n_fm in 1..=5usize {
            let scheme = Scheme::shuffle32(n_fm).unwrap();
            let s = 32usize >> n_fm;
            let per_fault_bound = 4.0_f64.powi(s as i32 - 1);
            let mse = memory_mse(&scheme, &faults);
            assert!(
                mse <= 10.0 * per_fault_bound / 64.0 + 1e-9,
                "n_FM {n_fm}: {mse}"
            );
        }
    }

    #[test]
    fn mse_ordering_matches_fig5_for_msb_faults() {
        // Faults in the MSB half: unprotected >> P-ECC-corrected == 0,
        // shuffling small but non-zero.
        let faults = map(&[Fault::bit_flip(3, 31), Fault::bit_flip(9, 29)]);
        let unprotected = memory_mse(&Scheme::unprotected32(), &faults);
        let pecc = memory_mse(&Scheme::pecc32(), &faults);
        let shuffle1 = memory_mse(&Scheme::shuffle32(1).unwrap(), &faults);
        assert!(unprotected > shuffle1);
        assert_eq!(pecc, 0.0);
        assert!(shuffle1 > 0.0);
    }

    #[test]
    fn mse_ordering_matches_fig5_for_lsb_half_faults() {
        // Faults in the unprotected P-ECC half at bit 15: P-ECC pays 4^15,
        // bit-shuffling with nFM >= 2 pays at most 4^7.
        let faults = map(&[Fault::bit_flip(3, 15), Fault::bit_flip(9, 14)]);
        let pecc = memory_mse(&Scheme::pecc32(), &faults);
        let shuffle2 = memory_mse(&Scheme::shuffle32(2).unwrap(), &faults);
        let shuffle5 = memory_mse(&Scheme::shuffle32(5).unwrap(), &faults);
        assert!(pecc > shuffle2);
        assert!(shuffle2 > shuffle5);
    }

    #[test]
    fn mse_scales_inversely_with_memory_rows() {
        let small = MemoryConfig::new(16, 32).unwrap();
        let large = MemoryConfig::new(256, 32).unwrap();
        let fault = Fault::bit_flip(1, 20);
        let small_map = FaultMap::from_faults(small, [fault]).unwrap();
        let large_map = FaultMap::from_faults(large, [fault]).unwrap();
        let scheme = Scheme::unprotected32();
        let ratio = memory_mse(&scheme, &small_map) / memory_mse(&scheme, &large_map);
        assert!((ratio - 16.0).abs() < 1e-9);
    }

    #[test]
    fn data_dependent_mse_sees_silent_stuck_at_faults() {
        let config = MemoryConfig::new(16, 32).unwrap();
        let faults = FaultMap::from_faults(config, [Fault::stuck_at_one(2, 31)]).unwrap();
        let scheme = Scheme::unprotected32();
        // Background where bit 31 of row 2 is already set: the stuck-at-one
        // fault is silent.
        let mut data = vec![0u64; 16];
        data[2] = 1 << 31;
        assert_eq!(memory_mse_for_data(&scheme, &faults, &data), 0.0);
        // All-zeros background: the same fault costs 4^31 / 16.
        let zeros = vec![0u64; 16];
        assert!(memory_mse_for_data(&scheme, &faults, &zeros) > 0.0);
    }

    #[test]
    #[should_panic(expected = "data image")]
    fn data_dependent_mse_panics_on_short_image() {
        let faults = map(&[Fault::bit_flip(0, 0)]);
        let _ = memory_mse_for_data(&Scheme::unprotected32(), &faults, &[0u64; 3]);
    }

    #[test]
    fn empty_fault_map_has_zero_mse() {
        let faults = map(&[]);
        for scheme in Scheme::fig5_catalogue() {
            assert_eq!(memory_mse(&scheme, &faults), 0.0);
        }
    }

    #[test]
    fn pow4_table_is_bit_identical_to_powi() {
        for (b, entry) in POW4.iter().enumerate() {
            assert_eq!(entry.to_bits(), 4.0_f64.powi(b as i32).to_bits(), "4^{b}");
        }
    }

    #[test]
    fn kernel_is_bit_identical_to_the_dense_oracle() {
        // Dense, sparse, multi-fault-per-row and stuck-at maps, every
        // catalogue scheme (plus SECDED), zeros and non-trivial images.
        let cases: Vec<Vec<Fault>> = vec![
            vec![],
            vec![Fault::bit_flip(5, 31)],
            vec![Fault::bit_flip(0, 0), Fault::bit_flip(63, 31)],
            vec![
                Fault::bit_flip(7, 3),
                Fault::bit_flip(7, 29),
                Fault::stuck_at_one(7, 30),
                Fault::stuck_at_zero(12, 15),
            ],
            (0..64).map(|r| Fault::bit_flip(r, (r * 7) % 32)).collect(),
        ];
        let mut schemes = Scheme::fig5_catalogue();
        schemes.push(Scheme::secded32());
        for faults in &cases {
            let faults = map(faults);
            let image: Vec<u64> = (0..64).map(|r| (r as u64).wrapping_mul(0x9E37)).collect();
            for scheme in &schemes {
                assert_eq!(
                    memory_mse(scheme, &faults).to_bits(),
                    memory_mse_for_data(scheme, &faults, &[0; 64]).to_bits(),
                    "{} (zeros)",
                    scheme.name()
                );
                assert_eq!(
                    memory_mse_with(scheme, &faults, |row| image[row]).to_bits(),
                    memory_mse_for_data(scheme, &faults, &image).to_bits(),
                    "{} (data)",
                    scheme.name()
                );
            }
        }
    }
}
