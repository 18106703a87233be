//! A uniform interface over all protection schemes compared in the paper.
//!
//! The paper's Monte-Carlo evaluations (Fig. 5 and Fig. 7) compare *no
//! protection*, *H(39,32) SECDED ECC*, *H(22,16) P-ECC* and *bit-shuffling
//! with various segment sizes* on identical fault maps drawn over the data
//! array. [`MitigationScheme`] captures the per-word behaviour each scheme
//! exhibits for a given set of faulty data columns, and [`Scheme`] is the
//! concrete catalogue of all configurations used in the paper.
//!
//! Modelling note: fault maps are expressed over the `W` data columns of the
//! array. ECC parity columns are not separately faulted; this matches the
//! paper's simulation methodology, which injects bit-flips into the functional
//! data memory and assumes SECDED corrects any single per-word fault (samples
//! with more than one fault per word are rare at the studied `P_cell` and are
//! flagged as unreliable here).

use crate::error::CoreError;
use crate::fmlut::FmLut;
use crate::segment::SegmentGeometry;
use crate::shifter::{rotate_left, rotate_right};
use faultmit_ecc::{HammingSecded, SecdedCode};
use faultmit_memsim::{corrupt_word, Fault};

/// The word an application observes after a faulty read, plus whether the
/// protection scheme still vouches for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObservedWord {
    /// The data value delivered to the application.
    pub value: u64,
    /// `false` when the scheme detected an error it could not correct
    /// (e.g. a SECDED double-error); the value may then be arbitrary.
    pub reliable: bool,
}

impl ObservedWord {
    /// An observation identical to what was written.
    #[must_use]
    pub fn intact(value: u64) -> Self {
        Self {
            value,
            reliable: true,
        }
    }

    /// Signed error relative to the originally written value, interpreting
    /// both as 2's-complement integers of `word_bits` bits.
    #[must_use]
    pub fn signed_error(&self, written: u64, word_bits: usize) -> i64 {
        to_signed(self.value, word_bits) - to_signed(written, word_bits)
    }
}

fn to_signed(value: u64, word_bits: usize) -> i64 {
    if word_bits == 64 {
        value as i64
    } else {
        let sign_bit = 1u64 << (word_bits - 1);
        if value & sign_bit != 0 {
            (value as i64) - (1i64 << word_bits)
        } else {
            value as i64
        }
    }
}

/// Behaviour of a fault-mitigation scheme on a single memory word.
pub trait MitigationScheme {
    /// Human-readable name used in reports ("no-correction", "H(22,16) P-ECC",
    /// "bit-shuffle nFM=2", ...).
    fn name(&self) -> String;

    /// Width of the data word the scheme protects.
    fn word_bits(&self) -> usize;

    /// The value the application observes when `written` was stored in a row
    /// whose faults are `row_faults`.
    ///
    /// `row_faults` must be a single row's faults sorted by ascending column
    /// — exactly what [`FaultMap::row_faults`](faultmit_memsim::FaultMap::row_faults)
    /// returns.
    fn observe(&self, row_faults: &[Fault], written: u64) -> ObservedWord;

    /// Worst-case error magnitude caused by a single fault at data bit
    /// position `bit` (0 when the scheme corrects such a fault).
    fn worst_case_error_magnitude(&self, bit: usize) -> u64;

    /// Extra storage bits the scheme adds to every row (parity bits for ECC,
    /// LUT bits for bit-shuffling).
    fn extra_bits_per_row(&self) -> usize;
}

impl<T: MitigationScheme + ?Sized> MitigationScheme for &T {
    fn name(&self) -> String {
        (**self).name()
    }

    fn word_bits(&self) -> usize {
        (**self).word_bits()
    }

    fn observe(&self, row_faults: &[Fault], written: u64) -> ObservedWord {
        (**self).observe(row_faults, written)
    }

    fn worst_case_error_magnitude(&self, bit: usize) -> u64 {
        (**self).worst_case_error_magnitude(bit)
    }

    fn extra_bits_per_row(&self) -> usize {
        (**self).extra_bits_per_row()
    }
}

/// The catalogue of protection schemes evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No protection at all: every fault reaches the application.
    Unprotected {
        /// Data word width in bits.
        word_bits: usize,
    },
    /// Full-word SECDED ECC (H(39,32) for 32-bit words).
    Secded {
        /// Data word width in bits.
        word_bits: usize,
    },
    /// Priority ECC protecting the MSB half (H(22,16) over 16 MSBs for 32-bit
    /// words).
    PriorityEcc {
        /// Data word width in bits.
        word_bits: usize,
        /// Number of protected most-significant bits.
        protected_bits: usize,
    },
    /// Significance-driven bit-shuffling with the given segment geometry.
    BitShuffle(SegmentGeometry),
}

impl Scheme {
    /// Unprotected 32-bit words.
    #[must_use]
    pub fn unprotected32() -> Self {
        Scheme::Unprotected { word_bits: 32 }
    }

    /// The paper's H(39,32) SECDED baseline.
    #[must_use]
    pub fn secded32() -> Self {
        Scheme::Secded { word_bits: 32 }
    }

    /// The paper's H(22,16) P-ECC baseline (16 protected MSBs).
    #[must_use]
    pub fn pecc32() -> Self {
        Scheme::PriorityEcc {
            word_bits: 32,
            protected_bits: 16,
        }
    }

    /// Bit-shuffling over 32-bit words with the given FM-LUT width.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidGeometry`] for `n_fm` outside `1..=5`.
    pub fn shuffle32(n_fm: usize) -> Result<Self, CoreError> {
        Ok(Scheme::BitShuffle(SegmentGeometry::new(32, n_fm)?))
    }

    /// Every scheme evaluated in Fig. 5: no correction, bit-shuffling with
    /// `n_FM = 1..=5`, and H(22,16) P-ECC.
    #[must_use]
    pub fn fig5_catalogue() -> Vec<Self> {
        let mut all = vec![Self::unprotected32()];
        for n_fm in 1..=5 {
            all.push(Self::shuffle32(n_fm).expect("n_FM in 1..=5 is valid"));
        }
        all.push(Self::pecc32());
        all
    }

    /// The schemes plotted in Fig. 7: no correction, P-ECC, and bit-shuffling
    /// with `n_FM = 1` and `n_FM = 2` (plus SECDED, which is the error-free
    /// reference).
    #[must_use]
    pub fn fig7_catalogue() -> Vec<Self> {
        vec![
            Self::unprotected32(),
            Self::pecc32(),
            Self::shuffle32(1).expect("n_FM = 1 is valid"),
            Self::shuffle32(2).expect("n_FM = 2 is valid"),
            Self::secded32(),
        ]
    }

    fn secded_code(word_bits: usize) -> HammingSecded {
        HammingSecded::new(word_bits).expect("scheme word widths are SECDED-compatible")
    }

    /// Applies the row's faults, in ascending column order, to a raw stored
    /// word.
    fn corrupt(row_faults: &[Fault], stored: u64) -> u64 {
        let mut observed = stored;
        for fault in row_faults {
            observed = corrupt_word(observed, fault.col, fault.kind);
        }
        observed
    }

    /// The P-ECC protected-MSB mask for the given partition.
    fn pecc_msb_mask(word_bits: usize, protected_bits: usize) -> u64 {
        let unprotected_bits = word_bits - protected_bits;
        if word_bits == 64 && unprotected_bits == 0 {
            u64::MAX
        } else {
            (((1u64 << protected_bits) - 1) << unprotected_bits) & ((1u64 << word_bits) - 1)
        }
    }
}

impl MitigationScheme for Scheme {
    fn name(&self) -> String {
        match self {
            Scheme::Unprotected { .. } => "no-correction".to_owned(),
            Scheme::Secded { word_bits } => {
                let code = Self::secded_code(*word_bits);
                format!("H({},{}) SECDED", code.codeword_bits(), word_bits)
            }
            Scheme::PriorityEcc {
                word_bits,
                protected_bits,
            } => {
                let code = Self::secded_code(*protected_bits);
                format!(
                    "H({},{}) P-ECC on {word_bits}-bit words",
                    code.codeword_bits(),
                    protected_bits
                )
            }
            Scheme::BitShuffle(geometry) => {
                format!("bit-shuffle nFM={}", geometry.n_fm())
            }
        }
    }

    fn word_bits(&self) -> usize {
        match self {
            Scheme::Unprotected { word_bits } | Scheme::Secded { word_bits } => *word_bits,
            Scheme::PriorityEcc { word_bits, .. } => *word_bits,
            Scheme::BitShuffle(geometry) => geometry.word_bits(),
        }
    }

    fn observe(&self, row_faults: &[Fault], written: u64) -> ObservedWord {
        if row_faults.is_empty() {
            return ObservedWord::intact(written);
        }
        match self {
            Scheme::Unprotected { .. } => ObservedWord {
                value: Self::corrupt(row_faults, written),
                reliable: true,
            },
            Scheme::Secded { .. } => {
                let corrupted = Self::corrupt(row_faults, written);
                let error_bits = (corrupted ^ written).count_ones();
                if error_bits <= 1 {
                    // A single observable error is corrected by SECDED.
                    ObservedWord::intact(written)
                } else {
                    // Double (or worse) error: detected but not corrected.
                    ObservedWord {
                        value: corrupted,
                        reliable: false,
                    }
                }
            }
            Scheme::PriorityEcc {
                word_bits,
                protected_bits,
            } => {
                let corrupted = Self::corrupt(row_faults, written);
                let msb_mask = Self::pecc_msb_mask(*word_bits, *protected_bits);
                let msb_errors = ((corrupted ^ written) & msb_mask).count_ones();
                if msb_errors <= 1 {
                    // The protected slice is repaired; LSB errors pass through.
                    ObservedWord {
                        value: (written & msb_mask) | (corrupted & !msb_mask),
                        reliable: true,
                    }
                } else {
                    ObservedWord {
                        value: corrupted,
                        reliable: false,
                    }
                }
            }
            Scheme::BitShuffle(geometry) => {
                let x_fm = FmLut::choose_shift(*geometry, row_faults.iter().map(|f| f.col));
                let shift = geometry
                    .shift_amount(x_fm)
                    .expect("choose_shift returns a valid segment index");
                let stored = rotate_right(written, shift, geometry.word_bits());
                let corrupted = Self::corrupt(row_faults, stored);
                ObservedWord {
                    value: rotate_left(corrupted, shift, geometry.word_bits()),
                    reliable: true,
                }
            }
        }
    }

    fn worst_case_error_magnitude(&self, bit: usize) -> u64 {
        match self {
            Scheme::Unprotected { word_bits } => {
                assert!(bit < *word_bits);
                1u64 << bit
            }
            Scheme::Secded { word_bits } => {
                assert!(bit < *word_bits);
                0
            }
            Scheme::PriorityEcc {
                word_bits,
                protected_bits,
            } => {
                assert!(bit < *word_bits);
                if bit >= word_bits - protected_bits {
                    0
                } else {
                    1u64 << bit
                }
            }
            Scheme::BitShuffle(geometry) => {
                crate::error_magnitude::worst_case_error_magnitude(*geometry, bit)
            }
        }
    }

    fn extra_bits_per_row(&self) -> usize {
        match self {
            Scheme::Unprotected { .. } => 0,
            Scheme::Secded { word_bits } => Self::secded_code(*word_bits).parity_bits(),
            Scheme::PriorityEcc { protected_bits, .. } => {
                Self::secded_code(*protected_bits).parity_bits()
            }
            Scheme::BitShuffle(geometry) => geometry.n_fm(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_memsim::{Fault, FaultMap, MemoryConfig};

    fn map(faults: &[Fault]) -> FaultMap {
        let config = MemoryConfig::new(16, 32).unwrap();
        FaultMap::from_faults(config, faults.iter().copied()).unwrap()
    }

    #[test]
    fn scheme_names_match_paper_terminology() {
        assert_eq!(Scheme::unprotected32().name(), "no-correction");
        assert_eq!(Scheme::secded32().name(), "H(39,32) SECDED");
        assert!(Scheme::pecc32().name().contains("H(22,16) P-ECC"));
        assert_eq!(Scheme::shuffle32(3).unwrap().name(), "bit-shuffle nFM=3");
    }

    #[test]
    fn catalogue_contents() {
        assert_eq!(Scheme::fig5_catalogue().len(), 7);
        assert_eq!(Scheme::fig7_catalogue().len(), 5);
        assert!(Scheme::shuffle32(0).is_err());
        assert!(Scheme::shuffle32(6).is_err());
    }

    #[test]
    fn fault_free_rows_are_intact_under_every_scheme() {
        let faults = map(&[]);
        for scheme in Scheme::fig5_catalogue() {
            let observed = scheme.observe(faults.row_faults(0), 0xDEAD_BEEF);
            assert_eq!(observed, ObservedWord::intact(0xDEAD_BEEF));
        }
    }

    #[test]
    fn unprotected_scheme_exposes_full_error() {
        let faults = map(&[Fault::bit_flip(0, 31)]);
        let scheme = Scheme::unprotected32();
        let observed = scheme.observe(faults.row_faults(0), 0);
        assert_eq!(observed.value, 1 << 31);
        assert!(observed.reliable);
        assert_eq!(scheme.worst_case_error_magnitude(31), 1 << 31);
    }

    #[test]
    fn secded_corrects_single_fault_and_flags_double() {
        let scheme = Scheme::secded32();
        let single = map(&[Fault::bit_flip(1, 20)]);
        assert_eq!(
            scheme.observe(single.row_faults(1), 0xABCD_0123),
            ObservedWord::intact(0xABCD_0123)
        );
        let double = map(&[Fault::bit_flip(1, 20), Fault::bit_flip(1, 3)]);
        let observed = scheme.observe(double.row_faults(1), 0xABCD_0123);
        assert!(!observed.reliable);
        assert_eq!(scheme.worst_case_error_magnitude(31), 0);
    }

    #[test]
    fn secded_treats_silent_stuck_at_as_no_error() {
        // Two stuck-at faults whose stored values happen to match: no
        // observable error, so the word stays reliable and intact.
        let scheme = Scheme::secded32();
        let faults = map(&[Fault::stuck_at_one(2, 5), Fault::stuck_at_zero(2, 9)]);
        let written = 1 << 5; // bit 5 already 1, bit 9 already 0
        let observed = scheme.observe(faults.row_faults(2), written);
        assert_eq!(observed, ObservedWord::intact(written));
    }

    #[test]
    fn pecc_corrects_msb_faults_only() {
        let scheme = Scheme::pecc32();
        // Fault in the protected MSB half: corrected.
        let msb = map(&[Fault::bit_flip(0, 30)]);
        assert_eq!(
            scheme.observe(msb.row_faults(0), 0x0F0F_0F0F),
            ObservedWord::intact(0x0F0F_0F0F)
        );
        // Fault in the unprotected LSB half: passes through.
        let lsb = map(&[Fault::bit_flip(0, 7)]);
        let observed = scheme.observe(lsb.row_faults(0), 0x0F0F_0F0F);
        assert_eq!(observed.value, 0x0F0F_0F0F ^ (1 << 7));
        assert!(observed.reliable);
        // Worst-case magnitudes reflect the partition.
        assert_eq!(scheme.worst_case_error_magnitude(31), 0);
        assert_eq!(scheme.worst_case_error_magnitude(15), 1 << 15);
    }

    #[test]
    fn pecc_flags_double_msb_error() {
        let scheme = Scheme::pecc32();
        let faults = map(&[Fault::bit_flip(0, 30), Fault::bit_flip(0, 20)]);
        let observed = scheme.observe(faults.row_faults(0), 0);
        assert!(!observed.reliable);
    }

    #[test]
    fn pecc_corrects_one_msb_error_while_lsb_error_passes() {
        let scheme = Scheme::pecc32();
        let faults = map(&[Fault::bit_flip(0, 30), Fault::bit_flip(0, 2)]);
        let observed = scheme.observe(faults.row_faults(0), 0);
        assert_eq!(observed.value, 1 << 2);
        assert!(observed.reliable);
    }

    #[test]
    fn bit_shuffle_bounds_error_for_any_single_fault() {
        for n_fm in 1..=5usize {
            let scheme = Scheme::shuffle32(n_fm).unwrap();
            let bound = SegmentGeometry::new(32, n_fm)
                .unwrap()
                .max_error_magnitude();
            for col in 0..32usize {
                let faults = map(&[Fault::bit_flip(3, col)]);
                for &written in &[0u64, 0xFFFF_FFFF, 0x8765_4321] {
                    let observed = scheme.observe(faults.row_faults(3), written);
                    assert!(observed.reliable);
                    assert!(
                        observed.value.abs_diff(written) <= bound,
                        "n_FM {n_fm}, col {col}"
                    );
                }
            }
        }
    }

    #[test]
    fn bit_shuffle_matches_worst_case_profile() {
        let scheme = Scheme::shuffle32(2).unwrap();
        assert_eq!(scheme.worst_case_error_magnitude(31), 1 << 7);
        assert_eq!(scheme.worst_case_error_magnitude(8), 1);
        assert_eq!(scheme.worst_case_error_magnitude(0), 1);
    }

    #[test]
    fn extra_bits_per_row_match_paper_configurations() {
        assert_eq!(Scheme::unprotected32().extra_bits_per_row(), 0);
        assert_eq!(Scheme::secded32().extra_bits_per_row(), 7);
        assert_eq!(Scheme::pecc32().extra_bits_per_row(), 6);
        assert_eq!(Scheme::shuffle32(1).unwrap().extra_bits_per_row(), 1);
        assert_eq!(Scheme::shuffle32(5).unwrap().extra_bits_per_row(), 5);
    }

    #[test]
    fn observed_word_signed_error_handles_twos_complement() {
        let observed = ObservedWord {
            value: 0xFFFF_FFFF, // -1 as a 32-bit integer
            reliable: true,
        };
        assert_eq!(observed.signed_error(0, 32), -1);
        let observed = ObservedWord {
            value: 0x8000_0000, // most negative 32-bit integer
            reliable: true,
        };
        assert_eq!(observed.signed_error(0, 32), -(1i64 << 31));
        let observed = ObservedWord {
            value: 5,
            reliable: true,
        };
        assert_eq!(observed.signed_error(3, 32), 2);
    }

    #[test]
    fn shuffle_quality_dominates_pecc_for_lsb_half_faults() {
        // P-ECC leaves the low half of the word unprotected: a fault at bit 15
        // costs 2^15. Bit-shuffling with nFM >= 2 remaps that fault onto a
        // low-order data bit, so its error is bounded by 2^(S-1) < 2^15.
        let faults = map(&[Fault::bit_flip(0, 15)]);
        let written = 0x7FFF_8000u64;
        let pecc_err = Scheme::pecc32()
            .observe(faults.row_faults(0), written)
            .value
            .abs_diff(written);
        assert_eq!(pecc_err, 1 << 15);
        for n_fm in 2..=5 {
            let shuffle_err = Scheme::shuffle32(n_fm)
                .unwrap()
                .observe(faults.row_faults(0), written)
                .value
                .abs_diff(written);
            assert!(
                shuffle_err < pecc_err,
                "nFM={n_fm}: shuffle {shuffle_err} vs pecc {pecc_err}"
            );
        }
    }
}
