//! Passing application data through a faulty, protected memory.
//!
//! The paper's application study (§5.2) stores each benchmark's training data
//! in a functional model of a 16 KB memory, injects bit-flips according to a
//! random fault map, and trains on whatever comes back out. [`FaultyStore`]
//! implements that round trip for a whole feature matrix: every value is
//! quantised to the storage fixed-point format, written through the selected
//! protection scheme into a (faulty) memory row, read back and de-quantised.
//!
//! Datasets larger than one memory bank wrap around: word `k` lands in row
//! `k mod rows`, modelling a tiled/banked layout where the same physical rows
//! (and therefore the same faulty cells) are reused across tiles.

use crate::error::AppError;
use crate::fixedpoint::FixedPointFormat;
use crate::linalg::Matrix;
use faultmit_core::MitigationScheme;
use faultmit_memsim::FaultMap;

/// Stores values through a protection scheme backed by a faulty memory.
#[derive(Debug, Clone)]
pub struct FaultyStore<'a, S: MitigationScheme> {
    scheme: &'a S,
    faults: &'a FaultMap,
    format: FixedPointFormat,
}

impl<'a, S: MitigationScheme> FaultyStore<'a, S> {
    /// Creates a store for the given scheme, fault map and fixed-point
    /// format.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] when the fixed-point word width
    /// does not match the scheme's word width or the fault-map geometry.
    pub fn new(
        scheme: &'a S,
        faults: &'a FaultMap,
        format: FixedPointFormat,
    ) -> Result<Self, AppError> {
        if format.word_bits() != scheme.word_bits() {
            return Err(AppError::InvalidParameter {
                reason: format!(
                    "fixed-point width {} does not match scheme word width {}",
                    format.word_bits(),
                    scheme.word_bits()
                ),
            });
        }
        if faults.config().word_bits() != scheme.word_bits() {
            return Err(AppError::InvalidParameter {
                reason: format!(
                    "fault map word width {} does not match scheme word width {}",
                    faults.config().word_bits(),
                    scheme.word_bits()
                ),
            });
        }
        Ok(Self {
            scheme,
            faults,
            format,
        })
    }

    /// The fixed-point storage format.
    #[must_use]
    pub fn format(&self) -> FixedPointFormat {
        self.format
    }

    /// Stores a single value at logical word index `index` and reads it back
    /// through the faulty memory.
    #[must_use]
    pub fn round_trip_value(&self, index: usize, value: f64) -> f64 {
        let row = index % self.faults.config().rows();
        let written = self.format.encode(value);
        let observed = self.scheme.observe(self.faults.row_faults(row), written);
        self.format.decode(observed.value)
    }

    /// Stores a slice of values sequentially and reads them back.
    #[must_use]
    pub fn round_trip_values(&self, values: &[f64]) -> Vec<f64> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| self.round_trip_value(i, v))
            .collect()
    }

    /// Stores a whole matrix (row-major) and reads it back.
    ///
    /// # Errors
    ///
    /// Never fails for a well-formed store; the `Result` mirrors matrix
    /// construction.
    pub fn round_trip_matrix(&self, matrix: &Matrix) -> Result<Matrix, AppError> {
        let corrupted = self.round_trip_values(matrix.as_slice());
        Matrix::from_vec(matrix.rows(), matrix.cols(), corrupted)
    }

    /// Sparse twin of [`FaultyStore::round_trip_matrix`]: re-reads only the
    /// values that land in a fault-bearing row.
    ///
    /// `read_back` must hold the fault-free round trip of `values` (their
    /// quantisation). Every value in a faulty row is encoded, passed through
    /// the scheme's `observe` on that row's fault slice, and overwritten in
    /// `read_back` when the word's bits changed, so the result is
    /// bit-identical to the dense round trip. Returns whether any word's bits
    /// changed.
    pub(crate) fn patch_faulty_rows(&self, values: &[f64], read_back: &mut [f64]) -> bool {
        debug_assert_eq!(values.len(), read_back.len());
        let rows = self.faults.config().rows();
        let mut changed = false;
        for (row, row_faults) in self.faults.rows_with_faults() {
            for index in (row..values.len()).step_by(rows) {
                let written = self.format.encode(values[index]);
                let observed = self.scheme.observe(row_faults, written);
                if observed.value != written {
                    read_back[index] = self.format.decode(observed.value);
                    changed = true;
                }
            }
        }
        changed
    }

    /// Number of memory words the given matrix occupies (before wrapping).
    #[must_use]
    pub fn words_required(&self, matrix: &Matrix) -> usize {
        matrix.rows() * matrix.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultmit_core::Scheme;
    use faultmit_memsim::{Fault, MemoryConfig};

    fn fault_map(faults: &[Fault]) -> FaultMap {
        let config = MemoryConfig::new(64, 32).unwrap();
        FaultMap::from_faults(config, faults.iter().copied()).unwrap()
    }

    #[test]
    fn fault_free_round_trip_only_quantises() {
        let faults = fault_map(&[]);
        let scheme = Scheme::unprotected32();
        let store = FaultyStore::new(&scheme, &faults, FixedPointFormat::q15_16()).unwrap();
        let values = vec![1.5, -2.25, 1000.0, -0.0001];
        let out = store.round_trip_values(&values);
        for (a, b) in values.iter().zip(&out) {
            assert!((a - b).abs() <= store.format().resolution());
        }
    }

    #[test]
    fn msb_fault_devastates_unprotected_value() {
        let faults = fault_map(&[Fault::bit_flip(3, 31)]);
        let scheme = Scheme::unprotected32();
        let store = FaultyStore::new(&scheme, &faults, FixedPointFormat::q15_16()).unwrap();
        // Word index 3 maps to row 3.
        let corrupted = store.round_trip_value(3, 1.0);
        assert!(
            (corrupted - 1.0).abs() > 10_000.0,
            "corrupted = {corrupted}"
        );
        // Any other index is untouched.
        assert!((store.round_trip_value(4, 1.0) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn bit_shuffling_limits_the_damage() {
        let faults = fault_map(&[Fault::bit_flip(3, 31)]);
        let scheme = Scheme::shuffle32(5).unwrap();
        let store = FaultyStore::new(&scheme, &faults, FixedPointFormat::q15_16()).unwrap();
        let corrupted = store.round_trip_value(3, 1.0);
        // Worst-case error is one LSB of the fixed-point format.
        assert!((corrupted - 1.0).abs() <= store.format().resolution() + 1e-12);
    }

    #[test]
    fn secded_round_trip_is_exact_for_single_faults() {
        let faults = fault_map(&[Fault::bit_flip(0, 31), Fault::bit_flip(1, 0)]);
        let scheme = Scheme::secded32();
        let store = FaultyStore::new(&scheme, &faults, FixedPointFormat::q15_16()).unwrap();
        for index in 0..4 {
            let v = store.round_trip_value(index, -3.75);
            assert!((v + 3.75).abs() <= store.format().resolution());
        }
    }

    #[test]
    fn matrix_round_trip_wraps_across_rows() {
        // 64-row memory, matrix with 130 entries: indices 64 and 128 also hit
        // row 0's fault.
        let faults = fault_map(&[Fault::bit_flip(0, 31)]);
        let scheme = Scheme::unprotected32();
        let store = FaultyStore::new(&scheme, &faults, FixedPointFormat::q15_16()).unwrap();
        let matrix = Matrix::from_vec(13, 10, vec![1.0; 130]).unwrap();
        let corrupted = store.round_trip_matrix(&matrix).unwrap();
        let damaged: usize = corrupted
            .as_slice()
            .iter()
            .filter(|&&v| (v - 1.0).abs() > 1.0)
            .count();
        assert_eq!(damaged, 3, "indices 0, 64 and 128 must be corrupted");
        assert_eq!(store.words_required(&matrix), 130);
    }

    #[test]
    fn mismatched_configurations_are_rejected() {
        let faults = fault_map(&[]);
        let scheme = Scheme::unprotected32();
        // 16-bit fixed point with a 32-bit scheme.
        let bad_format = FixedPointFormat::new(16, 8).unwrap();
        assert!(FaultyStore::new(&scheme, &faults, bad_format).is_err());
        // Fault map with a different word width.
        let narrow_map = FaultMap::new(MemoryConfig::new(64, 16).unwrap());
        assert!(FaultyStore::new(&scheme, &narrow_map, FixedPointFormat::q15_16()).is_err());
    }
}
