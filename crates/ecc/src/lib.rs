//! Error-correcting codes for unreliable SRAM words.
//!
//! This crate implements the two ECC baselines the paper compares the
//! bit-shuffling scheme against (§2, §5):
//!
//! * [`HammingSecded`] — single-error-correction / double-error-detection
//!   Hamming codes for arbitrary data widths, including the paper's
//!   H(39,32) (full-word SECDED for 32-bit data) and H(22,16) codes.
//! * [`PriorityEcc`] — priority-based ECC (P-ECC \[4,12\]): only the most
//!   significant half of each word is protected by a smaller SECDED code,
//!   trading LSB protection for reduced overhead.
//! * [`EccMemory`] / [`PeccMemory`] — protected memories that couple a codec
//!   with a faulty [`SramArray`](faultmit_memsim::SramArray) storing the
//!   widened codewords.
//!
//! # Example
//!
//! ```
//! use faultmit_ecc::{HammingSecded, SecdedCode, DecodeOutcome};
//!
//! # fn main() -> Result<(), faultmit_ecc::EccError> {
//! let code = HammingSecded::h39_32();
//! let codeword = code.encode(0xDEAD_BEEF)?;
//! // Flip one arbitrary bit of the stored codeword.
//! let corrupted = codeword ^ (1 << 17);
//! let decoded = code.decode(corrupted)?;
//! assert_eq!(decoded.data, 0xDEAD_BEEF);
//! assert_eq!(decoded.outcome, DecodeOutcome::CorrectedSingle);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod code;
pub mod error;
pub mod hamming;
pub mod memory;
pub mod pecc;

pub use code::{DecodeOutcome, Decoded, SecdedCode};
pub use error::EccError;
pub use hamming::HammingSecded;
pub use memory::{EccMemory, PeccMemory};
pub use pecc::PriorityEcc;
