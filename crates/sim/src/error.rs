//! Error types of the simulation pipeline.

use faultmit_memsim::MemError;
use std::convert::Infallible;
use std::error::Error;
use std::fmt;

/// Errors reported by the campaign pipeline itself.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A campaign parameter is invalid.
    InvalidParameter {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// An underlying memory-simulation operation failed.
    Memory(MemError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidParameter { reason } => {
                write!(f, "invalid campaign parameter: {reason}")
            }
            SimError::Memory(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Memory(e) => Some(e),
            SimError::InvalidParameter { .. } => None,
        }
    }
}

impl From<MemError> for SimError {
    fn from(value: MemError) -> Self {
        SimError::Memory(value)
    }
}

/// Errors of a fallible campaign run: either the pipeline failed, or the
/// caller-supplied per-sample evaluator did.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError<E> {
    /// The pipeline failed (configuration or sampling).
    Sim(SimError),
    /// The per-sample evaluator failed.
    Eval(E),
}

impl<E: fmt::Display> fmt::Display for RunError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "{e}"),
            RunError::Eval(e) => write!(f, "evaluator error: {e}"),
        }
    }
}

impl<E: Error + 'static> Error for RunError<E> {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            RunError::Eval(e) => Some(e),
        }
    }
}

impl<E> From<SimError> for RunError<E> {
    fn from(value: SimError) -> Self {
        RunError::Sim(value)
    }
}

/// A run whose evaluator cannot fail can only fail in the pipeline.
impl From<RunError<Infallible>> for SimError {
    fn from(value: RunError<Infallible>) -> Self {
        match value {
            RunError::Sim(e) => e,
            RunError::Eval(never) => match never {},
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = SimError::InvalidParameter {
            reason: "bad".into(),
        };
        assert!(e.to_string().contains("bad"));
        let r: RunError<SimError> = RunError::Eval(e.clone());
        assert!(r.to_string().contains("evaluator error"));
        let s: RunError<SimError> = e.into();
        assert!(matches!(s, RunError::Sim(_)));
    }
}
