use std::error::Error;
use std::fmt;

/// Error type for the physics substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PhysicsError {
    /// A model dimension was zero or inconsistent.
    BadDimensions {
        /// What the dimension describes.
        what: &'static str,
    },
    /// The dot–dot capacitance matrix was not invertible (e.g. a mutual
    /// capacitance at least as large as a total capacitance).
    SingularCapacitance,
    /// A physical parameter was outside its valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Constraint that was violated.
        constraint: &'static str,
    },
    /// A voltage vector had the wrong number of gate entries.
    GateCountMismatch {
        /// Gates the model expects.
        expected: usize,
        /// Gates the caller supplied.
        got: usize,
    },
    /// A model had more dots than charge-state evaluation supports
    /// ([`crate::CapacitanceModel::MAX_DOTS`]).
    TooManyDots {
        /// Dots requested.
        dots: usize,
        /// The supported maximum.
        max: usize,
    },
}

impl fmt::Display for PhysicsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysicsError::BadDimensions { what } => {
                write!(f, "model dimension for {what} is zero or inconsistent")
            }
            PhysicsError::SingularCapacitance => {
                write!(
                    f,
                    "dot capacitance matrix is singular; check mutual capacitances"
                )
            }
            PhysicsError::InvalidParameter { name, constraint } => {
                write!(f, "parameter `{name}` violated constraint: {constraint}")
            }
            PhysicsError::GateCountMismatch { expected, got } => {
                write!(f, "expected {expected} gate voltages, got {got}")
            }
            PhysicsError::TooManyDots { dots, max } => {
                write!(f, "{dots} dots exceed the supported maximum of {max}")
            }
        }
    }
}

impl Error for PhysicsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_well_formed() {
        let errs = [
            PhysicsError::BadDimensions { what: "dots" },
            PhysicsError::SingularCapacitance,
            PhysicsError::InvalidParameter {
                name: "temperature",
                constraint: "must be non-negative",
            },
            PhysicsError::GateCountMismatch {
                expected: 2,
                got: 3,
            },
            PhysicsError::TooManyDots { dots: 17, max: 16 },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn f<T: Send + Sync>() {}
        f::<PhysicsError>();
    }
}
