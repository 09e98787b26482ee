//! Errors for building a simulated hierarchy from an architecture
//! description.

use std::fmt;

/// An [`Architecture`](palo_arch::Architecture) description that cannot be
/// turned into a simulatable hierarchy.
///
/// [`Hierarchy::from_architecture`](crate::Hierarchy::from_architecture)
/// panics on these (it predates the fallible pipeline); the guarded entry
/// points [`Hierarchy::try_from_architecture`](crate::Hierarchy::try_from_architecture)
/// and
/// [`Hierarchy::try_with_effective_sharing`](crate::Hierarchy::try_with_effective_sharing)
/// report them instead. [`Architecture::validate`](palo_arch::Architecture::validate)
/// rejects every description that raises one of these (checked by
/// `tests/validate_covers_sim.rs`), so they only arise from descriptions
/// that were never validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimConfigError {
    /// The architecture describes fewer than two cache levels; the
    /// simulator needs at least L1 and L2 (prefetchers are per-level).
    TooFewLevels {
        /// Number of levels found.
        found: usize,
    },
    /// The L1 line size is zero or not a power of two, so addresses
    /// cannot be mapped to lines by shifting.
    BadLineSize {
        /// The offending line size in bytes.
        line_size: usize,
    },
    /// A cache level has zero sets or zero ways.
    EmptyLevel {
        /// Zero-based cache level index (0 = L1).
        level: usize,
        /// Number of sets computed for the level.
        sets: usize,
        /// Associativity of the level.
        ways: usize,
    },
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimConfigError::TooFewLevels { found } => write!(
                f,
                "cache simulator needs at least L1 and L2, architecture describes {found} level(s)"
            ),
            SimConfigError::BadLineSize { line_size } => write!(
                f,
                "L1 line size must be a nonzero power of two, got {line_size}"
            ),
            SimConfigError::EmptyLevel { level, sets, ways } => write!(
                f,
                "cache level L{} has degenerate geometry ({sets} sets x {ways} ways)",
                level + 1
            ),
        }
    }
}

impl std::error::Error for SimConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SimConfigError::TooFewLevels { found: 1 }.to_string().contains("1 level"));
        assert!(SimConfigError::BadLineSize { line_size: 48 }.to_string().contains("48"));
        assert!(SimConfigError::EmptyLevel { level: 1, sets: 0, ways: 8 }
            .to_string()
            .contains("L2"));
    }
}
