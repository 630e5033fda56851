//! The crate's error type for fallible construction and generation.

use hprng_gpu_sim::ConfigError;
use std::fmt;

/// Why a generator operation was rejected.
///
/// Returned by the `try_*` API surface ([`crate::HybridPrng::try_session`],
/// [`crate::HybridPrng::try_generate`],
/// [`crate::HybridSession::try_next_batch`]), the parameter builders, and
/// the serving path of the `hprng-pool` clients (the `Shard*`/`Pool*`
/// variants). The legacy panicking wrappers were removed in 0.6.0 — see
/// MIGRATION.md.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum HprngError {
    /// A session was opened with zero device-resident walks.
    EmptySession,
    /// A request for zero numbers (nothing to do is treated as a usage
    /// error, matching the historical `assert!`).
    EmptyRequest,
    /// A batch request exceeding the session's walk count.
    BatchTooLarge {
        /// Numbers requested.
        requested: usize,
        /// Device-resident walks available.
        available: usize,
    },
    /// A walk or pipeline parameter failed builder validation.
    InvalidParam {
        /// Which parameter was rejected.
        field: &'static str,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// The simulated device configuration was rejected.
    Config(ConfigError),
    /// A randomness-pool shard's worker thread is gone — it panicked while
    /// serving (poisoning mirrors the PR 3 ring semantics: peers keep
    /// serving, only this shard's clients are affected).
    ShardPoisoned {
        /// Which pool shard died.
        shard: usize,
    },
    /// The randomness pool was shut down while this client was still
    /// drawing from it.
    PoolShutdown,
    /// The provider does not implement the checkpoint/restore pair of the
    /// [`crate::OnDemandRng`] contract (the default for custom sessions).
    CheckpointUnsupported {
        /// The provider's [`crate::OnDemandRng::label`].
        label: &'static str,
    },
    /// A [`crate::StreamState`] could not be applied to this provider: a
    /// field disagrees with the provider's construction or current
    /// position, or the serialized form was malformed.
    RestoreMismatch {
        /// Which state field was rejected.
        field: &'static str,
        /// Why it was rejected.
        reason: &'static str,
    },
}

impl fmt::Display for HprngError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HprngError::EmptySession => write!(f, "a session needs at least one walk"),
            HprngError::EmptyRequest => write!(f, "cannot generate zero numbers"),
            HprngError::BatchTooLarge {
                requested,
                available,
            } => write!(
                f,
                "batch of {requested} exceeds the session's {available} walks"
            ),
            HprngError::InvalidParam { field, reason } => {
                write!(f, "invalid parameter {field}: {reason}")
            }
            HprngError::Config(e) => write!(f, "{e}"),
            HprngError::ShardPoisoned { shard } => {
                write!(f, "pool shard {shard} is poisoned (its worker panicked)")
            }
            HprngError::PoolShutdown => {
                write!(f, "the randomness pool was shut down")
            }
            HprngError::CheckpointUnsupported { label } => {
                write!(f, "provider {label} does not support checkpoint/restore")
            }
            HprngError::RestoreMismatch { field, reason } => {
                write!(f, "cannot restore stream state: {field}: {reason}")
            }
        }
    }
}

impl std::error::Error for HprngError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HprngError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for HprngError {
    fn from(e: ConfigError) -> Self {
        HprngError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_match_legacy_asserts() {
        assert_eq!(
            HprngError::EmptySession.to_string(),
            "a session needs at least one walk"
        );
        assert_eq!(
            HprngError::BatchTooLarge {
                requested: 9,
                available: 8
            }
            .to_string(),
            "batch of 9 exceeds the session's 8 walks"
        );
    }

    #[test]
    fn pool_variant_messages_name_the_shard() {
        assert_eq!(
            HprngError::ShardPoisoned { shard: 0 }.to_string(),
            "pool shard 0 is poisoned (its worker panicked)"
        );
        assert_eq!(
            HprngError::PoolShutdown.to_string(),
            "the randomness pool was shut down"
        );
    }

    #[test]
    fn config_errors_convert_and_chain() {
        let cfg_err = ConfigError::InvalidField {
            field: "num_sms",
            reason: "must be positive",
        };
        let err: HprngError = cfg_err.clone().into();
        assert_eq!(err, HprngError::Config(cfg_err));
        assert!(std::error::Error::source(&err).is_some());
    }
}
