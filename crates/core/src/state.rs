//! [`StreamState`] — the serializable resumable identity of a generator
//! stream, captured by [`crate::OnDemandRng::try_checkpoint`] and applied
//! by [`crate::OnDemandRng::try_restore`].
//!
//! The paper's premise is that `GetNextRand()` state is tiny: a walk
//! position on the Gabber–Galil expander plus a step count. This module
//! makes that state a first-class value so a stream can be checkpointed,
//! serialized through the dependency-free telemetry JSON, moved to another
//! host/shard/backend, and resumed *bit-identically*:
//!
//! * [`crate::ExpanderWalkRng`] restores in O(chunks) by rebuilding its
//!   raw-bit source from the seed and fast-forwarding the 3-bit cursor to
//!   the checkpointed [`StreamState::feed_chunks`].
//! * [`crate::pipeline::Engine`] restores by replaying its request history
//!   as full-width rounds plus one remainder batch (exact for full-width
//!   consumers such as the `hprng-pool` shard workers), then *verifies*
//!   the replay against the checkpointed walk labels before accepting it.
//! * `hprng-pool` builds failover, migration, and persistence on the same
//!   mechanism: a client's stream is a pure function of its lane seed and
//!   the words already served, both of which live here.
//!
//! Serialization notes: every 64-bit integer field is encoded as a decimal
//! *string*, because the telemetry JSON number is an `f64` and vertex
//! labels use all 64 bits. Lane counts and the format version are small
//! and ride as plain numbers.

use crate::error::HprngError;
use hprng_expander::WalkState;
use hprng_telemetry::json::{self, Value};

/// The on-disk format tag of a serialized stream state.
pub const STREAM_STATE_FORMAT: &str = "hprng-stream-state";

/// The current stream-state schema version. Version-1 documents carried
/// two more word counters and are refused rather than guessed at.
pub const STREAM_STATE_VERSION: u64 = 2;

/// The resumable identity of one generator stream.
///
/// A checkpoint is *positional*, not mechanical: it records where the
/// stream is (walk vertices, step counts, feed cursor, words served), not
/// the private innards of the bit source. Restoring rebuilds the provider
/// from [`StreamState::seed`] and fast-forwards to the recorded position,
/// which is what makes a state portable across backends and shards.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamState {
    /// Provider label the state was captured from (diagnostic; restore
    /// paths that are provider-specific verify it).
    pub label: String,
    /// Pool client id, when the stream lives in a pool (0 otherwise).
    pub id: u64,
    /// The seed the provider was (re)built from. For pool clients this is
    /// the *lane* seed, so a restored state carries everything needed to
    /// rebuild the session on any shard.
    pub seed: u64,
    /// Independent lanes the provider serves per request.
    pub lanes: usize,
    /// Words served from the session stream (the resume point: a
    /// restored session fast-forwards past exactly this many words).
    pub session_words: u64,
    /// Raw 64-bit feed words consumed by the provider.
    pub feed_words: u64,
    /// Raw 3-bit chunks consumed (expander-walk providers; 0 when the
    /// provider does not track a chunk cursor).
    pub feed_chunks: u64,
    /// Per-lane walk positions at the checkpoint. May be empty for
    /// *minimal* states (pool failover reconstructs positions by replay);
    /// when present, replay-based restores verify against it.
    pub walks: Vec<WalkState>,
}

impl StreamState {
    /// A minimal state: enough to resume a seeded stream by replay, with
    /// no captured walk positions. This is what a pool client can build
    /// client-side after its shard died, from nothing but its own acked
    /// counters.
    pub fn minimal(label: &str, id: u64, seed: u64, lanes: usize, session_words: u64) -> Self {
        Self {
            label: label.to_string(),
            id,
            seed,
            lanes,
            session_words,
            feed_words: 0,
            feed_chunks: 0,
            walks: Vec::new(),
        }
    }

    /// Serializes to the telemetry JSON document model.
    pub fn to_value(&self) -> Value {
        let mut obj = Value::object();
        obj.set("format", Value::from(STREAM_STATE_FORMAT));
        obj.set("version", Value::from(STREAM_STATE_VERSION as f64));
        obj.set("label", Value::from(self.label.as_str()));
        obj.set("id", Value::from(self.id.to_string()));
        obj.set("seed", Value::from(self.seed.to_string()));
        obj.set("lanes", Value::from(self.lanes));
        obj.set("session_words", Value::from(self.session_words.to_string()));
        obj.set("feed_words", Value::from(self.feed_words.to_string()));
        obj.set("feed_chunks", Value::from(self.feed_chunks.to_string()));
        let walks = self
            .walks
            .iter()
            .map(|w| {
                let mut entry = Value::object();
                entry.set("vertex", Value::from(w.vertex.to_string()));
                entry.set("steps", Value::from(w.steps.to_string()));
                entry
            })
            .collect();
        obj.set("walks", Value::Array(walks));
        obj
    }

    /// Serializes to a compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Deserializes from the telemetry JSON document model.
    pub fn from_value(value: &Value) -> Result<Self, HprngError> {
        match value.get("format").and_then(Value::as_str) {
            Some(STREAM_STATE_FORMAT) => {}
            _ => {
                return Err(HprngError::RestoreMismatch {
                    field: "format",
                    reason: "not an hprng-stream-state document",
                })
            }
        }
        match value.get("version").and_then(Value::as_f64) {
            Some(v) if v == STREAM_STATE_VERSION as f64 => {}
            _ => {
                return Err(HprngError::RestoreMismatch {
                    field: "version",
                    reason: "unsupported stream-state version",
                })
            }
        }
        let label = value
            .get("label")
            .and_then(Value::as_str)
            .ok_or(HprngError::RestoreMismatch {
                field: "label",
                reason: "missing or non-string",
            })?
            .to_string();
        // A JSON number is an f64: only a whole number below 2^53 reads
        // back as the count it was written from.
        let lanes = value
            .get("lanes")
            .and_then(Value::as_f64)
            .filter(|n| n.fract() == 0.0 && (0.0..(1u64 << 53) as f64).contains(n))
            .and_then(|n| usize::try_from(n as u64).ok())
            .ok_or(HprngError::RestoreMismatch {
                field: "lanes",
                reason: "missing or not a whole number below 2^53",
            })?;
        let walks_value =
            value
                .get("walks")
                .and_then(Value::as_array)
                .ok_or(HprngError::RestoreMismatch {
                    field: "walks",
                    reason: "missing or not an array",
                })?;
        let mut walks = Vec::with_capacity(walks_value.len());
        for entry in walks_value {
            walks.push(WalkState {
                vertex: u64_field(entry, "vertex")?,
                steps: u64_field(entry, "steps")?,
            });
        }
        Ok(Self {
            label,
            id: u64_field(value, "id")?,
            seed: u64_field(value, "seed")?,
            lanes,
            session_words: u64_field(value, "session_words")?,
            feed_words: u64_field(value, "feed_words")?,
            feed_chunks: u64_field(value, "feed_chunks")?,
            walks,
        })
    }

    /// Deserializes from a JSON string.
    pub fn from_json(text: &str) -> Result<Self, HprngError> {
        let value = json::parse(text).map_err(|_| HprngError::RestoreMismatch {
            field: "json",
            reason: "stream-state document failed to parse",
        })?;
        Self::from_value(&value)
    }
}

/// Reads a u64 field encoded as a decimal string (the lossless encoding —
/// JSON numbers are f64 and cannot carry a full 64-bit vertex label).
fn u64_field(value: &Value, key: &'static str) -> Result<u64, HprngError> {
    let text = value
        .get(key)
        .and_then(Value::as_str)
        .ok_or(HprngError::RestoreMismatch {
            field: key,
            reason: "missing or not a decimal string",
        })?;
    text.parse::<u64>()
        .map_err(|_| HprngError::RestoreMismatch {
            field: key,
            reason: "not a decimal u64",
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamState {
        StreamState {
            label: "expander-walk".to_string(),
            id: 7,
            seed: u64::MAX - 3,
            lanes: 2,
            session_words: 100,
            feed_words: 420,
            feed_chunks: 8_486,
            walks: vec![
                WalkState {
                    vertex: u64::MAX,
                    steps: 6_486,
                },
                WalkState {
                    vertex: 0x0123_4567_89ab_cdef,
                    steps: 64,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let state = sample();
        let text = state.to_json();
        let back = StreamState::from_json(&text).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn full_u64_range_survives_the_f64_number_model() {
        // The killer case: u64::MAX is not representable as f64. The
        // decimal-string encoding must carry it losslessly.
        let state = sample();
        let back = StreamState::from_json(&state.to_json()).unwrap();
        assert_eq!(back.walks[0].vertex, u64::MAX);
        assert_eq!(back.seed, u64::MAX - 3);
    }

    #[test]
    fn foreign_documents_are_rejected_with_the_failing_field() {
        assert_eq!(
            StreamState::from_json("{}"),
            Err(HprngError::RestoreMismatch {
                field: "format",
                reason: "not an hprng-stream-state document",
            })
        );
        assert_eq!(
            StreamState::from_json("not json at all"),
            Err(HprngError::RestoreMismatch {
                field: "json",
                reason: "stream-state document failed to parse",
            })
        );
        // A numeric (lossy) id must be rejected, not silently accepted.
        let mut doc = sample().to_value();
        doc.set("id", Value::from(7u64));
        assert_eq!(
            StreamState::from_value(&doc),
            Err(HprngError::RestoreMismatch {
                field: "id",
                reason: "missing or not a decimal string",
            })
        );
        // So must a lane count the f64 cast would misread: 1.5 as 1, -1
        // as 0, 1e300 as usize::MAX.
        for lanes in [1.5, -1.0, 1e300] {
            let mut doc = sample().to_value();
            doc.set("lanes", Value::from(lanes));
            assert_eq!(
                StreamState::from_value(&doc),
                Err(HprngError::RestoreMismatch {
                    field: "lanes",
                    reason: "missing or not a whole number below 2^53",
                }),
                "lanes {lanes}"
            );
        }
    }

    #[test]
    fn version_gate_rejects_future_documents() {
        let mut doc = sample().to_value();
        doc.set("version", Value::from(3u64));
        assert_eq!(
            StreamState::from_value(&doc),
            Err(HprngError::RestoreMismatch {
                field: "version",
                reason: "unsupported stream-state version",
            })
        );
    }

    #[test]
    fn minimal_states_round_trip() {
        let state = StreamState::minimal("pool-lane", 3, 99, 1, 1234);
        assert!(state.walks.is_empty());
        assert_eq!(StreamState::from_json(&state.to_json()).unwrap(), state);
        // An uninitialized engine checkpoints zero lanes.
        let empty = StreamState::minimal("engine", 3, 99, 0, 0);
        assert_eq!(StreamState::from_json(&empty.to_json()).unwrap(), empty);
    }
}
