//! The shard worker: one thread hosting the private sessions of every
//! client assigned to it, serving prefetch-block refills from a bounded
//! transport ring.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use hprng_core::{HprngError, OnDemandRng, StreamState};
use hprng_telemetry::Stage;
use hprng_transport::{PoisonFlag, PoisonGuard, RingReceiver, RingSender};

use crate::config::SessionKind;
use crate::obs::ShardObs;

/// A refilled prefetch block (or why the refill failed): the block the
/// client sent with its [`Request::Refill`], overwritten in place.
pub(crate) type Reply = Result<Vec<u64>, HprngError>;

/// The answer to a [`Request::Checkpoint`]: the session's resumable state
/// at its produced-stream position.
pub(crate) type StateReply = Result<StreamState, HprngError>;

/// The shard request protocol. Clients own a clone of the shard's
/// bounded request-[`RingSender`]; the ring bound is the backpressure
/// surface.
pub(crate) enum Request {
    /// A new client: build its session from its lane seed and remember its
    /// reply channel.
    Attach {
        /// Client id (the lane index of the seed derivation).
        client: u64,
        /// Where refilled blocks go. Capacity 2 — matching the two
        /// prefetch blocks a client keeps in flight — so the worker's
        /// reply sends never block on a live client.
        reply: RingSender<Reply>,
        /// When present, the freshly built session is fast-forwarded onto
        /// this checkpointed state before it serves its first refill —
        /// the failover / migration / restore-from-disk admission path.
        /// Boxed to keep the enqueued request small.
        resume: Option<Box<StreamState>>,
    },
    /// Capture the client's session state
    /// ([`OnDemandRng::try_checkpoint`]) and send it back on `reply`.
    ///
    /// The state is positioned at the words the *session produced*, which
    /// leads the words the client consumed by up to two prefetch blocks;
    /// callers that need the consumer-exact resume point use the client's
    /// own acked counters ([`crate::PoolClient::checkpoint`]) instead.
    Checkpoint {
        /// Which client's session to capture.
        client: u64,
        /// Where the captured state goes (capacity 1 is enough).
        reply: RingSender<StateReply>,
    },
    /// Refill one prefetch block of `client`'s stream: the worker
    /// overwrites `block` and sends it back on the client's reply
    /// channel. Each client owns its two blocks, so the steady-state
    /// serving path allocates nothing.
    Refill {
        /// Which client's session to draw from.
        client: u64,
        /// The client's drained block. Empty on the two requests that
        /// prime a client's double buffer; the worker allocates it then.
        block: Vec<u64>,
        /// When the request entered the queue, in nanoseconds on the
        /// pool's tracing epoch — the worker computes enqueue-wait from
        /// it at dequeue. `NaN` when tracing is off.
        enqueued_ns: f64,
    },
    /// The client is gone; drop its session.
    Detach {
        /// Which client to forget.
        client: u64,
    },
    /// Drain and exit (sent by [`crate::Pool::shutdown`] / `Drop`).
    Shutdown,
}

/// Lock-free per-shard counters, shared between the worker, its clients,
/// and [`crate::Pool::stats`].
#[derive(Debug, Default)]
pub(crate) struct ShardMetrics {
    /// Sessions currently attached.
    pub clients: AtomicUsize,
    /// Refill requests served.
    pub refills: AtomicU64,
    /// Words produced into prefetch blocks.
    pub words: AtomicU64,
    /// Refills that failed with a session error.
    pub errors: AtomicU64,
    /// Set when the worker thread died by panic (never on clean
    /// shutdown). Observed through [`hprng_transport::PoisonGuard`].
    pub poisoned: PoisonFlag,
}

struct ClientSlot {
    session: Box<dyn OnDemandRng + Send>,
    reply: RingSender<Reply>,
    /// Prefetch size rounded up to a multiple of the session's lane count,
    /// so the worker always requests full-width batches and block size
    /// never changes the stream.
    chunk: usize,
}

/// Builds (and, on resume, fast-forwards) one client session.
///
/// The shard only ever serves full-lane-width rounds, so a resume
/// fast-forwards by `session_words / lanes` *whole* rounds; the client
/// skips the `session_words % lanes` remainder from the first block it
/// installs. The fast path hands the rounded state to the session's own
/// [`OnDemandRng::try_restore`] (O(feed cursor) for the expander walk,
/// replay for engines); if the session declines — e.g. a minimal
/// client-side state whose label the provider does not recognize — the
/// worker falls back to draw-and-discard replay on a fresh session,
/// which is always exact because the stream is a pure function of the
/// lane seed and the full-width request history.
fn build_session(
    kind: &SessionKind,
    pool_seed: u64,
    prefetch_words: usize,
    client: u64,
    resume: Option<&StreamState>,
) -> Result<(Box<dyn OnDemandRng + Send>, usize), HprngError> {
    let seed = hprng_core::seeding::lane_seed(pool_seed, client);
    let mut session = kind.build(seed)?;
    // The session must be as wide as the kind advertises:
    // `PoolClient::lanes()` and the client's block sizing are both derived
    // from the advertised count, so a `Custom` factory that lies about its
    // width would silently desync them.
    if session.lanes() != kind.lanes() {
        return Err(HprngError::InvalidParam {
            field: "session.lanes",
            reason: "session factory produced a lane count different \
                     from the advertised SessionKind lanes",
        });
    }
    let lanes = session.lanes();
    let chunk = prefetch_words.div_ceil(lanes) * lanes;
    if let Some(state) = resume {
        if state.seed != seed {
            return Err(HprngError::RestoreMismatch {
                field: "seed",
                reason: "state seed is not the lane seed of this pool seed and client id",
            });
        }
        if state.lanes != lanes {
            return Err(HprngError::RestoreMismatch {
                field: "lanes",
                reason: "state lane count disagrees with the session kind",
            });
        }
        let full = state.session_words - state.session_words % lanes as u64;
        if full > 0 {
            let mut rounded = state.clone();
            rounded.session_words = full;
            if session.try_restore(&rounded).is_err() {
                // A declined (or partially applied) restore leaves the
                // session unusable; replay from a fresh one.
                session = kind.build(seed)?;
                let mut scratch = vec![0u64; lanes];
                for _ in 0..full / lanes as u64 {
                    session.try_next_batch_into(&mut scratch)?;
                }
            }
        }
    }
    Ok((session, chunk))
}

/// The worker loop. Runs on its own thread until [`Request::Shutdown`]
/// arrives or every request sender is gone.
pub(crate) fn run(
    shard: usize,
    pool_seed: u64,
    kind: SessionKind,
    prefetch_words: usize,
    metrics: Arc<ShardMetrics>,
    obs: Option<Arc<ShardObs>>,
    rx: RingReceiver<Request>,
) {
    // Mirrors the pipeline ring's poisoning discipline: a dead worker is
    // observable state, not a silent hang.
    let guard = PoisonGuard::arm(metrics.poisoned.clone());
    let mut slots: HashMap<u64, ClientSlot> = HashMap::new();
    // Refills served, for the 1-in-N worker span sampling gate.
    let mut served_refills: u64 = 0;

    while let Some(request) = rx.recv() {
        match request {
            Request::Attach {
                client,
                reply,
                resume,
            } => {
                match build_session(&kind, pool_seed, prefetch_words, client, resume.as_deref()) {
                    Ok((session, chunk)) => {
                        slots.insert(
                            client,
                            ClientSlot {
                                session,
                                reply,
                                chunk,
                            },
                        );
                        metrics.clients.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        // The client learns on its first receive; nothing
                        // is attached.
                        let _ = reply.send(Err(e));
                    }
                }
            }
            Request::Checkpoint { client, reply } => {
                let response = match slots.get_mut(&client) {
                    Some(slot) => match slot.session.try_checkpoint() {
                        Ok(mut state) => {
                            // Sessions do not know their pool identity;
                            // the worker stamps it so the state is
                            // directly resumable via the pool.
                            state.id = client;
                            Ok(state)
                        }
                        // A session without rich state is still resumable
                        // by replay: counters alone are a valid
                        // (minimal) checkpoint.
                        Err(HprngError::CheckpointUnsupported { .. }) => Ok(StreamState::minimal(
                            slot.session.label(),
                            client,
                            hprng_core::seeding::lane_seed(pool_seed, client),
                            slot.session.lanes().max(1),
                            slot.session.words_served(),
                        )),
                        Err(e) => Err(e),
                    },
                    None => Err(HprngError::InvalidParam {
                        field: "client",
                        reason: "checkpoint requested for a client this shard does not host",
                    }),
                };
                let _ = reply.send(response);
            }
            Request::Refill {
                client,
                mut block,
                enqueued_ns,
            } => {
                if let Some(o) = &obs {
                    if !enqueued_ns.is_nan() {
                        let wait = (o.now_ns() - enqueued_ns).max(0.0);
                        o.enqueue_wait_ns.record_ns(wait as u64);
                    }
                }
                let Some(slot) = slots.get_mut(&client) else {
                    continue; // detached (or attach failed): drop the block
                };
                // Chaos: a Panic here kills the worker mid-serve (the
                // PoisonGuard above marks the shard during the unwind, and
                // the block in hand unwinds with it); a Stall models a
                // slow session.
                #[cfg(feature = "chaos")]
                hprng_transport::chaos::act(hprng_transport::chaos::FaultPoint::ShardRefill {
                    shard,
                });
                // A no-op once primed; every word is overwritten below.
                block.resize(slot.chunk, 0);
                let lanes = slot.session.lanes().max(1);
                let service_start = obs.as_ref().map(|o| o.now_ns());
                let result = block
                    .chunks_mut(lanes)
                    .try_for_each(|chunk| slot.session.try_next_batch_into(chunk));
                let reply = match result {
                    Ok(()) => {
                        metrics.refills.fetch_add(1, Ordering::Relaxed);
                        metrics
                            .words
                            .fetch_add(block.len() as u64, Ordering::Relaxed);
                        if let (Some(o), Some(start)) = (&obs, service_start) {
                            let end = o.now_ns();
                            o.service_ns.record_ns((end - start).max(0.0) as u64);
                            o.words.add(block.len() as u64);
                            served_refills += 1;
                            if served_refills.is_multiple_of(o.sample_every) {
                                o.record_span(
                                    Stage::Generate,
                                    &format!("shard{shard} refill c{client}"),
                                    start,
                                    end,
                                );
                            }
                        }
                        Ok(block)
                    }
                    Err(e) => {
                        metrics.errors.fetch_add(1, Ordering::Relaxed);
                        Err(e)
                    }
                };
                if slot.reply.send(reply).is_err() {
                    // Client dropped its receiver without detaching; the
                    // undelivered block is dropped with the reply.
                    slots.remove(&client);
                    metrics.clients.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Request::Detach { client } => {
                if slots.remove(&client).is_some() {
                    metrics.clients.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Request::Shutdown => break,
        }
    }
    guard.disarm();
}
