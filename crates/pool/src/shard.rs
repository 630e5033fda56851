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
/// client sent with its [`Request::Refill`] overwritten in place, or the
/// spare block the worker filled ahead for the client, which the sent
/// block then replaces.
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
    /// leads the words the client consumed by up to three blocks (its two
    /// prefetch blocks and the spare the worker filled ahead); callers
    /// that need the consumer-exact resume point use the client's own
    /// acked counters ([`crate::PoolClient::checkpoint`]) instead.
    Checkpoint {
        /// Which client's session to capture.
        client: u64,
        /// Where the captured state goes (capacity 1 is enough).
        reply: RingSender<StateReply>,
    },
    /// Refill one prefetch block of `client`'s stream: the worker
    /// overwrites `block` and sends it back on the client's reply
    /// channel, or sends the spare it filled ahead and keeps `block` as
    /// the next spare. Each client owns its two blocks and the worker
    /// keeps one spare per client, so the steady-state serving path
    /// allocates nothing.
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
    /// Words delivered in refill replies (words filled ahead count once
    /// their block is delivered).
    pub words: AtomicU64,
    /// Refills that failed with a session error.
    pub errors: AtomicU64,
    /// Set when the worker thread died by panic (never on clean
    /// shutdown). Observed through [`hprng_transport::PoisonGuard`].
    pub poisoned: PoisonFlag,
}

/// Words a work-conserving worker fills ahead between two polls of its
/// request ring (rounded up to whole lane-width batches): about 6 µs of
/// expander walk, so a queued request waits at most that long.
const AHEAD_PIECE_WORDS: usize = 64;

struct ClientSlot {
    session: Box<dyn OnDemandRng + Send>,
    reply: RingSender<Reply>,
    /// Prefetch size rounded up to a multiple of the session's lane count,
    /// so the worker always requests full-width batches and block size
    /// never changes the stream.
    chunk: usize,
    /// The client's next block, filled ahead of demand while the request
    /// ring is empty. `None` until the client's first drained block
    /// arrives, and for good on a `Custom` shard.
    spare: Option<Box<Spare>>,
}

/// A block idle time fills ahead for one client.
struct Spare {
    block: Vec<u64>,
    /// Words of `block` filled so far; the rest are stale.
    filled: usize,
    /// A session error hit while filling ahead, returned on the client's
    /// next refill as if it had happened then.
    error: Option<HprngError>,
    /// The worker's refill count when this client was last refilled:
    /// idle time fills the least recently refilled spare first.
    refilled_at: u64,
}

impl Spare {
    /// Whether idle time may fill more of this spare.
    fn wants_fill(&self) -> bool {
        self.filled < self.block.len() && self.error.is_none()
    }

    /// Fills up to `words` more words (a multiple of the lane count) from
    /// `session` and returns how many it filled. A session error drops
    /// the partial spare, as a failed refill drops its block, and is kept
    /// for the next refill.
    fn fill(&mut self, session: &mut (dyn OnDemandRng + Send), words: usize) -> usize {
        let (from, to) = (self.filled, (self.filled + words).min(self.block.len()));
        match draw(session, &mut self.block[from..to]) {
            Ok(()) => {
                self.filled = to;
                to - from
            }
            Err(e) => {
                self.filled = 0;
                self.error = Some(e);
                0
            }
        }
    }
}

/// Fills `out` from `session` in whole lane-width batches.
fn draw(session: &mut (dyn OnDemandRng + Send), out: &mut [u64]) -> Result<(), HprngError> {
    let lanes = session.lanes().max(1);
    out.chunks_mut(lanes)
        .try_for_each(|batch| session.try_next_batch_into(batch))
}

impl ClientSlot {
    /// The client's spare, if idle time may fill more of it.
    fn spare_to_fill(&self) -> Option<&Spare> {
        self.spare.as_deref().filter(|spare| spare.wants_fill())
    }

    /// Fills all of `block` from the session. Priming blocks arrive empty
    /// and are sized here; from then on the resize is a no-op.
    fn fill(&mut self, mut block: Vec<u64>) -> Reply {
        block.resize(self.chunk, 0);
        draw(&mut *self.session, &mut block)?;
        Ok(block)
    }

    /// Serves a refill on a work-conserving shard. Returns the reply and
    /// whether it is the spare.
    ///
    /// A priming refill (an empty `Vec`) is filled directly, so a
    /// capacity-0 placeholder never becomes the spare. The first drained
    /// block reserves the spare: a fixed point after admission, so
    /// neither admission nor idle time allocates. A spare holding words
    /// is finished and swapped for the drained block, which becomes the
    /// next spare; an empty spare leaves the drained block to be filled
    /// directly.
    fn refill_ahead(&mut self, mut block: Vec<u64>, refill: u64) -> (Reply, bool) {
        if block.capacity() == 0 {
            return (self.fill(block), false);
        }
        let chunk = self.chunk;
        let spare = self.spare.get_or_insert_with(|| {
            Box::new(Spare {
                block: vec![0; chunk],
                filled: 0,
                error: None,
                refilled_at: 0,
            })
        });
        spare.refilled_at = refill;
        if let Some(e) = spare.error.take() {
            return (Err(e), false);
        }
        block.resize(chunk, 0);
        if spare.filled == 0 {
            return (draw(&mut *self.session, &mut block).map(|()| block), false);
        }
        spare.fill(&mut *self.session, chunk);
        if let Some(e) = spare.error.take() {
            return (Err(e), false);
        }
        spare.filled = 0;
        (Ok(std::mem::replace(&mut spare.block, block)), true)
    }
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

/// Fills one piece of the spare of the least recently refilled client
/// whose spare is not full; `false` when every spare is full. `filling`
/// keeps that client between pieces: a client starts to want a fill only
/// when it is refilled, which makes it the most recently refilled, so the
/// choice stands until the chosen client is refilled (which clears
/// `filling`), detached, or full.
fn fill_ahead(
    slots: &mut HashMap<u64, ClientSlot>,
    filling: &mut Option<u64>,
    piece: usize,
    obs: Option<&ShardObs>,
) -> bool {
    *filling = filling
        .filter(|id| slots.get(id).and_then(ClientSlot::spare_to_fill).is_some())
        .or_else(|| {
            slots
                .iter()
                .filter_map(|(&id, slot)| Some((id, slot.spare_to_fill()?.refilled_at)))
                .min_by_key(|&(_, refilled_at)| refilled_at)
                .map(|(id, _)| id)
        });
    let Some(slot) = filling.and_then(|id| slots.get_mut(&id)) else {
        return false;
    };
    let Some(spare) = slot.spare.as_deref_mut() else {
        return false;
    };
    let words = spare.fill(&mut *slot.session, piece);
    if let Some(o) = obs {
        o.ahead_words.add(words as u64);
    }
    true
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
    // Refills served, for the 1-in-N worker span sampling gate and the
    // clients' `refilled_at` stamps.
    let mut served_refills: u64 = 0;
    // Work-conserving: while the ring is empty, fill each client's next
    // block ahead of demand. Only the kinds the pool builds itself do:
    // their streams are a pure function of the lane seed, and nothing
    // else observes their calls. A `Custom` session may count, time or
    // fail its calls on purpose, so it is called only when a refill asks.
    let fills_ahead = !matches!(kind, SessionKind::Custom { .. });
    let lanes = kind.lanes().max(1);
    let piece = AHEAD_PIECE_WORDS.div_ceil(lanes) * lanes;
    // The client whose spare idle time is filling (see `fill_ahead`).
    let mut filling: Option<u64> = None;

    loop {
        // Queued requests first, in arrival order; idle time fills spares
        // in pieces, polling the ring between them; block once every spare
        // is full (a `Custom` shard blocks at once).
        let polled = if fills_ahead { rx.try_recv() } else { None };
        let request = match polled {
            Some(request) => request,
            None if fills_ahead && fill_ahead(&mut slots, &mut filling, piece, obs.as_deref()) => {
                continue
            }
            None => match rx.recv() {
                Some(request) => request,
                None => break,
            },
        };
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
                                spare: None,
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
                block,
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
                // slow session. Filling ahead fires nothing, so the point
                // counts refills served.
                #[cfg(feature = "chaos")]
                hprng_transport::chaos::act(hprng_transport::chaos::FaultPoint::ShardRefill {
                    shard,
                });
                served_refills += 1;
                let service_start = obs.as_ref().map(|o| o.now_ns());
                let (result, from_spare) = if fills_ahead {
                    if filling == Some(client) {
                        filling = None;
                    }
                    slot.refill_ahead(block, served_refills)
                } else {
                    (slot.fill(block), false)
                };
                let reply = match result {
                    Ok(block) => {
                        metrics.refills.fetch_add(1, Ordering::Relaxed);
                        metrics
                            .words
                            .fetch_add(block.len() as u64, Ordering::Relaxed);
                        if let (Some(o), Some(start)) = (&obs, service_start) {
                            let end = o.now_ns();
                            o.service_ns.record_ns((end - start).max(0.0) as u64);
                            o.words.add(block.len() as u64);
                            if from_spare {
                                o.spare_refills.add(1);
                            }
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
                    // undelivered block is dropped with the reply, and its
                    // spare with the slot.
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

#[cfg(test)]
mod tests {
    use super::*;
    use hprng_core::ExpanderWalkRng;
    use hprng_transport::bounded;

    fn slot(session: Box<dyn OnDemandRng + Send>, chunk: usize) -> ClientSlot {
        let (reply, _) = bounded(2);
        ClientSlot {
            session,
            reply,
            chunk,
            spare: None,
        }
    }

    fn spare(slot: &ClientSlot) -> &Spare {
        slot.spare.as_deref().expect("the spare is reserved")
    }

    /// Fills `words` more of the slot's spare, as idle time does.
    fn fill_spare(slot: &mut ClientSlot, words: usize) -> usize {
        let spare = slot.spare.as_deref_mut().expect("the spare is reserved");
        spare.fill(&mut *slot.session, words)
    }

    /// Every refill answers the next block of the stream, whether the
    /// spare is empty, partly filled or full.
    #[test]
    fn refills_serve_the_stream_in_order_whatever_the_spare_holds() {
        const CHUNK: usize = 128;
        const PIECE: usize = 64;
        let mut golden = ExpanderWalkRng::from_seed_u64(9);
        let mut next_block =
            || -> Vec<u64> { (0..CHUNK).map(|_| golden.get_next_rand()).collect() };
        let mut slot = slot(Box::new(ExpanderWalkRng::from_seed_u64(9)), CHUNK);

        // Priming refills are filled directly and reserve nothing.
        for stamp in 1..=2 {
            let (reply, from_spare) = slot.refill_ahead(Vec::new(), stamp);
            assert_eq!((reply.unwrap(), from_spare), (next_block(), false));
            assert!(slot.spare.is_none());
        }
        // The first drained block reserves the spare; the spare is empty,
        // so the block itself is filled.
        let (reply, from_spare) = slot.refill_ahead(vec![0; CHUNK], 3);
        let drained = reply.unwrap();
        assert_eq!((&drained, from_spare), (&next_block(), false));
        assert!(spare(&slot).wants_fill());
        assert_eq!(spare(&slot).refilled_at, 3);

        // A partly filled spare is finished, then swapped.
        assert_eq!(fill_spare(&mut slot, PIECE), PIECE);
        let (reply, from_spare) = slot.refill_ahead(drained, 4);
        let drained = reply.unwrap();
        assert_eq!((&drained, from_spare), (&next_block(), true));

        // A full spare is swapped as it stands.
        assert_eq!(fill_spare(&mut slot, PIECE), PIECE);
        assert_eq!(fill_spare(&mut slot, PIECE), PIECE);
        assert!(!spare(&slot).wants_fill());
        let (reply, from_spare) = slot.refill_ahead(drained, 5);
        let drained = reply.unwrap();
        assert_eq!((&drained, from_spare), (&next_block(), true));

        // An empty spare leaves the drained block to be filled directly.
        let (reply, from_spare) = slot.refill_ahead(drained, 6);
        assert_eq!((reply.unwrap(), from_spare), (next_block(), false));
    }

    #[test]
    fn idle_time_fills_the_least_recently_refilled_spare_first() {
        const CHUNK: usize = 128;
        let mut slots = HashMap::new();
        for (id, refill) in [(7u64, 9u64), (3, 4), (5, 6)] {
            let mut slot = slot(Box::new(ExpanderWalkRng::from_seed_u64(id)), CHUNK);
            // A drained block reserves an empty spare, stamped `refill`.
            assert!(slot.refill_ahead(vec![0; CHUNK], refill).0.is_ok());
            slots.insert(id, slot);
        }
        let (mut filling, mut order) = (None, Vec::new());
        while fill_ahead(&mut slots, &mut filling, CHUNK / 2, None) {
            order.extend(filling);
        }
        assert_eq!(order, [3, 3, 5, 5, 7, 7]);
        assert!(slots.values().all(|slot| spare(slot).filled == CHUNK));
    }

    /// A walk that fails once it has served `limit` words.
    struct Failing {
        inner: ExpanderWalkRng,
        limit: u64,
    }

    impl OnDemandRng for Failing {
        fn label(&self) -> &'static str {
            "failing"
        }
        fn lanes(&self) -> usize {
            1
        }
        fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
            if self.inner.words_served() >= self.limit {
                return Err(HprngError::EmptyRequest);
            }
            self.inner.try_next_batch_into(out)
        }
        fn words_served(&self) -> u64 {
            self.inner.words_served()
        }
    }

    #[test]
    fn a_session_error_while_filling_ahead_fails_the_next_refill() {
        const CHUNK: usize = 64;
        let session = Failing {
            inner: ExpanderWalkRng::from_seed_u64(3),
            limit: 3 * CHUNK as u64 + 40,
        };
        let mut slot = slot(Box::new(session), CHUNK);
        for stamp in 1..=2 {
            assert!(slot.refill_ahead(Vec::new(), stamp).0.is_ok());
        }
        assert!(slot.refill_ahead(vec![0; CHUNK], 3).0.is_ok());
        // The session fails 8 words into the spare's second piece: the
        // partial spare is dropped and the error waits for the refill.
        assert_eq!(fill_spare(&mut slot, CHUNK / 2), CHUNK / 2);
        assert_eq!(fill_spare(&mut slot, CHUNK / 2), 0);
        assert_eq!(spare(&slot).filled, 0);
        assert!(!spare(&slot).wants_fill());
        let (reply, from_spare) = slot.refill_ahead(vec![0; CHUNK], 4);
        assert_eq!((reply, from_spare), (Err(HprngError::EmptyRequest), false));
        assert!(spare(&slot).wants_fill());
    }
}
