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

/// A filled prefetch block (or why the fill failed): one of the two
/// blocks a [`Request::Attach`] primes, the block the client sent with
/// its [`Request::Refill`] overwritten in place, or the spare block the
/// worker filled ahead for the client, which the sent block then
/// replaces.
pub(crate) type Reply = Result<Vec<u64>, HprngError>;

/// The answer to a [`Request::Checkpoint`]: the session's resumable state
/// at its produced-stream position.
pub(crate) type StateReply = Result<StreamState, HprngError>;

/// The shard request protocol. Clients own a clone of the shard's
/// bounded request-[`RingSender`]; the ring bound is the backpressure
/// surface.
///
/// A session is keyed by its attachment: [`crate::pool::PoolShared`]
/// hands out a fresh `key` for every `Attach`, and `Refill`,
/// `Checkpoint` and `Detach` name it. Two live clients on one lane id
/// therefore hold two sessions, and each reaches only its own.
pub(crate) enum Request {
    /// A new session: build it from its lane seed, fast-forward it onto
    /// `resume` when given, and answer with the client's two primed
    /// blocks on `reply`. Each priming fill is served like a `Refill`.
    Attach {
        /// The attachment's session key.
        key: u64,
        /// Client id (the lane index of the seed derivation), stamped
        /// into checkpoints and span names.
        client: u64,
        /// The lane seed the session is a pure function of.
        seed: u64,
        /// Where filled blocks go. Capacity 2 — matching the two
        /// prefetch blocks a client keeps in flight — so the worker's
        /// reply sends never block on a live client.
        reply: RingSender<Reply>,
        /// When present, the freshly built session is fast-forwarded onto
        /// this checkpointed state before its priming fills — the
        /// failover / migration / restore-from-disk admission path.
        /// Boxed to keep the enqueued request small.
        resume: Option<Box<StreamState>>,
        /// When the request entered the queue (see `Refill`).
        enqueued_ns: f64,
    },
    /// Capture the session's state ([`OnDemandRng::try_checkpoint`]) and
    /// send it back on `reply`.
    ///
    /// The state is positioned at the words the *session produced*, which
    /// leads the words the client consumed by up to three blocks (its two
    /// prefetch blocks and the spare the worker filled ahead); callers
    /// that need the consumer-exact resume point use the client's own
    /// acked counters ([`crate::PoolClient::checkpoint`]) instead.
    Checkpoint {
        /// Which session to capture.
        key: u64,
        /// Where the captured state goes (capacity 1 is enough).
        reply: RingSender<StateReply>,
    },
    /// Refill one prefetch block of a session's stream: the worker
    /// overwrites `block` and sends it back on the client's reply
    /// channel, or sends the spare it filled ahead and keeps `block` as
    /// the next spare. Each client owns its two blocks and the worker
    /// keeps one spare per client, so the steady-state serving path
    /// allocates nothing.
    Refill {
        /// Which session to draw from.
        key: u64,
        /// The client's drained block, a full block the worker sent it.
        block: Vec<u64>,
        /// When the request entered the queue, in nanoseconds on the
        /// pool's tracing epoch — the worker computes enqueue-wait from
        /// it at dequeue. `NaN` when tracing is off.
        enqueued_ns: f64,
    },
    /// The attachment is gone; drop its session.
    Detach {
        /// Which session to forget.
        key: u64,
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
    /// Blocks served: refills and admissions' priming fills.
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
    /// The client's lane id, for checkpoints and span names.
    client: u64,
    /// The client's lane seed, for minimal checkpoints.
    seed: u64,
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

    /// Fills all of `block` from the session. A priming fill's block
    /// arrives empty and is sized here; from then on the resize is a no-op.
    fn fill(&mut self, mut block: Vec<u64>) -> Reply {
        block.resize(self.chunk, 0);
        draw(&mut *self.session, &mut block)?;
        Ok(block)
    }

    /// Serves a refill on a work-conserving shard. Returns the reply and
    /// whether it is the spare.
    ///
    /// The first drained block reserves the spare: a fixed point after
    /// admission, so neither admission nor idle time allocates. A spare
    /// holding words is finished and swapped for the drained block, which
    /// becomes the next spare; an empty spare leaves the drained block to
    /// be filled directly.
    fn refill_ahead(&mut self, mut block: Vec<u64>, refill: u64) -> (Reply, bool) {
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

/// Builds (and, on resume, fast-forwards) one client session from its
/// lane seed. A resume state has passed the pool's seed-lattice and
/// lane-count checks, or the client built it from its own counters.
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
    prefetch_words: usize,
    seed: u64,
    resume: Option<&StreamState>,
) -> Result<(Box<dyn OnDemandRng + Send>, usize), HprngError> {
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

/// A shard worker's sessions and what serving them needs.
struct Worker {
    shard: usize,
    metrics: Arc<ShardMetrics>,
    obs: Option<Arc<ShardObs>>,
    /// Hosted sessions, keyed by attachment.
    slots: HashMap<u64, ClientSlot>,
    /// Blocks served, priming fills included, for the 1-in-N worker span
    /// sampling gate and the clients' `refilled_at` stamps.
    served_refills: u64,
    /// Whether idle time fills each client's next block ahead of demand.
    fills_ahead: bool,
    /// Words idle time fills between two polls of the request ring.
    piece: usize,
    /// The client whose spare idle time is filling (see `fill_ahead`).
    filling: Option<u64>,
}

impl Worker {
    /// Fills one piece of the spare of the least recently refilled client
    /// whose spare is not full; `false` when every spare is full.
    /// `filling` keeps that client between pieces: a client starts to want
    /// a fill only when it is refilled, which makes it the most recently
    /// refilled, so the choice stands until the chosen client is refilled
    /// (which clears `filling`), detached, or full.
    fn fill_ahead(&mut self) -> bool {
        let slots = &mut self.slots;
        self.filling = self
            .filling
            .filter(|id| slots.get(id).and_then(ClientSlot::spare_to_fill).is_some())
            .or_else(|| {
                slots
                    .iter()
                    .filter_map(|(&id, slot)| Some((id, slot.spare_to_fill()?.refilled_at)))
                    .min_by_key(|&(_, refilled_at)| refilled_at)
                    .map(|(id, _)| id)
            });
        let Some(slot) = self.filling.and_then(|id| slots.get_mut(&id)) else {
            return false;
        };
        let Some(spare) = slot.spare.as_deref_mut() else {
            return false;
        };
        let words = spare.fill(&mut *slot.session, self.piece);
        if let Some(o) = &self.obs {
            o.ahead_words.add(words as u64);
        }
        true
    }

    /// Fills one block for session `key` and sends it on the client's
    /// reply ring: a `Refill`'s drained block, or (`prime`) an empty one
    /// for each of an `Attach`'s two priming fills, which is filled
    /// directly and never becomes the spare.
    fn serve(&mut self, key: u64, block: Vec<u64>, prime: bool) {
        let Some(slot) = self.slots.get_mut(&key) else {
            return; // detached (or attach failed): drop the block
        };
        // Chaos: a Panic here kills the worker mid-serve (the PoisonGuard
        // in `run` marks the shard during the unwind, and the block in
        // hand unwinds with it); a Stall models a slow session. Filling
        // ahead fires nothing, so the point counts blocks served.
        #[cfg(feature = "chaos")]
        hprng_transport::chaos::act(hprng_transport::chaos::FaultPoint::ShardRefill {
            shard: self.shard,
        });
        self.served_refills += 1;
        let service_start = self.obs.as_ref().map(|o| o.now_ns());
        let (result, from_spare) = if self.fills_ahead && !prime {
            if self.filling == Some(key) {
                self.filling = None;
            }
            slot.refill_ahead(block, self.served_refills)
        } else {
            (slot.fill(block), false)
        };
        let reply = match result {
            Ok(block) => {
                self.metrics.refills.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .words
                    .fetch_add(block.len() as u64, Ordering::Relaxed);
                if let (Some(o), Some(start)) = (&self.obs, service_start) {
                    let end = o.now_ns();
                    o.service_ns.record_ns((end - start).max(0.0) as u64);
                    o.words.add(block.len() as u64);
                    if from_spare {
                        o.spare_refills.add(1);
                    }
                    if self.served_refills.is_multiple_of(o.sample_every) {
                        o.record_span(
                            Stage::Generate,
                            &format!("shard{} refill c{}", self.shard, slot.client),
                            start,
                            end,
                        );
                    }
                }
                Ok(block)
            }
            Err(e) => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        };
        if slot.reply.send(reply).is_err() {
            // Client dropped its receiver without detaching; the
            // undelivered block is dropped with the reply, and its spare
            // with the slot.
            self.detach(key);
        }
    }

    fn detach(&mut self, key: u64) {
        if self.slots.remove(&key).is_some() {
            self.metrics.clients.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The worker loop. Runs on its own thread until [`Request::Shutdown`]
/// arrives or every request sender is gone.
pub(crate) fn run(
    shard: usize,
    kind: SessionKind,
    prefetch_words: usize,
    metrics: Arc<ShardMetrics>,
    obs: Option<Arc<ShardObs>>,
    rx: RingReceiver<Request>,
) {
    // Mirrors the pipeline ring's poisoning discipline: a dead worker is
    // observable state, not a silent hang.
    let guard = PoisonGuard::arm(metrics.poisoned.clone());
    let lanes = kind.lanes().max(1);
    let mut worker = Worker {
        shard,
        metrics,
        obs,
        slots: HashMap::new(),
        served_refills: 0,
        // Work-conserving: while the ring is empty, fill each client's
        // next block ahead of demand. Only the kinds the pool builds
        // itself do: their streams are a pure function of the lane seed,
        // and nothing else observes their calls. A `Custom` session may
        // count, time or fail its calls on purpose, so it is called only
        // when a block is asked for.
        fills_ahead: !matches!(kind, SessionKind::Custom { .. }),
        piece: AHEAD_PIECE_WORDS.div_ceil(lanes) * lanes,
        filling: None,
    };

    loop {
        // Queued requests first, in arrival order; idle time fills spares
        // in pieces, polling the ring between them; block once every spare
        // is full (a `Custom` shard blocks at once).
        let polled = if worker.fills_ahead {
            rx.try_recv()
        } else {
            None
        };
        let request = match polled {
            Some(request) => request,
            None if worker.fills_ahead && worker.fill_ahead() => continue,
            None => match rx.recv() {
                Some(request) => request,
                None => break,
            },
        };
        // One enqueue-wait sample per `Attach` or `Refill`, at dequeue.
        if let (
            Some(o),
            Request::Attach { enqueued_ns, .. } | Request::Refill { enqueued_ns, .. },
        ) = (&worker.obs, &request)
        {
            if !enqueued_ns.is_nan() {
                let wait = (o.now_ns() - enqueued_ns).max(0.0);
                o.enqueue_wait_ns.record_ns(wait as u64);
            }
        }
        match request {
            Request::Attach {
                key,
                client,
                seed,
                reply,
                resume,
                ..
            } => {
                match build_session(&kind, prefetch_words, seed, resume.as_deref()) {
                    Ok((session, chunk)) => {
                        worker.slots.insert(
                            key,
                            ClientSlot {
                                client,
                                seed,
                                session,
                                reply,
                                chunk,
                                spare: None,
                            },
                        );
                        worker.metrics.clients.fetch_add(1, Ordering::Relaxed);
                        // The double buffer: the client drains one block
                        // while the worker refills the other.
                        for _ in 0..2 {
                            worker.serve(key, Vec::new(), true);
                        }
                    }
                    Err(e) => {
                        // The client learns on its first receive; nothing
                        // is attached.
                        let _ = reply.send(Err(e));
                    }
                }
            }
            Request::Checkpoint { key, reply } => {
                let response = match worker.slots.get_mut(&key) {
                    Some(slot) => match slot.session.try_checkpoint() {
                        Ok(mut state) => {
                            // Sessions do not know their pool identity;
                            // the worker stamps it so the state is
                            // directly resumable via the pool.
                            state.id = slot.client;
                            Ok(state)
                        }
                        // A session without rich state is still resumable
                        // by replay: counters alone are a valid
                        // (minimal) checkpoint.
                        Err(HprngError::CheckpointUnsupported { .. }) => Ok(StreamState::minimal(
                            slot.session.label(),
                            slot.client,
                            slot.seed,
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
            Request::Refill { key, block, .. } => worker.serve(key, block, false),
            Request::Detach { key } => worker.detach(key),
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
            client: 0,
            seed: 0,
            session,
            reply,
            chunk,
            spare: None,
        }
    }

    /// A work-conserving worker filling `piece` words at a time.
    fn worker(piece: usize) -> Worker {
        Worker {
            shard: 0,
            metrics: Arc::default(),
            obs: None,
            slots: HashMap::new(),
            served_refills: 0,
            fills_ahead: true,
            piece,
            filling: None,
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

        // Priming fills are filled directly and reserve nothing.
        for _ in 0..2 {
            assert_eq!(slot.fill(Vec::new()).unwrap(), next_block());
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
        let mut worker = worker(CHUNK / 2);
        for (id, refill) in [(7u64, 9u64), (3, 4), (5, 6)] {
            let mut slot = slot(Box::new(ExpanderWalkRng::from_seed_u64(id)), CHUNK);
            // A drained block reserves an empty spare, stamped `refill`.
            assert!(slot.refill_ahead(vec![0; CHUNK], refill).0.is_ok());
            worker.slots.insert(id, slot);
        }
        let mut order = Vec::new();
        while worker.fill_ahead() {
            order.extend(worker.filling);
        }
        assert_eq!(order, [3, 3, 5, 5, 7, 7]);
        assert!(worker
            .slots
            .values()
            .all(|slot| spare(slot).filled == CHUNK));
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
        for _ in 0..2 {
            assert!(slot.fill(Vec::new()).is_ok());
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

    /// Admission is one message: an `Attach` alone answers with the
    /// client's two primed blocks, full and in stream order, and nothing
    /// more.
    #[test]
    fn an_attach_alone_primes_two_full_blocks() {
        const CHUNK: usize = 64;
        let (tx, rx) = bounded(4);
        let metrics = Arc::new(ShardMetrics::default());
        let worker = std::thread::spawn({
            let metrics = Arc::clone(&metrics);
            move || run(0, SessionKind::ExpanderWalk, CHUNK, metrics, None, rx)
        });
        let (reply, replies) = bounded(4);
        let attach = Request::Attach {
            key: 0,
            client: 5,
            seed: 9,
            reply,
            resume: None,
            enqueued_ns: f64::NAN,
        };
        assert!(tx.send(attach).is_ok());
        assert!(tx.send(Request::Shutdown).is_ok());
        worker.join().expect("the worker exits cleanly");

        let mut golden = ExpanderWalkRng::from_seed_u64(9);
        for _ in 0..2 {
            let block = replies.recv().expect("a primed block").unwrap();
            let want: Vec<u64> = (0..CHUNK).map(|_| golden.get_next_rand()).collect();
            assert_eq!(block, want);
        }
        assert!(replies.recv().is_none(), "a third block was sent");
        assert_eq!(metrics.refills.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.words.load(Ordering::Relaxed), 2 * CHUNK as u64);
    }
}
