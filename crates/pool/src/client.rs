//! The client handle: a double-buffered, allocation-free view of one
//! deterministic lane of the pool.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hprng_core::{HprngError, OnDemandRng, StreamState};
use hprng_telemetry::{Stage, WordTap};
use hprng_transport::{
    bounded, BlockPool, Disconnect, RecvTimeoutError, RingReceiver, RingSender, ShutdownFlag,
};

use crate::config::FullPolicy;
use crate::obs::ShardObs;
use crate::pool::PoolShared;
use crate::shard::{Reply, Request, StateReply};

/// One consumer's handle onto the pool: lane `id` of the pool's seed.
///
/// The stream this handle serves is a pure function of the pool seed, the
/// session kind, and `id` — never of the shard count, the shard the
/// client landed on, or how other clients interleave. Prefetch blocks
/// circulate between the client and its shard through the shard's
/// [`BlockPool`] arena, so the hot path ([`PoolClient::try_next_u64`],
/// [`PoolClient::fill_words`]) is a slice copy with no allocation:
/// drained blocks go back to the arena and refills are checked out of it
/// shard-side.
pub struct PoolClient {
    id: u64,
    shard: usize,
    lanes: usize,
    /// `lane_seed(pool_seed, id)` — the seed the shard-side session is a
    /// pure function of, carried in every checkpoint this client emits.
    lane_seed: u64,
    policy: FullPolicy,
    tx: RingSender<Request>,
    rx: RingReceiver<Reply>,
    /// The shard's block arena: drained front blocks and the drained
    /// replay stash are given back here instead of to the allocator.
    blocks: Arc<BlockPool>,
    front: Vec<u64>,
    pos: usize,
    /// Refill requests owed to the shard but not yet enqueued (the ring
    /// was full under [`FullPolicy::TryFor`]). At most two are ever owed.
    pending_refills: usize,
    /// Words copied out by a request that then failed mid-way (a
    /// [`FullPolicy::TryFor`] stall across a refill boundary). Their
    /// source block may already be recycled, so they are staged here and
    /// re-served before the front block — a failed request therefore
    /// never drops words from the stream. The stash is an arena checkout,
    /// returned (and thereby capped/shrunk) as soon as it drains, so a
    /// large failed request cannot pin its peak capacity.
    replay: Vec<u64>,
    replay_pos: usize,
    failed: Option<HprngError>,
    /// Words delivered to the consumer. It advances as a request copies
    /// words out, because a failover checkpoints mid-request and must
    /// resume after the words already copied; a failed request rolls it
    /// back, so words staged for replay are counted once, when re-served.
    served: u64,
    /// Requests issued through [`PoolClient::fill_words`], for the
    /// 1-in-N span sampling gate.
    requests: u64,
    tap: Option<Box<dyn WordTap>>,
    shutdown: ShutdownFlag,
    obs: Option<Arc<ShardObs>>,
    /// The pool-wide serving fabric: shard senders, arenas, and metrics
    /// for reattachment, plus the claimed-id registry released on drop.
    shared: Arc<PoolShared>,
    /// Automatic reattach-on-poison, from [`crate::PoolBuilder::failover`].
    failover_enabled: bool,
    /// Words to skip from the first front block installed after a resume:
    /// the `session_words % lanes` remainder the shard cannot
    /// fast-forward, because it only replays whole lane-width rounds.
    resume_skip: usize,
}

impl PoolClient {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: u64,
        shard: usize,
        lanes: usize,
        lane_seed: u64,
        policy: FullPolicy,
        tx: RingSender<Request>,
        rx: RingReceiver<Reply>,
        shared: Arc<PoolShared>,
        failover_enabled: bool,
    ) -> Self {
        Self {
            id,
            shard,
            lanes,
            lane_seed,
            policy,
            tx,
            rx,
            blocks: Arc::clone(&shared.arenas[shard]),
            front: Vec::new(),
            pos: 0,
            pending_refills: 0,
            replay: Vec::new(),
            replay_pos: 0,
            failed: None,
            served: 0,
            requests: 0,
            tap: None,
            shutdown: shared.shutdown.clone(),
            obs: shared.obs.as_ref().map(|o| Arc::clone(&o.shards[shard])),
            shared,
            failover_enabled,
            resume_skip: 0,
        }
    }

    /// Primes a freshly admitted client onto a checkpointed state: the
    /// served counter resumes where the checkpoint left off, and the
    /// first installed block skips the sub-round remainder the shard
    /// could not fast-forward.
    pub(crate) fn prime_from_state(&mut self, state: &StreamState) {
        self.served = state.session_words;
        self.resume_skip = (state.session_words % self.lanes as u64) as usize;
    }

    /// The client's lane index (the `index` of
    /// [`hprng_core::seeding::lane_seed`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shard serving this client. Informational only — it never
    /// affects the stream.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// True once the stream has failed permanently (the error every
    /// subsequent request returns).
    pub fn has_failed(&self) -> bool {
        self.failed.is_some()
    }

    /// The client's consumer-exact resumable identity, built from its own
    /// acked counters — no shard round-trip, so it works even while (or
    /// after) the serving shard dies. This is the state the automatic
    /// failover path reattaches with, and the one to persist (via
    /// [`StreamState::to_json`]) for [`crate::Pool::try_client_resumed`].
    ///
    /// The state is *minimal*: it records how many words were consumed,
    /// and the restore side reconstructs the position by fast-forwarding
    /// a fresh session. Words sitting in not-yet-consumed prefetch blocks
    /// are deliberately not part of the stream yet and are regenerated on
    /// resume.
    pub fn checkpoint(&self) -> StreamState {
        StreamState::minimal("pool", self.id, self.lane_seed, self.lanes, self.served)
    }

    /// Asks the serving shard for the session's own checkpoint (one
    /// request/reply round-trip to the shard worker). Unlike
    /// [`PoolClient::checkpoint`], the returned state sits at the words
    /// the session *produced* — ahead of this client's consumption by up
    /// to the in-flight prefetch — and, for providers with rich state
    /// (expander walks, engines), carries the exact walk vertices and
    /// feed cursors for an O(cursor) restore.
    pub fn session_checkpoint(&mut self) -> Result<StreamState, HprngError> {
        let disconnected = |client: &Self| match client.shutdown.classify_disconnect() {
            Disconnect::Shutdown => HprngError::PoolShutdown,
            Disconnect::Poisoned => HprngError::ShardPoisoned {
                shard: client.shard,
            },
        };
        let (reply_tx, reply_rx) = bounded::<StateReply>(1);
        self.tx
            .send(Request::Checkpoint {
                client: self.id,
                reply: reply_tx,
            })
            .map_err(|_| disconnected(self))?;
        match reply_rx.recv() {
            Some(result) => result,
            None => Err(disconnected(self)),
        }
    }

    /// Moves this client onto shard `target`, live: checkpoints the
    /// stream from the acked counters, attaches a resumed session on the
    /// target shard, detaches from the old one, and swaps the serving
    /// rails. The stream continues bit-identically — undelivered
    /// prefetched words are regenerated by the resumed session.
    ///
    /// A no-op when the client already sits on `target`.
    pub fn migrate_to(&mut self, target: usize) -> Result<(), HprngError> {
        if target >= self.shared.txs.len() {
            return Err(HprngError::InvalidParam {
                field: "shard",
                reason: "no such shard in this pool",
            });
        }
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if target == self.shard {
            return Ok(());
        }
        let state = self.checkpoint();
        let old_tx = self.tx.clone();
        self.reattach(target, &state)?;
        // Graceful: free the old session. The old worker may still be
        // filling owed refills; their reply sends fail (the old reply
        // receiver is gone) and the worker recycles those blocks itself.
        let _ = old_tx.send(Request::Detach { client: self.id });
        self.shared.migrations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Attaches a resumed session on shard `target` and swaps this
    /// client's serving rails over to it. On error the client is
    /// untouched and keeps serving from its current shard.
    fn reattach(&mut self, target: usize, state: &StreamState) -> Result<(), HprngError> {
        let tx = self.shared.txs[target].clone();
        let obs = self
            .shared
            .obs
            .as_ref()
            .map(|o| Arc::clone(&o.shards[target]));
        let (reply_tx, reply_rx) = bounded::<Reply>(2);
        let unavailable = HprngError::ShardPoisoned { shard: target };
        tx.send(Request::Attach {
            client: self.id,
            reply: reply_tx,
            resume: Some(Box::new(state.clone())),
        })
        .map_err(|_| unavailable.clone())?;
        for _ in 0..2 {
            if tx
                .send(Request::Refill {
                    client: self.id,
                    enqueued_ns: obs.as_ref().map_or(f64::NAN, |o| o.now_ns()),
                })
                .is_err()
            {
                // Half-admitted: the target accepted the attach but died
                // before the prefetch was primed. Free the orphan session
                // best-effort and stay on the current shard.
                let _ = tx.send(Request::Detach { client: self.id });
                return Err(unavailable);
            }
        }
        // Point of no return: drop the local buffers (the resumed session
        // regenerates their words) and swap every per-shard rail.
        let front = std::mem::take(&mut self.front);
        if front.capacity() > 0 {
            self.blocks.give_back(front);
        }
        let replay = std::mem::take(&mut self.replay);
        if replay.capacity() > 0 {
            self.blocks.give_back(replay);
        }
        self.pos = 0;
        self.replay_pos = 0;
        self.pending_refills = 0;
        self.shard = target;
        self.tx = tx;
        self.rx = reply_rx;
        self.blocks = Arc::clone(&self.shared.arenas[target]);
        self.obs = obs;
        self.resume_skip = (state.session_words % self.lanes as u64) as usize;
        Ok(())
    }

    /// The automatic failover path: on a poisoned-shard disconnect,
    /// checkpoint from the acked counters and reattach to the next
    /// healthy shard. Returns `true` when the stream was re-established
    /// (the caller retries its receive on the new shard).
    fn try_failover(&mut self) -> bool {
        if !self.failover_enabled
            || matches!(self.shutdown.classify_disconnect(), Disconnect::Shutdown)
        {
            return false;
        }
        let state = self.checkpoint();
        let shards = self.shared.txs.len();
        for offset in 1..=shards {
            let target = (self.shard + offset) % shards;
            if self.shared.metrics[target].poisoned.is_poisoned() {
                continue;
            }
            if self.reattach(target, &state).is_ok() {
                self.shared.failovers.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// The next word of this client's stream. Allocation-free: served
    /// from the prefetch cache, which refills through arena blocks.
    pub fn try_next_u64(&mut self) -> Result<u64, HprngError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if self.replay.is_empty() && self.pos < self.front.len() {
            let word = self.front[self.pos];
            self.pos += 1;
            self.served += 1;
            if let Some(tap) = self.tap.as_mut() {
                tap.observe(std::slice::from_ref(&word));
            }
            return Ok(word);
        }
        let mut one = [0u64];
        self.fill_words(&mut one)?;
        Ok(one[0])
    }

    /// Fills `out` with the next `out.len()` words of this client's
    /// stream. Any length is accepted — the pool re-chunks the session
    /// stream, so unlike raw sessions a client request can exceed the
    /// session's lane width without [`HprngError::BatchTooLarge`].
    ///
    /// On `Err`, `out` must be treated as unwritten: no words of the
    /// stream are consumed by a failed request. Words a
    /// [`FullPolicy::TryFor`] stall caught mid-request are staged
    /// internally and re-served by the next request, so retrying after
    /// [`HprngError::ShardStalled`] resumes the stream without a gap.
    pub fn fill_words(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
        if out.is_empty() {
            return Err(HprngError::EmptyRequest);
        }
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        self.requests += 1;
        // Span sampling gate: 1-in-N requests get timed end-to-end. The
        // name formatting and span push happen only on sampled requests;
        // untraced requests pay two `None` checks.
        let trace = match &self.obs {
            Some(o) if self.requests.is_multiple_of(o.sample_every) => {
                Some((Arc::clone(o), o.now_ns()))
            }
            _ => None,
        };
        // Time spent inside `acquire` (queue + shard waits), subtracted
        // from the request total to isolate the copy phase.
        let mut wait_ns = 0.0f64;
        let served0 = self.served;
        let mut filled = 0;
        while filled < out.len() {
            // Words stranded by an earlier failed request come first —
            // they precede the front block in the stream.
            if self.replay_pos < self.replay.len() {
                let take = (out.len() - filled).min(self.replay.len() - self.replay_pos);
                out[filled..filled + take]
                    .copy_from_slice(&self.replay[self.replay_pos..self.replay_pos + take]);
                self.replay_pos += take;
                filled += take;
                self.served += take as u64;
                if let Some(o) = &self.obs {
                    o.replays.add(1);
                }
                if self.replay_pos == self.replay.len() {
                    // Drained: the stash goes back to the arena, which
                    // caps and shrinks it, so a peak-sized failed request
                    // does not retain its capacity here forever.
                    let stash = std::mem::take(&mut self.replay);
                    if stash.capacity() > 0 {
                        self.blocks.give_back(stash);
                    }
                    self.replay_pos = 0;
                }
                continue;
            }
            if self.pos < self.front.len() {
                let take = (out.len() - filled).min(self.front.len() - self.pos);
                out[filled..filled + take].copy_from_slice(&self.front[self.pos..self.pos + take]);
                self.pos += take;
                filled += take;
                self.served += take as u64;
                continue;
            }
            let acquired = if let Some((o, _)) = &trace {
                let t0 = o.now_ns();
                let r = self.acquire();
                wait_ns += self.obs.as_ref().map_or(0.0, |o| o.now_ns()) - t0;
                r
            } else {
                self.acquire()
            };
            if let Err(e) = acquired {
                // The words already copied came from blocks that may now
                // be recycled; stage them so the next request re-serves
                // them (the caller must treat `out` as unwritten on
                // error). `replay` is empty here — `acquire` is only
                // reached once it has drained.
                if filled > 0 {
                    let mut stash = self.blocks.checkout();
                    stash.extend_from_slice(&out[..filled]);
                    self.replay = stash;
                }
                self.served = served0;
                return Err(e);
            }
        }
        if let Some(tap) = self.tap.as_mut() {
            tap.observe(out);
        }
        if let Some((o, start)) = trace {
            let end = o.now_ns();
            o.refill_copy_ns
                .record_ns((end - start - wait_ns).max(0.0) as u64);
            o.record_span(
                Stage::App,
                &format!("c{} fill#{}", self.id, self.requests),
                start,
                end,
            );
        }
        Ok(())
    }

    /// Obtains a refilled front block after the current front ran dry.
    ///
    /// A loop because failover restarts the receive: when the shard's
    /// disconnect classifies as poisoned and
    /// [`crate::PoolBuilder::failover`] is on, the client reattaches to a
    /// healthy shard and retries there instead of failing.
    fn acquire(&mut self) -> Result<(), HprngError> {
        loop {
            // Return the exhausted front to the arena and owe the shard one
            // refill for it. The initial placeholder (capacity 0; the real
            // blocks start shard-side) is not a block and must not become
            // one. On a failover retry the front is already an empty
            // placeholder, so nothing is double-returned or double-owed.
            let old = std::mem::take(&mut self.front);
            self.pos = 0;
            if old.capacity() > 0 {
                self.blocks.give_back(old);
                self.pending_refills += 1;
            }
            self.flush_pending();
            let received = match self.policy {
                FullPolicy::Block => self.rx.recv().ok_or(RecvTimeoutError::Disconnected),
                FullPolicy::TryFor(patience) => self.rx.recv_timeout(patience),
            };
            match received {
                Ok(reply) => return self.install(reply),
                // The refill stays in flight; the next call retries.
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(o) = &self.obs {
                        o.stalls.add(1);
                    }
                    return Err(HprngError::ShardStalled { shard: self.shard });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    if self.try_failover() {
                        continue;
                    }
                    return Err(self.fail_disconnected());
                }
            }
        }
    }

    fn install(&mut self, reply: Reply) -> Result<(), HprngError> {
        match reply {
            Ok(buf) => {
                self.front = buf;
                self.pos = 0;
                // First block after a resume: skip the sub-round
                // remainder the shard could not fast-forward (blocks are
                // at least one full lane-width round, so one block always
                // covers it).
                if self.resume_skip > 0 {
                    self.pos = self.resume_skip.min(self.front.len());
                    self.resume_skip = 0;
                }
                Ok(())
            }
            // A session error (failed attach or a dead session) is
            // permanent for this client; peers are unaffected.
            Err(e) => Err(self.fail(e)),
        }
    }

    /// Pushes owed refill requests into the shard's request ring.
    /// [`FullPolicy::Block`] waits for space; [`FullPolicy::TryFor`]
    /// leaves what does not fit for the next call.
    fn flush_pending(&mut self) {
        while self.pending_refills > 0 {
            let request = Request::Refill {
                client: self.id,
                enqueued_ns: self.obs.as_ref().map_or(f64::NAN, |o| o.now_ns()),
            };
            let sent = match self.policy {
                FullPolicy::TryFor(_) => self.tx.try_send(request).is_ok(),
                FullPolicy::Block => self.tx.send(request).is_ok(),
            };
            if !sent {
                // A full ring (`TryFor` only) keeps the rest for the next
                // call. A vanished shard is not failed here: that would
                // skip failover entirely (and drop any still-buffered
                // replies). The receive path drains what is left,
                // classifies the disconnect, and reattaches when failover
                // is enabled — reattachment re-primes the prefetch, so
                // the owed refill is never missed.
                return;
            }
            self.pending_refills -= 1;
        }
    }

    fn fail(&mut self, e: HprngError) -> HprngError {
        self.failed = Some(e.clone());
        e
    }

    fn fail_disconnected(&mut self) -> HprngError {
        let e = match self.shutdown.classify_disconnect() {
            Disconnect::Shutdown => HprngError::PoolShutdown,
            Disconnect::Poisoned => HprngError::ShardPoisoned { shard: self.shard },
        };
        self.fail(e)
    }
}

impl OnDemandRng for PoolClient {
    fn label(&self) -> &'static str {
        "pool"
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    /// Unlike raw sessions, `out.len()` may exceed [`PoolClient::lanes`]:
    /// the shard re-chunks the session stream into full-width batches, so
    /// [`HprngError::BatchTooLarge`] never occurs on a pool client.
    fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
        self.fill_words(out)
    }

    /// The infallible paper-shaped call. Retryable conditions are
    /// retried through the configured policy instead of panicking:
    /// [`HprngError::ShardStalled`] (a [`FullPolicy::TryFor`] patience
    /// that elapsed with the refill still in flight) re-enters the wait,
    /// so a slow shard costs latency, never the process. Only genuinely
    /// unrecoverable stream failures (pool shut down, shard poisoned
    /// with no failover, session error) panic — callers that need those
    /// as values use [`PoolClient::try_next_u64`].
    fn get_next_rand(&mut self) -> u64 {
        loop {
            match self.try_next_u64() {
                Ok(word) => return word,
                Err(HprngError::ShardStalled { .. }) => continue,
                Err(e) => panic!("pool client stream failed irrecoverably: {e}"),
            }
        }
    }

    fn words_served(&self) -> u64 {
        self.served
    }

    fn set_tap(&mut self, tap: Box<dyn WordTap>) -> Result<(), Box<dyn WordTap>> {
        self.tap = Some(tap);
        Ok(())
    }

    fn take_tap(&mut self) -> Option<Box<dyn WordTap>> {
        self.tap.take()
    }

    fn try_checkpoint(&mut self) -> Result<hprng_core::StreamState, HprngError> {
        Ok(PoolClient::checkpoint(self))
    }

    /// A pool stream is restored by *admission*, not in place — the
    /// session lives shard-side. Use [`crate::Pool::try_client_resumed`].
    fn try_restore(&mut self, _state: &hprng_core::StreamState) -> Result<(), HprngError> {
        Err(HprngError::RestoreMismatch {
            field: "client",
            reason: "restore a pool stream through Pool::try_client_resumed",
        })
    }
}

impl Drop for PoolClient {
    fn drop(&mut self) {
        // Hand cached blocks back to the arena so a churned client
        // leaves nothing for the allocator.
        let front = std::mem::take(&mut self.front);
        if front.capacity() > 0 {
            self.blocks.give_back(front);
        }
        let replay = std::mem::take(&mut self.replay);
        if replay.capacity() > 0 {
            self.blocks.give_back(replay);
        }
        // Best-effort: free the shard-side session. A dead shard returns
        // an error we ignore; a full queue drains because the worker
        // always makes progress.
        let _ = self.tx.send(Request::Detach { client: self.id });
        // Release the id claim so churned clients do not leak lane
        // indices out of the auto-assignment space forever.
        self.shared.release(self.id);
    }
}

impl std::fmt::Debug for PoolClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolClient")
            .field("id", &self.id)
            .field("shard", &self.shard)
            .field("lanes", &self.lanes)
            .field("served", &self.served)
            .finish_non_exhaustive()
    }
}
