//! The client handle: a double-buffered, allocation-free view of one
//! deterministic lane of the pool.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hprng_core::{HprngError, OnDemandRng, StreamState};
use hprng_telemetry::{Stage, WordTap};
use hprng_transport::bounded;

use crate::pool::{PoolShared, Rails};
use crate::shard::{Reply, Request, StateReply};

/// One consumer's handle onto the pool: lane `id` of the pool's seed.
///
/// The stream this handle serves is a pure function of the pool seed, the
/// session kind, and `id` — never of the shard count, the shard the
/// client landed on, or how other clients interleave. The client owns two
/// prefetch blocks: it drains one while its shard refills the other, and
/// each drained block rides back to the shard with the next refill
/// request, so the hot path ([`PoolClient::try_next_u64`],
/// [`PoolClient::fill_words`]) is a slice copy with no allocation. A
/// shard with nothing queued fills the client's next block ahead of
/// demand and answers the next refill with it.
pub struct PoolClient {
    id: u64,
    lanes: usize,
    /// `lane_seed(pool_seed, id)` — the seed the shard-side session is a
    /// pure function of, carried in every checkpoint this client emits.
    lane_seed: u64,
    /// The serving shard (index, request sender and instruments) and this
    /// client's reply receiver from it.
    rails: Rails,
    front: Vec<u64>,
    pos: usize,
    failed: Option<HprngError>,
    /// Words delivered to the consumer. It advances as a request copies
    /// words out, because a failover checkpoints mid-request and must
    /// resume after the words already copied; a failed request rolls it
    /// back, so [`PoolClient::checkpoint`] sits at the last completed
    /// request and a resume re-serves the words the failed request copied.
    served: u64,
    /// Requests issued through [`PoolClient::fill_words`], for the
    /// 1-in-N span sampling gate.
    requests: u64,
    tap: Option<Box<dyn WordTap>>,
    /// The pool-wide serving fabric: shard senders and metrics for
    /// reattachment, the failover setting, the shutdown flag, plus the
    /// claimed-id registry released on drop.
    shared: Arc<PoolShared>,
    /// Words to skip from the first front block installed after a resume:
    /// the `session_words % lanes` remainder the shard cannot
    /// fast-forward, because it only replays whole lane-width rounds.
    resume_skip: usize,
}

impl PoolClient {
    pub(crate) fn new(
        id: u64,
        lanes: usize,
        lane_seed: u64,
        rails: Rails,
        shared: Arc<PoolShared>,
    ) -> Self {
        Self {
            id,
            lanes,
            lane_seed,
            rails,
            front: Vec::new(),
            pos: 0,
            failed: None,
            served: 0,
            requests: 0,
            tap: None,
            shared,
            resume_skip: 0,
        }
    }

    /// Sets the client onto a state its new session was resumed from, at
    /// admission and on reattach: the served counter resumes where the
    /// state left off, and the first installed block skips the sub-round
    /// remainder the shard could not fast-forward.
    pub(crate) fn resume(&mut self, state: &StreamState) {
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
        self.rails.shard
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
    /// to three blocks: the rest of the front block, the block in flight,
    /// and the spare the shard filled ahead — and, for providers with
    /// rich state (expander walks, engines), carries the exact walk
    /// vertices and feed cursors for an O(cursor) restore.
    pub fn session_checkpoint(&mut self) -> Result<StreamState, HprngError> {
        let (reply_tx, reply_rx) = bounded::<StateReply>(1);
        self.rails
            .tx
            .send(Request::Checkpoint {
                key: self.rails.key,
                reply: reply_tx,
            })
            .map_err(|_| self.shared.disconnected(self.rails.shard))?;
        match reply_rx.recv() {
            Some(result) => result,
            None => Err(self.shared.disconnected(self.rails.shard)),
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
        if target == self.rails.shard {
            return Ok(());
        }
        let old = self.reattach(target, 1)?;
        // Graceful: free the old session. The old worker may still be
        // filling owed refills; their reply sends fail (the old reply
        // receiver is gone) and the worker drops those blocks.
        let _ = old.tx.send(Request::Detach { key: old.key });
        self.shared.migrations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Checkpoints the stream from the acked counters, attaches a resumed
    /// session on the first of the `tries` shards of the ring from
    /// `first` that takes it, and swaps this client's serving rails over
    /// to it, returning the old rails. On error the client is untouched
    /// and keeps serving from its current shard.
    fn reattach(&mut self, first: usize, tries: usize) -> Result<Rails, HprngError> {
        let state = self.checkpoint();
        let rails = self
            .shared
            .attach(self.id, self.lane_seed, first, tries, Some(&state))?;
        // Point of no return: drop the front (the resumed session
        // regenerates its words; the new shard primed two fresh blocks)
        // and swap the rails.
        self.front = Vec::new();
        self.pos = 0;
        self.resume(&state);
        Ok(std::mem::replace(&mut self.rails, rails))
    }

    /// The automatic failover path: on a poisoned-shard disconnect,
    /// reattach on the ring from the next shard. Returns `true` when the
    /// stream was re-established (the caller retries its receive on the
    /// new shard).
    fn try_failover(&mut self) -> bool {
        if !self.shared.failover || self.shared.shutdown.is_requested() {
            return false;
        }
        let shards = self.shared.txs.len();
        if self.reattach(self.rails.shard + 1, shards).is_err() {
            return false;
        }
        self.shared.failovers.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The next word of this client's stream. Allocation-free: served
    /// from the front prefetch block, which the shard refills in place
    /// or trades for a block it filled ahead.
    pub fn try_next_u64(&mut self) -> Result<u64, HprngError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if self.pos < self.front.len() {
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
    /// A request returns its lane's words or fails for good: on `Err`,
    /// `out` must be treated as unwritten and every later request returns
    /// the same error. A failed request consumes no words of the stream:
    /// [`PoolClient::checkpoint`] still sits at the last completed
    /// request, so a client resumed from it re-serves the words the failed
    /// request copied.
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
        let trace = match &self.rails.obs {
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
                wait_ns += o.now_ns() - t0;
                r
            } else {
                self.acquire()
            };
            if let Err(e) = acquired {
                // The caller treats `out` as unwritten, so the words this
                // request copied were never delivered: roll `served` back
                // to the last completed request.
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
            // Send the drained front back with a refill request: the shard
            // overwrites it and returns it on the reply ring. The initial
            // placeholder (capacity 0: the attach primed two blocks) is not
            // a block and requests nothing. On a
            // failover retry the front is already that placeholder, so
            // nothing is requested twice.
            let block = std::mem::take(&mut self.front);
            self.pos = 0;
            if block.capacity() > 0 {
                // A failed send (the shard is gone) is not failed here:
                // that would skip failover entirely (and drop any
                // still-buffered replies). The receive below drains what
                // is left, classifies the disconnect, and reattaches when
                // failover is enabled — reattachment re-primes the
                // prefetch, so the refill is never missed.
                let _ = self.rails.tx.send(Request::Refill {
                    key: self.rails.key,
                    block,
                    enqueued_ns: self.rails.obs.as_ref().map_or(f64::NAN, |o| o.now_ns()),
                });
            }
            match self.rails.rx.recv() {
                Some(reply) => return self.install(reply),
                None => {
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

    fn fail(&mut self, e: HprngError) -> HprngError {
        self.failed = Some(e.clone());
        e
    }

    fn fail_disconnected(&mut self) -> HprngError {
        let e = self.shared.disconnected(self.rails.shard);
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

    /// The infallible paper-shaped call. A slow shard costs latency,
    /// never the process: the request waits for its lane's word. Only
    /// stream failures (pool shut down, shard poisoned with no failover,
    /// session error) panic — callers that need those as values use
    /// [`PoolClient::try_next_u64`].
    fn get_next_rand(&mut self) -> u64 {
        match self.try_next_u64() {
            Ok(word) => word,
            Err(e) => panic!("pool client stream failed irrecoverably: {e}"),
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
        // Best-effort: free the shard-side session. A dead shard returns
        // an error we ignore; a full queue drains because the worker
        // always makes progress.
        let _ = self.rails.tx.send(Request::Detach {
            key: self.rails.key,
        });
        // Release the id claim so churned clients do not leak lane
        // indices out of the auto-assignment space forever.
        self.shared.release(self.id);
    }
}

impl std::fmt::Debug for PoolClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolClient")
            .field("id", &self.id)
            .field("shard", &self.rails.shard)
            .field("lanes", &self.lanes)
            .field("served", &self.served)
            .finish_non_exhaustive()
    }
}
