//! The pool: shard workers, client admission, failover/migration
//! plumbing, shutdown, and stats.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use hprng_core::{HprngError, SplitOnDemand, StreamState};
use hprng_telemetry::{Recorder, Registry};
use hprng_transport::{
    bounded, bounded_instrumented, Disconnect, RingReceiver, RingSender, ShutdownFlag,
};

use crate::client::PoolClient;
use crate::config::{PoolBuilder, SessionKind};
use crate::obs::{names, PoolObs, ShardObs};
use crate::shard::{self, Reply, Request, ShardMetrics};

/// One client's serving rails on one shard: its session key there, the
/// shard's request sender, the client's own reply receiver, and the
/// shard's instruments.
pub(crate) struct Rails {
    pub(crate) shard: usize,
    /// The attachment's session key on `shard`.
    pub(crate) key: u64,
    pub(crate) tx: RingSender<Request>,
    pub(crate) rx: RingReceiver<Reply>,
    pub(crate) obs: Option<Arc<ShardObs>>,
}

/// The per-shard serving fabric, shared between the [`Pool`] handle and
/// every live [`PoolClient`]. Clients hold an `Arc` so they can reattach
/// to a different shard (failover, [`Pool::rebalance`]) and release
/// their claimed id on drop without going through the pool handle.
pub(crate) struct PoolShared {
    pub(crate) shutdown: ShutdownFlag,
    pub(crate) txs: Vec<RingSender<Request>>,
    pub(crate) metrics: Vec<Arc<ShardMetrics>>,
    /// Present when [`PoolBuilder::tracing`] enabled request-path
    /// observability.
    pub(crate) obs: Option<PoolObs>,
    /// Live-handle count per claimed id. [`Pool::try_client`] skips any
    /// id with a non-zero count (or one claimed explicitly and still
    /// live), and a client's `Drop` releases its claim — so churned ids
    /// return to the auto-assignment space instead of leaking forever.
    claimed: Mutex<HashMap<u64, usize>>,
    /// The next attachment's session key: every attach gets a fresh one,
    /// so sessions never collide, whatever lane ids clients share.
    next_key: AtomicU64,
    /// Routing around poisoned shards at admission and automatic
    /// reattach-on-poison, from [`PoolBuilder::failover`].
    pub(crate) failover: bool,
    /// Clients that reattached to a healthy shard after a poison.
    pub(crate) failovers: AtomicU64,
    /// Clients moved between live shards by rebalance / migrate_to.
    pub(crate) migrations: AtomicU64,
}

impl PoolShared {
    /// Registers one more live handle on `id`.
    ///
    /// The claimed-id lock is recovered from poisoning rather than
    /// propagated: every mutation of the map is a single panic-safe
    /// `HashMap` operation, so a thread that panicked while holding the
    /// lock (a panicking client `Drop`, an unwinding admission) leaves
    /// the map structurally valid. Propagating the poison instead would
    /// permanently break *all* future admissions on an otherwise healthy
    /// pool — the refcounts stay exact because the increment/decrement
    /// either fully happened or never started.
    pub(crate) fn claim(&self, id: u64) {
        let mut claimed = self.claimed.lock().unwrap_or_else(PoisonError::into_inner);
        #[cfg(feature = "chaos")]
        hprng_transport::chaos::act(hprng_transport::chaos::FaultPoint::ClaimLock);
        *claimed.entry(id).or_insert(0) += 1;
    }

    /// Releases one live handle on `id`; the id becomes auto-assignable
    /// again once the last handle is gone. Recovers a poisoned lock like
    /// [`PoolShared::claim`].
    pub(crate) fn release(&self, id: u64) {
        // No chaos hook here: release runs inside `PoolClient::drop`,
        // where an injected panic during an unwind would abort the
        // process instead of testing anything.
        let mut claimed = self.claimed.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(count) = claimed.get_mut(&id) {
            *count -= 1;
            if *count == 0 {
                claimed.remove(&id);
            }
        }
    }

    fn is_claimed(&self, id: u64) -> bool {
        self.claimed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&id)
    }

    /// Ids currently claimed by at least one live handle.
    pub(crate) fn live_claims(&self) -> usize {
        self.claimed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Attaches lane `id` (lane seed `seed`), resumed onto `resume` when
    /// given, on the first of the `tries` shards of the ring that starts
    /// at shard `first` that takes it. A shard flagged poisoned is
    /// skipped, and so is one whose ring reports
    /// [`HprngError::ShardPoisoned`] on the send (it died after the
    /// check); any other error returns at once.
    ///
    /// Admission is the one `Attach` message: the shard answers it with
    /// the client's two primed blocks, so the shard fills one while the
    /// client drains the other, and from then on the client sends each
    /// drained block back with its next refill.
    pub(crate) fn attach(
        &self,
        id: u64,
        seed: u64,
        first: usize,
        tries: usize,
        resume: Option<&StreamState>,
    ) -> Result<Rails, HprngError> {
        let shards = self.txs.len();
        let mut last = HprngError::ShardPoisoned {
            shard: first % shards,
        };
        for shard in (first..first + tries).map(|s| s % shards) {
            if self.metrics[shard].poisoned.is_poisoned() {
                last = HprngError::ShardPoisoned { shard };
                continue;
            }
            let key = self.next_key.fetch_add(1, Ordering::Relaxed);
            let tx = self.txs[shard].clone();
            let obs = self.obs.as_ref().map(|o| Arc::clone(&o.shards[shard]));
            let (reply, rx) = bounded::<Reply>(2);
            let attach = Request::Attach {
                key,
                client: id,
                seed,
                reply,
                resume: resume.map(|state| Box::new(state.clone())),
                enqueued_ns: obs.as_ref().map_or(f64::NAN, |o| o.now_ns()),
            };
            if tx.send(attach).is_ok() {
                return Ok(Rails {
                    shard,
                    key,
                    tx,
                    rx,
                    obs,
                });
            }
            match self.disconnected(shard) {
                e @ HprngError::ShardPoisoned { .. } => last = e,
                e => return Err(e),
            }
        }
        Err(last)
    }

    /// What a disconnected ring to `shard` means: an orderly
    /// [`HprngError::PoolShutdown`] once the pool's shutdown flag is up,
    /// otherwise [`HprngError::ShardPoisoned`].
    pub(crate) fn disconnected(&self, shard: usize) -> HprngError {
        match self.shutdown.classify_disconnect() {
            Disconnect::Shutdown => HprngError::PoolShutdown,
            Disconnect::Poisoned => HprngError::ShardPoisoned { shard },
        }
    }
}

/// A sharded randomness pool: `shards` worker threads serving any number
/// of concurrent [`PoolClient`] handles.
///
/// Each client is a deterministic *lane* of the pool seed: its session is
/// built shard-side from
/// [`hprng_core::seeding::lane_seed`]`(seed, client_id)`, so the stream a
/// client observes is bit-reproducible across shard counts, shard
/// assignments, and interleavings with other clients. Shards only decide
/// *who serves whom* (clients are assigned `id % shards`), never *what is
/// served*.
///
/// Because streams are pure functions of their lane seed, a client is
/// *portable*: its resumable identity is a tiny
/// [`hprng_core::StreamState`] that can be captured
/// ([`PoolClient::checkpoint`]), serialized to JSON, and re-admitted on
/// any pool with the same seed and session kind
/// ([`Pool::try_client_resumed`]) — including a pool with a different
/// shard count. The same mechanism powers automatic failover off a
/// poisoned shard ([`PoolBuilder::failover`]) and live migration between
/// shards ([`Pool::rebalance`]).
///
/// The serving path is built on [`hprng_transport`]: each shard's request
/// queue is a bounded [`hprng_transport::BlockRing`] (MPSC — clients
/// clone the sender), each client's two prefetch blocks travel to its
/// shard with a refill request and back with the reply, and shutdown
/// follows the [`ShutdownFlag`]-before-close protocol so disconnects
/// classify as [`HprngError::PoolShutdown`] vs
/// [`HprngError::ShardPoisoned`].
///
/// The pool implements [`SplitOnDemand`], so the parallel applications
/// (photon migration's per-chunk lanes) run on it unchanged.
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    seed: u64,
    kind: SessionKind,
    prefetch_words: usize,
}

impl Pool {
    /// Starts configuring a pool over `seed`.
    pub fn builder(seed: u64) -> PoolBuilder {
        PoolBuilder::new(seed)
    }

    pub(crate) fn spawn(builder: PoolBuilder, shards: usize) -> Self {
        let shutdown = ShutdownFlag::new();
        let obs = builder.trace_sample_every.map(|n| PoolObs::new(shards, n));
        let mut txs = Vec::with_capacity(shards);
        let mut metrics = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for index in 0..shards {
            // The request ring is the backpressure surface; when tracing
            // is on it updates the shard's queue-depth/occupancy gauges
            // exactly, inside the ring lock.
            let (tx, rx) = match &obs {
                Some(o) => {
                    bounded_instrumented(builder.queue_depth, o.shards[index].ring_instruments())
                }
                None => bounded(builder.queue_depth),
            };
            let shard_metrics = Arc::new(ShardMetrics::default());
            let kind = builder.kind.clone();
            let prefetch = builder.prefetch_words;
            let worker_metrics = Arc::clone(&shard_metrics);
            let worker_obs = obs.as_ref().map(|o| Arc::clone(&o.shards[index]));
            let handle = std::thread::Builder::new()
                .name(format!("hprng-pool-shard-{index}"))
                .spawn(move || shard::run(index, kind, prefetch, worker_metrics, worker_obs, rx))
                .expect("spawning a pool shard worker thread");
            txs.push(tx);
            metrics.push(shard_metrics);
            handles.push(handle);
        }
        Self {
            shared: Arc::new(PoolShared {
                shutdown,
                txs,
                metrics,
                obs,
                claimed: Mutex::new(HashMap::new()),
                next_key: AtomicU64::new(0),
                failover: builder.failover,
                failovers: AtomicU64::new(0),
                migrations: AtomicU64::new(0),
            }),
            handles,
            next_id: AtomicU64::new(0),
            seed: builder.seed,
            kind: builder.kind,
            prefetch_words: builder.prefetch_words,
        }
    }

    /// The pool's master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.shared.txs.len()
    }

    /// Admits a new client on the next unused lane index (0, 1, 2, …),
    /// skipping any index currently claimed through
    /// [`Pool::try_client_with_id`] or [`SplitOnDemand::lane`] — mixing
    /// auto-assigned and explicit ids never silently duplicates a live
    /// lane. Dropping a client releases its id.
    ///
    /// Fails with [`HprngError::ShardPoisoned`] (or
    /// [`HprngError::PoolShutdown`]) when the lane's shard cannot accept
    /// the attachment.
    pub fn try_client(&self) -> Result<PoolClient, HprngError> {
        let id = loop {
            let candidate = self.next_id.fetch_add(1, Ordering::Relaxed);
            if !self.shared.is_claimed(candidate) {
                break candidate;
            }
        };
        self.try_client_with_id(id)
    }

    /// Admits a client on an explicit lane index. The stream for a given
    /// `(seed, id)` pair is always the same; two live clients that
    /// deliberately share an id each get their own session (sessions are
    /// keyed by attachment, never by id) and therefore observe identical
    /// streams. Ids used here are claimed while any holder is alive, so
    /// [`Pool::try_client`] never auto-assigns them.
    ///
    /// With [`crate::PoolBuilder::failover`] enabled, admission routes
    /// around poisoned shards the same way live clients do — a lane whose
    /// home shard has died lands on the next healthy one (the stream is
    /// shard-agnostic, so nothing else changes). Without the opt-in, the
    /// home shard is authoritative and a poisoned one fails the
    /// admission.
    pub fn try_client_with_id(&self, id: u64) -> Result<PoolClient, HprngError> {
        let shards = self.shards();
        let home = (id % shards as u64) as usize;
        let tries = if self.shared.failover { shards } else { 1 };
        self.admit(id, home, tries, None)
    }

    /// Re-admits a client from a checkpointed [`StreamState`] — captured
    /// by [`PoolClient::checkpoint`] (consumer-exact) or restored from
    /// its JSON serialization — and resumes its stream bit-identically
    /// where the checkpoint left off.
    ///
    /// The state must belong to this pool's seed lattice
    /// (`state.seed == lane_seed(pool_seed, state.id)`) and match the
    /// session kind's lane count; the shard count may differ freely. The
    /// client lands on its home shard (`id % shards`) unless that shard
    /// is poisoned, in which case the next healthy shard takes it.
    pub fn try_client_resumed(&self, state: &StreamState) -> Result<PoolClient, HprngError> {
        let shards = self.shards();
        let home = (state.id % shards as u64) as usize;
        self.admit(state.id, home, shards, Some(state))
    }

    /// [`Pool::try_client_resumed`] pinned onto an explicit shard —
    /// restores are shard-agnostic, so any live shard can take the
    /// stream.
    pub fn try_client_resumed_on(
        &self,
        state: &StreamState,
        shard: usize,
    ) -> Result<PoolClient, HprngError> {
        if shard >= self.shards() {
            return Err(HprngError::InvalidParam {
                field: "shard",
                reason: "no such shard in this pool",
            });
        }
        self.admit(state.id, shard, 1, Some(state))
    }

    /// The one admission path: checks that a resume state belongs to this
    /// pool, claims the id, attaches on the first of the `tries` shards of
    /// the ring from `first` that takes it ([`PoolShared::attach`]), and
    /// builds the client handle.
    fn admit(
        &self,
        id: u64,
        first: usize,
        tries: usize,
        resume: Option<&StreamState>,
    ) -> Result<PoolClient, HprngError> {
        let seed = hprng_core::seeding::lane_seed(self.seed, id);
        if let Some(state) = resume {
            if state.seed != seed {
                return Err(HprngError::RestoreMismatch {
                    field: "seed",
                    reason: "state seed does not derive from this pool's seed and the client id",
                });
            }
            if state.lanes != self.kind.lanes().max(1) {
                return Err(HprngError::RestoreMismatch {
                    field: "lanes",
                    reason: "state lane count disagrees with this pool's session kind",
                });
            }
        }
        self.shared.claim(id);
        let rails = match self.shared.attach(id, seed, first, tries, resume) {
            Ok(rails) => rails,
            Err(e) => {
                // A failed admission must not leak the claim.
                self.shared.release(id);
                return Err(e);
            }
        };
        let mut client = PoolClient::new(
            id,
            self.kind.lanes().max(1),
            seed,
            rails,
            Arc::clone(&self.shared),
        );
        if let Some(state) = resume {
            client.resume(state);
        }
        Ok(client)
    }

    /// Spreads `clients` round-robin across the currently healthy shards,
    /// migrating each one that is not already where the assignment puts
    /// it ([`PoolClient::migrate_to`]). Every migrated stream continues
    /// bit-identically — migration moves the serving session, never the
    /// lane seed. Returns how many clients actually moved.
    ///
    /// Clients that have already failed permanently are left untouched.
    /// Fails with [`HprngError::ShardPoisoned`] when no healthy shard is
    /// left to rebalance onto.
    pub fn rebalance<'a, I>(&self, clients: I) -> Result<usize, HprngError>
    where
        I: IntoIterator<Item = &'a mut PoolClient>,
    {
        let healthy: Vec<usize> = self
            .shared
            .metrics
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.poisoned.is_poisoned())
            .map(|(index, _)| index)
            .collect();
        if healthy.is_empty() {
            return Err(HprngError::ShardPoisoned { shard: 0 });
        }
        let mut moved = 0;
        for (index, client) in clients.into_iter().enumerate() {
            if client.has_failed() {
                continue;
            }
            let target = healthy[index % healthy.len()];
            if client.shard() != target {
                client.migrate_to(target)?;
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Lane ids currently claimed by at least one live client handle.
    /// Every admitted client holds exactly one claim released on drop,
    /// so a pool with no outstanding clients reports zero — the leak
    /// invariant the chaos soak asserts after every fault schedule.
    pub fn live_claims(&self) -> usize {
        self.shared.live_claims()
    }

    /// A point-in-time snapshot of the pool's serving counters.
    pub fn stats(&self) -> PoolStats {
        let mut stats = PoolStats {
            shards: self.shared.txs.len(),
            failovers: self.shared.failovers.load(Ordering::Relaxed),
            migrations: self.shared.migrations.load(Ordering::Relaxed),
            ..PoolStats::default()
        };
        for (index, m) in self.shared.metrics.iter().enumerate() {
            stats.clients += m.clients.load(Ordering::Relaxed);
            stats.refills += m.refills.load(Ordering::Relaxed);
            stats.words += m.words.load(Ordering::Relaxed);
            stats.errors += m.errors.load(Ordering::Relaxed);
            if m.poisoned.is_poisoned() {
                stats.poisoned_shards.push(index);
            }
        }
        stats
    }

    /// The tracing registry, when [`PoolBuilder::tracing`] enabled
    /// request-path observability — per-shard queue gauges, phase
    /// latency histograms, per-shard word counters, and sampled
    /// client/worker spans all live here. Cloning shares the
    /// instruments; [`hprng_telemetry::Registry::snapshot`] is cheap
    /// enough to call per dashboard frame.
    pub fn registry(&self) -> Option<Registry> {
        self.shared.obs.as_ref().map(|o| o.registry.clone())
    }

    /// One [`Recorder`] holding everything observable about the pool
    /// right now: the tracing registry's instruments and sampled spans
    /// (when tracing is on) merged with [`Pool::stats`] via
    /// [`PoolStats::export_into`]. Feed it straight to
    /// [`hprng_telemetry::prometheus::exposition`] or
    /// [`hprng_telemetry::chrome_trace`].
    pub fn telemetry_snapshot(&self) -> Recorder {
        let mut recorder = match &self.shared.obs {
            Some(o) => o.registry.snapshot(),
            None => Recorder::new(),
        };
        self.stats().export_into(&mut recorder);
        recorder
    }

    /// Stops every shard worker and waits for them to exit. Outstanding
    /// clients keep serving from their cached blocks and then fail with
    /// [`HprngError::PoolShutdown`]. Dropping the pool does the same.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        // Flag before close: a client that observes a disconnect after
        // this point classifies it as an orderly shutdown, not a crash.
        if !self.shared.shutdown.request() {
            return;
        }
        for tx in &self.shared.txs {
            // Blocking send: the worker always drains its queue, and a
            // dead worker disconnects the ring, so this cannot hang.
            let _ = tx.send(Request::Shutdown);
        }
        for handle in self.handles.drain(..) {
            // A panicked worker already marked itself poisoned.
            let _ = handle.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("seed", &self.seed)
            .field("shards", &self.shared.txs.len())
            .field("kind", &self.kind)
            .field("prefetch_words", &self.prefetch_words)
            .field("failover", &self.shared.failover)
            .finish_non_exhaustive()
    }
}

impl SplitOnDemand for Pool {
    type Lane = PoolClient;

    fn label(&self) -> &'static str {
        "pool"
    }

    /// Lane `index` is the client with id `index`. With
    /// [`PoolBuilder::failover`] enabled, admission routes around
    /// poisoned shards (via [`Pool::try_client_with_id`]), so a lane can
    /// be split as long as any shard is healthy.
    ///
    /// # Panics
    ///
    /// Panics if the pool is shut down, or if no shard can accept the
    /// lane (without failover: its home shard is poisoned; with
    /// failover: every shard is) — [`SplitOnDemand::lane`] is infallible
    /// by contract. Use [`Pool::try_client_with_id`] for recoverable
    /// admission.
    fn lane(&self, index: u64) -> PoolClient {
        self.try_client_with_id(index)
            .expect("pool shard unavailable while splitting a lane")
    }
}

/// Aggregated serving counters of a [`Pool`] (see [`Pool::stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct PoolStats {
    /// Shard worker threads.
    pub shards: usize,
    /// Currently attached client sessions.
    pub clients: usize,
    /// Prefetch-block refills served.
    pub refills: u64,
    /// Words delivered in refill replies. A shard may fill a client's
    /// next block ahead of demand; its words count once it is delivered.
    pub words: u64,
    /// Refills that failed with a session error.
    pub errors: u64,
    /// Clients that automatically reattached to a healthy shard after
    /// their shard was poisoned ([`PoolBuilder::failover`]).
    pub failovers: u64,
    /// Clients moved between live shards by [`Pool::rebalance`] /
    /// [`PoolClient::migrate_to`].
    pub migrations: u64,
    /// Indices of shards whose worker died by panic.
    pub poisoned_shards: Vec<usize>,
}

impl PoolStats {
    /// Exports the snapshot into a telemetry [`Recorder`] under the
    /// canonical [`crate::names`] — `pool_*_total` counters plus
    /// `pool_shards` / `pool_clients` / `pool_poisoned_shards` gauges,
    /// which the Prometheus exporter prefixes to `hprng_pool_*`.
    pub fn export_into(&self, recorder: &mut Recorder) {
        recorder.add(names::POOL_REFILLS, self.refills as f64);
        recorder.add(names::POOL_WORDS, self.words as f64);
        recorder.add(names::POOL_ERRORS, self.errors as f64);
        recorder.add(names::POOL_FAILOVERS, self.failovers as f64);
        recorder.add(names::POOL_MIGRATIONS, self.migrations as f64);
        recorder.set_gauge(names::POOL_SHARDS, self.shards as f64);
        recorder.set_gauge(names::POOL_CLIENTS, self.clients as f64);
        recorder.set_gauge(
            names::POOL_POISONED_SHARDS,
            self.poisoned_shards.len() as f64,
        );
    }
}
