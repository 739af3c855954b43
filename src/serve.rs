//! lint:scope(panic-reachability)
//! The single-writer / multi-reader serving layer.
//!
//! An engine ([`crate::IvaDb`] or [`crate::LsmDb`]) enters serving
//! through [`Writer::new`], which wraps it in a shared cell. From there:
//!
//! * **One [`Writer`]** owns every mutation. Each mutator (or a
//!   multi-operation [`Writer::apply`]) takes the exclusive side of the
//!   lock, mutates, bumps the epoch counter *while still holding the
//!   lock*, and releases — publishing a new immutable snapshot.
//! * **Any number of [`Reader`]s** (cheap `Arc` clones) pin snapshots:
//!   [`Reader::snapshot`] takes the shared side of the lock, so the state
//!   a [`Snapshot`] dereferences to cannot change while it is held, and
//!   its [`Snapshot::epoch`] uniquely identifies that state — two
//!   snapshots with equal epochs saw bit-identical data.
//! * **A [`Server`]** (optional) adds an admission queue on top: worker
//!   threads take submitted requests from it one at a time and execute
//!   each with [`crate::Engine::execute`] against a snapshot of its own,
//!   so every response is the one that request gets alone against that
//!   snapshot.
//!
//! ## What the epoch contract guarantees (and doesn't)
//!
//! The epoch is bumped inside the write critical section, so a reader can
//! never observe new data under an old epoch or old data under a new one.
//! It advances on every write-lock release — including mutations that
//! returned an error after partially applying — so an epoch says "the
//! state may have changed", not "a mutation succeeded". Epochs order
//! snapshots; they do not name durable states (call
//! [`Writer::flush`] for durability). Readers holding a [`Snapshot`]
//! block the writer: this is snapshot *consistency* via a reader-writer
//! lock, not MVCC — hold snapshots for the duration of a query, not for
//! the lifetime of a connection.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;

use iva_core::{IvaError, Query, Result};
use iva_swt::{AttrId, Tuple};

use crate::engine::{Engine, EngineOutcome, EngineWriter};
use crate::lsm::LsmDb;
use crate::search::SearchRequest;

/// The shared cell behind one writer and its readers.
struct Shared<E> {
    engine: RwLock<E>,
    /// Publication counter. Bumped with `Release` ordering inside the
    /// write critical section; read with `Acquire` under the read guard.
    epoch: AtomicU64,
}

/// The single mutating handle over a served engine.
///
/// `Writer` is deliberately not `Clone` — the type system enforces the
/// single-writer half of the contract the same way `&mut self` did on the
/// bare engine, while [`Writer::reader`] hands out as many read handles
/// as the deployment wants.
pub struct Writer<E: EngineWriter> {
    shared: Arc<Shared<E>>,
}

impl<E: EngineWriter> Writer<E> {
    /// Move `engine` into a shared cell and return its writer.
    pub fn new(engine: E) -> Self {
        Self {
            shared: Arc::new(Shared {
                engine: RwLock::new(engine),
                epoch: AtomicU64::new(0),
            }),
        }
    }

    /// A new read handle onto the same engine. Cheap; clone freely across
    /// threads.
    pub fn reader(&self) -> Reader<E> {
        Reader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Run one publication: exclusive access to the engine for the
    /// duration of `f`, then an epoch bump *before* the lock releases, so
    /// every operation inside `f` lands in a single snapshot transition.
    /// This is the escape hatch to engine-specific mutators the
    /// [`EngineWriter`] trait doesn't carry (`update`, `rebuild`, …):
    ///
    /// ```
    /// # use iva_file::{IvaDb, IvaDbOptions};
    /// # use iva_file::serve::Writer;
    /// # let mut w = Writer::new(IvaDb::create_mem(IvaDbOptions::default()).unwrap());
    /// w.apply(|db| db.rebuild()).unwrap();
    /// ```
    pub fn apply<T>(&mut self, f: impl FnOnce(&mut E) -> Result<T>) -> Result<T> {
        let mut guard = self
            .shared
            .engine
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        // lint:allow(panic-reachability, "dynamic edge: the caller-supplied mutation closure is application code outside the decode paths this lint guards")
        let out = f(&mut guard);
        // Bump while still holding the write lock: a reader acquiring the
        // read lock afterwards sees the new state *and* the new epoch;
        // no interleaving can pair them crosswise. Errors bump too — a
        // failed mutation may have partially applied.
        self.shared.epoch.fetch_add(1, Ordering::Release);
        drop(guard);
        out
    }

    /// Read-only access through the writer itself (the writer can always
    /// observe its own latest publication).
    pub fn snapshot(&self) -> Snapshot<'_, E> {
        read_snapshot(&self.shared)
    }

    /// Epochs published so far.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Define (or look up) a text attribute. Publishes.
    pub fn define_text(&mut self, name: &str) -> Result<AttrId> {
        self.apply(|e| e.define_text(name))
    }

    /// Define (or look up) a numerical attribute. Publishes.
    pub fn define_numeric(&mut self, name: &str) -> Result<AttrId> {
        self.apply(|e| e.define_numeric(name))
    }

    /// Insert a tuple. Publishes.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<E::Id> {
        self.apply(|e| e.insert(tuple))
    }

    /// Delete a tuple by handle. Publishes.
    pub fn delete(&mut self, id: E::Id) -> Result<bool> {
        self.apply(|e| e.delete(id))
    }

    /// Persist the engine durably. Publishes (durability changed, even
    /// though query-visible state did not).
    pub fn flush(&mut self) -> Result<()> {
        self.apply(|e| e.flush())
    }

    /// Tear down serving and take the engine back. Fails (returning the
    /// intact writer) while any [`Reader`], [`Snapshot`] or [`Server`] is
    /// still alive.
    pub fn into_inner(self) -> std::result::Result<E, Self> {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => Ok(shared
                .engine
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)),
            Err(shared) => Err(Self { shared }),
        }
    }
}

impl Writer<LsmDb> {
    /// Run one round of background maintenance (a seal or a compaction)
    /// without stalling readers: the expensive staging half runs under a
    /// *read* snapshot — concurrent searches proceed throughout — and
    /// the write lock is taken only for the publish half, whose critical
    /// section is a tier-list swap plus one manifest commit. Returns
    /// whether any work ran. Publishes when it does.
    ///
    /// This is the serving-layer fix for the naive
    /// `writer.apply(|db| db.seal())` route, which holds the exclusive
    /// lock across an entire segment build. The single-writer discipline
    /// (`&mut self` here) guarantees no mutation interleaves between the
    /// two halves, so the staged plan can never go stale.
    pub fn maintain(&mut self) -> Result<bool> {
        let plan = {
            let snap = self.snapshot();
            snap.plan_maintenance()?
        };
        match plan {
            Some(plan) => self.apply(|e| e.publish_maintenance(plan)),
            None => Ok(false),
        }
    }
}

/// A cheap, cloneable read handle. See [`Reader::snapshot`].
pub struct Reader<E: Engine> {
    shared: Arc<Shared<E>>,
}

impl<E: Engine> Clone for Reader<E> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

fn read_snapshot<E>(shared: &Shared<E>) -> Snapshot<'_, E> {
    let guard = shared.engine.read().unwrap_or_else(PoisonError::into_inner);
    // The write side bumps before releasing, so under the read guard the
    // loaded epoch is exactly the one that published the guarded state.
    let epoch = shared.epoch.load(Ordering::Acquire);
    Snapshot { guard, epoch }
}

impl<E: Engine> Reader<E> {
    /// Pin the current publication. The returned [`Snapshot`] derefs to
    /// the engine; the writer is excluded until it drops.
    pub fn snapshot(&self) -> Snapshot<'_, E> {
        read_snapshot(&self.shared)
    }

    /// Convenience: pin a snapshot, run one search, release.
    pub fn execute(&self, query: &Query, request: &SearchRequest) -> Result<E::Outcome> {
        self.snapshot().execute(query, request)
    }

    /// The epoch a snapshot taken now would see (advisory — a writer may
    /// publish between this load and a later [`Reader::snapshot`]).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }
}

/// A pinned publication: shared access to the engine state of one epoch.
///
/// Derefs to the engine, so the whole read API is available:
/// `snap.query_builder()`, `snap.execute(…)`, `snap.len()`. Holding a
/// snapshot blocks the writer — keep it scoped to one query or a few.
pub struct Snapshot<'a, E> {
    guard: RwLockReadGuard<'a, E>,
    epoch: u64,
}

impl<E> Snapshot<'_, E> {
    /// The publication this snapshot pinned. Two snapshots with equal
    /// epochs dereference to bit-identical engine state.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<E> Deref for Snapshot<'_, E> {
    type Target = E;
    fn deref(&self) -> &E {
        &self.guard
    }
}

/// Tuning for [`Server::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads draining the admission queue. Each worker executes
    /// one request at a time against its own pinned snapshot.
    pub workers: usize,
    /// Inert: a worker takes one request at a time, whatever this holds.
    /// It bounded the requests a worker coalesced into one shared walk, a
    /// lane that lost to one walk per request on a bulk-built index
    /// (EXPERIMENTS.md, "The batch lane: the verdict"); the field stays
    /// only until the benchmark stops setting it.
    pub max_batch: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 16,
        }
    }
}

/// Admission-queue counters (monotone; read with [`Server::stats`] or
/// [`Client::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Requests submitted through [`Client::search`].
    pub submitted: u64,
    /// Requests executed, each against one snapshot: always
    /// [`ServingStats::completed`]. Kept, like
    /// [`ServingStats::coalesced`], only until the benchmark stops
    /// reading it.
    pub batches: u64,
    /// Requests answered.
    pub completed: u64,
    /// Inert: always 0. It counted requests that shared a walk with
    /// another; no request does.
    pub coalesced: u64,
    /// Inert: always 0. It counted query attributes served by an
    /// in-memory cache of decoded lists that no longer exists; the field
    /// stays only until the benchmark stops reading it.
    pub hot_tier_attrs: u64,
    /// Inert: always 0, like [`ServingStats::hot_tier_attrs`].
    pub cold_tier_attrs: u64,
    /// Logical (raw-layout-equivalent) bytes of the vector lists behind
    /// every answered request's filter phase — the denominator of the
    /// serving-level compression ratio.
    pub list_bytes_logical: u64,
    /// Physical page-padded stored bytes of the same lists (packed lists
    /// count at their compressed size).
    pub list_bytes_physical: u64,
}

/// One queued request and the channel its answer goes back on.
struct Job<E: Engine> {
    query: Query,
    request: SearchRequest,
    reply: mpsc::Sender<Result<E::Outcome>>,
}

struct ServerState<E: Engine> {
    queue: Mutex<VecDeque<Job<E>>>,
    available: Condvar,
    shutdown: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    list_bytes_logical: AtomicU64,
    list_bytes_physical: AtomicU64,
}

impl<E: Engine> ServerState<E> {
    fn stats(&self) -> ServingStats {
        let completed = self.completed.load(Ordering::Relaxed);
        ServingStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            batches: completed,
            completed,
            coalesced: 0,
            hot_tier_attrs: 0,
            cold_tier_attrs: 0,
            list_bytes_logical: self.list_bytes_logical.load(Ordering::Relaxed),
            list_bytes_physical: self.list_bytes_physical.load(Ordering::Relaxed),
        }
    }

    /// Fold one answered outcome's list bytes into the serving-level
    /// counters.
    fn absorb_list_bytes(&self, out: &E::Outcome) {
        let s = out.stats();
        self.list_bytes_logical
            .fetch_add(s.list_bytes_logical, Ordering::Relaxed);
        self.list_bytes_physical
            .fetch_add(s.list_bytes_physical, Ordering::Relaxed);
    }
}

/// The admission-queue front end: worker threads + a request queue over
/// a [`Reader`].
///
/// Submissions arriving while all workers are busy wait in the queue, in
/// arrival order; a worker that frees up takes the oldest, pins a
/// snapshot and executes it. The server adds a thread hand-off to each
/// request and bounds the searches running at once by `workers`.
pub struct Server<E: Engine + 'static> {
    state: Arc<ServerState<E>>,
    workers: Vec<JoinHandle<()>>,
}

impl<E: Engine + 'static> Server<E> {
    /// Spawn the worker threads and start serving.
    pub fn start(reader: Reader<E>, opts: ServeOptions) -> Self {
        let state = Arc::new(ServerState {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            list_bytes_logical: AtomicU64::new(0),
            list_bytes_physical: AtomicU64::new(0),
        });
        let workers = (0..opts.workers.max(1))
            .map(|_| {
                let reader = reader.clone();
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(reader, state))
            })
            .collect();
        Self { state, workers }
    }

    /// A submission handle. Cheap; clone freely across client threads.
    pub fn client(&self) -> Client<E> {
        Client {
            state: Arc::clone(&self.state),
        }
    }

    /// Admission-queue counters so far.
    pub fn stats(&self) -> ServingStats {
        self.state.stats()
    }

    /// Stop accepting work, drain the queue, and join the workers.
    /// Requests still queued are answered before workers exit.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn begin_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
        let _guard = self
            .state
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.state.available.notify_all();
    }
}

impl<E: Engine + 'static> Drop for Server<E> {
    fn drop(&mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A cloneable submission handle onto a [`Server`]'s admission queue.
pub struct Client<E: Engine> {
    state: Arc<ServerState<E>>,
}

impl<E: Engine> Clone for Client<E> {
    fn clone(&self) -> Self {
        Self {
            state: Arc::clone(&self.state),
        }
    }
}

impl<E: Engine> Client<E> {
    /// Submit one search and block until its answer arrives. The answer
    /// is bit-identical to `reader.execute(&query, &request)` against the
    /// snapshot the serving worker pinned.
    pub fn search(&self, query: Query, request: SearchRequest) -> Result<E::Outcome> {
        let (reply, rx) = mpsc::channel();
        {
            let mut q = self
                .state
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // Checked under the queue lock: a worker exits only under it,
            // on an empty queue after shutdown, so a job pushed here is
            // either pushed before that exit (and answered) or refused.
            // Read before the lock, the flag could be stale by the push,
            // and the job would wait on workers already gone.
            if self.state.shutdown.load(Ordering::Acquire) {
                return Err(IvaError::InvalidArgument(
                    "serving: request submitted to a stopped server".into(),
                ));
            }
            q.push_back(Job {
                query,
                request,
                reply,
            });
        }
        self.state.submitted.fetch_add(1, Ordering::Relaxed);
        self.state.available.notify_one();
        rx.recv().map_err(|_| {
            IvaError::InvalidArgument("serving: server stopped before answering".into())
        })?
    }

    /// Admission-queue counters so far.
    pub fn stats(&self) -> ServingStats {
        self.state.stats()
    }
}

fn worker_loop<E: Engine>(reader: Reader<E>, state: Arc<ServerState<E>>) {
    loop {
        let job = {
            let mut q = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = state
                    .available
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // The read lock is held shared for exactly one execution.
        let out = reader.execute(&job.query, &job.request);
        state.completed.fetch_add(1, Ordering::Relaxed);
        if let Ok(out) = &out {
            state.absorb_list_bytes(out);
        }
        let _ = job.reply.send(out);
    }
}
