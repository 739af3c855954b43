//! One oracle for the engine's one contract: every configuration returns
//! exactly the brute-force top-k of its live tuples, under any monotone
//! metric and weights λ ≥ 0 (Algorithm 1, Property 3.1).
//!
//! An **instance** is a seed: a signature geometry `(α, n)`, an `LsmDb`
//! maintenance policy, and three engines fed one op stream — an `IvaDb` at
//! β = 0.25 (deletes trigger rebuilds), an `LsmDb` behind a serving
//! `Writer` (`Writer::maintain` after every write), and a bare `SwtTable`
//! + `IvaIndex` pair, the only place to set the drain window.
//!
//! Rows follow the density split that forces vector-list Types I–IV over a
//! small shared vocabulary, so distances tie at D_k. Two instances start
//! with 1,100 rows, so blocks and windows start inside directory frames,
//! and delete tids on block and frame edges; every one of those rows
//! defines the first attribute and every engine but the pair rebuilds
//! them (an `LsmDb` seals and compacts), so its list has string sections
//! and postings, and a probe's first query there — on that attribute
//! alone — may leap.
//!
//! At a **probe** every engine answers four queries (the fourth a copy of
//! the first) in every shape — serial through `execute_metric`, and
//! through `execute` under a request naming the metric; drain windows 1,
//! 7, 64 and the default —
//! and each answer must be the [`Model`]'s `(tid, distance bits)` under the
//! engine's own λ. Every shape must weigh the serial run's positions
//! and, but for a smaller drain window, fetch its records;
//! no shape scans more than every tuple-list entry, nor fewer than it
//! weighs (a seeded walk leaps over the positions its postings rule out);
//! an `LsmDb` scans no more entries than the pair; tuple lists are
//! tid-ascending (an `LsmDb`'s across tiers); every live tuple reads back;
//! a served write publishes its epochs. All instances together must probe
//! every engine, draw every
//! metric, scheme and list organization, and give the query every
//! shape runs a tie at D_k, an attribute fewer than k live tuples
//! define (then the all-*ndf* level decides by tid alone), a walk
//! that leaps, and a numeric attribute defined after a tier's build (its
//! first value fixed a `[v, v]` domain the tier's other values pass
//! beyond). A failing instance is shrunk by dropping ops greedily
//! while it still fails; its seed, stream and failure are printed.

#[path = "common/model.rs"]
mod model;

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::thread;

use iva_core::{
    build_index, export_index, AttrEntry, CarriedQuery, IndexTarget, IndexedTable, QueryOutcome,
};
use iva_file::serve::Writer;
use iva_file::{
    AttrId, Engine, IoStats, IvaConfig, IvaDb, IvaDbOptions, IvaError, IvaIndex, LsmDb, LsmOptions,
    Metric, MetricKind, PagerOptions, Query, QueryStats, Result, SearchOutcome, SearchRequest,
    Store, SwtTable, Tid, Tiered, Tuple, Value, WeightScheme,
};
use model::Model;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const INSTANCES: u64 = 40;

/// One step of a stream.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Define the next attribute of [`TEXT`].
    Define,
    Insert(u32),
    /// Delete tid `pick % (next tid + 1)`: live, dead or never assigned.
    Delete(u64),
    /// Update the `pick`-th live tuple (mod the live count) in tid order.
    Update(u64),
    Seal,
    Compact,
    Flush,
    /// `IvaDb::rebuild`; an `LsmDb` seals and compacts. A pair keeps its
    /// tombstones, so an `LsmDb` never scans more entries than it does.
    Rebuild,
    /// Check every engine; the seed draws the [`Probe`].
    Probe(u64),
}

/// Whether each attribute is text. The first four have the densities that
/// force Types III, I or II, IV and I; queries name the last two before
/// any row defines them.
const TEXT: [bool; 6] = [true, true, false, false, true, false];

const VOCAB: [&str; 8] = [
    "canon", "cannon", "camera", "sony", "nikon", "wide", "tele", "album",
];

fn word(i: u64) -> &'static str {
    VOCAB[i as usize % VOCAB.len()]
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.random_range(0..from.len())]
}

/// Row `i`, over the first `defined` attributes; a `dense` row defines
/// the first one whatever `i`, and a `multi` row gives it one to three
/// strings.
fn row(i: u64, defined: usize, (dense, multi): (bool, bool)) -> Tuple {
    let strings = if multi { 1 + i % 3 } else { 1 };
    let first = (0..strings).map(|j| format!("{} {}", word(i + 3 * j), (i + j) % 5));
    let values = [
        (dense || !i.is_multiple_of(7)).then(|| Value::texts(first.collect::<Vec<_>>())),
        i.is_multiple_of(11)
            .then(|| Value::texts([word(i / 11).into(), format!("note {}", i % 37)])),
        (i % 10 != 9).then(|| Value::num((i % 89) as f64)),
        i.is_multiple_of(13).then(|| Value::num(i as f64)),
        (i % 4 == 1).then(|| Value::text(word(i / 4))),
        (i % 6 == 2).then(|| Value::num((i % 7) as f64 / 2.0)),
    ];
    let mut tuple = Tuple::new();
    for (a, value) in values.into_iter().enumerate().take(defined) {
        if let Some(value) = value {
            tuple.set(AttrId(a as u32), value);
        }
    }
    tuple
}

/// A query on one to three of the first `defined` attributes.
fn query(rng: &mut StdRng, defined: usize) -> Query {
    let mut q = Query::new();
    for _ in 0..rng.random_range(1..4) {
        let a = rng.random_range(0..defined.max(1));
        let (r, attr) = (rng.random::<u64>(), AttrId(a as u32));
        q = match (TEXT[a], r % 3) {
            (true, 0) => q.text(attr, format!("{} {}", word(r / 3), r / 24 % 5)),
            (true, 1) => q.text(attr, word(r / 3)),
            (true, _) => q.text(attr, format!("note {}", r / 3 % 37)),
            (false, _) => q.num(attr, (r / 3 % 200) as f64 / 2.0),
        };
    }
    q
}

/// Whether instance `seed` starts with 1,100 rows, rebuilt, whose first
/// attribute every row defines: its list gets string sections and
/// postings, so a 1-value probe on it can leap.
fn large(seed: u64) -> bool {
    seed % 19 == 18
}

/// The stream of instance `seed`.
fn stream(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let large = large(seed);
    let mut ops = vec![Op::Define; 4];
    if large {
        ops.extend([Op::Insert(1_100), Op::Rebuild]);
    }
    for _ in 0..if large { 8 } else { 44 } {
        let r: u64 = rng.random();
        ops.push(match r % 94 {
            0..=29 => Op::Insert(1 + (r >> 8) as u32 % 10),
            30..=44 => Op::Delete(r >> 8),
            45..=54 => Op::Update(r >> 8),
            55..=61 => Op::Seal,
            62..=66 => Op::Compact,
            67..=71 => Op::Flush,
            72..=74 => Op::Rebuild,
            75..=76 => Op::Define,
            _ => Op::Probe(r >> 8),
        });
    }
    if large {
        ops.extend([255, 256, 1_023, 1_024].map(Op::Delete));
    }
    ops.push(Op::Probe(rng.random()));
    ops
}

/// A probe's metric: a built-in one, or `NanAtZero` — L1, except that an
/// exact match has no distance at all (a caller's metric, not the engine,
/// makes the NaN). NaN ranks above every distance and a bound of 0 is NaN
/// too, so `NanAtZero` is not monotone under the pool's order. Its probes
/// therefore ask for every live tuple: the pool never fills, every
/// candidate is refined, and what is checked is where NaN ranks — last, by
/// tid — in every shape.
#[derive(Clone, Copy, Debug)]
enum Dist {
    Kind(MetricKind),
    NanAtZero,
}

impl Metric for Dist {
    fn combine(&self, diffs: &[f64]) -> f64 {
        let sum: f64 = diffs.iter().sum();
        match self {
            Dist::Kind(kind) => kind.combine(diffs),
            Dist::NanAtZero if sum == 0.0 => f64::NAN,
            Dist::NanAtZero => sum,
        }
    }

    /// A built-in metric weighs a block by its own column loops. A
    /// `NanAtZero` block takes the trait's default, one `combine` per
    /// position, so the walk's survivors test ranks its NaN estimates.
    fn combine_block(&self, terms: &[f64], out: &mut [f64]) {
        /// `combine` alone: the default block combine.
        struct PerPosition(Dist);
        impl Metric for PerPosition {
            fn combine(&self, diffs: &[f64]) -> f64 {
                self.0.combine(diffs)
            }
        }
        match self {
            Dist::Kind(kind) => kind.combine_block(terms, out),
            Dist::NanAtZero => PerPosition(*self).combine_block(terms, out),
        }
    }
}

/// One probe's queries and knobs.
#[derive(Debug)]
struct Probe {
    queries: Vec<Query>,
    metric: Dist,
    weights: WeightScheme,
    k: usize,
}

impl Probe {
    /// A probe over the first `defined` attributes of `live` tuples. It
    /// asks for every live tuple (as `NanAtZero` always does) only while
    /// they number at most 300. In a `dense` instance the first query
    /// names the first attribute alone, so its walk may leap.
    fn draw(seed: u64, defined: usize, live: usize, dense: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let first = if dense { 1 } else { defined };
        let mut queries = Vec::from([first, defined, defined].map(|d| query(&mut rng, d)));
        queries.push(queries[0].clone());
        let choices = if live < 300 { 4 } else { 3 };
        let [l1, l2, linf] = [MetricKind::L1, MetricKind::L2, MetricKind::LInf].map(Dist::Kind);
        let metric = pick(&mut rng, &[l1, l2, linf, Dist::NanAtZero][..choices]);
        let k = match metric {
            Dist::NanAtZero => live + 1,
            Dist::Kind(_) => pick(&mut rng, &[1, 3, 10, live + 1][..choices]),
        };
        let weights = pick(&mut rng, &[WeightScheme::Equal, WeightScheme::Itf]);
        Self {
            queries,
            metric,
            weights,
            k,
        }
    }

    /// A request for the probe's k, weights and metric — `NanAtZero` is no
    /// `MetricKind`, so it goes beside the request.
    fn request(&self) -> SearchRequest {
        let req = SearchRequest::new(self.k).weights(self.weights);
        match self.metric {
            Dist::Kind(kind) => req.metric(kind),
            Dist::NanAtZero => req,
        }
    }
}

/// One execution: `(tid, distance bits)` in rank order, the rows it
/// materialized (engines only), and `[table_accesses, tuples_scanned,
/// list_bytes_logical, dict_distances, positions_weighed]`.
struct Answer {
    hits: Vec<(Tid, u64)>,
    rows: Vec<Tuple>,
    counts: [u64; 5],
}

impl Answer {
    fn new(hits: impl Iterator<Item = (Tid, f64)>, rows: Vec<Tuple>, s: &QueryStats) -> Self {
        let hits = hits.map(|(tid, dist)| (tid, dist.to_bits())).collect();
        let counts = [
            s.table_accesses,
            s.tuples_scanned,
            s.list_bytes_logical,
            s.dict_distances,
            s.positions_weighed,
        ];
        Self { hits, rows, counts }
    }
}

impl From<SearchOutcome> for Answer {
    fn from(out: SearchOutcome) -> Self {
        let rows = out.hits.iter().map(|h| h.tuple.clone()).collect();
        Self::new(out.hits.iter().map(|h| (h.tid, h.dist)), rows, &out.stats)
    }
}

impl From<QueryOutcome> for Answer {
    fn from(out: QueryOutcome) -> Self {
        let hits = out.results.iter().map(|e| (e.tid, e.dist));
        Self::new(hits, Vec::new(), &out.stats)
    }
}

/// What the oracle does to, and asks of, one engine.
trait Db {
    fn define(&mut self, name: &str, text: bool) -> Result<AttrId>;
    fn insert(&mut self, tuple: &Tuple) -> Result<Tid>;
    fn delete(&mut self, tid: Tid) -> Result<bool>;
    fn update(&mut self, tid: Tid, tuple: &Tuple) -> Result<Tid>;
    /// Seal, compact, flush or rebuild: what the engine has of it.
    fn maintain(&mut self, op: Op) -> Result<()>;
    fn get(&self, tid: Tid) -> Result<Option<Tuple>>;
    /// The λ the engine resolves for `q`.
    fn lambda(&self, q: &Query, w: WeightScheme) -> Vec<f64>;
    /// Its table + index pairs, in scan order.
    fn tiers(&self) -> Result<Vec<(&IvaIndex, &SwtTable)>>;
    /// Query `i` of `p` through the engine's own entry point.
    fn solo(&self, p: &Probe, i: usize) -> Result<Answer>;
    /// Query `i` of `p` through [`Engine::execute`], under a request that
    /// names the metric; `None` where none can (the pair, `NanAtZero`).
    fn requested(&self, _: &Probe, _: usize) -> Result<Option<Answer>> {
        Ok(None)
    }
}

/// Both engines are one [`Store`]: the oracle drives its public API.
impl<T: Tiered + Send + Sync> Db for Store<T>
where
    Self: Maintain,
{
    fn define(&mut self, name: &str, text: bool) -> Result<AttrId> {
        match text {
            true => self.define_text(name),
            false => self.define_numeric(name),
        }
    }
    fn insert(&mut self, tuple: &Tuple) -> Result<Tid> {
        Store::insert(self, tuple)
    }
    fn delete(&mut self, tid: Tid) -> Result<bool> {
        Store::delete(self, tid)
    }
    fn update(&mut self, tid: Tid, tuple: &Tuple) -> Result<Tid> {
        Store::update(self, tid, tuple)
    }
    fn maintain(&mut self, op: Op) -> Result<()> {
        Maintain::maintain(self, op)
    }
    fn get(&self, tid: Tid) -> Result<Option<Tuple>> {
        Store::get(self, tid)
    }
    fn lambda(&self, q: &Query, w: WeightScheme) -> Vec<f64> {
        self.resolve_weights(q, w)
    }
    fn tiers(&self) -> Result<Vec<(&IvaIndex, &SwtTable)>> {
        Store::tiers(self).map(IndexedTable::searchable).collect()
    }
    fn solo(&self, p: &Probe, i: usize) -> Result<Answer> {
        let req = p.request();
        Ok(self.execute_metric(&p.queries[i], &p.metric, &req)?.into())
    }
    fn requested(&self, p: &Probe, i: usize) -> Result<Option<Answer>> {
        let Dist::Kind(_) = p.metric else {
            return Ok(None);
        };
        Ok(Some(
            Engine::execute(self, &p.queries[i], &p.request())?.into(),
        ))
    }
}

/// What differs between the engines: the monolith rebuilds, an `LsmDb`
/// seals and compacts.
trait Maintain {
    /// Seal, compact, flush or rebuild: what the engine has of it.
    fn maintain(&mut self, op: Op) -> Result<()>;
}

impl Maintain for IvaDb {
    fn maintain(&mut self, op: Op) -> Result<()> {
        match op {
            Op::Flush => self.flush(),
            Op::Rebuild => self.rebuild(),
            _ => Ok(()),
        }
    }
}

impl Maintain for LsmDb {
    fn maintain(&mut self, op: Op) -> Result<()> {
        match op {
            Op::Seal => self.seal().map(drop),
            Op::Compact => self.compact().map(drop),
            Op::Flush => self.flush(),
            Op::Rebuild => self.seal().and(self.compact()).map(drop),
            _ => Ok(()),
        }
    }
}

/// A bare table and its index, kept in step by hand (Sec. IV-B).
struct Pair {
    table: SwtTable,
    index: IvaIndex,
}

impl Db for Pair {
    fn define(&mut self, name: &str, text: bool) -> Result<AttrId> {
        Ok(match text {
            true => self.table.define_text(name)?,
            false => self.table.define_numeric(name)?,
        })
    }
    fn insert(&mut self, tuple: &Tuple) -> Result<Tid> {
        let (tid, ptr) = self.table.insert(tuple)?;
        self.index.insert(tid, ptr, tuple, self.table.catalog())?;
        Ok(tid)
    }
    fn delete(&mut self, tid: Tid) -> Result<bool> {
        if self
            .index
            .lookup_ptr(tid, self.table.file().deleted())?
            .is_none()
        {
            return Ok(false);
        }
        Ok(self.table.delete(tid)?)
    }
    fn update(&mut self, tid: Tid, tuple: &Tuple) -> Result<Tid> {
        self.delete(tid)?;
        self.insert(tuple)
    }
    fn maintain(&mut self, op: Op) -> Result<()> {
        if let Op::Flush = op {
            self.table.flush()?;
            self.index.commit(self.table.file().data_len())?;
        }
        Ok(())
    }
    fn get(&self, tid: Tid) -> Result<Option<Tuple>> {
        let ptr = self.index.lookup_ptr(tid, self.table.file().deleted())?;
        ptr.map(|ptr| Ok(self.table.get(ptr)?.tuple)).transpose()
    }
    fn lambda(&self, q: &Query, w: WeightScheme) -> Vec<f64> {
        self.index.resolve_weights(&self.table, q, w)
    }
    fn tiers(&self) -> Result<Vec<(&IvaIndex, &SwtTable)>> {
        Ok(vec![(&self.index, &self.table)])
    }
    fn solo(&self, p: &Probe, i: usize) -> Result<Answer> {
        let (table, index) = (&self.table, &self.index);
        let out = index.query(table, &p.queries[i], p.k, &p.metric, p.weights)?;
        Ok(out.into())
    }
}

/// The drain-window shape: one pool carried through the tiers in scan
/// order, each drained every `window` pending candidates.
fn windowed(db: &dyn Db, p: &Probe, window: usize) -> Result<Answer> {
    let q = &p.queries[0];
    let tiers = db.tiers()?;
    // Built once, like `lambda`, and lent to every tier.
    let Some((last, _)) = tiers.last() else {
        return Err(IvaError::Corrupt("no tier".into()));
    };
    let mut carried = CarriedQuery::new(last, q, p.k, db.lambda(q, p.weights));
    for (index, table) in tiers {
        index.walk_tier_windowed(table, &mut carried, &p.metric, window)?;
    }
    Ok(carried.carry.finish().into())
}

enum Handle {
    Direct(Box<dyn Db>),
    Served(Writer<LsmDb>),
}

/// One engine under test.
struct Subject {
    handle: Handle,
    name: String,
}

impl Subject {
    /// Run `f` on the engine. A served one is maintained after, and must
    /// publish an epoch for the write and one for maintenance that ran.
    fn write<R>(&mut self, f: impl FnOnce(&mut dyn Db) -> Result<R>) -> Verdict<R> {
        let e = |e: IvaError| format!("{}: {e}", self.name);
        let w = match &mut self.handle {
            Handle::Direct(db) => return f(db.as_mut()).map_err(e),
            Handle::Served(w) => w,
        };
        let epoch = w.epoch();
        let out = w.apply(|db| f(db)).map_err(e)?;
        let maintained = w.maintain().map_err(e)?;
        let published = w.epoch() - epoch;
        if published != 1 + u64::from(maintained) {
            return Err(format!("{}: {published} epochs for one write", self.name));
        }
        Ok(out)
    }

    /// The engine as a probe sees it: a served one through a reader's
    /// snapshot.
    fn read<R>(&self, f: impl FnOnce(&dyn Db) -> R) -> R {
        match &self.handle {
            Handle::Direct(db) => f(db.as_ref()),
            Handle::Served(w) => f(&*w.reader().snapshot()),
        }
    }
}

/// What a check concludes: the failure, described.
type Verdict<T = ()> = std::result::Result<T, String>;

/// `[table_accesses, tuples_scanned, list_bytes_logical]` of each distinct
/// query run serially.
type Serial = Vec<[u64; 3]>;

/// What the probes reached, by name (see [`required`]).
type Coverage = BTreeSet<String>;

/// One instance's engines and the model they are checked against.
#[derive(Default)]
struct Instance {
    subjects: Vec<Subject>,
    model: Model,
    next_tid: Tid,
    next_row: u64,
    defined: usize,
    /// Rows define the first attribute whatever their number.
    dense: bool,
    /// Rows give the first attribute one to three strings.
    multi: bool,
    /// Rows inserted since the last `Op::Rebuild`: an `IvaDb`'s packed
    /// lists hold them in RAW tail frames.
    since_rebuild: u64,
}

impl Instance {
    /// The engines of instance `seed`: `IvaDb`, `LsmDb`, pair.
    fn new(seed: u64) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(!seed);
        let config = IvaConfig {
            alpha: pick(&mut rng, &[0.1, 0.2, 0.35, 0.5]),
            n: rng.random_range(2..6),
            ..IvaConfig::default()
        };
        let (limit, fanout) = pick(&mut rng, &[(0, 0), (16, 3)]);
        let pager = PagerOptions {
            page_size: 256,
            cache_bytes: 8 << 10,
        };
        let mut inst = Self {
            dense: large(seed),
            ..Self::default()
        };
        let mut mono = IvaDbOptions::default();
        (mono.pager, mono.config, mono.cleaning_threshold) = (pager.clone(), config, 0.25);
        let mut lsm = LsmOptions::default();
        (lsm.pager, lsm.config) = (pager.clone(), config);
        (lsm.memtable_limit, lsm.compact_fanout) = (limit, fanout);
        let table = SwtTable::create_mem(&pager, IoStats::new())?;
        let index = build_index(&table, IndexTarget::Mem, &pager, IoStats::new(), config)?;
        let mono = Handle::Direct(Box::new(IvaDb::create_mem(mono)?));
        let lsm = Handle::Served(Writer::new(LsmDb::create_mem(lsm)?));
        let pair = Handle::Direct(Box::new(Pair { table, index }));
        for (handle, name) in [(mono, "IvaDb"), (lsm, "LsmDb"), (pair, "pair")] {
            let name = name.to_string();
            inst.subjects.push(Subject { handle, name });
        }
        Ok(inst)
    }

    /// Run `f` on every engine; each must give `want`.
    fn each<R>(&mut self, want: R, f: impl Fn(&mut dyn Db) -> Result<R>) -> Verdict
    where
        R: PartialEq + Debug,
    {
        for s in &mut self.subjects {
            let got = s.write(&f)?;
            if got != want {
                return Err(format!("{}: {got:?}, the model {want:?}", s.name));
            }
        }
        Ok(())
    }

    /// Apply `op` to every engine and the model.
    fn apply(&mut self, op: Op, cov: &mut Coverage) -> Verdict {
        match op {
            Op::Define if self.defined < TEXT.len() => {
                let (a, name) = (self.defined, format!("attr{}", self.defined));
                self.each(AttrId(a as u32), |db| db.define(&name, TEXT[a]))?;
                self.defined += 1;
            }
            Op::Insert(n) => {
                for _ in 0..n {
                    self.insert(|db, tuple| db.insert(tuple))?;
                }
            }
            Op::Delete(pick) => {
                let tid = pick % (self.next_tid + 1);
                let live = self.model.live.remove(&tid).is_some();
                self.each(live, |db| db.delete(tid))?;
            }
            Op::Update(pick) => {
                let live = self.model.live.len().max(1);
                if let Some(&old) = self.model.live.keys().nth(pick as usize % live) {
                    self.model.live.remove(&old);
                    self.insert(|db, tuple| db.update(old, tuple))?;
                }
            }
            Op::Probe(seed) => self.probe(seed, cov)?,
            _ => self.each((), |db| db.maintain(op))?,
        }
        if let Op::Rebuild = op {
            self.since_rebuild = 0;
        }
        Ok(())
    }

    /// The next row, through `f` on every engine: each must give it the
    /// next tid.
    fn insert(&mut self, f: impl Fn(&mut dyn Db, &Tuple) -> Result<Tid>) -> Verdict {
        let tuple = row(self.next_row, self.defined, (self.dense, self.multi));
        (self.next_row, self.since_rebuild) = (self.next_row + 1, self.since_rebuild + 1);
        self.each(self.next_tid, |db| f(db, &tuple))?;
        self.model.live.insert(self.next_tid, tuple);
        self.next_tid += 1;
        Ok(())
    }

    /// Check every engine against the model (see the module doc).
    fn probe(&self, seed: u64, cov: &mut Coverage) -> Verdict {
        let (live, dense) = (self.model.live.len(), self.dense);
        self.check_all(&Probe::draw(seed, self.defined, live, dense), cov)
    }

    /// [`Instance::probe`] with `p`.
    fn check_all(&self, p: &Probe, cov: &mut Coverage) -> Verdict {
        cov.extend([format!("{:?}", p.metric), format!("{:?}", p.weights)]);
        let mut serial = Vec::new();
        for s in &self.subjects {
            let ctx = |e| format!("{}, {p:?}: {e}", s.name);
            serial.push(s.read(|db| self.check(db, s, p, cov)).map_err(ctx)?);
        }
        for (lsm, pair) in serial[1].iter().zip(&serial[2]) {
            if lsm[1] > pair[1] {
                return Err(format!("LsmDb scanned {lsm:?}, the pair {pair:?}"));
            }
        }
        Ok(())
    }

    /// Every shape of `p` on one engine against the model.
    fn check(&self, db: &dyn Db, s: &Subject, p: &Probe, cov: &mut Coverage) -> Verdict<Serial> {
        let (live, e) = (&self.model.live, |e: IvaError| e.to_string());
        for (&tid, tuple) in live {
            match db.get(tid).map_err(e)? {
                Some(got) if got == *tuple => {}
                got => return Err(format!("tuple {tid} reads back as {got:?}")),
            }
        }
        if self.defined == 0 {
            return Ok(vec![[0; 3]; 3]);
        }
        let topk = |q: &Query| self.model.topk(q, &db.lambda(q, p.weights), &p.metric, p.k);
        let want: Vec<_> = p.queries.iter().map(topk).collect();
        // Query 0 runs in every shape; its hard cases must really occur.
        let q = &p.queries[0];
        let lambda = db.lambda(q, p.weights);
        let deeper = self.model.topk(q, &lambda, &p.metric, p.k + 1);
        if deeper.len() > p.k && deeper[p.k - 1].1 == deeper[p.k].1 {
            cov.insert("tie at D_k".into());
        }
        let defining = |a| live.values().filter(|t| t.get(a).is_some()).count();
        if p.k <= live.len() && q.iter().any(|(a, _)| defining(a) < p.k) {
            cov.insert("attr defined by < k".into());
        }
        if q.len() == 1 && p.k > live.len() {
            cov.insert("one value, k > live".into());
        }
        let serial = (0..3).map(|i| db.solo(p, i));
        let serial: Vec<Answer> = serial.collect::<Result<_>>().map_err(e)?;
        // A query answered with a tuple that defines a queried attribute,
        // and no record fetched: the walk decided its distance from the
        // exact tables.
        let defines = |&(tid, _): &(Tid, u64)| q.iter().any(|(a, _)| live[&tid].get(a).is_some());
        if serial[0].counts[0] == 0 && want[0].iter().any(defines) {
            let key = match q.len() {
                1 => "1-value decided by the table",
                _ => "exact without a fetch",
            };
            cov.insert(key.into());
        }
        let tiers = db.tiers().map_err(e)?;
        const AFTER_BUILD: &str = "numeric attribute defined after the build";
        let numeric: Vec<AttrId> = q
            .iter()
            .map(|(a, _)| a)
            .filter(|a| !TEXT[a.index()])
            .collect();
        if !cov.contains(AFTER_BUILD) && beyond_domain(&tiers, &numeric).map_err(e)? {
            cov.insert(AFTER_BUILD.into());
        }
        let deleted = tiers.iter().any(|(_, t)| t.file().deleted_records() > 0);
        // Every tuple-list entry: what a shape that does not leap scans.
        let full: u64 = tiers.iter().map(|(i, _)| i.n_tuples()).sum();
        let leapt = |a: &Answer| a.counts[1] < full;
        let kind = s.name.split(' ').next().unwrap_or_default();
        if leapt(&serial[0]) {
            cov.insert("seeded, leapt".into());
            if kind == "IvaDb" && self.since_rebuild > 0 {
                cov.insert("leapt over a RAW tail".into());
            }
        }
        if serial[0].counts[3] > 0 {
            cov.insert(format!("{kind} seeded"));
            if lambda.iter().all(|&l| l == 0.0) {
                cov.insert("seeded at λ = 0".into());
            }
            // An answer that leaves the queried attribute undefined: *ndf*
            // passed the seed's limit, so the walk had to weigh it.
            let undefined =
                |&(tid, _): &(Tid, u64)| q.iter().all(|(a, _)| live[&tid].get(a).is_none());
            let ndf_answers = want[0].iter().any(undefined);
            if ndf_answers {
                cov.insert("seeded, ndf in the answer".into());
            }
            if deleted {
                cov.insert("seeded over tombstones".into());
            }
            // So many values pass that the walk weighs most positions: the
            // probe left it the frames rather than leap.
            let weighed = serial[0].counts[4];
            if deleted && !ndf_answers && !leapt(&serial[0]) && weighed * 2 > full {
                cov.insert("seeded over tombstones, no leap".into());
            }
        }
        // Every shape weighs what the serial run weighs, and scans every
        // entry unless it leaps; one that drains where the serial run
        // drains fetches what it fetches, too.
        let check = |a: &Answer, i: usize, shape: &str, serial_lanes: bool| -> Verdict {
            let (hits, want, solo) = (&a.hits, &want[i], serial[i % 3].counts);
            if hits != want {
                return Err(format!("{shape}, query {i}: {hits:?}, the model {want:?}"));
            }
            let counts = a.counts;
            let scanned = (counts[4]..=full).contains(&counts[1]);
            if counts[4] != solo[4] || !scanned || (serial_lanes && counts[0] != solo[0]) {
                return Err(format!("{shape}, query {i}: {counts:?}, serially {solo:?}"));
            }
            for ((tid, _), tuple) in hits.iter().zip(&a.rows) {
                if live.get(tid) != Some(tuple) {
                    return Err(format!("{shape}: hit {tid} materialized wrong"));
                }
            }
            Ok(())
        };
        for (i, a) in serial.iter().enumerate() {
            check(a, i, "serial", true)?;
        }
        for i in 0..p.queries.len() {
            if let Some(a) = db.requested(p, i).map_err(e)? {
                check(&a, i, "execute", true)?;
            }
        }
        for window in [1, 7, 64] {
            let shape = format!("window {window}");
            check(&windowed(db, p, window).map_err(e)?, 0, &shape, false)?;
        }
        let mut last = None;
        for (index, _) in tiers {
            for &(tid, _) in &export_index(index).map_err(e)?.tuple_entries {
                if last >= Some(tid) {
                    return Err(format!("tuple lists: {tid} after {last:?}"));
                }
                last = Some(tid);
            }
            let entries = (0..index.n_attrs()).filter_map(|a| index.attr_entry(AttrId(a as u32)));
            cov.extend(entries.map(|e: &AttrEntry| format!("Type {}", e.list_type)));
        }
        cov.insert(s.name.clone());
        let head = |a: &Answer| [a.counts[0], a.counts[1], a.counts[2]];
        Ok(serial.iter().map(head).collect())
    }
}

/// Whether a tier holds a live value of one of `attrs` outside its own
/// quantisation domain: the attribute's first value in the tier arrived
/// after the tier's build, and fixed its `[v, v]` domain.
fn beyond_domain(tiers: &[(&IvaIndex, &SwtTable)], attrs: &[AttrId]) -> Result<bool> {
    for &(index, table) in tiers {
        for item in table.scan() {
            let (_, rec) = item?;
            for &a in attrs {
                let (Some(e), Some(Value::Num(v))) = (index.attr_entry(a), rec.tuple.get(a)) else {
                    continue;
                };
                if !rec.deleted && (*v < e.min || *v > e.max) {
                    return Ok(true);
                }
            }
        }
    }
    Ok(false)
}

/// What the probes of all instances must reach together.
fn required() -> Coverage {
    let mut cov = Coverage::new();
    cov.extend(["IvaDb", "LsmDb", "pair"].map(String::from));
    cov.extend(["Kind(L1)", "Kind(L2)", "Kind(LInf)"].map(String::from));
    cov.extend(["NanAtZero", "Equal", "Itf"].map(String::from));
    cov.extend(["I", "II", "III", "IV"].map(|ty| format!("Type {ty}")));
    cov.extend(["tie at D_k", "attr defined by < k", "seeded, leapt"].map(String::from));
    cov.insert("numeric attribute defined after the build".into());
    cov
}

/// Instance `seed` over `ops`; a panic is a failure too.
fn run(seed: u64, ops: &[Op], cov: &mut Coverage) -> Verdict {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut inst = Instance::new(seed).map_err(|e| e.to_string())?;
        for (at, &op) in ops.iter().enumerate() {
            let ctx = |e| format!("op {at} ({op:?}): {e}");
            inst.apply(op, cov).map_err(ctx)?;
        }
        Ok(())
    }));
    outcome.unwrap_or_else(|payload| {
        let msg = payload.downcast_ref::<String>().cloned();
        let msg = msg.or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", msg.unwrap_or_default()))
    })
}

/// Drop ops greedily — halves, quarters, …, single ops — while instance
/// `seed` still fails: the minimal stream and its failure.
fn shrink(seed: u64, mut ops: Vec<Op>, mut failure: String) -> (Vec<Op>, String) {
    let report = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut chunk = ops.len();
    while chunk > 1 {
        chunk = chunk.div_ceil(2);
        let mut at = 0;
        while at < ops.len() {
            let mut trial = ops.clone();
            trial.drain(at..(at + chunk).min(ops.len()));
            match run(seed, &trial, &mut Coverage::new()) {
                Err(f) => (ops, failure) = (trial, f),
                Ok(()) => at += chunk,
            }
        }
    }
    panic::set_hook(report);
    (ops, failure)
}

#[test]
fn every_configuration_matches_the_model() {
    let failed = AtomicBool::new(false);
    let work = |first: u64| {
        let mut cov = Coverage::new();
        for seed in (first..INSTANCES).step_by(2) {
            let ops = stream(seed);
            if failed.load(Relaxed) {
                break;
            }
            if let Err(failure) = run(seed, &ops, &mut cov) {
                failed.store(true, Relaxed);
                return (cov, Some((seed, ops, failure)));
            }
        }
        (cov, None)
    };
    let halves = thread::scope(|scope| {
        let odd = scope.spawn(|| work(1));
        [work(0), odd.join().unwrap()]
    });
    let mut cov = Coverage::new();
    for (reached, failure) in halves {
        if let Some((seed, ops, failure)) = failure {
            let (ops, failure) = shrink(seed, ops, failure);
            let n = ops.len();
            panic!("instance {seed} fails; shrunk to {n} ops:\n{ops:?}\n{failure}");
        }
        cov.extend(reached);
    }
    let missing: Vec<_> = required().difference(&cov).cloned().collect();
    assert!(missing.is_empty(), "never reached: {missing:?}");
}

/// One-value queries where a dictionary seeds the walk: 600 rows whose
/// first attribute every row defines — 40 values over the vocabulary, so
/// a build gives its list string sections and postings, and an
/// attribute every live tuple defines, whose ITF weight is 0 — and so does
/// the fifth's, 8 words on every fourth row. Every engine but the pairs
/// then rebuilds (an `LsmDb` seals and compacts), and is probed three
/// times: as built, where a seeded walk leaps from candidate to candidate;
/// after 30 more rows, which an `IvaDb` holds in RAW tail frames its leap
/// must still walk (one is the queried value, a top-30 answer); and after
/// 10 of the 15 rows holding the value first queried, and 60 others, are
/// deleted. A seed that ignored the tombstones would leave 5 of them live
/// at or below its bound where k = 10 need counting; at k = 200 they raise
/// the bound until most positions pass, and the walk does not leap. Probes
/// ask for k of 3, 10, 30, 200 and every live tuple, under each metric,
/// and each runs every shape of [`Instance::check`] on the first two
/// instances. Required: a seed on `IvaDb` and on `LsmDb`, one over
/// tombstones, one at λ = 0, one that leaps, one that leaps over a RAW
/// tail, one over tombstones that does not, one whose answer the table
/// decides with no fetch, and a one-value query with k above the
/// live count.
#[test]
fn one_value_queries_on_string_sections_match_the_model() {
    let mut cov = Coverage::new();
    for seed in 0..2 {
        let mut run = || -> Verdict {
            let mut inst = Instance::new(seed).map_err(|e| e.to_string())?;
            inst.dense = true;
            let one = |a: u32, s: &str| Query::new().text(AttrId(a), s);
            // 30 edits from every string: ndf (20) beats any seed's limit.
            let far = "q".repeat(30);
            let queries = vec![
                one(0, "canon 0"),
                one(4, "sony"),
                one(0, "cannon 1"),
                one(0, "canon 0"),
            ];
            let ndf_first = vec![one(4, &far), one(0, &far), one(4, "sony"), one(4, &far)];
            let [l1, l2, linf] = [MetricKind::L1, MetricKind::L2, MetricKind::LInf].map(Dist::Kind);
            let (equal, itf) = (WeightScheme::Equal, WeightScheme::Itf);
            let mut probe =
                |inst: &Instance, queries: &Vec<Query>, knobs: &[(usize, Dist, WeightScheme)]| {
                    for &(k, metric, weights) in knobs {
                        let queries = queries.clone();
                        let p = Probe {
                            queries,
                            metric,
                            weights,
                            k,
                        };
                        inst.check_all(&p, &mut cov)?;
                    }
                    Ok::<_, String>(())
                };
            let built = [Op::Define; 5]
                .into_iter()
                .chain([Op::Insert(600), Op::Rebuild]);
            for op in built {
                inst.apply(op, &mut Coverage::new())?;
            }
            probe(&inst, &queries, &[(200, l1, equal)])?;
            inst.apply(Op::Insert(30), &mut Coverage::new())?;
            probe(&inst, &queries, &[(30, l1, equal), (3, l1, equal)])?;
            let deletes = (0..10).map(|j| 40 * j).chain((0..60).map(|j| 10 * j + 3));
            for tid in deletes {
                inst.apply(Op::Delete(tid), &mut Coverage::new())?;
            }
            let live = inst.model.live.len();
            let knobs = [
                (10, l2, equal),
                (10, linf, itf),
                (200, l1, equal),
                (live + 1, l2, itf),
            ];
            probe(&inst, &queries, &knobs)?;
            probe(&inst, &ndf_first, &[(10, l2, equal), (30, l1, itf)])
        };
        if let Err(failure) = run() {
            panic!("instance {seed}: {failure}");
        }
    }
    let want = [
        "IvaDb seeded",
        "LsmDb seeded",
        "seeded over tombstones",
        "seeded at λ = 0",
        "seeded, ndf in the answer",
        "seeded, leapt",
        "leapt over a RAW tail",
        "seeded over tombstones, no leap",
        "1-value decided by the table",
    ];
    let want = want
        .into_iter()
        .chain(["one value, k > live"])
        .map(String::from);
    let missing: Vec<_> = want.filter(|w| !cov.contains(w)).collect();
    assert!(missing.is_empty(), "never reached: {missing:?}");
}

/// Multi-value queries over lists coded by strings: the rows of
/// [`one_value_queries_on_string_sections_match_the_model`], but each
/// giving the first attribute one to three strings, so that its list and
/// the fifth's hold strings, while the second's 2-string values on every
/// eleventh row stay signature-only. Every engine rebuilds and is probed
/// as built, after 30 more rows (RAW tail frames in an `IvaDb`) and after
/// 70 deletes, with queries of two and three values: on the two coded
/// lists only, with a numeric value beside them, and with the
/// signature-only attribute — each in every shape of [`Instance::check`],
/// serial, through `execute` and drain windows. Required: a query with no
/// fetch whose answers define a queried attribute.
#[test]
fn multi_value_queries_on_string_sections_match_the_model() {
    let mut cov = Coverage::new();
    for seed in 0..2 {
        let mut run = || -> Verdict {
            let mut inst = Instance::new(seed).map_err(|e| e.to_string())?;
            (inst.dense, inst.multi) = (true, true);
            let text = |q: Query, a: u32, s: &str| q.text(AttrId(a), s);
            let coded = text(text(Query::new(), 0, "canon 0"), 4, "sony");
            let queries = vec![
                coded.clone(),
                text(text(Query::new(), 0, "cannon 1"), 4, "nikon").num(AttrId(2), 10.0),
                text(
                    text(text(Query::new(), 0, "camera 2"), 1, "note 3"),
                    4,
                    "wide",
                ),
                coded,
            ];
            let [l1, l2, linf] = [MetricKind::L1, MetricKind::L2, MetricKind::LInf].map(Dist::Kind);
            let (equal, itf) = (WeightScheme::Equal, WeightScheme::Itf);
            let probe = |inst: &Instance, knobs: &[(usize, Dist, WeightScheme)], cov: &mut _| {
                for &(k, metric, weights) in knobs {
                    let queries = queries.clone();
                    let p = Probe {
                        queries,
                        metric,
                        weights,
                        k,
                    };
                    inst.check_all(&p, cov)?;
                }
                Ok::<_, String>(())
            };
            let built = [Op::Define; 5]
                .into_iter()
                .chain([Op::Insert(600), Op::Rebuild]);
            for op in built {
                inst.apply(op, &mut Coverage::new())?;
            }
            probe(&inst, &[(10, l2, equal), (3, linf, itf)], &mut cov)?;
            inst.apply(Op::Insert(30), &mut Coverage::new())?;
            probe(&inst, &[(10, l1, equal)], &mut cov)?;
            let deletes = (0..10).map(|j| 40 * j).chain((0..60).map(|j| 10 * j + 3));
            for tid in deletes {
                inst.apply(Op::Delete(tid), &mut Coverage::new())?;
            }
            let live = inst.model.live.len();
            probe(&inst, &[(10, l2, itf), (live + 1, l1, equal)], &mut cov)
        };
        if let Err(failure) = run() {
            panic!("instance {seed}: {failure}");
        }
    }
    assert!(
        cov.contains("exact without a fetch"),
        "never reached: exact without a fetch"
    );
}

/// Tombstones count in `df` until a rebuild, so one delete below β used to
/// give an attribute all 100 tuples define the ITF weight ln(100/101) < 0,
/// under which the filter's bound runs the wrong way. The weight is 0 —
/// ITF over the 99 live tuples — and the answers are exact.
#[test]
fn itf_after_a_delete_matches_brute_force() {
    let mut db = IvaDb::create_mem(IvaDbOptions::default()).unwrap();
    let name = db.define_text("name").unwrap();
    let mut model = Model::default();
    for i in 0..100u64 {
        let tuple = Tuple::new().with(name, Value::text(format!("{} {}", word(i), i % 13)));
        model.live.insert(db.insert(&tuple).unwrap(), tuple);
    }
    assert!(db.delete(5).unwrap());
    model.live.remove(&5);
    let itf = WeightScheme::Itf;
    let req = SearchRequest::new(5).metric(MetricKind::L1).weights(itf);
    for i in 0..150u64 {
        let q = Query::new().text(name, format!("{} {}", word(i / 3), i % 17));
        let hits = db.execute(&q, &req).unwrap().hits;
        let got: Vec<_> = hits.iter().map(|h| (h.tid, h.dist.to_bits())).collect();
        let lambda = db.resolve_weights(&q, itf);
        let want = model.topk(&q, &lambda, &MetricKind::L1, 5);
        assert_eq!(got, want, "{q:?}");
    }
}

/// DST counts `df` itself, over every record the table file holds: its
/// ITF weights are the index's, bit for bit, while tombstones still count
/// and again once a rebuild has dropped them.
#[test]
fn direct_scan_weights_are_the_index_weights() {
    let opts = IvaDbOptions {
        cleaning_threshold: 1.0,
        ..IvaDbOptions::default()
    };
    let mut db = IvaDb::create_mem(opts).unwrap();
    let name = db.define_text("name").unwrap();
    let price = db.define_numeric("price").unwrap();
    for i in 0..60u64 {
        let mut tuple = Tuple::new().with(name, Value::text(word(i)));
        if i % 3 == 0 {
            tuple.set(price, Value::num(i as f64));
        }
        db.insert(&tuple).unwrap();
    }
    for tid in (0..60).step_by(5) {
        assert!(db.delete(tid).unwrap());
    }
    let q = Query::new().text(name, "x").num(price, 1.0);
    let (itf, dst) = (
        WeightScheme::Itf,
        iva_file::baselines::DirectScan::new(20.0),
    );
    let with_tombstones = db.resolve_weights(&q, itf);
    assert_eq!(
        dst.resolve_weights(db.table(), &q, itf).unwrap(),
        with_tombstones
    );
    db.rebuild().unwrap();
    let rebuilt = db.resolve_weights(&q, itf);
    assert_eq!(dst.resolve_weights(db.table(), &q, itf).unwrap(), rebuilt);
    assert_ne!(rebuilt, with_tombstones, "the rebuild dropped no tombstone");
}
