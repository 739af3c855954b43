//! One workload, start to finish: set-up, correctness gate, measured
//! phase, and (traced runs) the extra passes the per-layer numbers come
//! from.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use iva_core::{monotonic_nanos, IvaConfig, IvaError, Query, QueryStats, Result};
use iva_file::serve::{ServeOptions, Server, ServingStats, Writer};
use iva_file::{IvaDb, LsmDb, SearchRequest};
use iva_storage::{IoSnapshot, IoStats, RealVfs, Vfs};
use iva_swt::{record_len, Tid, Tuple};
use iva_workload::{Dataset, WorkloadConfig};

use crate::drive::{apply_writes, drive_reads, per_op_fold, read_once, Reads, Writes};
use crate::layers::{self, ProbeInputs};
use crate::nosync::NoSyncVfs;
use crate::ops::{self, WriteOp};
use crate::oracle::{self, Answer, K};
use crate::spans::{Span, SpanLog, NO_REQUEST};
use crate::stats::{elementwise_fold, highest_supported, median, ms, percentile};
use crate::target::Target;
use crate::workloads::{EngineKind, Mix, OpCounts, Scale, Spec, Traffic, ORACLE_QUERIES, ZIPF_S};

/// Queries of the traced run's solo and direct passes.
const PASS_QUERIES: usize = 64;

/// Distinct queries of a read workload whose every measured answer is
/// checked against brute force (a 3-value query over 20,000 tuples
/// costs the oracle ~30 ms).
const ORACLE_READS: usize = 64;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed of the op order and the write stream.
    pub seed: u64,
    /// Requested length of the measured phase.
    pub seconds: u64,
    /// Record spans and run the per-layer passes.
    pub trace: bool,
    /// Dataset and op-count scale.
    pub scale: Scale,
    /// Directory for scratch stores and trace files.
    pub out_dir: PathBuf,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (the contract).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
}

pub fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Ops attempted: measured reads + writes + oracle checks.
    pub attempted: u64,
    /// Ops that errored, were refused, or failed the oracle.
    pub failed: u64,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
    /// Spans of a traced run (empty otherwise).
    pub spans: SpanLog,
}

/// What a run puts to its stores: generated once, the same for every
/// repetition.
struct Inputs {
    dataset: Dataset,
    postings: Vec<Vec<u32>>,
    queries: Vec<Query>,
    stream: Vec<WriteOp>,
    /// Seconds `Dataset::generate` took.
    gen_s: f64,
}

/// Seed of the query pool. The dataset's is `WorkloadConfig::scaled`'s
/// own, the one every other bench in the repo uses.
const POOL_SEED: u64 = 0x5EED_0F0E;

/// The dataset and the query pool are part of the benchmark's
/// definition, not of the seed: percentiles over a few hundred queries
/// are a property of *which* queries (resampling one run's 200
/// `read_cold` ops with replacement moves their p50 by a quartile spread
/// of 0.31 and their p95 by 0.13, before any timing noise), so a pool
/// drawn afresh per seed would make two seeds two benchmarks. `--seed`
/// decides the order a read workload issues the pool in (the interleaved
/// workload keeps the pool's order: its store grows under the queries,
/// so which query meets which store size is part of the mix) and, in
/// the write stream, which tuples are updated and deleted and what the
/// reposts say.
fn generate(spec: &Spec, args: &RunArgs, counts: &OpCounts) -> Inputs {
    let start = monotonic_nanos();
    let dataset = Dataset::generate(&WorkloadConfig::scaled(args.scale.tuples));
    let gen_s = secs(monotonic_nanos() - start);

    let postings = ops::postings(&dataset);
    let mut queries = match spec.mix {
        Mix::Cold3 => ops::cold_queries(&dataset, counts.distinct, POOL_SEED),
        Mix::Zipf1 => ops::zipf_queries(&dataset, &postings, counts.distinct, ZIPF_S, POOL_SEED),
    };
    if matches!(spec.traffic, Traffic::ReadsThenTail { .. }) {
        ops::shuffle(&mut queries, args.seed);
    }
    let loaded = spec.load_plan(&args.scale).rows;
    let stream = ops::write_stream(&dataset, loaded, loaded, counts.writes, args.seed);
    Inputs {
        dataset,
        postings,
        queries,
        stream,
        gen_s,
    }
}

/// A store set up for one repetition.
struct Bed<'a, E: Target> {
    // `server` holds a reader on `writer`'s engine and must go first.
    server: Server<E>,
    writer: Writer<E>,
    dir: PathBuf,
    inputs: &'a Inputs,
    /// The store's filesystem, for its flush count.
    vfs: Arc<NoSyncVfs>,
    /// Flushes the set-up asked for.
    setup_syncs: u64,
    /// The harness's own list of live tuples (unordered after deletes).
    live: Vec<(Tid, Tuple)>,
    /// Dataset generation + load + index build + warm-up, seconds. The
    /// dataset is generated once per run and its time counted into
    /// every repetition's set-up.
    setup_s: f64,
}

impl<E: Target> Bed<'_, E> {
    /// Stop the server, close the store and remove its files.
    fn tear_down(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = RealVfs.remove_dir_all(&dir);
    }
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Load + index build + warm-up of one repetition's store.
fn set_up<'a, E: Target>(
    spec: &Spec,
    args: &RunArgs,
    counts: &OpCounts,
    inputs: &'a Inputs,
    attempt: usize,
) -> Result<Bed<'a, E>> {
    let plan = spec.load_plan(&args.scale);
    let start = monotonic_nanos();
    let dir = args.out_dir.join(format!(
        "store-{}-{}-{attempt}",
        spec.name,
        std::process::id()
    ));
    // A leftover from a killed run must not leak into this one.
    let _ = RealVfs.remove_dir_all(&dir);
    RealVfs
        .create_dir_all(&dir)
        .map_err(|e| IvaError::Storage(e.into()))?;
    let vfs = Arc::new(NoSyncVfs::default());
    let engine = E::bench_load(
        Arc::clone(&vfs) as Arc<dyn Vfs>,
        &plan,
        &dir,
        &inputs.dataset,
    )?;

    let writer = Writer::new(engine);
    let server = Server::start(
        writer.reader(),
        ServeOptions {
            workers: spec.workers,
            max_batch: 16,
        },
    );
    let warm = drive_reads(
        &server.client(),
        &inputs.queries,
        spec.load_threads(),
        counts.warm,
        false,
        "client.search",
    );
    if warm.errors > 0 {
        return Err(IvaError::InvalidArgument(format!(
            "{} warm-up queries failed",
            warm.errors
        )));
    }
    let setup_s = inputs.gen_s + secs(monotonic_nanos() - start);
    // The harness's own copy of the rows is not the program's set-up.
    let live = inputs
        .dataset
        .tuples
        .iter()
        .take(plan.rows)
        .enumerate()
        .map(|(i, t)| (i as Tid, t.clone()))
        .collect();
    Ok(Bed {
        server,
        writer,
        dir,
        inputs,
        setup_syncs: vfs.syncs(),
        vfs,
        live,
        setup_s,
    })
}

fn ndf_penalty() -> f64 {
    IvaConfig::default().ndf_penalty
}

/// Run the first [`ORACLE_QUERIES`] queries directly and count those
/// whose answer differs from brute force over the live list:
/// `(attempted, failed)`.
fn oracle_gate<E: Target>(bed: &Bed<'_, E>) -> (u64, u64) {
    let ordered = oracle::in_tid_order(&bed.live);
    let snap = bed.writer.snapshot();
    let mut failed = 0;
    let mut attempted = 0;
    for query in bed.inputs.queries.iter().take(ORACLE_QUERIES) {
        attempted += 1;
        let want = oracle::brute_force(&ordered, query, ndf_penalty());
        match snap.execute(query, &SearchRequest::new(K)) {
            Ok(got) if oracle::answer_of(&got) == want => {}
            _ => failed += 1,
        }
    }
    (attempted, failed)
}

/// What one repetition measured on its own store.
struct Rep {
    reads: Reads,
    writes: Writes,
    serving: (ServingStats, ServingStats),
    attempted: u64,
    failed: u64,
    /// Hash of every measured answer, where the store held still.
    answers_digest: Option<u64>,
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// One pass of closed-loop reads, every answer checked against brute
/// force (`expected`, computed on first use: every repetition's store
/// holds the same tuples), then the write tail.
fn reads_then_tail<E: Target>(
    bed: &mut Bed<'_, E>,
    clients: usize,
    counts: &OpCounts,
    expected: &mut Vec<Answer>,
    trace: bool,
) -> Rep {
    if expected.is_empty() {
        let ordered = oracle::in_tid_order(&bed.live);
        expected.extend(
            bed.inputs
                .queries
                .iter()
                .take(ORACLE_READS)
                .map(|q| oracle::brute_force(&ordered, q, ndf_penalty())),
        );
    }
    let client = bed.server.client();
    let serving_before = bed.server.stats();
    let reads = drive_reads(
        &client,
        &bed.inputs.queries,
        clients,
        counts.reads,
        trace,
        "client.search",
    );
    let serving_after = bed.server.stats();
    let writes = apply_writes(
        &mut bed.writer,
        &mut bed.live,
        &bed.inputs.stream,
        trace,
        |_| {},
    );

    // Queries past the oracle's share are still held to one answer by
    // the digest, which every repetition must reproduce.
    let distinct = bed.inputs.queries.len().max(1);
    let wrong = reads
        .samples
        .iter()
        .filter(|s| {
            expected
                .get(s.op % distinct)
                .is_some_and(|want| *want != s.answer)
        })
        .count() as u64;
    Rep {
        attempted: reads.samples.len() as u64 + reads.errors + writes.nanos.len() as u64,
        failed: wrong + reads.errors + writes.errors,
        answers_digest: Some(oracle::digest(reads.samples.iter().map(|s| &s.answer))),
        reads,
        writes,
        serving: (serving_before, serving_after),
    }
}

/// One closed-loop thread putting the write stream and the query list
/// to the store in a fixed interleaving: `reads` queries spread evenly
/// between the write ops. The store is checked against brute force
/// before and after.
fn interleaved<E: Target>(bed: &mut Bed<'_, E>, reads: usize, trace: bool) -> Rep {
    let (mut attempted, mut failed) = oracle_gate(bed);
    let client = bed.server.client();
    let serving_before = bed.server.stats();
    let mut queries_done = Reads {
        log: SpanLog::new(trace),
        ..Reads::default()
    };
    let n_writes = bed.inputs.stream.len().max(1);
    let writes = apply_writes(
        &mut bed.writer,
        &mut bed.live,
        &bed.inputs.stream,
        trace,
        |i| {
            // Query `k` goes after the write op that brings the stream
            // to the share `k / reads` of its length.
            while queries_done.samples.len() as u64 + queries_done.errors
                < ((i + 1) * reads / n_writes) as u64
            {
                let op = (queries_done.samples.len() as u64 + queries_done.errors) as usize;
                read_once(
                    &client,
                    &bed.inputs.queries,
                    op,
                    "client.search",
                    &mut queries_done,
                );
            }
        },
    );
    let serving_after = bed.server.stats();
    let (a, f) = oracle_gate(bed);
    attempted +=
        a + queries_done.samples.len() as u64 + queries_done.errors + writes.nanos.len() as u64;
    failed += f + queries_done.errors + writes.errors;
    Rep {
        reads: queries_done,
        writes,
        serving: (serving_before, serving_after),
        attempted,
        failed,
        answers_digest: None,
    }
}

/// The repetitions folded into one set of samples: each op's latency
/// is the fold of its timings over the repetitions.
struct Folded {
    /// Query latencies, ascending.
    read_nanos: Vec<u64>,
    /// Update latencies, ascending.
    write_nanos: Vec<u64>,
    /// Queries per second. Every load thread is a closed loop with zero
    /// think time, so completed / wall = threads / mean latency; taking
    /// the mean over the folded latencies gives the rate the same
    /// protection from a slow spell that the percentiles have.
    qps: f64,
    /// Write ops per second of writer-thread time: op calls plus the
    /// inline `maintain()` calls, folded per op like the latencies.
    write_ops_per_s: f64,
}

/// Ops per second of `threads` back-to-back loops whose ops took
/// `nanos` in total.
fn rate(ops: usize, threads: usize, nanos: &[u64]) -> f64 {
    let busy: u64 = nanos.iter().sum();
    (threads * ops) as f64 / secs(busy.max(1))
}

fn fold(reps: &[Rep], clients: usize) -> Folded {
    let reads: Vec<&Reads> = reps.iter().map(|r| &r.reads).collect();
    let calls: Vec<&[u64]> = reps.iter().map(|r| r.writes.nanos.as_slice()).collect();
    let busy: Vec<Vec<u64>> = reps.iter().map(|r| r.writes.busy_nanos()).collect();
    let busy: Vec<&[u64]> = busy.iter().map(Vec::as_slice).collect();
    let read_nanos = per_op_fold(&reads);
    let writer_nanos = elementwise_fold(&busy);
    Folded {
        qps: rate(read_nanos.len(), clients, &read_nanos),
        write_ops_per_s: rate(writer_nanos.len(), 1, &writer_nanos),
        read_nanos: sorted(read_nanos),
        write_nanos: sorted(elementwise_fold(&calls)),
    }
}

fn sum_io(handles: &[IoStats]) -> IoSnapshot {
    let mut sum = IoSnapshot::default();
    for s in handles.iter().map(IoStats::snapshot) {
        sum.disk_page_reads += s.disk_page_reads;
        sum.cache_hits += s.cache_hits;
        sum.cache_misses += s.cache_misses;
        sum.random_seeks += s.random_seeks;
    }
    sum
}

fn hit_rate(io: &IoSnapshot) -> f64 {
    let total = io.cache_hits + io.cache_misses;
    if total == 0 {
        return 1.0;
    }
    io.cache_hits as f64 / total as f64
}

/// The per-layer numbers of a traced run, from the main phase's spans
/// and counters plus a solo served pass, a direct pass and the probes.
fn layer_metrics<E: Target>(bed: &Bed<'_, E>, rep: &Rep, log: &mut SpanLog) -> Result<Vec<Metric>> {
    let pass: Vec<Query> = bed
        .inputs
        .queries
        .iter()
        .take(PASS_QUERIES)
        .cloned()
        .collect();
    let n = pass.len().max(1) as f64;

    // Solo: the same queries through the server with one client, so the
    // difference to the direct pass is the serving layer and nothing
    // queues behind anything.
    let solo = drive_reads(
        &bed.server.client(),
        &pass,
        1,
        pass.len(),
        true,
        "client.search.solo",
    );
    let solo_p50 = percentile(&sorted(solo.samples.iter().map(|s| s.nanos).collect()), 500);
    log.absorb(solo.log);

    // Direct: `execute` on a pinned snapshot from this thread. Counters
    // are exact here (one caller), so every per-query count comes from
    // this pass.
    let snap = bed.writer.snapshot();
    let tiers = snap.bench_tiers();
    let table_io: Vec<IoStats> = tiers.iter().map(|t| t.table_io.clone()).collect();
    let index_io: Vec<IoStats> = tiers.iter().map(|t| t.index_io.clone()).collect();
    let (table_before, index_before) = (sum_io(&table_io), sum_io(&index_io));
    let mut direct = SpanLog::new(true);
    let mut total = QueryStats::default();
    let mut hits: Vec<Vec<(Tid, Tuple)>> = Vec::with_capacity(pass.len());
    for (i, query) in pass.iter().enumerate() {
        direct.begin("db.execute", i as u64);
        let outcome = snap.execute(query, &SearchRequest::new(K))?;
        let s = outcome.stats;
        // The engine reports each phase's CPU nanos, not where in the
        // call they fell (filter and refine interleave), so the children
        // are laid back to back from the parent's start.
        direct.child_interval("core.filter", 0, s.filter_nanos);
        direct.child_interval("core.refine", s.filter_nanos, s.refine_nanos);
        direct.end(&[
            ("tuples_scanned", s.tuples_scanned),
            ("table_accesses", s.table_accesses),
            ("speculative_accesses", s.speculative_accesses),
        ]);
        total.tuples_scanned += s.tuples_scanned;
        total.table_accesses += s.table_accesses;
        total.speculative_accesses += s.speculative_accesses;
        total.filter_nanos += s.filter_nanos;
        total.refine_nanos += s.refine_nanos;
        total.list_bytes_logical += s.list_bytes_logical;
        total.list_bytes_physical += s.list_bytes_physical;
        hits.push(outcome.hits.into_iter().map(|h| (h.tid, h.tuple)).collect());
    }
    let table_delta = sum_io(&table_io).since(&table_before);
    let index_delta = sum_io(&index_io).since(&index_before);
    let direct_p50 = percentile(&sorted(direct.durations("db.execute")), 500);
    let facade_self: Vec<f64> = direct
        .spans()
        .iter()
        .zip(direct.self_times())
        .filter(|(s, _)| s.name == "db.execute")
        .map(|(_, self_ns)| ms(self_ns))
        .collect();
    log.absorb(direct);

    let (before, after) = rep.serving;
    let completed = (after.completed - before.completed).max(1) as f64;
    let hot = (after.hot_tier_attrs - before.hot_tier_attrs) as f64;
    let cold = (after.cold_tier_attrs - before.cold_tier_attrs) as f64;

    let writes = &rep.writes;
    let maintain: Vec<&Span> = writes
        .log
        .spans()
        .iter()
        .filter(|s| s.name == "writer.maintain")
        .collect();
    let kind_ms = |kind: &str| -> f64 {
        let v: Vec<f64> = maintain
            .iter()
            .filter(|s| s.counts.iter().any(|(k, _)| *k == kind))
            .map(|s| ms(s.end - s.start))
            .collect();
        median(&v)
    };
    let maintain_busy: u64 = maintain.iter().map(|s| s.end - s.start).sum();

    let probes = layers::run_probes(
        &ProbeInputs {
            dataset: &bed.inputs.dataset,
            postings: &bed.inputs.postings,
            queries: &pass,
            hits: &hits,
            tiers: &tiers,
        },
        log,
    )?;

    let per_update = |bytes: u64| bytes as f64 / writes.nanos.len().max(1) as f64;
    let mut out = vec![
        metric("serve.overhead_ms", ms(solo_p50) - ms(direct_p50)),
        metric(
            "serve.coalesced_fraction",
            (after.coalesced - before.coalesced) as f64 / completed,
        ),
        metric("serve.batches", (after.batches - before.batches) as f64),
        metric("db.facade_self_ms", median(&facade_self)),
        metric("core.filter_ms_per_query", ms(total.filter_nanos) / n),
        metric("core.refine_ms_per_query", ms(total.refine_nanos) / n),
        metric(
            "core.tuples_scanned_per_query",
            total.tuples_scanned as f64 / n,
        ),
        metric(
            "core.table_accesses_per_query",
            total.table_accesses as f64 / n,
        ),
        metric(
            "core.speculative_accesses_per_query",
            total.speculative_accesses as f64 / n,
        ),
        metric(
            "core.hot_attr_fraction",
            if hot + cold > 0.0 {
                hot / (hot + cold)
            } else {
                0.0
            },
        ),
        metric(
            "core.list_bytes_physical_per_query",
            total.list_bytes_physical as f64 / n,
        ),
        metric(
            "core.list_bytes_logical_per_query",
            total.list_bytes_logical as f64 / n,
        ),
        metric("storage.table_cache_hit_rate", hit_rate(&table_delta)),
        metric("storage.index_cache_hit_rate", hit_rate(&index_delta)),
        metric(
            "storage.disk_page_reads_per_query",
            (table_delta.disk_page_reads + index_delta.disk_page_reads) as f64 / n,
        ),
        metric(
            "storage.random_seeks_per_query",
            (table_delta.random_seeks + index_delta.random_seeks) as f64 / n,
        ),
        metric("storage.syncs_in_setup", bed.setup_syncs as f64),
        metric(
            "storage.syncs_per_update",
            writes.syncs as f64 / writes.nanos.len().max(1) as f64,
        ),
        metric(
            "lsm.foreground_bytes_per_update",
            per_update(writes.tier_bytes + writes.memtable_bytes),
        ),
        metric(
            "lsm.maintain_busy_fraction",
            maintain_busy as f64 / writes.wall_nanos.max(1) as f64,
        ),
        metric("lsm.seal_ms", kind_ms("sealed")),
        metric("lsm.compact_ms", kind_ms("compacted")),
        metric("lsm.seals", writes.seals as f64),
        metric("lsm.compactions", writes.compactions as f64),
        metric("lsm.maintenance_bytes_written", writes.store_bytes as f64),
        metric("lsm.segments_at_end", snap.bench_segments() as f64),
        metric(
            "lsm.memtable_records_at_end",
            snap.bench_memtable_records() as f64,
        ),
        metric("workload.gen_s", bed.inputs.gen_s),
    ];
    out.extend(probes);
    Ok(out)
}

/// Bytes of every file of the store.
fn file_bytes(files: &[PathBuf]) -> u64 {
    files
        .iter()
        .filter_map(|p| RealVfs.open(p).ok()?.len().ok())
        .sum()
}

fn sample_note(what: &str, sorted_nanos: &[u64]) -> String {
    let tail = highest_supported(sorted_nanos.len()).map_or_else(
        || "no percentile has 10 samples beyond it".to_string(),
        |p| {
            format!(
                "p{} = {:.4} ms",
                p as f64 / 10.0,
                ms(percentile(sorted_nanos, p))
            )
        },
    );
    format!(
        "{what} samples: {} (p50 = {:.4} ms; highest supported percentile: {tail})",
        sorted_nanos.len(),
        ms(percentile(sorted_nanos, 500)),
    )
}

fn run_with<E: Target>(spec: &Spec, args: &RunArgs) -> Result<RunOutput> {
    let counts = spec.op_counts(args.seconds, &args.scale);
    let mut notes = Vec::new();
    let mut log = SpanLog::new(args.trace);

    // Every repetition builds the same store from scratch and puts the
    // same ops to it, so each op is timed once per repetition, seconds
    // apart, and `setup_s` has one sample per repetition too.
    let mut setup_times = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut expected = Vec::new();
    let mut amps = (0.0, 0.0);
    let mut layer = Vec::new();
    let inputs = generate(spec, args, &counts);
    for attempt in 0..counts.repetitions {
        let mut bed = set_up::<E>(spec, args, &counts, &inputs, attempt)?;
        setup_times.push(bed.setup_s);
        let mut rep = match spec.traffic {
            Traffic::ReadsThenTail { clients, .. } => {
                reads_then_tail(&mut bed, clients, &counts, &mut expected, args.trace)
            }
            Traffic::Interleaved { .. } => interleaved(&mut bed, counts.reads, args.trace),
        };
        // Queries flush nothing: what was asked for since the set-up is
        // the write stream's.
        rep.writes.syncs = bed.vfs.syncs() - bed.setup_syncs;
        if attempt + 1 == counts.repetitions {
            if args.trace {
                log.begin("workload.generate", NO_REQUEST);
                log.end(&[("nanos", (inputs.gen_s * 1e9) as u64)]);
                layer = layer_metrics(&bed, &rep, &mut log)?;
            } else {
                // Everything durable before the files are sized; for the
                // LSM store this seals the memtable, so every live tuple
                // is in a file.
                bed.writer.flush()?;
                let stored = file_bytes(&bed.writer.snapshot().bench_files(&bed.dir));
                let live_bytes: u64 = bed.live.iter().map(|(_, t)| record_len(t) as u64).sum();
                let w = &rep.writes;
                amps = (
                    stored as f64 / live_bytes.max(1) as f64,
                    (w.tier_bytes + w.store_bytes) as f64 / w.user_bytes.max(1) as f64,
                );
            }
        }
        reps.push(rep);
        bed.tear_down();
    }

    notes.push(format!(
        "op_stream_digest: {:016x} ({} write ops)",
        iva_text::fnv1a64(&ops::encode_stream(&inputs.stream)),
        inputs.stream.len()
    ));
    let folded = fold(&reps, spec.load_threads());
    let digests: Vec<u64> = reps.iter().filter_map(|r| r.answers_digest).collect();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    if let Some(first) = digests.first() {
        // The repetitions ask the same questions of the same data.
        failed += digests.iter().filter(|d| *d != first).count() as u64;
        notes.push(format!(
            "answers_digest: {first:016x} (tid + distance bits of every measured read, op order; {} repetitions agree)",
            digests.iter().filter(|d| *d == first).count()
        ));
    }
    // How far apart the repetitions were says how noisy the host was.
    for (i, (rep, setup)) in reps.iter().zip(&setup_times).enumerate() {
        let round_trips: u64 = rep.reads.samples.iter().map(|s| s.nanos).sum();
        notes.push(format!(
            "repetition {i}: set-up {setup:.2} s, query round trips {:.0} ms, write calls {:.0} ms, maintain() {:.0} ms",
            ms(round_trips),
            ms(rep.writes.nanos.iter().sum()),
            ms(rep.writes.maintain_nanos.iter().sum()),
        ));
    }
    notes.push(sample_note("query", &folded.read_nanos));
    notes.push(sample_note("update", &folded.write_nanos));
    if let Some(last) = reps.last() {
        notes.push(format!(
            "maintenance inside one repetition: {} seals, {} compactions",
            last.writes.seals, last.writes.compactions
        ));
    }

    let metrics = if args.trace {
        // The traced run's own median round trip: against the untraced
        // run's `query_p50_ms` it gives the tracing overhead.
        layer.insert(
            0,
            metric(
                "trace.query_p50_ms",
                ms(percentile(&folded.read_nanos, 500)),
            ),
        );
        layer
    } else {
        vec![
            metric("setup_s", median(&setup_times)),
            metric("query_p50_ms", ms(percentile(&folded.read_nanos, 500))),
            metric("query_p95_ms", ms(percentile(&folded.read_nanos, 950))),
            metric("query_qps", folded.qps),
            metric("update_p50_ms", ms(percentile(&folded.write_nanos, 500))),
            metric("update_p95_ms", ms(percentile(&folded.write_nanos, 950))),
            metric("update_ops_per_s", folded.write_ops_per_s),
            metric("space_amp", amps.0),
            metric("write_amp", amps.1),
            metric(
                "peak_rss_mb",
                crate::host::peak_rss_mb().unwrap_or(f64::NAN),
            ),
        ]
    };
    let attempted = reps.iter().map(|r| r.attempted).sum();
    for rep in reps {
        log.absorb(rep.reads.log);
        log.absorb(rep.writes.log);
    }
    Ok(RunOutput {
        metrics,
        attempted,
        failed,
        notes,
        spans: log,
    })
}

/// Run one workload in this process.
pub fn run(spec: &Spec, args: &RunArgs) -> Result<RunOutput> {
    match spec.engine {
        EngineKind::Mono => run_with::<IvaDb>(spec, args),
        EngineKind::Lsm => run_with::<LsmDb>(spec, args),
    }
}

/// Where a traced run writes its spans.
pub fn trace_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("trace-{workload}.json"))
}
