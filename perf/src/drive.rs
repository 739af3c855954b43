//! The load generators: query threads against a `Client`, the write
//! stream against a `Writer`, and what each measured.

use iva_core::{monotonic_nanos, Query, Result};
use iva_file::serve::{Client, Writer};
use iva_file::SearchRequest;
use iva_storage::IoStats;
use iva_swt::{record_len, Tid, Tuple};

use crate::ops::WriteOp;
use crate::oracle::{self, Answer, K};
use crate::spans::SpanLog;
use crate::stats::fold_timings;
use crate::target::Target;

/// One answered query.
pub struct ReadSample {
    /// Position in the op list.
    pub op: usize,
    /// Latency, from when the op was due.
    pub nanos: u64,
    /// What came back.
    pub answer: Answer,
}

/// What the query threads of one repetition measured.
#[derive(Default)]
pub struct Reads {
    /// Answered queries, in op order.
    pub samples: Vec<ReadSample>,
    /// Queries that returned an error.
    pub errors: u64,
    /// Spans (traced runs).
    pub log: SpanLog,
}

/// How one query thread issues its ops.
#[derive(Clone, Copy)]
struct ReadPlan<'a> {
    /// The query list, cycled.
    pub queries: &'a [Query],
    /// Ops `first, first + stride, …` below `limit` are this thread's.
    pub first: usize,
    /// See `first`.
    pub stride: usize,
    /// See `first`.
    pub limit: usize,
    /// Record spans.
    pub trace: bool,
    /// Span name.
    pub span: &'static str,
}

/// Issue op `op` (the next query of the cycled list) and wait for its
/// reply, as one `Client::search` caller does.
pub fn read_once<E: Target>(
    client: &Client<E>,
    queries: &[Query],
    op: usize,
    span: &'static str,
    out: &mut Reads,
) {
    let Some(query) = queries.get(op % queries.len().max(1)).cloned() else {
        out.errors += 1;
        return;
    };
    let request = SearchRequest::new(K);
    out.log.begin(span, op as u64);
    let t0 = monotonic_nanos();
    let result = client.search(query, request);
    let nanos = monotonic_nanos() - t0;
    match result {
        Ok(outcome) => {
            out.log.end(&[
                ("filter_nanos", outcome.stats.filter_nanos),
                ("refine_nanos", outcome.stats.refine_nanos),
                ("table_accesses", outcome.stats.table_accesses),
            ]);
            out.samples.push(ReadSample {
                op,
                nanos,
                answer: oracle::answer_of(&outcome),
            });
        }
        Err(_) => {
            out.log.end(&[]);
            out.errors += 1;
        }
    }
}

/// One closed-loop query thread with zero think time.
fn reader_loop<E: Target>(client: &Client<E>, plan: ReadPlan<'_>) -> Reads {
    let mut out = Reads {
        log: SpanLog::new(plan.trace),
        ..Reads::default()
    };
    for op in (plan.first..plan.limit).step_by(plan.stride.max(1)) {
        read_once(client, plan.queries, op, plan.span, &mut out);
    }
    out
}

/// `clients` closed-loop threads sharing ops `0..limit` of `queries`.
pub fn drive_reads<E: Target>(
    client: &Client<E>,
    queries: &[Query],
    clients: usize,
    limit: usize,
    trace: bool,
    span: &'static str,
) -> Reads {
    let parts: Vec<Reads> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|first| {
                let plan = ReadPlan {
                    queries,
                    first,
                    stride: clients,
                    limit,
                    trace,
                    span,
                };
                scope.spawn(move || reader_loop(client, plan))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect()
    });
    let mut all = Reads {
        log: SpanLog::new(trace),
        ..Reads::default()
    };
    for part in parts {
        all.samples.extend(part.samples);
        all.errors += part.errors;
        all.log.absorb(part.log);
    }
    all.samples.sort_by_key(|s| s.op);
    all
}

/// Each op's latency as the fold of its timings over `passes`, in op
/// order. An op that failed in a pass has one timing fewer.
pub fn per_op_fold(passes: &[&Reads]) -> Vec<u64> {
    let ops = passes
        .iter()
        .flat_map(|p| p.samples.iter().map(|s| s.op + 1))
        .max()
        .unwrap_or(0);
    let mut timings: Vec<Vec<u64>> = vec![Vec::new(); ops];
    for sample in passes.iter().flat_map(|p| &p.samples) {
        if let Some(t) = timings.get_mut(sample.op) {
            t.push(sample.nanos);
        }
    }
    timings
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| fold_timings(t))
        .collect()
}

/// What one application of the write stream measured.
#[derive(Default)]
pub struct Writes {
    /// Duration of each op's call, in stream order.
    pub nanos: Vec<u64>,
    /// Duration of the `maintain()` call after each op.
    pub maintain_nanos: Vec<u64>,
    /// Ops that failed.
    pub errors: u64,
    /// Wall time of the stream, inline `maintain()` included.
    pub wall_nanos: u64,
    /// Bytes written to the table and index files of sealed tiers (the
    /// monolith's two files; a segment's in-place tombstones).
    pub tier_bytes: u64,
    /// Page bytes copied inside the memtable, which is RAM: foreground
    /// work, but not write amplification.
    pub memtable_bytes: u64,
    /// Bytes written by maintenance staging and manifest commits.
    pub store_bytes: u64,
    /// `record_len` of every tuple inserted or updated.
    pub user_bytes: u64,
    /// File flushes the stream asked for (counted, not carried out:
    /// see `nosync.rs`). Filled in by the caller, who holds the
    /// filesystem.
    pub syncs: u64,
    /// Maintenance rounds that sealed the memtable.
    pub seals: u64,
    /// Maintenance rounds that merged segments.
    pub compactions: u64,
    /// Spans (traced runs).
    pub log: SpanLog,
}

impl Writes {
    /// What the writer thread spent on each op: its call plus the
    /// `maintain()` after it.
    pub fn busy_nanos(&self) -> Vec<u64> {
        self.nanos
            .iter()
            .zip(&self.maintain_nanos)
            .map(|(op, maintain)| op + maintain)
            .collect()
    }
}

fn bytes_written(handles: &[IoStats]) -> u64 {
    handles.iter().map(|h| h.snapshot().bytes_written).sum()
}

/// The tier counters of the current publication and their readings:
/// one epoch of foreground write accounting.
struct TierEpoch {
    durable: Vec<IoStats>,
    memory: Vec<IoStats>,
    durable_base: u64,
    memory_base: u64,
}

impl TierEpoch {
    fn open<E: Target>(writer: &Writer<E>) -> Self {
        let (mut durable, mut memory) = (Vec::new(), Vec::new());
        for tier in writer.snapshot().bench_tiers() {
            let side = if tier.durable {
                &mut durable
            } else {
                &mut memory
            };
            side.extend([tier.table_io, tier.index_io]);
        }
        Self {
            durable_base: bytes_written(&durable),
            memory_base: bytes_written(&memory),
            durable,
            memory,
        }
    }

    /// Add what the epoch's tiers wrote since it opened to `out`.
    fn close(&self, out: &mut Writes) {
        out.tier_bytes += bytes_written(&self.durable) - self.durable_base;
        out.memtable_bytes += bytes_written(&self.memory) - self.memory_base;
    }
}

/// Time `call` under a span; `None` when it failed.
fn timed_op<T>(
    log: &mut SpanLog,
    name: &'static str,
    op_index: usize,
    call: impl FnOnce() -> Result<T>,
) -> (u64, Option<T>) {
    log.begin(name, op_index as u64);
    let t0 = monotonic_nanos();
    let done = call();
    let nanos = monotonic_nanos() - t0;
    log.end(&[]);
    (nanos, done.ok())
}

/// Apply one op through the writer and mirror it in the live list.
/// Returns the call's duration and, when it succeeded, the user bytes it
/// wrote (`record_len` of the tuple; 0 for a delete).
fn apply_op<E: Target>(
    writer: &mut Writer<E>,
    live: &mut Vec<(Tid, Tuple)>,
    op: &WriteOp,
    op_index: usize,
    log: &mut SpanLog,
) -> (u64, Option<u64>) {
    let victim = |slot: usize| live.get(slot).map(|(tid, _)| *tid);
    match op {
        WriteOp::Insert(tuple) => {
            let (nanos, tid) = timed_op(log, "writer.insert", op_index, || writer.insert(tuple));
            let written = tid.map(|tid| {
                live.push((tid, tuple.clone()));
                record_len(tuple) as u64
            });
            (nanos, written)
        }
        WriteOp::Update(slot, tuple) => {
            let Some(old) = victim(*slot) else {
                return (0, None);
            };
            let (nanos, tid) = timed_op(log, "writer.update", op_index, || {
                writer.apply(|db| db.bench_update(old, tuple))
            });
            let written = tid.zip(live.get_mut(*slot)).map(|(tid, entry)| {
                *entry = (tid, tuple.clone());
                record_len(tuple) as u64
            });
            (nanos, written)
        }
        WriteOp::Delete(slot) => {
            let Some(old) = victim(*slot) else {
                return (0, None);
            };
            let (nanos, found) = timed_op(log, "writer.delete", op_index, || writer.delete(old));
            // A delete that finds nothing is a failed op, not a no-op.
            let written = (found == Some(true)).then(|| {
                live.swap_remove(*slot);
                0
            });
            (nanos, written)
        }
    }
}

/// Apply `stream` through the writer back to back, `maintain()` after
/// every op, then `between(i, log)` (the interleaved workload's reads).
///
/// Tier counters die with their tier at a seal or merge, so tier bytes
/// are summed per epoch between maintenance rounds that did work; the
/// `IoStats` handles are shared, so a dropped tier's last value is still
/// readable when its epoch closes.
pub fn apply_writes<E: Target>(
    writer: &mut Writer<E>,
    live: &mut Vec<(Tid, Tuple)>,
    stream: &[WriteOp],
    trace: bool,
    mut between: impl FnMut(usize),
) -> Writes {
    let mut out = Writes {
        log: SpanLog::new(trace),
        nanos: Vec::with_capacity(stream.len()),
        maintain_nanos: Vec::with_capacity(stream.len()),
        ..Writes::default()
    };
    let store = writer.snapshot().bench_store_io();
    let store_base = bytes_written(&store);
    let mut epoch = TierEpoch::open(writer);
    let mut segments = writer.snapshot().bench_segments();
    let start = monotonic_nanos();
    for (i, op) in stream.iter().enumerate() {
        let (nanos, user_bytes) = apply_op(writer, live, op, i, &mut out.log);
        out.nanos.push(nanos);
        match user_bytes {
            Some(bytes) => out.user_bytes += bytes,
            None => out.errors += 1,
        }

        out.log.begin("writer.maintain", i as u64);
        let t0 = monotonic_nanos();
        let worked = E::bench_maintain(writer);
        out.maintain_nanos.push(monotonic_nanos() - t0);
        match worked {
            Ok(true) => {
                let now = writer.snapshot().bench_segments();
                let sealed = now >= segments;
                if sealed {
                    out.seals += 1;
                } else {
                    out.compactions += 1;
                }
                segments = now;
                out.log
                    .end(&[(if sealed { "sealed" } else { "compacted" }, 1)]);
                epoch.close(&mut out);
                epoch = TierEpoch::open(writer);
            }
            Ok(false) => out.log.end(&[]),
            Err(_) => {
                out.log.end(&[]);
                out.errors += 1;
            }
        }
        between(i);
    }
    out.wall_nanos = monotonic_nanos() - start;
    epoch.close(&mut out);
    out.store_bytes = bytes_written(&store) - store_base;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(timings: &[(usize, u64)]) -> Reads {
        Reads {
            samples: timings
                .iter()
                .map(|&(op, nanos)| ReadSample {
                    op,
                    nanos,
                    answer: Vec::new(),
                })
                .collect(),
            ..Reads::default()
        }
    }

    #[test]
    fn an_ops_latency_is_its_fastest_pass() {
        let passes = [
            pass(&[(0, 10), (1, 500), (2, 30)]),
            pass(&[(0, 12), (1, 20), (2, 31)]),
            pass(&[(0, 900), (1, 22), (2, 29)]),
        ];
        // A slow pass does not move an op the other passes ran fast.
        let refs: Vec<&Reads> = passes.iter().collect();
        assert_eq!(per_op_fold(&refs), vec![10, 20, 29]);
        // An op missing from a pass keeps the fold of what it has.
        let gappy = [pass(&[(0, 10), (2, 30)]), pass(&[(0, 14)])];
        let refs: Vec<&Reads> = gappy.iter().collect();
        assert_eq!(per_op_fold(&refs), vec![10, 30]);
        assert!(per_op_fold(&[]).is_empty());
    }
}
