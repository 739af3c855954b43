//! The four workloads: engine configuration, traffic shape and the op
//! counts each `--seconds` freezes.

use crate::target::LoadPlan;

/// Which engine a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `IvaDb`, the single-file engine.
    Mono,
    /// `LsmDb`, memtable + sealed segments.
    Lsm,
}

/// How a workload's query list is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Three values per query, sampled from the data distribution.
    Cold3,
    /// One value per query, attribute Zipf(1.6) by popularity.
    Zipf1,
}

/// Zipf exponent of [`Mix::Zipf1`].
pub const ZIPF_S: f64 = 1.6;

/// Write ops of the serial tail that ends a read workload. The contract
/// has every workload print every end-to-end metric, so the read
/// workloads need an update latency and a write amplification of their
/// own: the monolith's in-place write path, measured with no reader
/// beside it. 30 % of the ops tombstone, which stays under the engine's
/// 2 % cleaning threshold at 20,000 tuples: no rebuild runs in the tail.
pub const TAIL_WRITES: usize = 1_000;

/// What load a workload puts on its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// `clients` closed-loop query threads with zero think time (a
    /// `Client::search` caller waits for its reply) share
    /// `reads_per_second × seconds / repetitions` queries; then
    /// [`TAIL_WRITES`] back-to-back write ops.
    ReadsThenTail {
        /// Closed-loop query threads.
        clients: usize,
        /// Frozen op count per requested second: calibrated once so the
        /// reads last about `--seconds` at the commit that added the
        /// benchmark on the 2-core reference host. A faster engine
        /// finishes the same ops sooner.
        reads_per_second: usize,
    },
    /// One closed-loop thread puts `writes_per_second × seconds /
    /// repetitions` write ops (`maintain()` after each) and
    /// `reads_per_second × seconds / repetitions` queries to the store,
    /// the queries spread evenly between the write ops.
    ///
    /// One thread, not a reader beside a writer: the engine publishes
    /// through one reader-writer lock, and on the 2 shared cores of the
    /// reference host two threads contending for it do not repeat. A
    /// zero-think-time reader turns the writer into one write per query
    /// and a zero-think-time writer starves the reader instead, wake-up
    /// order deciding which; with both streams paced as open loops the
    /// percentiles sit on the edge between "no wait" and "waited out a
    /// query" or "queued behind a seal". Six runs of one seed gave
    /// quartile spreads of 0.6 (`query_p50_ms`), 1.1 (`query_p95_ms`)
    /// and 2.6 (`update_p50_ms`). Interleaved, every op meets the same
    /// store state in every run and its timings can be folded like any
    /// other workload's. What this gives up is lock contention and
    /// maintenance overlapping reads; see `perf/README.md`.
    Interleaved {
        /// Frozen query count per requested second.
        reads_per_second: usize,
        /// Frozen write-op count per requested second.
        writes_per_second: usize,
    },
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name (the contract).
    pub name: &'static str,
    /// Why the workload exists, one line.
    pub why: &'static str,
    /// Engine under test.
    pub engine: EngineKind,
    /// Packed lists or the raw layout.
    pub compress_lists: bool,
    /// Hot-tier budget in bytes.
    pub hot_tier_bytes: usize,
    /// Caches larger than the files, or the paper's 2.8 %.
    pub resident: bool,
    /// Server worker threads.
    pub workers: usize,
    /// Query list shape.
    pub mix: Mix,
    /// Distinct queries in the list (cycled).
    pub distinct: usize,
    /// Unrecorded served queries before timing.
    pub warm_ops: usize,
    /// Times a run sets the workload up and measures it. The reference
    /// host shares its cores: the same run differs from itself by
    /// 10–25 % as neighbours come and go. Each repetition builds the same
    /// store and puts the same ops to it, so every op is timed once per
    /// repetition, seconds apart, and a slow spell that one repetition
    /// ran in is outvoted. `--seconds` is split evenly between them.
    pub repetitions: usize,
    /// Load shape and frozen rates.
    pub traffic: Traffic,
}

/// The workloads, in report order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "read_cold",
        why: "paper default: raw lists, 2.8% caches, 3-value queries; refine and pager misses dominate",
        engine: EngineKind::Mono,
        compress_lists: false,
        hot_tier_bytes: 0,
        resident: false,
        workers: 2,
        mix: Mix::Cold3,
        distinct: 200,
        warm_ops: 32,
        repetitions: 3,
        traffic: Traffic::ReadsThenTail {
            clients: 2,
            reads_per_second: 40,
        },
    },
    Spec {
        name: "read_packed",
        why: "packed lists fully resident, 1-value Zipf queries on dense lists: no storage misses, frame decode and estimate kernel on the path",
        engine: EngineKind::Mono,
        compress_lists: true,
        hot_tier_bytes: 0,
        resident: true,
        workers: 2,
        mix: Mix::Zipf1,
        distinct: 128,
        warm_ops: 64,
        repetitions: 3,
        traffic: Traffic::ReadsThenTail {
            clients: 2,
            reads_per_second: 80,
        },
    },
    Spec {
        name: "read_hot",
        why: "same queries as read_packed through the hot tier's fused spine instead of pager + packed decode",
        engine: EngineKind::Mono,
        compress_lists: true,
        hot_tier_bytes: 64 << 20,
        resident: true,
        workers: 2,
        mix: Mix::Zipf1,
        distinct: 128,
        warm_ops: 128,
        repetitions: 3,
        traffic: Traffic::ReadsThenTail {
            clients: 2,
            reads_per_second: 80,
        },
    },
    Spec {
        name: "mixed_lsm",
        why: "writes interleaved with reads on LsmDb: memtable, seal/compact, cross-tier replay, epoch publication; read gains bought with write cost show here",
        engine: EngineKind::Lsm,
        compress_lists: true,
        hot_tier_bytes: 0,
        resident: false,
        workers: 1,
        mix: Mix::Cold3,
        distinct: 256,
        warm_ops: 16,
        repetitions: 4,
        traffic: Traffic::Interleaved {
            reads_per_second: 107,
            writes_per_second: 294,
        },
    },
];

/// Dataset and op-count scale: the full benchmark or the smoke sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `full` or `smoke`.
    pub label: &'static str,
    /// Tuples generated (over the paper's 1,147-attribute catalog).
    pub tuples: usize,
    /// Tuples the LSM store is preloaded with; the rest feed its inserts.
    pub lsm_preload: usize,
    /// Memtable seal threshold.
    pub memtable_limit: u64,
    /// Frozen op counts, distinct-query counts and warm-ups are divided
    /// by this (arrival rates are not: a smoke run is shorter, not
    /// slower).
    pub ops_div: usize,
    /// Most repetitions a run makes, whatever the workload asks for.
    pub max_repetitions: usize,
}

/// The benchmark proper: `WorkloadConfig::scaled(20_000)`. The LSM store
/// starts an eighth of that size (the rest of the dataset feeds its
/// inserts) with an eighth of the usual 2,048-record memtable: one
/// repetition measures for ~4 s, in which the full-size store would not
/// seal once, and setting it up (every tuple through the write path)
/// would cost 9 s a repetition.
pub const FULL: Scale = Scale {
    label: "full",
    tuples: 20_000,
    lsm_preload: 2_000,
    memtable_limit: 256,
    ops_div: 1,
    max_repetitions: usize::MAX,
};

/// CI-sized: every workload and its trace in a few seconds. Two
/// repetitions: a smoke run shows that everything runs, not how fast.
pub const SMOKE: Scale = Scale {
    label: "smoke",
    tuples: 2_000,
    lsm_preload: 200,
    memtable_limit: 32,
    ops_div: 8,
    max_repetitions: 2,
};

/// Frozen op counts of one run.
#[derive(Debug, Clone, Copy)]
pub struct OpCounts {
    /// Distinct queries.
    pub distinct: usize,
    /// Warm-up queries.
    pub warm: usize,
    /// Measured queries per repetition.
    pub reads: usize,
    /// Write ops per repetition.
    pub writes: usize,
    /// Times the workload is set up and measured.
    pub repetitions: usize,
}

/// Fewest distinct queries at any scale: the oracle gate's sample.
pub const ORACLE_QUERIES: usize = 16;

impl Spec {
    /// The op counts `seconds` and `scale` freeze for this workload.
    pub fn op_counts(&self, seconds: u64, scale: &Scale) -> OpCounts {
        let div = scale.ops_div.max(1);
        let (reads, writes) = match self.traffic {
            Traffic::ReadsThenTail {
                reads_per_second, ..
            } => (
                reads_per_second * seconds as usize / div / self.repetitions.max(1),
                TAIL_WRITES / div,
            ),
            Traffic::Interleaved {
                reads_per_second,
                writes_per_second,
            } => (
                reads_per_second * seconds as usize / div / self.repetitions.max(1),
                writes_per_second * seconds as usize / div / self.repetitions.max(1),
            ),
        };
        OpCounts {
            distinct: (self.distinct / div).max(ORACLE_QUERIES),
            warm: (self.warm_ops / div).max(1),
            reads,
            writes,
            repetitions: self.repetitions.min(scale.max_repetitions),
        }
    }

    /// Threads that generate load at once.
    pub fn load_threads(&self) -> usize {
        match self.traffic {
            Traffic::ReadsThenTail { clients, .. } => clients,
            Traffic::Interleaved { .. } => 1,
        }
    }

    /// How the engine is built for this workload.
    pub fn load_plan(&self, scale: &Scale) -> LoadPlan {
        LoadPlan {
            compress_lists: self.compress_lists,
            hot_tier_bytes: self.hot_tier_bytes,
            resident: self.resident,
            rows: match self.engine {
                EngineKind::Mono => scale.tuples,
                EngineKind::Lsm => scale.lsm_preload,
            },
            memtable_limit: scale.memtable_limit,
        }
    }
}
