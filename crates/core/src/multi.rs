//! lint:scope(panic-reachability)
//! Multi-query batch execution: N lanes on one scan (the admission-
//! batching substrate of the serving layer).
//!
//! A serving front end that admits several concurrent top-k requests can
//! run them as a *batch*: the tuple list is read once per scan position —
//! not once per query — and the members' drains run back to back at the
//! end of the walk, so concurrent queries share buffer-pool pages the way
//! the paper's cost model assumes (Sec. V-A's cache regime).
//!
//! Bit-identity. Each query is one lane of [`IvaIndex::scan`] with
//! private scan positions, pool and pending candidates; only the
//! tuple-list read is shared. A lane drains on its *own* pending count,
//! so nothing about its schedule depends on its neighbors: the top-k and
//! `table_accesses` of every batch member are those of running that query
//! alone through [`IvaIndex::query`], for every batch composition.
//!
//! Phase timings are per-*batch*, not per-query: every member reports the
//! same filter time (every member's query preparation plus the shared
//! scan) and the batch's total refine time, because the walk genuinely is
//! shared and cannot be attributed to one member. Treat the nanos of a
//! batched outcome as "cost of the round you rode in".

use iva_swt::SwtTable;

use crate::error::Result;
use crate::index::{IvaIndex, QueryOutcome, ScanCarry};
use crate::metric::{Metric, WeightScheme};
use crate::query::Query;
use crate::scan::{Lane, DRAIN_AT};

/// One query of a batch submitted to [`IvaIndex::query_batch`].
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// The query.
    pub query: &'a Query,
    /// Result-pool size (top-k).
    pub k: usize,
    /// Attribute weighting scheme.
    pub weights: WeightScheme,
}

impl IvaIndex {
    /// Run a batch of top-k queries over one shared tuple-list scan. Every
    /// member's top-k and access counters are bit-identical to running it
    /// alone through [`IvaIndex::query`] — for any batch composition (see
    /// the module doc). A singleton batch is that single-query plan.
    pub fn query_batch<M: Metric>(
        &self,
        table: &SwtTable,
        batch: &[BatchItem<'_>],
        metric: &M,
    ) -> Result<Vec<QueryOutcome>> {
        match batch {
            [] => return Ok(Vec::new()),
            [it] => return Ok(vec![self.query(table, it.query, it.k, metric, it.weights)?]),
            _ => {}
        }
        let lambdas: Vec<Vec<f64>> = batch
            .iter()
            .map(|it| self.resolve_weights(it.query, it.weights))
            .collect();
        let matchers: Vec<_> = batch
            .iter()
            .map(|it| self.query_matchers(it.query))
            .collect();
        let mut prepare_nanos: u64 = matchers.iter().map(|m| m.build_nanos()).sum();
        let mut carries: Vec<ScanCarry> = batch.iter().map(|it| ScanCarry::new(it.k)).collect();
        let (shared, seeds): (Vec<_>, Vec<_>) = batch
            .iter()
            .zip(&matchers)
            .zip(lambdas.iter().zip(carries.iter_mut()))
            .map(|((it, matchers), (lambda, carry))| {
                let (shared, seed, nanos) =
                    self.prepare_query_timed(it.query, matchers, (lambda, metric), carry)?;
                prepare_nanos += nanos;
                Ok((shared, seed))
            })
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        let mut lanes = Vec::with_capacity(batch.len());
        for ((it, carry), ((lambda, shared), seed)) in batch
            .iter()
            .zip(carries.iter_mut())
            .zip(lambdas.iter().zip(&shared).zip(&seeds))
        {
            lanes.push(Lane::open(
                self,
                it.query,
                lambda,
                shared,
                seed.as_ref(),
                carry,
            )?);
        }
        let nanos = self.scan(table, &mut lanes, DRAIN_AT, metric)?;
        drop(lanes);
        Ok(carries
            .into_iter()
            .zip(&shared)
            .map(|(mut carry, shared)| {
                carry.stats.filter_nanos = prepare_nanos + nanos.filter;
                carry.stats.refine_nanos = nanos.refine;
                self.list_bytes_into(shared, &mut carry.stats);
                carry.finish()
            })
            .collect())
    }
}
