//! The unified search surface: [`SearchRequest`] describes *how* to run a
//! top-k search (k, metric, weights, parallelism) while
//! [`crate::Query`] describes *what* to search for. Every search entry
//! point on [`crate::IvaDb`] and [`crate::LsmDb`] funnels into one
//! `execute` implementation taking a request.
//!
//! [`QueryBuilder`] complements it on the *what* side: it builds a
//! [`crate::Query`] from attribute **names**, resolving them through the
//! catalog and reporting unknown or mistyped names as errors instead of
//! panicking or silently matching nothing.

use iva_core::{BatchItem, IvaError, MetricKind, Query, QueryOptions, Result, WeightScheme};
use iva_swt::{AttrType, Catalog};

/// Execution options for one top-k search, builder style.
///
/// ```
/// use iva_file::{MetricKind, SearchRequest, WeightScheme};
///
/// let req = SearchRequest::new(10)
///     .metric(MetricKind::L1)
///     .weights(WeightScheme::Itf)
///     .threads(4);
/// assert_eq!(req.k(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    k: usize,
    metric: Option<MetricKind>,
    weights: Option<WeightScheme>,
    threads: Option<usize>,
}

impl SearchRequest {
    /// A request for the `k` nearest tuples under the database's default
    /// metric and weight scheme, with the configured parallelism.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            metric: None,
            weights: None,
            threads: None,
        }
    }

    /// Override the database's default metric.
    pub fn metric(mut self, metric: MetricKind) -> Self {
        self.metric = Some(metric);
        self
    }

    /// Override the database's default weight scheme.
    pub fn weights(mut self, weights: WeightScheme) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Override the configured filter-scan thread count
    /// ([`crate::IvaConfig::search_threads`]) for this request. Any count
    /// returns bit-identical results; `1` forces the single-threaded path
    /// and `0` means what it means there, one worker per available CPU.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Requested result count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Metric override, if any.
    pub fn metric_override(&self) -> Option<MetricKind> {
        self.metric
    }

    /// Weight-scheme override, if any.
    pub fn weights_override(&self) -> Option<WeightScheme> {
        self.weights
    }

    /// Thread-count override, if any.
    pub fn threads_override(&self) -> Option<usize> {
        self.threads
    }

    /// The scan-level knobs of a group of requests served by one scan (a
    /// single request is a group of one): the first explicit `threads`
    /// override in the group.
    pub(crate) fn query_options<'a>(
        group: impl IntoIterator<Item = &'a SearchRequest>,
    ) -> QueryOptions {
        QueryOptions {
            threads: group.into_iter().find_map(|r| r.threads),
        }
    }

    /// Split an admission batch into one group per resolved metric
    /// (`metric` / `weights` are the database defaults), submission order
    /// kept within a group. Each group is served by one shared scan.
    pub(crate) fn metric_groups(
        batch: &[(Query, SearchRequest)],
        metric: MetricKind,
        weights: WeightScheme,
    ) -> Vec<MetricGroup<'_>> {
        // Each group keeps the entry reference next to its slot index so
        // the batch is never re-indexed.
        type Entry<'b> = (usize, &'b (Query, SearchRequest));
        let mut groups: Vec<(MetricKind, Vec<Entry<'_>>)> = Vec::new();
        for (i, entry) in batch.iter().enumerate() {
            let m = entry.1.metric.unwrap_or(metric);
            match groups.iter_mut().find(|(g, _)| *g == m) {
                Some((_, entries)) => entries.push((i, entry)),
                None => groups.push((m, vec![(i, entry)])),
            }
        }
        groups
            .into_iter()
            .map(|(metric, entries)| MetricGroup {
                metric,
                slots: entries.iter().map(|&(i, _)| i).collect(),
                items: entries
                    .iter()
                    .map(|(_, (query, r))| BatchItem {
                        query,
                        k: r.k,
                        weights: r.weights.unwrap_or(weights),
                    })
                    .collect(),
                opts: Self::query_options(entries.iter().map(|(_, (_, r))| r)),
            })
            .collect()
    }

    /// The outcomes of a batch of `n`, each beside the slot its group
    /// named for it, back in submission order.
    pub(crate) fn in_batch_order<O>(n: usize, mut answered: Vec<(usize, O)>) -> Result<Vec<O>> {
        if answered.len() != n {
            return Err(IvaError::Corrupt("batch entry left unanswered".into()));
        }
        answered.sort_by_key(|&(slot, _)| slot);
        Ok(answered.into_iter().map(|(_, o)| o).collect())
    }
}

/// The entries of an admission batch that resolve to one metric.
pub(crate) struct MetricGroup<'b> {
    pub(crate) metric: MetricKind,
    /// Where each item sits in the batch, item by item.
    pub(crate) slots: Vec<usize>,
    pub(crate) items: Vec<BatchItem<'b>>,
    /// The group's scan-level knobs ([`SearchRequest::query_options`]).
    pub(crate) opts: QueryOptions,
}

/// Builds a [`Query`] from attribute *names*, resolved through a catalog.
///
/// Created by [`crate::IvaDb::query_builder`] /
/// [`crate::LsmDb::query_builder`]. Name resolution errors (unknown
/// attribute, string value on a numerical attribute, number on a text
/// attribute) are reported by [`QueryBuilder::build`]; the first error
/// wins.
pub struct QueryBuilder<'a> {
    catalog: &'a Catalog,
    query: Query,
    err: Option<IvaError>,
}

impl<'a> QueryBuilder<'a> {
    pub(crate) fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            query: Query::new(),
            err: None,
        }
    }

    fn resolve(&mut self, name: &str, want: AttrType) -> Option<iva_swt::AttrId> {
        let Some(id) = self.catalog.id_of(name) else {
            if self.err.is_none() {
                self.err = Some(IvaError::InvalidArgument(format!(
                    "unknown attribute \"{name}\""
                )));
            }
            return None;
        };
        let ty = self
            .catalog
            .attr_type(id)
            .expect("catalog id without a definition");
        if ty != want {
            if self.err.is_none() {
                let (is, use_) = match ty {
                    AttrType::Text => ("a text", ".text()"),
                    AttrType::Numeric => ("a numerical", ".num()"),
                };
                self.err = Some(IvaError::InvalidArgument(format!(
                    "attribute \"{name}\" is {is} attribute; use {use_}"
                )));
            }
            return None;
        }
        Some(id)
    }

    /// Define a string value on the text attribute called `name`.
    pub fn text(mut self, name: &str, value: impl Into<String>) -> Self {
        if let Some(id) = self.resolve(name, AttrType::Text) {
            self.query = self.query.text(id, value);
        }
        self
    }

    /// Define a numerical value on the numerical attribute called `name`.
    pub fn num(mut self, name: &str, value: f64) -> Self {
        if let Some(id) = self.resolve(name, AttrType::Numeric) {
            self.query = self.query.num(id, value);
        }
        self
    }

    /// Finish, returning the query or the first name-resolution error.
    pub fn build(self) -> Result<Query> {
        match self.err {
            Some(e) => Err(e),
            None => Ok(self.query),
        }
    }
}
