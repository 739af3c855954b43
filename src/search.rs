//! The unified search surface: [`SearchRequest`] describes *how* to run a
//! top-k search (k, metric, weights) while
//! [`crate::Query`] describes *what* to search for. Every search entry
//! point of a [`crate::Store`] — a query under the store's metric or
//! under a caller's — funnels into one function, `search`: the query
//! walks each of the store's tiers once, in tid order, on a pool carried
//! from tier to tier (DESIGN.md §14).
//!
//! [`QueryBuilder`] complements it on the *what* side: it builds a
//! [`crate::Query`] from attribute **names**, resolving them through the
//! catalog and reporting unknown or mistyped names as errors instead of
//! panicking or silently matching nothing.

use iva_core::{
    CarriedQuery, IndexedTable, IvaError, IvaIndex, Metric, MetricKind, PoolEntry, Query,
    QueryOutcome, Result, WeightScheme,
};
use iva_swt::{AttrType, Catalog};

use crate::store::{SearchHit, SearchOutcome, Tiered};

/// Execution options for one top-k search, builder style.
///
/// ```
/// use iva_file::{MetricKind, SearchRequest, WeightScheme};
///
/// let req = SearchRequest::new(10)
///     .metric(MetricKind::L1)
///     .weights(WeightScheme::Itf);
/// assert_eq!(req.k(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    k: usize,
    metric: Option<MetricKind>,
    weights: Option<WeightScheme>,
}

impl SearchRequest {
    /// A request for the `k` nearest tuples under the database's default
    /// metric and weight scheme.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            metric: None,
            weights: None,
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
}

/// Builds a [`Query`] from attribute *names*, resolved through a catalog.
///
/// Created by [`crate::Store::query_builder`]. Name resolution errors
/// (unknown attribute, string value on a numerical attribute, number on
/// a text attribute) are reported by [`QueryBuilder::build`]; the first
/// error wins.
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

/// The one search path: answer `query` on `engine` under `metric`, the
/// weights `request` names or else `weights`. The query's λ is resolved
/// across the tiers and its matchers are built once; every tier is walked
/// once, in tid order, on the query's carried pool; each hit is read from
/// the tier that holds it.
pub(crate) fn search<E: Tiered, M: Metric>(
    engine: &E,
    query: &Query,
    metric: &M,
    request: &SearchRequest,
    weights: WeightScheme,
) -> Result<SearchOutcome> {
    let tiers = engine.tiers().map(IndexedTable::searchable);
    let tiers = tiers.collect::<Result<Vec<_>>>()?;
    let scheme = request.weights.unwrap_or(weights);
    let lambda = IvaIndex::resolve_weights_across(&tiers, query, scheme);
    // Built under the newest tier's codec, lent to every tier.
    let mut carried = CarriedQuery::new(engine.newest().index(), query, request.k, lambda);
    for (index, table) in tiers {
        index.walk_tier(table, &mut carried, metric)?;
    }
    let QueryOutcome { results, stats } = carried.carry.finish();
    let hits = results.into_iter().map(|PoolEntry { tid, dist, ptr }| {
        let tuple = engine.tier_of(tid).table().get(ptr)?.tuple;
        Ok(SearchHit { tid, dist, tuple })
    });
    let hits = hits.collect::<Result<_>>()?;
    Ok(SearchOutcome { hits, stats })
}
