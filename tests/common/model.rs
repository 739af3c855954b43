//! The model every engine is checked against: the live tuples by tid, and
//! their top-k by brute force.

use std::collections::BTreeMap;

use iva_core::{exact_distance, IvaConfig, Metric, Query, ResultPool};
use iva_swt::{Tid, Tuple};

/// The live tuples of a store, by tid.
#[derive(Debug, Default)]
pub struct Model {
    pub live: BTreeMap<Tid, Tuple>,
}

impl Model {
    /// The k smallest `(distance, tid)` of the live tuples, as
    /// `(tid, distance bits)` in rank order: a [`ResultPool`] (the engines'
    /// own order and tie rule) offered every live tuple at its
    /// [`exact_distance`] under the weights `lambda` — the λ of the engine
    /// being checked — and the default *ndf* penalty.
    pub fn topk<M: Metric>(
        &self,
        q: &Query,
        lambda: &[f64],
        metric: &M,
        k: usize,
    ) -> Vec<(Tid, u64)> {
        let ndf = IvaConfig::default().ndf_penalty;
        let mut pool = ResultPool::new(k);
        for (&tid, tuple) in &self.live {
            pool.insert(tid, exact_distance(tuple, q, lambda, metric, ndf));
        }
        let ranked = pool.into_sorted();
        ranked.iter().map(|e| (e.tid, e.dist.to_bits())).collect()
    }
}
