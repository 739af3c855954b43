//! lint:scope(panic-reachability)
//! The temporary result pool (Sec. IV-A).
//!
//! Holds the `k` smallest `(dist, tid)` pairs inserted so far, with their
//! *actual* distances, ordered lexicographically under [`f64::total_cmp`].
//! A candidate is worth refining iff the pool is not yet full or its
//! `(lower bound, tid)` is below the pool's current worst entry. Because
//! the order is total and the tie goes to the lower tid, the pool's
//! content is a function of *what* was inserted, never of *when* — the
//! fact the scan spine's order-independence lemma rests on (see
//! [`crate::scan`]). Inserting in ascending tid order, as every tuple list
//! is laid out, reproduces Algorithm 1's "strictly smaller distance, first
//! arrival wins". Implemented as a bounded binary max-heap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use iva_swt::{RecordPtr, Tid};

/// One ranked answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolEntry {
    /// Tuple id.
    pub tid: Tid,
    /// Actual distance to the query.
    pub dist: f64,
    /// Location of the tuple in the table file (lets callers materialize
    /// results without re-scanning the tuple list).
    pub ptr: RecordPtr,
}

impl Eq for PoolEntry {}

impl Ord for PoolEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        key_cmp((self.dist, self.tid), (other.dist, other.tid))
    }
}

impl PartialOrd for PoolEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The pool's one order: distance under `total_cmp`, then tid.
fn key_cmp(a: (f64, Tid), b: (f64, Tid)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// `d`'s rank under [`f64::total_cmp`], as an integer.
fn rank(d: f64) -> i64 {
    d.to_bits() as i64 ^ ((d.to_bits() as i64 >> 63) as u64 >> 1) as i64
}

/// A pool's admission test as it stood ([`ResultPool::admission`]): room,
/// or the worst entry's rank, then its tid.
#[derive(Debug, Clone, Copy)]
pub struct Admission(bool, i64, Tid);

impl Admission {
    /// `admits_at(lower_bound, tid)` as the pool stood.
    #[inline]
    pub fn admits(self, lower_bound: f64, tid: Tid) -> bool {
        let (Self(room, worst, worst_tid), key) = (self, rank(lower_bound));
        room | (key < worst) | ((key == worst) & (tid < worst_tid))
    }
}

/// Bounded top-k pool keyed by `(actual distance, tid)`.
#[derive(Debug)]
pub struct ResultPool {
    heap: BinaryHeap<PoolEntry>,
    k: usize,
}

impl ResultPool {
    /// Pool retaining the `k` smallest `(dist, tid)` pairs.
    pub fn new(k: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(k + 1),
            k,
        }
    }

    /// `pool.Size()` of Algorithm 1.
    pub fn size(&self) -> usize {
        self.heap.len()
    }

    /// The `k` this pool was created with.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// The entry a full pool would evict next; `None` while there is room
    /// (and always for `k = 0`).
    pub(crate) fn worst(&self) -> Option<&PoolEntry> {
        self.heap.peek().filter(|_| self.heap.len() >= self.k)
    }

    /// The admission test of lines 10/13: true if tuple `tid`, whose
    /// distance is at least `lower_bound`, could still enter the top-k —
    /// the pool has room, or `(lower_bound, tid)` is below its worst entry.
    pub fn admits_at(&self, lower_bound: f64, tid: Tid) -> bool {
        self.k > 0
            && self
                .worst()
                .is_none_or(|w| key_cmp((lower_bound, tid), (w.dist, w.tid)).is_lt())
    }

    /// [`ResultPool::admits_at`] as the pool stands now, to test a block of
    /// candidates with, branch-free. The worst entry only falls, so
    /// whatever this rejects the pool rejects from then on.
    pub fn admission(&self) -> Admission {
        match self.worst() {
            Some(w) => Admission(false, rank(w.dist), w.tid),
            None => Admission(self.k > 0, i64::MIN, 0),
        }
    }

    /// The pool's current admission boundary as a single number: a finite
    /// candidate distance `d` is admitted iff `d < threshold()`, or
    /// `d == threshold()` and its tid is below the worst entry's (the tie
    /// clause; see [`ResultPool::refine_cap`]). `+∞` while the pool is not
    /// yet full (everything admitted), the current maximum once it is
    /// (`pool.MaxDist()` of Algorithm 1), and `-∞` for `k = 0` (nothing
    /// ever admitted).
    pub fn threshold(&self) -> f64 {
        if self.k == 0 {
            f64::NEG_INFINITY
        } else {
            self.worst().map_or(f64::INFINITY, |w| w.dist)
        }
    }

    /// The bound a refiner needs `tid`'s distance exact *below*: every
    /// distance `< refine_cap(tid)` can be admitted, none at or above it
    /// can. That is [`ResultPool::threshold`], stepped up by one ulp when
    /// `tid` would win a tie against the worst entry — so a distance equal
    /// to the threshold is still computed exactly for the tuples it can
    /// admit.
    pub fn refine_cap(&self, tid: Tid) -> f64 {
        match self.worst() {
            Some(w) if tid < w.tid => w.dist.next_up(),
            _ => self.threshold(),
        }
    }

    /// `pool.Insert(tid, dist)`: insert, evicting the current worst when
    /// over capacity. Returns false if the entry was rejected outright.
    pub fn insert(&mut self, tid: Tid, dist: f64) -> bool {
        self.insert_at(tid, dist, RecordPtr(u64::MAX))
    }

    /// [`ResultPool::insert`] carrying the tuple's table-file location.
    pub fn insert_at(&mut self, tid: Tid, dist: f64, ptr: RecordPtr) -> bool {
        if !self.admits_at(dist, tid) {
            return false;
        }
        self.heap.push(PoolEntry { tid, dist, ptr });
        if self.heap.len() > self.k {
            self.heap.pop();
        }
        true
    }

    /// Drain into ascending `(dist, tid)` order.
    pub fn into_sorted(self) -> Vec<PoolEntry> {
        self.heap.into_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_k_smallest() {
        let mut p = ResultPool::new(3);
        for (tid, d) in [(0, 9.0), (1, 1.0), (2, 5.0), (3, 3.0), (4, 7.0), (5, 0.5)] {
            p.insert(tid, d);
        }
        let out = p.into_sorted();
        let tids: Vec<_> = out.iter().map(|e| e.tid).collect();
        assert_eq!(tids, vec![5, 1, 3]);
        let dists: Vec<_> = out.iter().map(|e| e.dist).collect();
        assert_eq!(dists, vec![0.5, 1.0, 3.0]);
    }

    #[test]
    fn admits_everything_until_full() {
        let mut p = ResultPool::new(2);
        assert!(p.admits_at(f64::MAX, 9));
        assert_eq!(p.threshold(), f64::INFINITY);
        p.insert(0, 10.0);
        assert!(p.admits_at(1e300, 9));
        p.insert(5, 20.0);
        assert!(!p.admits_at(20.0, 5)); // the worst entry itself
        assert!(!p.admits_at(20.0, 6)); // equal distance, later tid
        assert!(p.admits_at(20.0, 4)); // equal distance, earlier tid
        assert!(p.admits_at(19.999, 9));
    }

    #[test]
    fn rejected_insert_returns_false() {
        let mut p = ResultPool::new(1);
        assert!(p.insert(0, 1.0));
        assert!(!p.insert(1, 2.0));
        assert!(p.insert(2, 0.5));
        let out = p.into_sorted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tid, 2);
    }

    #[test]
    fn k_zero_never_admits() {
        let mut p = ResultPool::new(0);
        assert!(!p.admits_at(0.0, 0));
        assert!(!p.insert(0, 0.0));
        assert_eq!(p.refine_cap(0), f64::NEG_INFINITY);
        assert!(p.into_sorted().is_empty());
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut p = ResultPool::new(2);
        for tid in [5u64, 1, 9, 3] {
            p.insert(tid, 1.0);
        }
        let tids: Vec<_> = p.into_sorted().iter().map(|e| e.tid).collect();
        // Equal distances rank by tid, whatever the arrival order.
        assert_eq!(tids, vec![1, 3]);
    }

    #[test]
    fn threshold_is_the_admission_boundary() {
        let mut p = ResultPool::new(2);
        assert_eq!(p.threshold(), f64::INFINITY);
        p.insert(0, 10.0);
        assert_eq!(p.threshold(), f64::INFINITY); // not full yet
        assert_eq!(p.refine_cap(7), f64::INFINITY);
        p.insert(4, 20.0);
        assert_eq!(p.threshold(), 20.0);
        // Off the tie, admits_at(d, ·) ⟺ d < threshold(); on it the tid
        // decides, and refine_cap says which side a tid is on.
        for d in [0.0, 19.999, 20.0, 25.0] {
            for tid in [3u64, 5] {
                let want = d < 20.0 || (d == 20.0 && tid < 4);
                assert_eq!(p.admits_at(d, tid), want, "d={d} tid={tid}");
                assert_eq!(d < p.refine_cap(tid), want, "d={d} tid={tid}");
            }
        }
        p.insert(2, 5.0); // evicts 20.0
        assert_eq!(p.threshold(), 10.0);
        assert_eq!(ResultPool::new(0).threshold(), f64::NEG_INFINITY);
    }

    /// An admission taken from the pool answers as `admits_at` did then,
    /// over every class `total_cmp` orders — both zeros and both NaNs —
    /// and for a pool with room, a full one and `k = 0`.
    #[test]
    fn admission_is_admits_at() {
        let dists = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1e-300,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for k in [0, 1, 3, 20] {
            let mut pool = ResultPool::new(k);
            for (tid, &d) in dists.iter().enumerate().step_by(2) {
                let admission = pool.admission();
                for (&lb, t) in dists
                    .iter()
                    .flat_map(|d| [d; 3].into_iter().zip([0, 4, Tid::MAX]))
                {
                    let ctx = format!("k {k}, {lb} at {t}, pool {:?}", pool.worst());
                    assert_eq!(admission.admits(lb, t), pool.admits_at(lb, t), "{ctx}");
                }
                pool.insert(tid as Tid, d);
            }
        }
    }

    #[test]
    fn size_tracks_entries() {
        let mut p = ResultPool::new(5);
        assert_eq!(p.size(), 0);
        p.insert(0, 1.0);
        p.insert(1, 2.0);
        assert_eq!(p.size(), 2);
    }

    #[test]
    fn non_finite_distances_have_a_place_in_the_order() {
        // `total_cmp` never answers "equal by default": NaN sorts above
        // +∞, so a poisoned distance loses to every real one.
        let mut p = ResultPool::new(2);
        p.insert(0, f64::NAN);
        p.insert(1, f64::INFINITY);
        p.insert(2, 3.0);
        p.insert(3, 1.0);
        let tids: Vec<_> = p.into_sorted().iter().map(|e| e.tid).collect();
        assert_eq!(tids, vec![3, 2]);
    }

    proptest! {
        /// The pool is a function of the multiset inserted: every visiting
        /// order of a sequence with duplicate distances leaves the k
        /// smallest `(dist, tid)`.
        #[test]
        fn content_is_order_independent(
            dists in proptest::collection::vec(0u8..6, 0..40),
            shuffles in proptest::collection::vec(any::<u64>(), 4),
        ) {
            let items: Vec<(Tid, f64)> = dists
                .iter()
                .enumerate()
                .map(|(tid, &d)| (tid as Tid, f64::from(d) * 0.5))
                .collect();
            for k in [0usize, 1, 3, 10] {
                let mut want = items.clone();
                want.sort_by(|a, b| key_cmp((a.1, a.0), (b.1, b.0)));
                want.truncate(k);
                let mut orders = vec![items.clone(), items.iter().rev().copied().collect()];
                for &seed in &shuffles {
                    // Fisher-Yates off a splitmix-style stream.
                    let mut v = items.clone();
                    let mut s = seed;
                    for i in (1..v.len()).rev() {
                        s = s.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x2545_F491_4F6C_DD1D);
                        v.swap(i, (s >> 33) as usize % (i + 1));
                    }
                    orders.push(v);
                }
                for order in &orders {
                    let mut pool = ResultPool::new(k);
                    for &(tid, d) in order {
                        pool.insert(tid, d);
                    }
                    let got: Vec<(Tid, f64)> =
                        pool.into_sorted().iter().map(|e| (e.tid, e.dist)).collect();
                    prop_assert_eq!(&got, &want, "k={}", k);
                }
            }
        }
    }
}
