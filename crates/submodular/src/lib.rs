//! Monotone submodular maximization under matroid constraints.
//!
//! `BiGreedy` (paper Section 4) reduces FairHMS to maximizing the truncated
//! MHR — a monotone submodular function — under the fairness matroid. This
//! crate provides the generic machinery:
//!
//! * [`IncrementalObjective`] — an objective with `O(1)`-ish incremental
//!   state, so greedy loops never recompute values from scratch;
//! * [`greedy_matroid`] — the classic Fisher–Nemhauser–Wolsey greedy, a
//!   `1/2`-approximation for monotone submodular maximization under a
//!   matroid;
//! * [`lazy_greedy_matroid`] — the same algorithm with lazy (stale-gain)
//!   evaluation, valid because submodularity makes marginal gains
//!   monotonically non-increasing.
//!
//! Both variants *fill a base*: they keep adding feasible elements while
//! any exist, even at zero marginal gain, matching Algorithm 3's inner
//! loop (`while ∃p: S_i ∪ {p} ∈ I`).

pub mod streaming;

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use fairhms_matroid::Matroid;

/// A set objective with incremental evaluation state.
///
/// Implementations must be monotone (`gain ≥ 0`); the lazy greedy
/// additionally requires submodularity (gains non-increasing as the state
/// grows) for correctness.
pub trait IncrementalObjective {
    /// Evaluation state for a growing set.
    type State: Clone;

    /// State of the empty set.
    fn empty_state(&self) -> Self::State;

    /// Objective value at `state`.
    fn value(&self, state: &Self::State) -> f64;

    /// Marginal gain of adding `item` to the set represented by `state`.
    fn gain(&self, state: &Self::State, item: usize) -> f64;

    /// Marginal gains of every item in `items` at `state`, written to the
    /// matching slots of `out` (`out.len() == items.len()`).
    ///
    /// Each `out[i]` must be bitwise equal to `gain(state, items[i])`: the
    /// greedy loops batch their evaluations through this method, so an
    /// override may only change how fast the gains are computed, never
    /// their values. [`lazy_greedy_matroid`] passes batches from a few
    /// heap tops up to every candidate, so an override may, for example,
    /// split a large batch across threads. The default evaluates one item
    /// at a time.
    fn gains(&self, state: &Self::State, items: &[usize], out: &mut [f64]) {
        debug_assert_eq!(items.len(), out.len());
        for (g, &item) in out.iter_mut().zip(items) {
            *g = self.gain(state, item);
        }
    }

    /// Adds `item` to `state`.
    fn add(&self, state: &mut Self::State, item: usize);
}

/// Outcome of a greedy run.
#[derive(Debug, Clone)]
pub struct GreedyResult {
    /// Selected items in pick order.
    pub items: Vec<usize>,
    /// Objective value of the selection.
    pub value: f64,
}

/// Greedy maximization of `objective` over `candidates` under `matroid`.
///
/// At every step the feasible candidate with the largest marginal gain is
/// added (ties to the smaller index); the loop continues while any feasible
/// extension exists. Already-selected candidates are skipped. Runs in
/// `O(r · |candidates| · gain)` where `r` is the matroid rank.
///
/// ```
/// use fairhms_matroid::UniformMatroid;
/// use fairhms_submodular::{greedy_matroid, IncrementalObjective};
///
/// /// Weighted sum of distinct picks — modular, hence submodular.
/// struct Weights(Vec<f64>);
/// impl IncrementalObjective for Weights {
///     type State = f64;
///     fn empty_state(&self) -> f64 { 0.0 }
///     fn value(&self, s: &f64) -> f64 { *s }
///     fn gain(&self, _s: &f64, item: usize) -> f64 { self.0[item] }
///     fn add(&self, s: &mut f64, item: usize) { *s += self.0[item]; }
/// }
///
/// let objective = Weights(vec![0.3, 0.9, 0.5]);
/// let result = greedy_matroid(&objective, &UniformMatroid::new(3, 2), &[0, 1, 2]);
/// assert_eq!(result.items, vec![1, 2]); // two largest weights
/// assert_eq!(result.value, 1.4);
/// ```
pub fn greedy_matroid<O: IncrementalObjective, M: Matroid>(
    objective: &O,
    matroid: &M,
    candidates: &[usize],
) -> GreedyResult {
    let mut state = objective.empty_state();
    let mut items: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = candidates.to_vec();
    loop {
        let mut best: Option<(usize, usize, f64)> = None; // (pos, item, gain)
        for (pos, &cand) in remaining.iter().enumerate() {
            if !matroid.can_extend(&items, cand) {
                continue;
            }
            let g = objective.gain(&state, cand);
            // argmax with ties broken towards the smallest item index
            let better = match best {
                None => true,
                Some((_, bi, bg)) => g > bg || (g == bg && cand < bi),
            };
            if better {
                best = Some((pos, cand, g));
            }
        }
        let Some((pos, cand, _)) = best else { break };
        objective.add(&mut state, cand);
        items.push(cand);
        remaining.swap_remove(pos);
    }
    let value = objective.value(&state);
    GreedyResult { items, value }
}

#[derive(PartialEq)]
struct HeapEntry {
    gain: f64,
    item: usize,
    stamp: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp keeps the heap's Ord contract total even if a NaN
        // gain ever slips in (partial_cmp + unwrap_or silently broke
        // transitivity instead).
        self.gain
            .total_cmp(&other.gain)
            // prefer smaller item index on ties, like the eager greedy
            .then_with(|| other.item.cmp(&self.item))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Stale heap tops [`lazy_greedy_matroid`] re-evaluates per
/// [`IncrementalObjective::gains`] call. Four is the lane width of the
/// truncated MHR objective's `gains` in `fairhms-core`, so a full batch
/// is one pass over the open utilities.
const REFRESH_BATCH: usize = 4;

/// Once the entries refreshed for the current pick reach `1/BULK_DIVISOR`
/// of the heap, [`lazy_greedy_matroid`] refreshes every stale entry left
/// in one sweep. Divisors from 8 to 64 measured alike on BiGreedy's τ
/// search, where after the first pick nearly every entry goes stale.
const BULK_DIVISOR: usize = 8;

/// Work one [`lazy_greedy_matroid`] run did, for tests.
#[derive(Debug, Default)]
struct LazyWork {
    /// Entries popped off the heap.
    pops: usize,
    /// Whole-heap refresh sweeps.
    bulk_sweeps: usize,
}

/// Lazy-evaluation variant of [`greedy_matroid`].
///
/// Marginal gains are kept in a max-heap and only re-evaluated when stale;
/// submodularity guarantees a re-evaluated gain can only shrink, so the
/// first up-to-date top of the heap is the true argmax. Behaviour matches
/// the eager greedy exactly (same tie-breaking) for submodular objectives.
///
/// The heap is seeded by one batched [`IncrementalObjective::gains`]
/// sweep over `candidates`. Stale feasible tops are refreshed up to four
/// at a time: a refresh is an exact gain, and every entry still in the
/// heap stays an upper bound on its own gain, so refreshing an entry that
/// would not yet have needed it cannot change a pick. For the same
/// reason, once the refreshes for one pick reach an eighth of the heap,
/// every stale entry left is taken out, the infeasible ones are dropped,
/// the rest are refreshed in one `gains` call and the heap is rebuilt in
/// linear time: a submodular objective whose gains all shrink after a
/// pick would otherwise refresh nearly the whole heap four entries at a
/// time. The loop stops once the selection reaches the matroid's
/// [`Matroid::rank_upper_bound`]: no element can extend a set of that
/// size, so the entries left in the heap are never popped.
pub fn lazy_greedy_matroid<O: IncrementalObjective, M: Matroid>(
    objective: &O,
    matroid: &M,
    candidates: &[usize],
) -> GreedyResult {
    lazy_greedy_counted(objective, matroid, candidates, &mut LazyWork::default())
}

/// [`lazy_greedy_matroid`], counting its work into `work`.
fn lazy_greedy_counted<O: IncrementalObjective, M: Matroid>(
    objective: &O,
    matroid: &M,
    candidates: &[usize],
    work: &mut LazyWork,
) -> GreedyResult {
    let mut state = objective.empty_state();
    let mut items: Vec<usize> = Vec::new();
    let rank = matroid.rank_upper_bound();
    let mut stamp = 0usize; // incremented on every add; entries older are stale
    let mut sweep_gains = vec![0.0; candidates.len()];
    objective.gains(&state, candidates, &mut sweep_gains);
    let mut heap: BinaryHeap<HeapEntry> = candidates
        .iter()
        .zip(sweep_gains.iter())
        .map(|(&item, &gain)| HeapEntry { gain, item, stamp })
        .collect();
    let mut sweep_items: Vec<usize> = Vec::with_capacity(candidates.len());
    let mut stale: Vec<usize> = Vec::with_capacity(REFRESH_BATCH);
    let mut fresh = [0.0; REFRESH_BATCH];
    while items.len() < rank {
        let mut refreshed = 0usize; // entries refreshed for this pick
        let chosen = loop {
            if refreshed > 0 && refreshed * BULK_DIVISOR >= heap.len() {
                // Growing S only shrinks the feasible extension set in a
                // matroid, so dropping an infeasible entry is for good.
                // Entries refreshed for this pick were feasible when
                // popped and stay in.
                let mut entries = std::mem::take(&mut heap).into_vec();
                sweep_items.clear();
                entries.retain(|e| {
                    if e.stamp != stamp && matroid.can_extend(&items, e.item) {
                        sweep_items.push(e.item);
                    }
                    e.stamp == stamp
                });
                let gains = &mut sweep_gains[..sweep_items.len()];
                objective.gains(&state, &sweep_items, gains);
                entries.extend(
                    sweep_items
                        .iter()
                        .zip(gains.iter())
                        .map(|(&item, &gain)| HeapEntry { gain, item, stamp }),
                );
                heap = BinaryHeap::from(entries);
                refreshed = 0;
                work.bulk_sweeps += 1;
            }
            // Every infeasible entry popped here is dropped for good, as
            // in the bulk sweep above.
            stale.clear();
            while stale.len() < REFRESH_BATCH {
                match heap.peek() {
                    Some(top) if top.stamp != stamp => {}
                    _ => break,
                }
                let top = heap.pop().expect("peeked entry");
                work.pops += 1;
                if matroid.can_extend(&items, top.item) {
                    stale.push(top.item);
                }
            }
            if stale.is_empty() {
                // The top is up to date (or the heap is empty): it is the
                // argmax unless it cannot extend the selection.
                let Some(top) = heap.pop() else { break None };
                work.pops += 1;
                if matroid.can_extend(&items, top.item) {
                    break Some(top.item);
                }
                continue;
            }
            // Refreshed entries compete on heap order (gain, then smaller
            // index), which reproduces the eager greedy's tie-breaking.
            let fresh = &mut fresh[..stale.len()];
            objective.gains(&state, &stale, fresh);
            heap.extend(
                stale
                    .iter()
                    .zip(fresh.iter())
                    .map(|(&item, &gain)| HeapEntry { gain, item, stamp }),
            );
            refreshed += stale.len();
        };
        let Some(item) = chosen else { break };
        objective.add(&mut state, item);
        items.push(item);
        stamp += 1;
    }
    let value = objective.value(&state);
    GreedyResult { items, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_matroid::{FairnessMatroid, UniformMatroid};

    /// Weighted coverage: ground set of items, each covering a set of
    /// elements with weights; value = total weight covered.
    struct Coverage {
        covers: Vec<Vec<usize>>,
        weights: Vec<f64>,
    }

    impl IncrementalObjective for Coverage {
        type State = Vec<bool>;
        fn empty_state(&self) -> Vec<bool> {
            vec![false; self.weights.len()]
        }
        fn value(&self, state: &Vec<bool>) -> f64 {
            state
                .iter()
                .zip(&self.weights)
                .filter(|(c, _)| **c)
                .map(|(_, w)| w)
                .sum()
        }
        fn gain(&self, state: &Vec<bool>, item: usize) -> f64 {
            self.covers[item]
                .iter()
                .filter(|&&e| !state[e])
                .map(|&e| self.weights[e])
                .sum()
        }
        fn add(&self, state: &mut Vec<bool>, item: usize) {
            for &e in &self.covers[item] {
                state[e] = true;
            }
        }
    }

    fn example_coverage() -> Coverage {
        Coverage {
            covers: vec![
                vec![0, 1, 2], // item 0
                vec![2, 3],    // item 1
                vec![3, 4, 5], // item 2
                vec![0, 5],    // item 3
                vec![1],       // item 4
            ],
            weights: vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        }
    }

    #[test]
    fn greedy_picks_best_coverage() {
        let cov = example_coverage();
        let m = UniformMatroid::new(5, 2);
        let r = greedy_matroid(&cov, &m, &[0, 1, 2, 3, 4]);
        assert_eq!(r.items, vec![0, 2]);
        assert_eq!(r.value, 6.0);
    }

    #[test]
    fn greedy_fills_base_even_at_zero_gain() {
        let cov = Coverage {
            covers: vec![vec![0], vec![0], vec![0]],
            weights: vec![1.0],
        };
        let m = UniformMatroid::new(3, 2);
        let r = greedy_matroid(&cov, &m, &[0, 1, 2]);
        assert_eq!(r.items.len(), 2, "base should be filled");
        assert_eq!(r.value, 1.0);
    }

    #[test]
    fn greedy_respects_fairness_matroid() {
        let cov = example_coverage();
        // items 0,1 in group 0; items 2,3,4 in group 1; one from each.
        let m = FairnessMatroid::new(vec![0, 0, 1, 1, 1], vec![1, 1], vec![1, 1], 2).unwrap();
        let r = greedy_matroid(&cov, &m, &[0, 1, 2, 3, 4]);
        assert_eq!(r.items.len(), 2);
        assert!(m.is_feasible(&r.items));
        assert_eq!(r.items, vec![0, 2]);
    }

    #[test]
    fn lazy_matches_eager_on_random_instances() {
        // pseudo-random coverage instances
        let mut seed = 12345u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for trial in 0..25 {
            let n_items = 8 + rnd() % 6;
            let n_elems = 10 + rnd() % 8;
            let covers: Vec<Vec<usize>> = (0..n_items)
                .map(|_| {
                    let len = 1 + rnd() % 5;
                    (0..len).map(|_| rnd() % n_elems).collect()
                })
                .collect();
            let weights: Vec<f64> = (0..n_elems).map(|_| 1.0 + (rnd() % 10) as f64).collect();
            let cov = Coverage { covers, weights };
            let groups: Vec<usize> = (0..n_items).map(|_| rnd() % 3).collect();
            let m = match FairnessMatroid::new(groups, vec![0, 0, 0], vec![2, 2, 2], 4) {
                Ok(m) => m,
                Err(_) => continue,
            };
            let cands: Vec<usize> = (0..n_items).collect();
            let eager = greedy_matroid(&cov, &m, &cands);
            let lazy = lazy_greedy_matroid(&cov, &m, &cands);
            assert_eq!(eager.items, lazy.items, "trial {trial}");
            assert!((eager.value - lazy.value).abs() < 1e-12);
        }
    }

    #[test]
    fn greedy_half_approximation_holds() {
        // brute-force the optimum over all independent sets and check the
        // 1/2 bound on a handful of instances
        let cov = example_coverage();
        let m = UniformMatroid::new(5, 2);
        let r = greedy_matroid(&cov, &m, &[0, 1, 2, 3, 4]);
        let mut opt = 0.0_f64;
        for a in 0..5 {
            for b in (a + 1)..5 {
                let mut st = cov.empty_state();
                cov.add(&mut st, a);
                cov.add(&mut st, b);
                opt = opt.max(cov.value(&st));
            }
        }
        assert!(r.value >= 0.5 * opt - 1e-12);
    }

    /// Counts `can_extend` calls (one per heap pop in the lazy greedy).
    struct CountingMatroid {
        inner: UniformMatroid,
        calls: std::cell::Cell<usize>,
    }

    impl Matroid for CountingMatroid {
        fn ground_size(&self) -> usize {
            self.inner.ground_size()
        }
        fn is_independent(&self, items: &[usize]) -> bool {
            self.inner.is_independent(items)
        }
        fn can_extend(&self, items: &[usize], new_item: usize) -> bool {
            self.calls.set(self.calls.get() + 1);
            self.inner.can_extend(items, new_item)
        }
        fn rank_upper_bound(&self) -> usize {
            self.inner.rank_upper_bound()
        }
    }

    #[test]
    fn lazy_stops_at_the_rank_without_draining_the_heap() {
        // Disjoint singletons: the gain of every item is its own weight at
        // every step, so each pick costs a handful of pops. Once three
        // items are picked the base is full, and none of the 197 entries
        // left in the heap can extend it: popping them is wasted work.
        let n = 200;
        let cov = Coverage {
            covers: (0..n).map(|i| vec![i]).collect(),
            weights: (0..n).map(|i| 1.0 + (i * 37 % n) as f64).collect(),
        };
        let m = CountingMatroid {
            inner: UniformMatroid::new(n, 3),
            calls: std::cell::Cell::new(0),
        };
        let cands: Vec<usize> = (0..n).collect();
        let lazy = lazy_greedy_matroid(&cov, &m, &cands);
        assert_eq!(lazy.items, greedy_matroid(&cov, &m.inner, &cands).items);
        assert_eq!(lazy.items.len(), 3);
        assert!(
            m.calls.get() <= 3 * (REFRESH_BATCH + 1),
            "{} pops",
            m.calls.get()
        );
    }

    #[test]
    fn bulk_refresh_matches_eager_with_fewer_pops() {
        // Every item covers hub element 0 (weight 1000) plus three of 100
        // small elements, so the first pick cuts every other gain by
        // 1000: refreshing four at a time, the second pick alone would
        // pop all 599 entries left (623 pops in the whole run). The
        // refreshes cross the 1/8 trigger instead. Group 0 closes after
        // one pick, so the sweep also drops infeasible entries.
        let n = 600;
        let mut seed = 99u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        let covers: Vec<Vec<usize>> = (0..n)
            .map(|_| {
                let mut c = vec![0];
                c.extend((0..3).map(|_| 1 + rnd() % 100));
                c
            })
            .collect();
        let mut weights = vec![1000.0];
        weights.extend((0..100).map(|_| 1.0 + (rnd() % 10) as f64));
        let cov = Coverage { covers, weights };
        let groups: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let m = FairnessMatroid::new(groups, vec![0, 0, 0], vec![1, 3, 3], 6).unwrap();
        let cands: Vec<usize> = (0..n).collect();
        let eager = greedy_matroid(&cov, &m, &cands);
        let mut work = LazyWork::default();
        let lazy = lazy_greedy_counted(&cov, &m, &cands, &mut work);
        assert_eq!(eager.items.len(), 6);
        assert_eq!(lazy.items, eager.items);
        assert_eq!(lazy.value.to_bits(), eager.value.to_bits());
        assert!(work.bulk_sweeps > 0, "{work:?}");
        assert!(work.pops < n / 2, "{work:?}");
    }

    #[test]
    fn empty_candidates_yield_empty_solution() {
        let cov = example_coverage();
        let m = UniformMatroid::new(5, 2);
        let r = greedy_matroid(&cov, &m, &[]);
        assert!(r.items.is_empty());
        assert_eq!(r.value, 0.0);
        let r2 = lazy_greedy_matroid(&cov, &m, &[]);
        assert!(r2.items.is_empty());
    }
}
