//! The truncated MHR objective (Equation 2).
//!
//! `mhr_τ(S|N) = (1/m) Σ_{u∈N} min(hr(u,S), τ)` — a nonnegative linear
//! combination of truncated happiness ratios, hence monotone and submodular
//! (Lemma 4.3). [`TruncatedMhrObjective`] exposes it through the
//! [`IncrementalObjective`] interface with a per-utility running-maximum
//! state, so a greedy step costs `O(m)` per candidate (plus the `O(m·d)`
//! score computation unless the score matrix is cached).
//!
//! With the score matrix cached, [`IncrementalObjective::gains`] evaluates
//! candidates four to a lane: each utility that still has headroom below
//! `τ` is loaded once and its term added to four independent sums. Every
//! sum keeps the per-item order (ascending utility index), and a utility
//! already at `τ` contributes exactly `+0.0`, so skipping it leaves the
//! sums bit-identical to [`IncrementalObjective::gain`]. A sweep of at
//! least `SPLIT_FLOOR` terms is cut into one contiguous part per core;
//! each item's sum is computed whole by one thread, so the cut changes
//! no bit either.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

use fairhms_data::Dataset;
use fairhms_geometry::vecmath::dot;
use fairhms_geometry::EPS;
use fairhms_submodular::IncrementalObjective;

/// Above this many `n × m` entries, scores are computed on the fly instead
/// of cached (the cache would exceed ~400 MB of `f64`s).
const CACHE_LIMIT: usize = 50_000_000;

/// Candidates evaluated side by side by [`IncrementalObjective::gains`].
const LANES: usize = 4;

/// Smallest score-cache capacity, in entries: just above glibc's 32 MiB
/// ceiling on its dynamic mmap threshold (`DEFAULT_MMAP_THRESHOLD_MAX` on
/// 64-bit targets).
///
/// glibc raises its mmap threshold to the size of every mapped block it
/// frees, so after one large cache is dropped, the next cache a little
/// smaller would come from the heap arena instead. A freed arena block can
/// stay resident under a live allocation, and two caches then count
/// against the process at once. Requesting at least this much capacity
/// keeps every cache in a mapping of its own, returned to the system when
/// the objective is dropped; pages past `n · m` entries are never touched
/// and so never become resident.
const OWN_MAPPING_ENTRIES: usize = (32 << 20) / std::mem::size_of::<f64>() + 1;

/// The truncated MHR objective over a fixed utility sample.
pub struct TruncatedMhrObjective<'a> {
    data: &'a Dataset,
    net: &'a [Vec<f64>],
    /// `max_{p∈D}⟨u,p⟩` per utility.
    db_max: &'a [f64],
    tau: f64,
    /// Optional row-major `n × m` cache of normalized scores
    /// `⟨u,p⟩ / db_max[u]`.
    scores: Option<Vec<f64>>,
}

impl<'a> TruncatedMhrObjective<'a> {
    /// Creates the objective for cap `tau`. Pass `cache = true` to
    /// precompute the normalized score matrix (skipped automatically above
    /// an internal entry limit of fifty million).
    pub fn new(
        data: &'a Dataset,
        net: &'a [Vec<f64>],
        db_max: &'a [f64],
        tau: f64,
        cache: bool,
    ) -> Self {
        debug_assert_eq!(net.len(), db_max.len());
        let m = net.len();
        let n = data.len();
        let scores = if cache && n.saturating_mul(m) <= CACHE_LIMIT {
            let mut s = Vec::with_capacity((n * m).max(OWN_MAPPING_ENTRIES));
            // Tile-outer build: for each 64-row tile, sweep all utilities
            // while the tile (a few KB) and its slice of the row-major
            // cache (64 rows × m) stay cache-resident — a utility-outer
            // sweep would re-fetch the whole n × m cache once per utility
            // through the stride-m scatter. Each raw dot is bitwise-equal
            // to the scalar `dot` (see fairhms_geometry::soa), so every
            // entry equals `normalized_score` on its row. Each tile's rows
            // are zero-extended just before they are written, while they
            // are hot in cache.
            let mut acc = [0.0; fairhms_geometry::soa::BLOCK];
            let soa = data.soa();
            for b in 0..soa.num_tiles() {
                let start = b * fairhms_geometry::soa::BLOCK;
                let rows = fairhms_geometry::soa::BLOCK.min(n - start);
                s.resize((start + rows) * m, 0.0);
                let tile = &mut s[start * m..];
                for (u_idx, (u, &dbm)) in net.iter().zip(db_max).enumerate() {
                    let rows = soa.dot_tile(b, u, &mut acc);
                    for (r, &raw) in acc[..rows].iter().enumerate() {
                        tile[r * m + u_idx] = normalize_raw(raw, dbm);
                    }
                }
            }
            Some(s)
        } else {
            None
        };
        Self {
            data,
            net,
            db_max,
            tau,
            scores,
        }
    }

    /// The cap `τ`.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Re-caps the objective without recomputing the score cache.
    pub fn set_tau(&mut self, tau: f64) {
        self.tau = tau;
    }

    #[inline]
    fn score(&self, item: usize, u_idx: usize) -> f64 {
        match &self.scores {
            Some(s) => s[item * self.net.len() + u_idx],
            None => normalized_score(self.data.point(item), &self.net[u_idx], self.db_max[u_idx]),
        }
    }

    /// Untruncated `mhr(S|N)` of the set represented by `state`.
    pub fn mhr_of_state(&self, state: &[f64]) -> f64 {
        state.iter().copied().fold(f64::INFINITY, f64::min).min(1.0)
    }

    /// Builds the state for an explicit selection.
    pub fn state_of(&self, sel: &[usize]) -> Vec<f64> {
        let mut st = self.empty_state();
        for &i in sel {
            self.add(&mut st, i);
        }
        st
    }
}

/// The gains of `items` at `state` under cap `tau`, read from the
/// row-major score cache `scores`, on a machine with `cores` cores: a
/// sweep of at least [`SPLIT_FLOOR`] terms is cut into `cores` contiguous
/// parts, each run on a thread of its own.
fn cached_gains(
    scores: &[f64],
    state: &[f64],
    tau: f64,
    items: &[usize],
    out: &mut [f64],
    cores: usize,
) {
    debug_assert_eq!(items.len(), out.len());
    // Utilities with headroom, ascending; the rest add +0.0 to every sum.
    let open: Vec<(usize, f64)> = state
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, cur)| cur < tau)
        .collect();
    let sweep = Sweep {
        scores,
        m: state.len(),
        open: &open,
        tau,
    };
    let parts = if items.len().saturating_mul(open.len()) >= SPLIT_FLOOR {
        cores.clamp(1, items.len())
    } else {
        1
    };
    if parts == 1 {
        sweep.run(items, out);
        return;
    }
    let len = items.len().div_ceil(parts);
    std::thread::scope(|scope| {
        let mut parts = items.chunks(len).zip(out.chunks_mut(len));
        let (first_items, first_out) = parts.next().expect("a split sweep has items");
        for (items, out) in parts {
            scope.spawn(move || sweep.run(items, out));
        }
        sweep.run(first_items, first_out);
    });
}

/// Smallest cached sweep, in `items × open utilities` terms, that
/// [`IncrementalObjective::gains`] splits across cores. At about 1.5 ns
/// a term (the sweep streams score rows from memory) this is 200 µs of
/// work on one core; starting and joining a scoped thread took about
/// 50 µs on a shared 2-vCPU x86-64 host.
const SPLIT_FLOOR: usize = 1 << 17;

/// The machine's core count, read once: `available_parallelism` reads
/// cgroup files on Linux at every call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// One cached gain sweep's shared, read-only inputs.
///
/// [`Sweep::run`] allocates nothing, so a helper thread running it makes
/// no allocation of its own: glibc gives each allocating thread a malloc
/// arena, which stays mapped after the thread exits. (Rust's thread
/// start-up still makes one small allocation; `docs/ARCHITECTURE.md`,
/// "τ-search hot loop", has what that costs.)
#[derive(Clone, Copy)]
struct Sweep<'s> {
    scores: &'s [f64],
    m: usize,
    open: &'s [(usize, f64)],
    tau: f64,
}

impl Sweep<'_> {
    /// Writes the gain of every `items[i]` to `out[i]`, four candidates
    /// to a lane. Each sum runs over `open` in ascending order from
    /// `0.0`, so it is the same however `items` is batched or cut.
    fn run(self, items: &[usize], out: &mut [f64]) {
        let Sweep {
            scores,
            m,
            open,
            tau,
        } = self;
        let denom = m.max(1) as f64;
        let row = |item: usize| &scores[item * m..][..m];
        let mut lanes = items.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (quad, g) in (&mut lanes).zip(&mut outs) {
            let rows = [row(quad[0]), row(quad[1]), row(quad[2]), row(quad[3])];
            let mut acc = [0.0; LANES];
            for &(u, cur) in open {
                for (a, r) in acc.iter_mut().zip(&rows) {
                    *a += headroom(r[u], cur, tau);
                }
            }
            for (g, a) in g.iter_mut().zip(acc) {
                *g = a / denom;
            }
        }
        for (g, &item) in outs.into_remainder().iter_mut().zip(lanes.remainder()) {
            let r = row(item);
            *g = open
                .iter()
                .fold(0.0, |a, &(u, cur)| a + headroom(r[u], cur, tau))
                / denom;
        }
    }
}

/// One utility's term of the marginal gain: `max(0, min(s, τ) − cur)`.
///
/// Written as selects so each compiles to a single `minsd`/`maxsd`, and
/// ordered so a NaN score or state adds `+0.0`: the term is positive
/// exactly when `cur < τ` and `s > cur`, the only case that adds anything.
#[inline(always)]
fn headroom(s: f64, cur: f64, tau: f64) -> f64 {
    let capped = if s > tau { tau } else { s };
    let d = capped - cur;
    if d > 0.0 {
        d
    } else {
        0.0
    }
}

#[inline]
fn normalized_score(p: &[f64], u: &[f64], db_max: f64) -> f64 {
    normalize_raw(dot(p, u), db_max)
}

#[inline]
fn normalize_raw(raw: f64, db_max: f64) -> f64 {
    if db_max <= EPS {
        1.0 // the whole database scores 0: every subset is fully happy
    } else {
        (raw / db_max).clamp(0.0, 1.0)
    }
}

impl IncrementalObjective for TruncatedMhrObjective<'_> {
    /// Per-utility best normalized score of the current set.
    type State = Vec<f64>;

    fn empty_state(&self) -> Vec<f64> {
        vec![0.0; self.net.len()]
    }

    fn value(&self, state: &Vec<f64>) -> f64 {
        let m = state.len().max(1);
        state.iter().map(|&s| s.min(self.tau)).sum::<f64>() / m as f64
    }

    fn gain(&self, state: &Vec<f64>, item: usize) -> f64 {
        let tau = self.tau;
        let g = match &self.scores {
            Some(scores) => {
                let row = &scores[item * state.len()..][..state.len()];
                state
                    .iter()
                    .zip(row)
                    .fold(0.0, |g, (&cur, &s)| g + headroom(s, cur, tau))
            }
            // Uncached scores cost a dot product each: skip the utilities
            // already at τ, whose terms are exactly +0.0.
            None => state
                .iter()
                .enumerate()
                .filter(|&(_, &cur)| cur < tau)
                .fold(0.0, |g, (u_idx, &cur)| {
                    g + headroom(self.score(item, u_idx), cur, tau)
                }),
        };
        g / state.len().max(1) as f64
    }

    fn gains(&self, state: &Vec<f64>, items: &[usize], out: &mut [f64]) {
        debug_assert_eq!(items.len(), out.len());
        let Some(scores) = &self.scores else {
            for (g, &item) in out.iter_mut().zip(items) {
                *g = self.gain(state, item);
            }
            return;
        };
        cached_gains(scores, state, self.tau, items, out, cores());
    }

    fn add(&self, state: &mut Vec<f64>, item: usize) {
        for (u_idx, cur) in state.iter_mut().enumerate() {
            let s = self.score(item, u_idx);
            if s > *cur {
                *cur = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_data::Dataset;
    use fairhms_geometry::sphere::grid_net_2d;

    fn setup() -> (Dataset, Vec<Vec<f64>>, Vec<f64>) {
        let ds = Dataset::ungrouped("t", 2, vec![1.0, 0.0, 0.0, 1.0, 0.7, 0.7, 0.2, 0.3]).unwrap();
        let net = grid_net_2d(9);
        let db_max: Vec<f64> = net
            .iter()
            .map(|u| {
                (0..ds.len())
                    .map(|i| dot(ds.point(i), u))
                    .fold(0.0_f64, f64::max)
            })
            .collect();
        (ds, net, db_max)
    }

    #[test]
    fn value_matches_definition() {
        let (ds, net, db_max) = setup();
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.9, true);
        let st = obj.state_of(&[0]);
        // manual: mean over utilities of min(0.9, score(0, u))
        let manual: f64 = net
            .iter()
            .zip(&db_max)
            .map(|(u, &m)| (dot(ds.point(0), u) / m).min(0.9))
            .sum::<f64>()
            / net.len() as f64;
        assert!((obj.value(&st) - manual).abs() < 1e-12);
    }

    #[test]
    fn gain_is_value_difference() {
        let (ds, net, db_max) = setup();
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.85, true);
        let st = obj.state_of(&[0]);
        for item in 1..ds.len() {
            let g = obj.gain(&st, item);
            let mut st2 = st.clone();
            obj.add(&mut st2, item);
            assert!((g - (obj.value(&st2) - obj.value(&st))).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_and_uncached_agree() {
        let (ds, net, db_max) = setup();
        let a = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.8, true);
        let b = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.8, false);
        assert!(a.scores.is_some());
        assert!(b.scores.is_none());
        let st = a.empty_state();
        for item in 0..ds.len() {
            assert!((a.gain(&st, item) - b.gain(&st, item)).abs() < 1e-12);
        }
    }

    #[test]
    fn score_cache_is_bitwise_identical_to_normalized_score() {
        let (ds, net, db_max) = setup();
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.8, true);
        let cache = obj.scores.as_ref().unwrap();
        assert_eq!(cache.len(), ds.len() * net.len());
        for i in 0..ds.len() {
            for (u_idx, (u, &dbm)) in net.iter().zip(&db_max).enumerate() {
                let want = normalized_score(ds.point(i), u, dbm);
                assert_eq!(cache[i * net.len() + u_idx].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn submodularity_gains_shrink() {
        let (ds, net, db_max) = setup();
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.95, true);
        let empty = obj.empty_state();
        let bigger = obj.state_of(&[0, 1]);
        for item in 2..ds.len() {
            assert!(
                obj.gain(&empty, item) >= obj.gain(&bigger, item) - 1e-12,
                "gain should not grow with the set"
            );
        }
    }

    #[test]
    fn truncation_lemma_4_4() {
        // mhr(S|N) ≥ τ  ⟺  mhr_τ(S|N) = τ.
        let (ds, net, db_max) = setup();
        let sel = vec![0, 1]; // extremes: good mhr on the net
        for tau in [0.3, 0.5, 0.7, 0.9, 0.99] {
            let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, tau, true);
            let st = obj.state_of(&sel);
            let mhr = obj.mhr_of_state(&st);
            let capped = obj.value(&st);
            if mhr >= tau {
                assert!((capped - tau).abs() < 1e-12, "τ={tau}: capped={capped}");
            } else {
                assert!(capped < tau - 1e-15, "τ={tau}: capped={capped} mhr={mhr}");
            }
        }
    }

    #[test]
    fn split_sweeps_equal_per_item_gain_bitwise() {
        // 40 rows under m = 64 utilities: a batch of SPLIT_FLOOR / 64
        // items from an empty state sits exactly at the work floor.
        let d = 3;
        let mut x = 7u64;
        let mut unit = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let points: Vec<f64> = (0..40 * d).map(|_| unit()).collect();
        let ds = Dataset::ungrouped("split", d, points).unwrap();
        let net: Vec<Vec<f64>> = (0..64).map(|_| (0..d).map(|_| unit()).collect()).collect();
        let db_max: Vec<f64> = net
            .iter()
            .map(|u| {
                (0..ds.len())
                    .map(|i| dot(ds.point(i), u))
                    .fold(0.0_f64, f64::max)
            })
            .collect();
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 0.9, true);
        let scores = obj.scores.as_deref().unwrap();
        let at_floor = SPLIT_FLOOR / net.len();
        // Parts of 2049 and 4099 items cut 2, 3 or 7 ways are 1025/683/293
        // and 2050/1367/586 long: every part ends on a lane remainder.
        // The empty state has all 64 utilities open; the other has some at
        // τ, so only the longer batches reach the floor.
        for state in [obj.empty_state(), obj.state_of(&[3, 17])] {
            let open = state.iter().filter(|&&cur| cur < obj.tau()).count();
            let lens = [0, 1, 5, at_floor - 1, at_floor, at_floor + 1, 2049, 4099];
            assert!(lens.iter().any(|&len| len * open < SPLIT_FLOOR));
            assert!(lens.iter().any(|&len| len * open >= SPLIT_FLOOR));
            for len in lens {
                let items: Vec<usize> = (0..len).map(|i| (i * 13 + i / 40) % ds.len()).collect();
                let want: Vec<u64> = items
                    .iter()
                    .map(|&i| obj.gain(&state, i).to_bits())
                    .collect();
                for cores in [1, 2, 3, 7] {
                    let mut out = vec![f64::NAN; len];
                    cached_gains(scores, &state, obj.tau(), &items, &mut out, cores);
                    let got: Vec<u64> = out.iter().map(|g| g.to_bits()).collect();
                    assert_eq!(got, want, "len {len}, {open} open, {cores} cores");
                }
            }
        }
    }

    #[test]
    fn mhr_of_state_matches_net_evaluator() {
        let (ds, net, db_max) = setup();
        let obj = TruncatedMhrObjective::new(&ds, &net, &db_max, 1.0, true);
        let ev = crate::eval::NetEvaluator::new(&ds, net.clone());
        for sel in [vec![0], vec![0, 1], vec![2, 3]] {
            let st = obj.state_of(&sel);
            assert!((obj.mhr_of_state(&st) - ev.mhr(&ds, &sel)).abs() < 1e-12);
        }
    }
}
