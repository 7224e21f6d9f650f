//! Property tests pinning the τ-search's fast paths to their oracles, bit
//! for bit, on the truncated MHR objective.
//!
//! * `lazy_greedy_matroid` (batched heap seeding, stale tops refreshed
//!   four at a time, early exit at the matroid rank) must pick the same
//!   items in the same order, with the same value bits, as the eager
//!   `greedy_matroid`.
//! * `TruncatedMhrObjective::gains` (four candidates per lane, utilities
//!   already at `τ` skipped) must equal per-item `gain` bitwise for every
//!   batch length from 0 to 9, so every lane remainder is covered; and
//!   `gain`'s branch-free term `max(0, min(s, τ) − cur)` must equal the
//!   branchy sum it replaced (skip `cur ≥ τ`, add only when `s > cur`).
//!
//! Instances are drawn from a seed. Coordinates come from a coarse grid so
//! duplicate rows and tied gains are common, and whole columns may be zero
//! so some utilities have `db_max ≤ EPS`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fairhms_core::bigreedy::{db_max_of, SampledNet};
use fairhms_core::objective::TruncatedMhrObjective;
use fairhms_data::Dataset;
use fairhms_geometry::vecmath::dot;
use fairhms_geometry::EPS;
use fairhms_matroid::FairnessMatroid;
use fairhms_submodular::{greedy_matroid, lazy_greedy_matroid, IncrementalObjective};

/// A random instance: data, net, `db_max`, a fairness matroid and a cap.
struct Instance {
    data: Dataset,
    net: Vec<Vec<f64>>,
    db_max: Vec<f64>,
    matroid: FairnessMatroid,
    tau: f64,
}

fn instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = rng.gen_range(2..=4);
    let n = rng.gen_range(4..=40);
    let c = rng.gen_range(1..=3);
    // A zero column gives its basis utility db_max = 0 (≤ EPS).
    let zero_col: Vec<bool> = (0..d).map(|_| rng.gen_range(0..5) == 0).collect();
    let points: Vec<f64> = (0..n * d)
        .map(|i| {
            if zero_col[i % d] {
                0.0
            } else {
                rng.gen_range(0..=4) as f64 / 4.0
            }
        })
        .collect();
    let groups: Vec<usize> = (0..n).map(|_| rng.gen_range(0..c)).collect();
    let data = Dataset::new("prop", d, points, groups.clone(), vec![]).unwrap();
    let k = rng.gen_range(1..=n.min(8));
    let sizes = data.group_sizes();
    // Random bounds, repaired until a size-k feasible set exists.
    let (lower, upper) = loop {
        let lower: Vec<usize> = sizes.iter().map(|&s| rng.gen_range(0..=s.min(2))).collect();
        let upper: Vec<usize> = lower
            .iter()
            .zip(&sizes)
            .map(|(&l, &s)| rng.gen_range(l.max(1).min(s)..=s.max(1)))
            .collect();
        if lower.iter().sum::<usize>() <= k
            && upper
                .iter()
                .zip(&sizes)
                .map(|(&h, &s)| h.min(s))
                .sum::<usize>()
                >= k
        {
            break (lower, upper);
        }
    };
    let matroid = FairnessMatroid::new(groups, lower, upper, k).unwrap();
    let m = rng.gen_range(2..=30);
    let net = SampledNet::generate(d, m, rng.gen()).vectors;
    let db_max = db_max_of(&data, &net);
    // A grid value of Algorithm 3's τ search, now and then τ = 1.
    let steps = rng.gen_range(0..=60);
    let tau = (1.0f64 - 0.01).powi(steps);
    Instance {
        data,
        net,
        db_max,
        matroid,
        tau,
    }
}

/// The marginal gain as written before the branch-free kernel: utilities
/// at `τ` are skipped and a term is added only when the score beats the
/// state.
fn branchy_gain(inst: &Instance, state: &[f64], item: usize) -> f64 {
    let mut g = 0.0;
    for ((&cur, u), &dbm) in state.iter().zip(&inst.net).zip(&inst.db_max) {
        if cur >= inst.tau {
            continue;
        }
        let s = if dbm <= EPS {
            1.0
        } else {
            (dot(inst.data.point(item), u) / dbm).clamp(0.0, 1.0)
        };
        if s > cur {
            g += s.min(inst.tau) - cur;
        }
    }
    g / state.len().max(1) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn lazy_greedy_matches_eager_oracle_bitwise(seed in 0u64..u64::MAX) {
        let inst = instance(seed);
        let obj = TruncatedMhrObjective::new(&inst.data, &inst.net, &inst.db_max, inst.tau, true);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let n = inst.data.len();
        // The whole ground set, then a multi-round pool: a random subset.
        let all: Vec<usize> = (0..n).collect();
        let pool: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..3) > 0).collect();
        for candidates in [&all, &pool] {
            let eager = greedy_matroid(&obj, &inst.matroid, candidates);
            let lazy = lazy_greedy_matroid(&obj, &inst.matroid, candidates);
            prop_assert_eq!(&lazy.items, &eager.items, "seed {} candidates {:?}", seed, candidates);
            prop_assert_eq!(lazy.value.to_bits(), eager.value.to_bits(), "seed {}", seed);
        }
    }

    #[test]
    fn batched_gains_equal_per_item_gain_bitwise(seed in 0u64..u64::MAX) {
        let inst = instance(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c);
        let n = inst.data.len();
        for cache in [true, false] {
            let obj = TruncatedMhrObjective::new(&inst.data, &inst.net, &inst.db_max, inst.tau, cache);
            // Grow a state; each added row then has s == cur on the
            // utilities it maximizes, and some utilities reach τ.
            let mut state = obj.empty_state();
            let added: Vec<usize> = (0..rng.gen_range(0..=3)).map(|_| rng.gen_range(0..n)).collect();
            for &i in &added {
                obj.add(&mut state, i);
            }
            for len in 0..=9 {
                // Random rows, the added ones included, repeats allowed.
                let items: Vec<usize> = (0..len)
                    .map(|j| match added.get(j) {
                        Some(&i) if rng.gen_range(0..2) == 0 => i,
                        _ => rng.gen_range(0..n),
                    })
                    .collect();
                let mut out = vec![f64::NAN; len];
                obj.gains(&state, &items, &mut out);
                for (&item, &g) in items.iter().zip(&out) {
                    let want = obj.gain(&state, item);
                    prop_assert_eq!(
                        g.to_bits(), want.to_bits(),
                        "seed {} cache {} len {} item {}: batched {} vs single {}",
                        seed, cache, len, item, g, want
                    );
                    let branchy = branchy_gain(&inst, &state, item);
                    prop_assert_eq!(
                        want.to_bits(), branchy.to_bits(),
                        "seed {} cache {} item {}: branch-free {} vs branchy {}",
                        seed, cache, item, want, branchy
                    );
                }
            }
        }
    }
}
