//! Golden answers for `BiGreedy` and `BiGreedy+`.
//!
//! Every case below is frozen to the bit: the selected indices, the
//! δ-net `mhr` estimate and (for `BiGreedy`) the largest achieved cap `τ`.
//! Speed work on the τ-search (gain kernels, heap refresh order, early
//! exits, matroid oracles) must leave every line unchanged; a legitimate
//! change of answers must update this table in the same commit and say
//! why.
//!
//! The cases cover seeded anti-correlated data over d ∈ {3, 4, 5},
//! C ∈ {1, 3} and k ∈ {4, 8, 10}; both output modes, both τ searches and
//! both greedy variants; duplicated rows (tied gains, broken towards the
//! smaller index); an upper bound of 1 (infeasible candidates dropped in
//! the middle of a greedy run); and `BiGreedy+`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairhms::core::adaptive::{bigreedy_plus, BiGreedyPlusConfig};
use fairhms::core::bigreedy::{
    bigreedy_on_net, BiGreedyConfig, BiGreedyMode, SampledNet, TauSearch,
};
use fairhms::core::types::{FairHmsInstance, Solution};
use fairhms::data::gen::anti_correlated_dataset;
use fairhms::data::Dataset;
use fairhms::matroid::proportional_bounds;

/// Rows per generated instance.
const N: usize = 160;

fn anticor(d: usize, c: usize, seed: u64) -> Dataset {
    anti_correlated_dataset(N, d, c, &mut StdRng::seed_from_u64(seed))
}

/// Every row of `ds` twice, the copies adjacent: each copy ties its twin's
/// gain at every step.
fn duplicated(ds: &Dataset) -> Dataset {
    let mut points = Vec::with_capacity(2 * ds.points_flat().len());
    let mut groups = Vec::with_capacity(2 * ds.len());
    for i in 0..ds.len() {
        for _ in 0..2 {
            points.extend_from_slice(ds.point(i));
            groups.push(ds.group_of(i));
        }
    }
    Dataset::new("dup", ds.dim(), points, groups, ds.group_names().to_vec()).unwrap()
}

fn proportional(ds: Dataset, k: usize) -> FairHmsInstance {
    let (lower, upper) = proportional_bounds(&ds.group_sizes(), k, 0.1);
    FairHmsInstance::new(ds, k, lower, upper).unwrap()
}

fn line(name: &str, sol: &Solution, tau: Option<f64>) -> String {
    let mhr = sol.mhr.map_or(0, f64::to_bits);
    match tau {
        Some(t) => format!(
            "{name} idx={:?} mhr={mhr:016x} tau={:016x}",
            sol.indices,
            t.to_bits()
        ),
        None => format!("{name} idx={:?} mhr={mhr:016x}", sol.indices),
    }
}

fn run(name: &str, inst: &FairHmsInstance, cfg: &BiGreedyConfig) -> String {
    let d = inst.dim();
    let net = SampledNet::generate(d, cfg.resolve_m(d), cfg.seed);
    let (sol, tau) = bigreedy_on_net(inst, &net.vectors, cfg).unwrap();
    line(name, &sol, Some(tau))
}

fn actual_lines() -> Vec<String> {
    let mut out = Vec::new();
    // The (d, C, k) grid under the serving default: feasible, binary, lazy.
    for d in [3, 4, 5] {
        for c in [1, 3] {
            for k in [4, 8, 10] {
                let seed = (100 * d + 10 * c + k) as u64;
                let inst = proportional(anticor(d, c, seed), k);
                let cfg = BiGreedyConfig {
                    seed,
                    ..BiGreedyConfig::paper_default(k, d)
                };
                out.push(run(&format!("grid d={d} c={c} k={k}"), &inst, &cfg));
            }
        }
    }
    // Both modes × both τ searches × both greedy variants on C = 3.
    for (d, k) in [(3, 8), (4, 4)] {
        let inst = proportional(anticor(d, 3, 7 + d as u64), k);
        for mode in [BiGreedyMode::Feasible, BiGreedyMode::Bicriteria] {
            for tau_search in [TauSearch::Binary, TauSearch::Linear] {
                for use_lazy in [true, false] {
                    let cfg = BiGreedyConfig {
                        mode,
                        tau_search,
                        use_lazy,
                        seed: 11,
                        ..BiGreedyConfig::paper_default(k, d)
                    };
                    let name = format!("modes d={d} k={k} {mode:?} {tau_search:?} lazy={use_lazy}");
                    out.push(run(&name, &inst, &cfg));
                }
            }
        }
    }
    // Duplicated rows: tied gains everywhere.
    for (d, c, k) in [(3, 3, 4), (4, 1, 8), (5, 3, 10)] {
        let ds = duplicated(&anticor(d, c, 50 + d as u64));
        let inst = proportional(ds, k);
        for mode in [BiGreedyMode::Feasible, BiGreedyMode::Bicriteria] {
            let cfg = BiGreedyConfig {
                mode,
                seed: 5,
                ..BiGreedyConfig::paper_default(k, d)
            };
            out.push(run(&format!("dup d={d} c={c} k={k} {mode:?}"), &inst, &cfg));
        }
    }
    // An upper bound of 1: a group closes after its first pick, so the
    // rest of it turns infeasible in the middle of every greedy run.
    for (d, k) in [(3, 4), (4, 8), (5, 10)] {
        let ds = anticor(d, 3, 70 + d as u64);
        let inst = FairHmsInstance::new(ds, k, vec![0, 1, 0], vec![1, k, k]).unwrap();
        for tau_search in [TauSearch::Binary, TauSearch::Linear] {
            let cfg = BiGreedyConfig {
                tau_search,
                seed: 9,
                ..BiGreedyConfig::paper_default(k, d)
            };
            out.push(run(
                &format!("cap1 d={d} k={k} {tau_search:?}"),
                &inst,
                &cfg,
            ));
        }
    }
    // A large full-form instance: thousands of candidate rows per probe,
    // so every gain sweep is hundreds of thousands of terms.
    let ds = anti_correlated_dataset(3_000, 3, 3, &mut StdRng::seed_from_u64(30));
    let inst = proportional(ds, 4);
    for use_lazy in [true, false] {
        let cfg = BiGreedyConfig {
            use_lazy,
            seed: 13,
            ..BiGreedyConfig::paper_default(4, 3)
        };
        out.push(run(
            &format!("large n=3000 d=3 k=4 lazy={use_lazy}"),
            &inst,
            &cfg,
        ));
    }
    // BiGreedy+: adaptive net doubling over the same solver.
    for (d, c, k) in [(3, 3, 4), (4, 3, 8), (5, 1, 10)] {
        let inst = proportional(anticor(d, c, 90 + d as u64), k);
        let sol = bigreedy_plus(&inst, &BiGreedyPlusConfig::paper_default(k, d)).unwrap();
        out.push(line(&format!("plus d={d} c={c} k={k}"), &sol, None));
    }
    out
}

/// Outputs of the τ-search before the batched gain lanes landed.
#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "grid d=3 c=1 k=4 idx=[6, 35, 146, 158] mhr=3fe8f3be498f706f tau=3fe924467bfe5eed",
    "grid d=3 c=1 k=8 idx=[2, 24, 29, 43, 90, 120, 147, 156] mhr=3fedffa281a11b25 tau=3fee209afa7055ec",
    "grid d=3 c=1 k=10 idx=[3, 8, 35, 58, 67, 79, 108, 132, 133, 146] mhr=3fefc98ef29d9943 tau=3fefae147ae147ae",
    "grid d=3 c=3 k=4 idx=[4, 14, 44, 52] mhr=3fe93cd69a415240 tau=3fe924467bfe5eed",
    "grid d=3 c=3 k=8 idx=[2, 22, 53, 95, 110, 133, 145, 153] mhr=3fec9a003fbdb857 tau=3feca69c691cc3f2",
    "grid d=3 c=3 k=10 idx=[0, 4, 7, 12, 18, 38, 64, 82, 85, 153] mhr=3fedd82d4ba07339 tau=3fedd37ab55fda2f",
    "grid d=4 c=1 k=4 idx=[9, 54, 104, 138] mhr=3fea9d2fecf2e9ff tau=3feab456342faea9",
    "grid d=4 c=1 k=8 idx=[16, 17, 27, 30, 42, 67, 79, 146] mhr=3fed253b8a9bb57f tau=3fed3b8885c8c60b",
    "grid d=4 c=1 k=10 idx=[1, 4, 6, 15, 19, 64, 79, 83, 93, 125] mhr=3fed9a9f0ba1f813 tau=3fed871fe1a40385",
    "grid d=4 c=3 k=4 idx=[19, 65, 89, 107] mhr=3fe8ef167a765e67 tau=3fe7aba01e115537",
    "grid d=4 c=3 k=8 idx=[0, 2, 53, 70, 86, 91, 130, 146] mhr=3fea70310282140d tau=3fea6ff92e8b5d8e",
    "grid d=4 c=3 k=10 idx=[4, 5, 11, 13, 17, 20, 53, 78, 89, 103] mhr=3feaa66d3c1c2b50 tau=3feab456342faea9",
    "grid d=5 c=1 k=4 idx=[4, 13, 24, 157] mhr=3fe9182b2fc1fe2c tau=3fe924467bfe5eed",
    "grid d=5 c=1 k=8 idx=[0, 32, 71, 109, 116, 130, 138, 144] mhr=3fecb3ce89629ed7 tau=3feca69c691cc3f2",
    "grid d=5 c=1 k=10 idx=[1, 7, 11, 28, 41, 54, 98, 106, 140, 155] mhr=3fed1ae1cadda19b tau=3fed3b8885c8c60b",
    "grid d=5 c=3 k=4 idx=[7, 16, 38, 86] mhr=3fe8a5e94a9c4db4 tau=3fe826a9100666ab",
    "grid d=5 c=3 k=8 idx=[0, 1, 6, 20, 31, 47, 69, 147] mhr=3fea8f19961ed08f tau=3feab456342faea9",
    "grid d=5 c=3 k=10 idx=[1, 3, 12, 29, 35, 39, 66, 126, 143, 144] mhr=3feaf940228116d8 tau=3feaf96400ff0858",
    "modes d=3 k=8 Feasible Binary lazy=true idx=[0, 1, 32, 55, 65, 76, 90, 140] mhr=3feb68c005ddc526 tau=3feb8599193abfb8",
    "modes d=3 k=8 Feasible Binary lazy=false idx=[0, 1, 32, 55, 65, 76, 90, 140] mhr=3feb68c005ddc526 tau=3feb8599193abfb8",
    "modes d=3 k=8 Feasible Linear lazy=true idx=[0, 1, 32, 55, 65, 76, 90, 140] mhr=3feb68c005ddc526 tau=3feb8599193abfb8",
    "modes d=3 k=8 Feasible Linear lazy=false idx=[0, 1, 32, 55, 65, 76, 90, 140] mhr=3feb68c005ddc526 tau=3feb8599193abfb8",
    "modes d=3 k=8 Bicriteria Binary lazy=true idx=[0, 1, 6, 9, 12, 20, 48, 55, 77, 98, 105, 129, 140, 141, 148, 150] mhr=3feea568bda95642 tau=3feebd33d7f3c762",
    "modes d=3 k=8 Bicriteria Binary lazy=false idx=[0, 1, 6, 9, 12, 20, 48, 55, 77, 98, 105, 129, 140, 141, 148, 150] mhr=3feea568bda95642 tau=3feebd33d7f3c762",
    "modes d=3 k=8 Bicriteria Linear lazy=true idx=[0, 1, 2, 3, 5, 6, 7, 9, 12, 14, 15, 18, 20, 21, 22, 32, 33, 35, 36, 37, 45, 47, 48, 55, 56, 58, 61, 65, 69, 71, 76, 77, 81, 83, 86, 90, 92, 93, 98, 105, 110, 113, 117, 122, 129, 130, 138, 140, 141, 144, 147, 148, 149, 150, 157, 158] mhr=3fefc841c89aea37 tau=3fefae147ae147ae",
    "modes d=3 k=8 Bicriteria Linear lazy=false idx=[0, 1, 2, 3, 5, 6, 7, 9, 12, 14, 15, 18, 20, 21, 22, 32, 33, 35, 36, 37, 45, 47, 48, 55, 56, 58, 61, 65, 69, 71, 76, 77, 81, 83, 86, 90, 92, 93, 98, 105, 110, 113, 117, 122, 129, 130, 138, 140, 141, 144, 147, 148, 149, 150, 157, 158] mhr=3fefc841c89aea37 tau=3fefae147ae147ae",
    "modes d=4 k=4 Feasible Binary lazy=true idx=[20, 21, 94, 133] mhr=3fe9fff6615df9a2 tau=3fea2c4b2b84da0f",
    "modes d=4 k=4 Feasible Binary lazy=false idx=[20, 21, 94, 133] mhr=3fe9fff6615df9a2 tau=3fea2c4b2b84da0f",
    "modes d=4 k=4 Feasible Linear lazy=true idx=[20, 21, 54, 94] mhr=3fe9fff6615df9a2 tau=3fea2c4b2b84da0f",
    "modes d=4 k=4 Feasible Linear lazy=false idx=[20, 21, 54, 94] mhr=3fe9fff6615df9a2 tau=3fea2c4b2b84da0f",
    "modes d=4 k=4 Bicriteria Binary lazy=true idx=[0, 12, 20, 21, 43, 67, 68, 71, 87, 89, 91, 94, 98, 104, 120, 133] mhr=3fed24c11a4a700b tau=3fed3b8885c8c60b",
    "modes d=4 k=4 Bicriteria Binary lazy=false idx=[0, 12, 20, 21, 43, 67, 68, 71, 87, 89, 91, 94, 98, 104, 120, 133] mhr=3fed24c11a4a700b tau=3fed3b8885c8c60b",
    "modes d=4 k=4 Bicriteria Linear lazy=true idx=[0, 12, 20, 21, 43, 67, 68, 71, 87, 89, 91, 94, 98, 104, 120, 133] mhr=3fed24c11a4a700b tau=3fed3b8885c8c60b",
    "modes d=4 k=4 Bicriteria Linear lazy=false idx=[0, 12, 20, 21, 43, 67, 68, 71, 87, 89, 91, 94, 98, 104, 120, 133] mhr=3fed24c11a4a700b tau=3fed3b8885c8c60b",
    "dup d=3 c=3 k=4 Feasible idx=[2, 90, 220, 310] mhr=3fe82708ca33e85e tau=3fe7aba01e115537",
    "dup d=3 c=3 k=4 Bicriteria idx=[2, 90, 220, 310] mhr=3fe82708ca33e85e tau=3fe7aba01e115537",
    "dup d=4 c=1 k=8 Feasible idx=[40, 54, 192, 222, 250, 268, 296, 314] mhr=3fec431d1860c6d1 tau=3feb3f245e18e1a4",
    "dup d=4 c=1 k=8 Bicriteria idx=[0, 40, 62, 68, 198, 222, 268, 314] mhr=3feb069072dfd7b5 tau=3feb3f245e18e1a4",
    "dup d=5 c=3 k=10 Feasible idx=[58, 118, 148, 158, 172, 188, 210, 220, 268, 296] mhr=3fec833e42e54b09 tau=3febccc404cc2681",
    "dup d=5 c=3 k=10 Bicriteria idx=[0, 1, 58, 122, 130, 172, 188, 210, 220, 300] mhr=3feb8f98c6bc0935 tau=3febccc404cc2681",
    "cap1 d=3 k=4 Binary idx=[0, 33, 109, 135] mhr=3febf187851c4318 tau=3fec14a6f7eaa830",
    "cap1 d=3 k=4 Linear idx=[0, 33, 109, 135] mhr=3febf187851c4318 tau=3fec14a6f7eaa830",
    "cap1 d=4 k=8 Binary idx=[13, 45, 60, 88, 107, 113, 144, 148] mhr=3fedb67ce1a10972 tau=3fedd37ab55fda2f",
    "cap1 d=4 k=8 Linear idx=[13, 45, 50, 88, 107, 113, 144, 148] mhr=3fedb67ce1a10972 tau=3fedd37ab55fda2f",
    "cap1 d=5 k=10 Binary idx=[3, 13, 14, 21, 40, 65, 71, 97, 126, 153] mhr=3fec56f09b1f5d33 tau=3fec5d43ce7613e8",
    "cap1 d=5 k=10 Linear idx=[13, 14, 42, 65, 74, 101, 114, 115, 133, 153] mhr=3fec951528b29b7c tau=3fec5d43ce7613e8",
    "large n=3000 d=3 k=4 lazy=true idx=[215, 1621, 2539, 2862] mhr=3fea9b1e9dcbc280 tau=3feab456342faea9",
    "large n=3000 d=3 k=4 lazy=false idx=[215, 1621, 2539, 2862] mhr=3fea9b1e9dcbc280 tau=3feab456342faea9",
    "plus d=3 c=3 k=4 idx=[36, 73, 77, 113] mhr=3fea1265e8d196ef",
    "plus d=4 c=3 k=8 idx=[6, 12, 22, 54, 55, 80, 83, 116] mhr=3feb08ab4c9ec0e2",
    "plus d=5 c=1 k=10 idx=[13, 16, 18, 48, 59, 76, 98, 100, 132, 150] mhr=3fee4e1bfa6a2e47",
];

#[test]
fn bigreedy_answers_match_golden_bits() {
    let actual = actual_lines();
    let mismatched: Vec<String> = actual
        .iter()
        .enumerate()
        .filter(|&(i, a)| GOLDEN.get(i) != Some(&a.as_str()))
        .map(|(i, a)| {
            format!(
                "  case {i}: expected {:?}\n          actual   {a:?}",
                GOLDEN.get(i)
            )
        })
        .collect();
    assert!(
        mismatched.is_empty() && actual.len() == GOLDEN.len(),
        "{} of {} golden cases differ ({} expected):\n{}\nfull actual table:\n{}",
        mismatched.len(),
        actual.len(),
        GOLDEN.len(),
        mismatched.join("\n"),
        actual
            .iter()
            .map(|a| format!("    {a:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
