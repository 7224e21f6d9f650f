//! Answer checks: wire answers against in-process solves of the same
//! query, and wire mutation reports against an in-process mirror.

use std::sync::Arc;

use fairhms_core::registry::{by_name, AlgorithmParams};
use fairhms_core::types::{CandidateSet, FairHmsInstance};
use fairhms_matroid::proportional_bounds;
use fairhms_service::protocol::{Response, WireAnswer};
use fairhms_service::{MutationReport, PreparedDataset};

use crate::gen::QuerySpec;
use crate::wire::{decode, CodecKind};

/// What a correct answer must carry, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub indices: Vec<usize>,
    pub mhr: Option<f64>,
    pub violations: usize,
}

/// The instance the server solves for `q`: the prepared group-skyline
/// restriction with proportional bounds over its group sizes.
pub fn instance(
    prep: &PreparedDataset,
    q: &QuerySpec,
) -> Result<(CandidateSet, FairHmsInstance), String> {
    let cand = CandidateSet::reduced(
        Arc::clone(&prep.skyline_data),
        Arc::clone(&prep.skyline_rows),
    );
    let (lower, upper) = proportional_bounds(&prep.skyline_group_sizes, q.k, q.alpha);
    let inst = FairHmsInstance::new(Arc::clone(cand.data()), q.k, lower, upper)
        .map_err(|e| e.to_string())?;
    Ok((cand, inst))
}

/// Solves `q` in-process through `registry::by_name`.
pub fn solve_by_name(prep: &PreparedDataset, q: &QuerySpec) -> Result<Expected, String> {
    let (cand, inst) = instance(prep, q)?;
    let params = AlgorithmParams {
        seed: q.seed,
        ..AlgorithmParams::default()
    };
    let alg = by_name("bigreedy", &params).map_err(|e| e.to_string())?;
    let sol = alg.solve(&inst).map_err(|e| e.to_string())?;
    Ok(Expected {
        violations: inst.matroid().violations(&sol.indices),
        indices: cand.to_original(&sol.indices),
        mhr: sol.mhr,
    })
}

/// The answer a frame carries; `ERR`/busy frames are errors.
pub fn answer_of(frame: &[u8], codec: CodecKind) -> Result<WireAnswer, String> {
    match decode(frame, codec)? {
        Response::Answer { answer, .. } => Ok(answer),
        other => Err(format!("expected an answer, got {other:?}")),
    }
}

/// Identical indices, identical `mhr` bits, identical violation count.
pub fn check_answer(got: &WireAnswer, want: &Expected) -> Result<(), String> {
    let bits = |m: Option<f64>| m.map(f64::to_bits);
    if got.indices != want.indices {
        return Err(format!(
            "indices differ: wire {:?}, in-process {:?}",
            got.indices, want.indices
        ));
    }
    if bits(got.mhr) != bits(want.mhr) {
        return Err(format!(
            "mhr bits differ: wire {:?}, in-process {:?}",
            got.mhr, want.mhr
        ));
    }
    if got.violations != want.violations {
        return Err(format!(
            "violations differ: wire {}, in-process {}",
            got.violations, want.violations
        ));
    }
    Ok(())
}

/// A wire `OK mutated …` report must agree with the mirror's on the new row
/// count, skyline size and whether the skyline changed.
pub fn check_mutation(resp: &Response, want: &MutationReport) -> Result<(), String> {
    match resp {
        Response::Mutated {
            rows,
            skyline,
            sky_changed,
            ..
        } if (*rows, *skyline, *sky_changed) == (want.rows, want.skyline, want.sky_changed) => {
            Ok(())
        }
        other => Err(format!(
            "mutation report {other:?} differs from the mirror's \
             rows={} skyline={} sky_changed={}",
            want.rows, want.skyline, want.sky_changed
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{anticorrelated, Rng};

    #[test]
    fn rejects_corrupted_answers() {
        let t = anticorrelated(&mut Rng::new(5), "t", 300, 3, 2);
        let data =
            fairhms_data::Dataset::new("t", 3, t.points.clone(), t.groups.clone(), vec![]).unwrap();
        let prep = PreparedDataset::prepare("t", data).unwrap();
        let q = QuerySpec::new("t", 4, 0.1, 11);
        let want = solve_by_name(&prep, &q).unwrap();
        assert_eq!(want, solve_by_name(&prep, &q).unwrap(), "deterministic");
        let good = WireAnswer {
            alg: "BiGreedy".into(),
            cached: false,
            micros: 1,
            violations: want.violations,
            mhr: want.mhr,
            indices: want.indices.clone(),
        };
        assert!(check_answer(&good, &want).is_ok());

        let mut bad = good.clone();
        bad.indices[0] += 1;
        assert!(check_answer(&bad, &want).is_err());
        let mut bad = good.clone();
        bad.mhr = want.mhr.map(|m| f64::from_bits(m.to_bits() ^ 1));
        assert!(check_answer(&bad, &want).is_err());
        let mut bad = good.clone();
        bad.violations += 1;
        assert!(check_answer(&bad, &want).is_err());

        // Through the wire codecs: a flipped digit in a text frame fails.
        let resp = Response::Answer {
            seq: None,
            answer: good,
        };
        let line = fairhms_service::protocol::encode_response_line(&resp).unwrap() + "\n";
        assert!(check_answer(&answer_of(line.as_bytes(), CodecKind::Text).unwrap(), &want).is_ok());
        let last = line.trim_end().chars().last().unwrap();
        let flipped = if last == '9' { '8' } else { '9' };
        let corrupt = format!(
            "{}{flipped}\n",
            &line.trim_end()[..line.trim_end().len() - 1]
        );
        assert!(check_answer(
            &answer_of(corrupt.as_bytes(), CodecKind::Text).unwrap(),
            &want
        )
        .is_err());
        assert!(answer_of(b"ERR solver error: k must be positive\n", CodecKind::Text).is_err());
    }
}
