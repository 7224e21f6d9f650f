//! In-process replays for the traced run: the workload's own queries,
//! answers, datasets and writes, pushed through each layer's public
//! functions with a span around every call.

use std::hint::black_box;
use std::io::Cursor;
use std::path::{Path, PathBuf};

use fairhms_core::bigreedy::{
    bigreedy_on_net_with_db_max, BiGreedyConfig, CachedDbMax, SampledNet,
};
use fairhms_core::objective::TruncatedMhrObjective;
use fairhms_core::registry::AlgorithmParams;
use fairhms_service::codec::{BinaryCodec, Codec};
use fairhms_service::protocol::{self, Response, WireAnswer};
use fairhms_service::{Catalog, CatalogConfig, PreparedDataset};

use crate::check;
use crate::gen::{Mutation, Op, QuerySpec};
use crate::trace::Tracer;

/// Sizes of one replayed solve (the spans carry the times).
pub struct SolveSizes {
    /// Candidate rows (the group skyline).
    pub n: usize,
    /// δ-net size.
    pub m: usize,
}

/// Replays `q` through BiGreedy's public phases, exactly as
/// `registry::by_name("bigreedy")` runs them: δ-net sample, `db_max`
/// pass, score-cache build, then the full solve (whose τ search is its
/// time minus a score-cache build).
pub fn replay_solve(
    tr: &mut Tracer,
    req: u64,
    prep: &PreparedDataset,
    q: &QuerySpec,
) -> Result<SolveSizes, String> {
    let (_, inst) = check::instance(prep, q)?;
    let params = AlgorithmParams::default();
    let d = inst.dim();
    let cfg = BiGreedyConfig {
        epsilon: params.epsilon,
        sample_size: Some(params.m_multiplier * q.k * d),
        seed: q.seed,
        ..BiGreedyConfig::default()
    };
    let m = cfg.resolve_m(d);
    let root = tr.open(0, req, "replay.solve");
    let net = tr.span(root, req, "bigreedy.net", || {
        SampledNet::generate(d, m, q.seed)
    });
    let db = tr.span(root, req, "bigreedy.db_max", || {
        CachedDbMax::compute(inst.data(), &net)
    });
    tr.span(root, req, "objective.score_cache", || {
        let obj = TruncatedMhrObjective::new(inst.data(), &net.vectors, &db.values, 1.0, true);
        black_box(obj.tau());
    });
    let solved = tr.span(root, req, "bigreedy.solve", || {
        bigreedy_on_net_with_db_max(&inst, &net.vectors, &db.values, &cfg)
    });
    tr.close(root);
    solved.map_err(|e| e.to_string())?;
    Ok(SolveSizes { n: inst.len(), m })
}

/// Frame sizes of one replayed request/answer pair.
pub struct FrameSizes {
    pub text: usize,
    pub binary: usize,
}

/// Replays one request line and its answer through the protocol parser and
/// both codecs, `reps` times per call (each call is ~100 ns to a few µs,
/// so one span covers a block of `reps` calls).
pub fn replay_codec(
    tr: &mut Tracer,
    req: u64,
    line: &str,
    answer: &WireAnswer,
    reps: usize,
) -> Result<FrameSizes, String> {
    let line = line.trim_end();
    let resp = Response::Answer {
        seq: None,
        answer: answer.clone(),
    };
    let root = tr.open(0, req, "replay.codec");
    tr.span(root, req, "protocol.parse_request", || {
        for _ in 0..reps {
            black_box(protocol::parse_request(black_box(line)).is_ok());
        }
    });
    let text = tr.span(root, req, "protocol.format_response", || {
        let mut len = 0;
        for _ in 0..reps {
            len = protocol::encode_response_line(black_box(&resp)).map_or(0, |s| s.len() + 1);
        }
        len
    });
    let mut frame = Vec::new();
    tr.span(root, req, "codec.binary_encode", || {
        for _ in 0..reps {
            frame.clear();
            black_box(
                BinaryCodec
                    .encode_frame(black_box(&resp), &mut frame)
                    .is_ok(),
            );
        }
    });
    let decoded = tr.span(root, req, "codec.binary_decode", || {
        let mut last = None;
        for _ in 0..reps {
            last = Some(BinaryCodec.read_frame(&mut Cursor::new(black_box(&frame[..]))));
        }
        last
    });
    tr.close(root);
    match decoded {
        Some(Ok(Some(r))) if r == resp => Ok(FrameSizes {
            text,
            binary: frame.len(),
        }),
        other => Err(format!(
            "binary codec round trip changed the answer: {other:?}"
        )),
    }
}

/// Prepares a workload dataset from its CSV the way the catalog does, with
/// the group-skyline pass timed on its own as well.
pub fn replay_prep(tr: &mut Tracer, req: u64, name: &str, csv: &Path) -> Result<(), String> {
    let data = fairhms_data::csv::read_dataset_auto(csv, name).map_err(|e| e.to_string())?;
    let prep = tr.span(0, req, "catalog.prepare", || {
        PreparedDataset::prepare(name, data)
    });
    let prep = prep.map_err(|e| e.to_string())?;
    tr.span(0, req, "skyline.group_skyline", || {
        black_box(fairhms_data::skyline::group_skyline_indices(&prep.dataset).len());
    });
    Ok(())
}

/// Outcome counts of a replayed write stream.
#[derive(Debug, Default)]
pub struct WriteCounts {
    pub total: usize,
    pub rebuilt: usize,
    pub sky_changed: usize,
}

/// Replays a write stream through `Catalog::append_row`/`delete_row` on a
/// fresh catalog holding the workload's datasets.
pub fn replay_writes(
    tr: &mut Tracer,
    req_base: u64,
    datasets: &[(String, PathBuf)],
    writes: &[Mutation],
) -> Result<WriteCounts, String> {
    let catalog = Catalog::with_config(CatalogConfig::default());
    for (name, csv) in datasets {
        catalog.load_csv(name, csv).map_err(|e| e.to_string())?;
    }
    let mut counts = WriteCounts::default();
    for (i, w) in writes.iter().enumerate() {
        let req = req_base + i as u64;
        let name = &w.dataset;
        let out = match &w.op {
            Op::Append { row, group, .. } => tr.span(0, req, "catalog.append_row", || {
                catalog.append_row(name, row, *group)
            }),
            Op::Delete { row } => tr.span(0, req, "catalog.delete_row", || {
                catalog.delete_row(name, *row)
            }),
        }
        .map_err(|e| e.to_string())?;
        counts.total += 1;
        counts.rebuilt += usize::from(out.rebuilt);
        counts.sky_changed += usize::from(out.sky_changed);
    }
    Ok(counts)
}
