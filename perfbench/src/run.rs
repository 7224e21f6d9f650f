//! What every workload shares: set-up with a fresh server, counter
//! snapshots, the write probe and its mirror, and the metric record.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fairhms_service::protocol::Response;
use fairhms_service::{Catalog, CatalogConfig, QueryEngine};

use crate::check::{self, Expected};
use crate::gen::{Mutation, Op, QuerySpec};
use crate::host::Reference;
use crate::layers;
use crate::server::Server;
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{self, decode, CodecKind, Conn, Metrics};

/// Fresh servers started per run; `setup_s` is their median set-up time.
pub const SETUP_REPS: usize = 5;

pub struct Ctx {
    pub bin: PathBuf,
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: usize,
    pub note: String,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Answer-check failures; any makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub env: BTreeMap<String, String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.noted(name, value, unit, samples, String::new());
    }

    pub fn noted(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            note,
        });
    }

    pub fn check(&mut self, what: &str, res: Result<(), String>) {
        if let Err(e) = res {
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// Starts [`SETUP_REPS`] servers one after another, each timed from spawn
/// until `fill` returns (datasets loaded and prepared, connections open,
/// caches filled); all but the last are stopped again.
pub fn set_up<S>(
    ctx: &Ctx,
    data: &[(String, PathBuf)],
    mut fill: impl FnMut(&Server) -> io::Result<S>,
) -> io::Result<(Server, S, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let server = Server::spawn(&ctx.bin, data, &ctx.dir.join(format!("serve-{rep}.log")))?;
        let state = fill(&server)?;
        times.push(t0.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((server, state, times));
        }
        drop(state);
        server.shutdown()?;
    }
    unreachable!("SETUP_REPS > 0")
}

/// Server-side counters at one instant.
pub struct Snapshot {
    pub stats: BTreeMap<String, f64>,
    pub metrics: Metrics,
}

/// `STATS` + `METRICS` over a text connection.
pub fn snapshot(conn: &mut Conn) -> io::Result<Snapshot> {
    assert_eq!(conn.codec, CodecKind::Text, "snapshots use the text codec");
    let s = conn.call(b"STATS\n")?;
    let m = conn.call(b"METRICS\n")?;
    let stats = wire::parse_stats(&String::from_utf8_lossy(&s)).map_err(io::Error::other)?;
    let metrics = Metrics::parse(&String::from_utf8_lossy(&m)).map_err(io::Error::other)?;
    Ok(Snapshot { stats, metrics })
}

/// One write as the client saw it.
pub struct WireWrite {
    /// From intended send (or send, in a closed loop) to reply, ns;
    /// infinite if it failed.
    pub latency_ns: f64,
    pub frame: Vec<u8>,
    pub codec: CodecKind,
}

/// Writes sent after the read window by workloads with none of their own.
pub const PROBE_WRITES: usize = 3000;
/// The probe is sent in this many bursts, a pause apart, and its
/// percentiles are the median over bursts: one stall of the machine moves
/// one burst, not the result.
pub const PROBE_BURSTS: usize = 24;
const PROBE_PAUSE: std::time::Duration = std::time::Duration::from_millis(100);

/// Sends `writes` one at a time (closed loop) in [`PROBE_BURSTS`] bursts
/// and times each; samples the host's speed into `host_ns` before each
/// burst.
pub fn write_probe(
    conn: &mut Conn,
    writes: &[Mutation],
    reference: &Reference,
    host_ns: &mut Vec<f64>,
) -> io::Result<Vec<WireWrite>> {
    let mut out = Vec::with_capacity(writes.len());
    for (i, w) in writes.iter().enumerate() {
        if i.is_multiple_of(writes.len().div_ceil(PROBE_BURSTS)) {
            if i > 0 {
                std::thread::sleep(PROBE_PAUSE);
            }
            host_ns.extend(reference.sample());
        }
        let line = w.wire();
        let t = Instant::now();
        conn.send(line.as_bytes())?;
        let frame = conn.recv()?.to_vec();
        let ns = t.elapsed().as_nanos() as f64;
        let failed = wire::is_error(&frame, conn.codec);
        out.push(WireWrite {
            latency_ns: if failed { f64::INFINITY } else { ns },
            frame,
            codec: conn.codec,
        });
    }
    Ok(out)
}

/// An in-process engine holding the workload's datasets, to which the
/// wire's writes are applied in order.
pub struct Mirror {
    pub engine: QueryEngine,
}

impl Mirror {
    pub fn new(data: &[(String, PathBuf)]) -> Result<Mirror, String> {
        let catalog = Arc::new(Catalog::with_config(CatalogConfig::default()));
        for (name, path) in data {
            catalog.load_csv(name, path).map_err(|e| e.to_string())?;
        }
        Ok(Mirror {
            engine: QueryEngine::new(catalog, 1024),
        })
    }

    /// Applies `w` and checks the wire's report of the same write.
    pub fn apply(&self, w: &Mutation, wire: &WireWrite) -> Result<(), String> {
        let report = match &w.op {
            Op::Append { row, group, .. } => self.engine.append_row(&w.dataset, row, *group),
            Op::Delete { row } => self.engine.delete_row(&w.dataset, *row),
        }
        .map_err(|e| e.to_string())?;
        check::check_mutation(&decode(&wire.frame, wire.codec)?, &report)
    }

    pub fn answer(&self, q: &QuerySpec) -> Result<Expected, String> {
        let r = self
            .engine
            .execute(&q.to_query())
            .map_err(|e| e.to_string())?;
        Ok(Expected {
            indices: r.answer.indices.clone(),
            mhr: r.answer.mhr,
            violations: r.answer.violations,
        })
    }
}

/// Sum of `cache_dropped` over the wire's mutation reports.
pub fn cache_dropped(writes: &[WireWrite]) -> u64 {
    writes
        .iter()
        .filter_map(|w| match decode(&w.frame, w.codec) {
            Ok(Response::Mutated { cache_dropped, .. }) => Some(cache_dropped),
            _ => None,
        })
        .sum()
}

/// The end-to-end metrics, named the same on every workload. Timings other
/// than set-up are in units of the host's reference kernel (see
/// [`crate::host`]); their values in seconds go to the record as `raw.*`.
/// The write tail ([`end_to_end`] also reports it) is a per-layer metric
/// instead: on `mixed_rw` it spread by 36% between runs of identical code
/// on the reference host, past any bound a regression check could use.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "peak_rss_mb",
    "reads_per_ref",
    "read_p50_ref",
    "read_tail_ref",
    "write_p50_ref",
];

/// Metrics only the record holds; neither mode prints them.
pub fn record_only(name: &str) -> bool {
    name.starts_with("raw.")
}

/// Time slices a high-volume run is cut into: its percentiles are the
/// median over slices, so a few seconds' stall of the shared host moves
/// one slice, not the result.
pub const SLICES: usize = 10;

/// The slice a request sent `t_ns` into a window of `window_ns` falls in.
pub fn slice_of(t_ns: u64, window_ns: u64) -> usize {
    ((t_ns as u128 * SLICES as u128 / window_ns.max(1) as u128) as usize).min(SLICES - 1)
}

/// What [`end_to_end`] reports from.
pub struct EndToEnd {
    pub setup_times: Vec<f64>,
    pub rss_kib: u64,
    /// Reads answered per second, per slice (the median is reported).
    pub reads_per_s: Vec<f64>,
    /// Read latencies, ms (failed = ∞), per slice.
    pub read_ms: Vec<Vec<f64>>,
    /// Which percentile `read_tail_ms` reports on this workload, and
    /// whether it is taken over all reads pooled (when a slice would hold
    /// too few samples beyond it) instead of per slice.
    pub tail_pct: f64,
    pub tail_pooled: bool,
    /// Write latencies, µs (failed = ∞), per probe burst or slice.
    pub write_us: Vec<Vec<f64>>,
    /// Thread CPU time of each reference-kernel run, ns.
    pub host_ns: Vec<f64>,
}

/// Reported in place of a percentile that landed on a failed request.
const FAILED_MS: f64 = 1e9;

/// Median over `groups` of percentile `p` within each group, the size of
/// the smallest group, and each group's percentile.
fn grouped(groups: &[Vec<f64>], p: f64) -> (f64, usize, Vec<f64>) {
    let per: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| stats::percentile(&mut g.clone(), p))
        .collect();
    let smallest = groups.iter().map(Vec::len).min().unwrap_or(0);
    (stats::median(&per), smallest, per)
}

pub fn end_to_end(rep: &mut Report, e: EndToEnd) {
    rep.noted(
        "setup_s",
        stats::median(&e.setup_times),
        "s",
        e.setup_times.len(),
        format!("median of {:?}", e.setup_times),
    );
    rep.metric("peak_rss_mb", e.rss_kib as f64 / 1024.0, "MiB", 1);
    let ref_ms = stats::median(&e.host_ns) / 1e6;
    rep.noted(
        "host.ref_ms",
        ref_ms,
        "ms",
        e.host_ns.len(),
        "median thread CPU time of one reference-kernel run".into(),
    );
    let reads: usize = e.read_ms.iter().map(Vec::len).sum();
    let rate = stats::median(&e.reads_per_s);
    let slices = format!(
        "median over {} slice(s) of {:?} 1/s",
        e.reads_per_s.len(),
        e.reads_per_s
    );
    rep.noted("raw.reads_per_s", rate, "1/s", reads, slices.clone());
    rep.noted(
        "reads_per_ref",
        rate * ref_ms / 1e3,
        "1/ref",
        reads,
        format!("{slices}, times {ref_ms} ms per ref"),
    );
    let finite = |v: f64| if v.is_finite() { v } else { FAILED_MS };
    // Each percentile is reported raw, in `unit`, and divided by the
    // reference kernel's duration in that unit.
    let mut report = |names: [&'static str; 2],
                      groups: &[Vec<f64>],
                      p: f64,
                      unit: &'static str,
                      ref_in_unit: f64| {
        let n: usize = groups.iter().map(Vec::len).sum();
        let (v, smallest, per) = grouped(groups, p);
        let beyond = stats::beyond(smallest, p);
        if !stats::supports(smallest, p) {
            eprintln!(
                "perfbench: warning: {} (p{p}) has fewer than {} samples beyond it",
                names[0],
                stats::MIN_BEYOND
            );
        }
        let note = format!(
            "p{p}, median over {} group(s); {beyond} beyond in the smallest",
            groups.len()
        );
        rep.noted(names[0], finite(v), unit, n, format!("{note}: {per:?}"));
        rep.noted(
            names[1],
            finite(v / ref_in_unit),
            "ref",
            n,
            format!("{note}; {v} {unit} / {ref_in_unit} {unit} per ref"),
        );
    };
    let tail_groups = if e.tail_pooled {
        vec![e.read_ms.concat()]
    } else {
        e.read_ms.clone()
    };
    report(
        ["raw.read_p50_ms", "read_p50_ref"],
        &e.read_ms,
        50.0,
        "ms",
        ref_ms,
    );
    report(
        ["raw.read_tail_ms", "read_tail_ref"],
        &tail_groups,
        e.tail_pct,
        "ms",
        ref_ms,
    );
    report(
        ["raw.write_p50_us", "write_p50_ref"],
        &e.write_us,
        50.0,
        "us",
        ref_ms * 1e3,
    );
    let (p90, smallest, _) = grouped(&e.write_us, 90.0);
    let writes: usize = e.write_us.iter().map(Vec::len).sum();
    rep.noted(
        "loadgen.write_p90_us",
        finite(p90),
        "us",
        writes,
        format!(
            "p90, median over {} group(s); {} beyond in the smallest",
            e.write_us.len(),
            stats::beyond(smallest, 90.0)
        ),
    );
}

/// Splits probe latencies (µs) into the bursts [`write_probe`] sent.
pub fn probe_bursts(writes: &[WireWrite]) -> Vec<Vec<f64>> {
    writes
        .chunks(writes.len().div_ceil(PROBE_BURSTS).max(1))
        .map(|b| b.iter().map(|w| w.latency_ns / 1e3).collect())
        .collect()
}

/// Everything the traced run's per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Counters over the timed window.
    pub window: &'a Metrics,
    /// Counters over the window plus the write probe.
    pub with_writes: &'a Metrics,
    pub stats: &'a BTreeMap<String, f64>,
    /// Queries to replay through the solver, and the dataset they ran on.
    pub solves: Vec<QuerySpec>,
    pub prep_for: &'a dyn Fn(&str) -> Arc<fairhms_service::PreparedDataset>,
    /// Request lines with their decoded answers, for the codec replay.
    pub codec_pairs: Vec<(String, fairhms_service::protocol::WireAnswer)>,
    pub datasets: &'a [(String, PathBuf)],
    pub writes: &'a [Mutation],
    pub wire_writes: &'a [WireWrite],
    /// Generator lateness samples, ms.
    pub late_ms: Vec<f64>,
    /// Median per-request time of traced and untraced requests, ns.
    pub traced_ns: f64,
    pub untraced_ns: f64,
}

/// Repetitions per codec call in the codec replay.
const CODEC_REPS: usize = 2000;

pub fn per_layer(rep: &mut Report, tr: &mut Tracer, li: LayerInputs<'_>) -> Result<(), String> {
    // Solver: core::bigreedy, core::objective, geometry::soa.
    let (mut evals, mut bytes) = (0f64, 0f64);
    for (i, q) in li.solves.iter().enumerate() {
        let prep = (li.prep_for)(&q.dataset);
        let req = 1_000_000 + i as u64;
        let sizes = layers::replay_solve(tr, req, &prep, q)?;
        evals += (sizes.n * sizes.m) as f64;
        bytes += (sizes.n * sizes.m * 8) as f64;
    }
    let solves = li.solves.len();
    let db_max_ms = tr.mean_ms("bigreedy.db_max");
    let score_ms = tr.mean_ms("objective.score_cache");
    let solve_ms = tr.mean_ms("bigreedy.solve");
    rep.metric("bigreedy.net_ms", tr.mean_ms("bigreedy.net"), "ms", solves);
    rep.metric("bigreedy.db_max_ms", db_max_ms, "ms", solves);
    rep.metric("bigreedy.score_cache_ms", score_ms, "ms", solves);
    rep.noted(
        "bigreedy.score_cache_mb",
        bytes / solves.max(1) as f64 / (1024.0 * 1024.0),
        "MiB",
        solves,
        "n·m·8 bytes, computed from sizes".into(),
    );
    rep.noted(
        "bigreedy.tau_search_ms",
        solve_ms - score_ms,
        "ms",
        solves,
        "bigreedy_on_net_with_db_max minus one score-cache build".into(),
    );
    rep.noted(
        "soa.db_max_gevals_per_s",
        evals / (db_max_ms * 1e6 * solves.max(1) as f64),
        "Gdot/s",
        solves,
        "n·m dot products per db_max pass".into(),
    );

    // Front end: server, protocol, codec.
    let w = li.window;
    rep.metric(
        "server.decode_mean_ns",
        w.histo("server.decode").mean_ns(),
        "ns",
        w.histo("server.decode").count as usize,
    );
    rep.metric(
        "server.encode_mean_ns",
        w.histo("server.encode").mean_ns(),
        "ns",
        w.histo("server.encode").count as usize,
    );
    rep.metric(
        "server.flush_mean_ns",
        w.histo("server.flush").mean_ns(),
        "ns",
        w.histo("server.flush").count as usize,
    );
    rep.metric(
        "executor.queue_wait_mean_ns",
        w.histo("executor.queue_wait").mean_ns(),
        "ns",
        w.histo("executor.queue_wait").count as usize,
    );
    rep.metric("shed.total", w.counter("shed.total") as f64, "count", 1);
    let pairs = li.codec_pairs.len();
    let (mut text_bytes, mut bin_bytes) = (0usize, 0usize);
    for (i, (line, answer)) in li.codec_pairs.iter().enumerate() {
        let f = layers::replay_codec(tr, 2_000_000 + i as u64, line, answer, CODEC_REPS)?;
        text_bytes += f.text;
        bin_bytes += f.binary;
    }
    let per_call = |name: &str| tr.mean_ms(name) * 1e6 / CODEC_REPS as f64;
    rep.metric(
        "protocol.parse_request_ns",
        per_call("protocol.parse_request"),
        "ns",
        pairs,
    );
    rep.metric(
        "protocol.format_response_ns",
        per_call("protocol.format_response"),
        "ns",
        pairs,
    );
    rep.metric(
        "codec.binary_encode_ns",
        per_call("codec.binary_encode"),
        "ns",
        pairs,
    );
    rep.metric(
        "codec.binary_decode_ns",
        per_call("codec.binary_decode"),
        "ns",
        pairs,
    );
    rep.metric(
        "codec.text_frame_bytes",
        text_bytes as f64 / pairs.max(1) as f64,
        "bytes",
        pairs,
    );
    rep.metric(
        "codec.binary_frame_bytes",
        bin_bytes as f64 / pairs.max(1) as f64,
        "bytes",
        pairs,
    );

    // Engine, cache, warm start.
    rep.metric(
        "engine.cache_lookup_mean_ns",
        w.histo("engine.cache_lookup").mean_ns(),
        "ns",
        w.histo("engine.cache_lookup").count as usize,
    );
    rep.metric(
        "engine.warm_probe_mean_ns",
        w.histo("engine.warm_probe").mean_ns(),
        "ns",
        w.histo("engine.warm_probe").count as usize,
    );
    rep.metric(
        "engine.flight_wait_sum_ms",
        w.histo("engine.flight_wait").sum as f64 / 1e6,
        "ms",
        w.histo("engine.flight_wait").count as usize,
    );
    let s = |k: &str| li.stats.get(k).copied().unwrap_or(0.0);
    let lookups = s("hits") + s("misses");
    let probes = s("warm_hits") + s("warm_misses");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    rep.noted(
        "cache.hit_ratio",
        ratio(s("hits"), lookups),
        "ratio",
        lookups as usize,
        format!("{} hits of {lookups} answer-cache lookups", s("hits")),
    );
    rep.metric("cache.lookups", lookups, "count", 1);
    rep.noted(
        "warm.hit_ratio",
        ratio(s("warm_hits"), probes),
        "ratio",
        probes as usize,
        format!(
            "{} hits of {probes} warm-tier component probes",
            s("warm_hits")
        ),
    );
    rep.metric("warm.probes", probes, "count", 1);
    let ww = li.with_writes;
    rep.metric(
        "cache.invalidated",
        ww.counter("cache.invalidated") as f64,
        "count",
        1,
    );
    rep.metric(
        "warm.invalidated",
        ww.counter("warm.invalidated") as f64,
        "count",
        1,
    );

    // Catalog, skyline, shard preparation.
    for (i, (name, path)) in li.datasets.iter().enumerate() {
        layers::replay_prep(tr, 3_000_000 + i as u64, name, path)?;
    }
    rep.metric(
        "catalog.prep_ms",
        tr.mean_ms("catalog.prepare"),
        "ms",
        li.datasets.len(),
    );
    rep.metric(
        "skyline.group_skyline_ms",
        tr.mean_ms("skyline.group_skyline"),
        "ms",
        li.datasets.len(),
    );
    let wc = layers::replay_writes(tr, 4_000_000, li.datasets, li.writes)?;
    let appends = li
        .writes
        .iter()
        .filter(|w| matches!(w.op, Op::Append { .. }))
        .count();
    rep.metric(
        "catalog.append_us",
        tr.mean_ms("catalog.append_row") * 1e3,
        "us",
        appends,
    );
    rep.metric(
        "catalog.delete_us",
        tr.mean_ms("catalog.delete_row") * 1e3,
        "us",
        wc.total - appends,
    );
    rep.noted(
        "catalog.rebuild_ratio",
        ratio(wc.rebuilt as f64, wc.total as f64),
        "ratio",
        wc.total,
        format!("{} full re-preps of {} mutations", wc.rebuilt, wc.total),
    );
    rep.noted(
        "catalog.sky_changed_ratio",
        ratio(wc.sky_changed as f64, wc.total as f64),
        "ratio",
        wc.total,
        format!(
            "{} skyline changes of {} mutations",
            wc.sky_changed, wc.total
        ),
    );
    let dropped = cache_dropped(li.wire_writes);
    rep.noted(
        "cache.dropped_per_write",
        ratio(dropped as f64, li.wire_writes.len() as f64),
        "count",
        li.wire_writes.len(),
        format!(
            "{dropped} answers dropped by {} wire writes",
            li.wire_writes.len()
        ),
    );

    // Load generator validity.
    let mut late = li.late_ms;
    let n = late.len();
    let late50 = stats::percentile(&mut late, 50.0);
    let late99 = stats::percentile(&mut late, 99.0);
    rep.noted(
        "loadgen.late_p99_ms",
        late99,
        "ms",
        n,
        format!("p50 {late50:.4} ms"),
    );
    let (sent, failed) = (rep.attempted as f64, rep.failed as f64);
    rep.metric("loadgen.sent", sent, "count", 1);
    rep.metric("loadgen.ok", sent - failed, "count", 1);
    rep.metric("loadgen.failed", failed, "count", 1);

    // The trace itself.
    rep.noted(
        "trace.overhead_pct",
        100.0 * (li.traced_ns - li.untraced_ns) / li.untraced_ns,
        "%",
        1,
        "traced minus untraced requests of the same run".into(),
    );
    rep.metric("trace.spans", tr.len() as f64, "count", 1);
    Ok(())
}
