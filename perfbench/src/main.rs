//! End-to-end benchmark of a live `fairhms serve`, plus a traced run that
//! splits each workload by layer. See `perfbench/README.md`.
//!
//! ```text
//! fairhms-perfbench --workload cold_solve|hot_hits|mixed_rw --seed N
//!     --seconds S --trace 0|1 --server-bin PATH --work-dir DIR
//!     [--rev REV] [--rustc VERSION]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). A full record
//! (environment, sample counts, notes, per-layer self times) is written
//! under `DIR/results/`, and the traced run's spans next to it.

// The repository's clippy configuration bans clock reads, which serving
// paths must not make; timing requests is this program's whole job.
#![allow(clippy::disallowed_methods)]

mod check;
mod cold;
mod gen;
mod host;
mod hot;
mod layers;
mod mixed;
mod poll;
mod run;
mod server;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use run::{Ctx, Report};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["cold_solve", "hot_hits", "mixed_rw"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
    rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), val);
    }
    let mut take = |k: &str| map.remove(k).ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let args = Args {
        workload,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        server_bin: take("server-bin")?.into(),
        work_dir: take("work-dir")?.into(),
        rev: take("rev").unwrap_or_else(|_| "unknown".into()),
        rustc: take("rustc").unwrap_or_else(|_| "unknown".into()),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    if let Some(k) = map.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (no valid JSON) become 0 with a warning.
fn json_num(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("perfbench: warning: {name} is {v}; reported as 0");
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match execute(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}

/// Runs the workload, prints the result line and writes the record.
/// Returns whether every answer checked out.
fn execute(args: &Args) -> std::io::Result<bool> {
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let dir = args
        .work_dir
        .join("runs")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let results = args.work_dir.join("results");
    std::fs::create_dir_all(&results)?;
    let epoch = Instant::now();
    let ctx = Ctx {
        bin: args.server_bin.clone(),
        dir: dir.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut tr = Tracer::new(epoch, args.trace);
    let mut rep = Report::default();
    let outcome = match args.workload.as_str() {
        "cold_solve" => cold::run(&ctx, &mut tr, &mut rep),
        "hot_hits" => hot::run(&ctx, &mut tr, &mut rep),
        _ => mixed::run(&ctx, &mut tr, &mut rep),
    };
    // The generated inputs are reproducible from the seed; drop them.
    let _ = std::fs::remove_dir_all(&dir);
    outcome?;
    if rep.attempted == 0 {
        return Err(std::io::Error::other("no request was attempted"));
    }

    let correct = rep.errors.is_empty();
    for e in &rep.errors {
        eprintln!("perfbench: answer check failed: {e}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env = rep.env.clone();
    env.insert("workload".into(), args.workload.clone());
    env.insert("seed".into(), args.seed.to_string());
    env.insert("seconds".into(), args.seconds.to_string());
    env.insert("trace".into(), u8::from(args.trace).to_string());
    env.insert("nproc".into(), nproc.to_string());
    env.insert("rev".into(), args.rev.clone());
    env.insert("rustc".into(), args.rustc.clone());

    // The traced run reports per-layer metrics; its own end-to-end numbers
    // go to the record only (end-to-end metrics come from untraced runs).
    let shown: Vec<&run::Metric> = rep
        .metrics
        .iter()
        .filter(|m| run::END_TO_END.contains(&m.name) != args.trace && !run::record_only(m.name))
        .collect();

    let mut rec = String::from("{\n  \"env\": {");
    let envs: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\n    {}: {}", json_str(k), json_str(v)))
        .collect();
    rec.push_str(&envs.join(","));
    write!(
        rec,
        "\n  }},\n  \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {},\n  \"errors\": [{}],\n  \"metrics\": [",
        rep.attempted,
        rep.failed,
        rep.errors.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(", ")
    )
    .expect("String write");
    let ms: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\n    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}, \"note\": {}}}",
                json_str(m.name),
                json_num(m.name, m.value),
                json_str(m.unit),
                m.samples,
                json_str(&m.note)
            )
        })
        .collect();
    rec.push_str(&ms.join(","));
    rec.push_str("\n  ],\n  \"layers\": [");
    let layers: Vec<String> = tr
        .layers()
        .iter()
        .map(|(name, l)| {
            format!(
                "\n    {{\"span\": {}, \"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                json_str(name),
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            )
        })
        .collect();
    rec.push_str(&layers.join(","));
    rec.push_str("\n  ]\n}\n");
    std::fs::write(results.join(format!("{tag}.json")), rec)?;
    if args.trace {
        tr.write_jsonl(&results.join(format!("{tag}.trace.jsonl")))?;
    }

    for m in &shown {
        println!(
            "{:<30} {:>16} {:<6} n={} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples,
            m.note
        );
    }
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.name, m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
    Ok(correct)
}
