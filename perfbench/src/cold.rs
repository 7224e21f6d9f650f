//! `cold_solve`: one text connection, closed loop, BiGreedy in skyline form
//! on anti-correlated data (n = 20,000, d = 4, C = 3). `k` cycles over
//! {6, 8, 10} and every query has a fresh seed, so both cache tiers miss
//! and the solver does almost all of the work.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::check;
use crate::gen::{self, QuerySpec, Rng};
use crate::host::{self, Reference};
use crate::run::{self, Ctx, EndToEnd, LayerInputs, Mirror, Report};
use crate::trace::Tracer;
use crate::wire::{self, CodecKind, Conn};

const N: usize = 20_000;
const KS: [usize; 3] = [6, 8, 10];
/// About 60 solves fit a 30 s run: p80 is the highest percentile with ten
/// samples beyond it.
pub const TAIL_PCT: f64 = 80.0;
/// Queries checked against an in-process `registry::by_name` solve.
const CHECKED: usize = 6;

pub fn run(ctx: &Ctx, tr: &mut Tracer, rep: &mut Report) -> io::Result<()> {
    let rng = Rng::new(ctx.seed);
    let table = gen::anticorrelated(&mut rng.fork(1), "cold", N, 4, 3);
    let csv = ctx.dir.join("cold.csv");
    table.write_csv(&csv)?;
    let data = vec![("cold".to_string(), csv.clone())];
    let seed_base = rng.fork(2).next_u64() >> 24;
    let query = |i: usize| QuerySpec::new("cold", KS[i % KS.len()], 0.1, seed_base + i as u64);
    let writes = gen::write_stream(&mut rng.fork(3), &table, &table, run::PROBE_WRITES);

    let (server, mut conn, setup_times) =
        run::set_up(ctx, &data, |s| Conn::connect(&s.addr, CodecKind::Text))?;
    rep.env.insert("serve_args".into(), server.args.join(" "));
    rep.env
        .insert("query_seed_base".into(), seed_base.to_string());
    rep.env.insert("writes".into(), gen::describe(&writes));

    // Timed window. Every `host::EVERY` the loop pauses between requests,
    // with the server idle, to time the reference kernel.
    let reference = Reference::default();
    let mut host_ns = Vec::new();
    let before = run::snapshot(&mut conn)?;
    let trace_every = 2;
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut lat_ms = Vec::new();
    let mut cycle_ns = (Vec::new(), Vec::new());
    let mut late_ms = Vec::new();
    let start = Instant::now();
    let deadline = ctx.seconds;
    let mut prev_recv = start;
    let mut prev_sent = start;
    let mut paused = Duration::ZERO;
    let mut next_sample = start;
    let mut i = 0;
    while start.elapsed().as_secs_f64() < deadline {
        if Instant::now() >= next_sample {
            let p = Instant::now();
            host_ns.extend(reference.sample());
            let pause = p.elapsed();
            // The pause is not the server's time: shift it out.
            paused += pause;
            prev_recv += pause;
            prev_sent += pause;
            next_sample = Instant::now() + host::EVERY;
        }
        let t = Instant::now();
        late_ms.push(t.duration_since(prev_recv).as_secs_f64() * 1e3);
        conn.send(query(i).wire().as_bytes())?;
        let frame = conn.recv()?.to_vec();
        let r = Instant::now();
        let failed = wire::is_error(&frame, CodecKind::Text);
        rep.attempted += 1;
        rep.failed += u64::from(failed);
        lat_ms.push(if failed {
            f64::INFINITY
        } else {
            r.duration_since(t).as_secs_f64() * 1e3
        });
        if tr.enabled() && i.is_multiple_of(trace_every) {
            tr.push(0, i as u64, "wire.query", tr.ns_of(t), tr.ns_of(r));
        }
        if i > 0 {
            // Send-to-send time of the previous request.
            let cycle = t.duration_since(prev_sent).as_nanos() as f64;
            if (i - 1).is_multiple_of(trace_every) {
                cycle_ns.0.push(cycle);
            } else {
                cycle_ns.1.push(cycle);
            }
        }
        frames.push(frame);
        prev_sent = t;
        prev_recv = r;
        i += 1;
    }
    let window_s = (prev_recv.duration_since(start) - paused).as_secs_f64();
    let after = run::snapshot(&mut conn)?;
    // The probe gets a connection, and so a server thread, of its own: on
    // the connection that ran the solves its median latency was bimodal
    // across seeds (about 155 or 195 µs).
    drop(conn);
    let mut conn = Conn::connect(&server.addr, CodecKind::Text)?;
    let wire_writes = run::write_probe(&mut conn, &writes, &reference, &mut host_ns)?;
    let after_writes = run::snapshot(&mut conn)?;
    let rss = server.vm_hwm_kib()?;
    drop(conn);
    server.shutdown()?;
    rep.attempted += wire_writes.len() as u64;
    rep.failed += wire_writes
        .iter()
        .filter(|w| w.latency_ns.is_infinite())
        .count() as u64;

    // Answer checks: a fixed sample against registry::by_name, every probe
    // write against the mirror.
    let mirror = Mirror::new(&data).map_err(io::Error::other)?;
    let prep = mirror
        .engine
        .catalog()
        .get_required("cold")
        .map_err(|e| io::Error::other(e.to_string()))?;
    let answers: Vec<_> = frames
        .iter()
        .map(|f| check::answer_of(f, CodecKind::Text))
        .collect();
    let sample: Vec<usize> = (0..CHECKED.min(frames.len())).collect();
    let expected: Vec<Result<check::Expected, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = sample
            .chunks(CHECKED.div_ceil(2))
            .map(|part| {
                let prep = Arc::clone(&prep);
                s.spawn(move || {
                    part.iter()
                        .map(|&i| check::solve_by_name(&prep, &query(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    for (&i, want) in sample.iter().zip(&expected) {
        let res = match (&answers[i], want) {
            (Ok(got), Ok(want)) => check::check_answer(got, want),
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
        };
        rep.check(&format!("cold query {i}"), res);
    }
    for (w, ww) in writes.iter().zip(&wire_writes) {
        rep.check("cold probe write", mirror.apply(w, ww));
    }
    rep.env
        .insert("answers_checked".into(), sample.len().to_string());

    run::end_to_end(
        rep,
        EndToEnd {
            setup_times,
            rss_kib: rss,
            reads_per_s: vec![lat_ms.len() as f64 / window_s],
            read_ms: vec![lat_ms],
            tail_pct: TAIL_PCT,
            tail_pooled: true,
            write_us: run::probe_bursts(&wire_writes),
            host_ns,
        },
    );

    if tr.enabled() {
        let solves: Vec<QuerySpec> = sample.iter().map(|&i| query(i)).collect();
        let codec_pairs = sample
            .iter()
            .filter_map(|&i| answers[i].clone().ok().map(|a| (query(i).wire(), a)))
            .collect();
        let prep_for = |_: &str| Arc::clone(&prep);
        let median = crate::stats::median;
        run::per_layer(
            rep,
            tr,
            LayerInputs {
                window: &after.metrics.since(&before.metrics),
                with_writes: &after_writes.metrics.since(&before.metrics),
                stats: &wire::stats_since(&after.stats, &before.stats),
                solves,
                prep_for: &prep_for,
                codec_pairs,
                datasets: &data,
                writes: &writes,
                wire_writes: &wire_writes,
                late_ms,
                traced_ns: median(&cycle_ns.0),
                untraced_ns: median(&cycle_ns.1),
            },
        )
        .map_err(io::Error::other)?;
    }
    Ok(())
}
