//! `hot_hits`: two connections (one text, one binary codec), closed loop.
//! A working set of 64 queries over two small datasets is solved into the
//! answer cache during set-up, so every timed query is a cache hit: the
//! front end, codec and cache lookup do all of the work.

use std::io;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use fairhms_service::protocol::WireAnswer;

use crate::check;
use crate::gen::{self, QuerySpec, Rng};
use crate::host::{self, Reference};
use crate::run::{self, Ctx, EndToEnd, LayerInputs, Mirror, Report};
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{self, decode, CodecKind, Conn, Masked};

const N: usize = 2_000;
const KS: [usize; 4] = [4, 5, 6, 7];
const SEEDS: u64 = 8;
/// Millions of hits per run: p99 has thousands of samples beyond it.
pub const TAIL_PCT: f64 = 99.0;
/// Set-up answers checked against an in-process `registry::by_name` solve.
const CHECKED: usize = 4;
/// One request in this many becomes a span in the traced run.
const TRACE_EVERY: usize = 64;
/// Requests each connection keeps in flight: sent together, then every
/// reply is read before the next round.
const DEPTH: usize = 8;

struct Setup {
    conns: [Conn; 2],
    /// Cold set-up answer of each working-set query.
    filled: Vec<Vec<u8>>,
    /// The same answers as each connection's codec renders a hit.
    hits: [Vec<Vec<u8>>; 2],
}

/// What one connection's timed loop saw.
#[derive(Default)]
struct Loop {
    /// Latencies per slice of the window.
    lat_ms: Vec<Vec<f64>>,
    /// Seconds spent sending and receiving in each slice.
    active_s: Vec<f64>,
    /// Reference-kernel timings, ns (only the connection that took them).
    host_ns: Vec<f64>,
    late_ms: Vec<f64>,
    cycle_traced: Vec<f64>,
    cycle_untraced: Vec<f64>,
    failed: u64,
    mismatches: Vec<String>,
    spans: Vec<(u64, Instant, Instant)>,
}

/// The window is cut into segments of about [`host::EVERY`]. After each,
/// both connections stop with nothing in flight and meet at `pause`, the
/// one holding `reference` times the host, and they meet again before the
/// next segment. Both run the same number of segments, so neither waits at
/// `pause` for a thread that has already finished; after an I/O error a
/// connection sends nothing more but still keeps those meetings.
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: &mut Conn,
    lines: &[Vec<u8>],
    masks: &[Masked],
    mut rng: Rng,
    seconds: f64,
    pause: &Barrier,
    reference: Option<&Reference>,
    trace: bool,
    id: u64,
) -> io::Result<Loop> {
    let mut out = Loop {
        lat_ms: vec![Vec::new(); run::SLICES],
        active_s: vec![0.0; run::SLICES],
        ..Loop::default()
    };
    let segments = segments(seconds);
    let seg_s = seconds / segments as f64;
    let mut error = None;
    let mut batch = Vec::new();
    let mut picks = [0usize; DEPTH];
    let codec = conn.codec;
    let mut i = 0usize;
    for seg in 0..segments {
        pause.wait();
        if let Some(r) = reference {
            out.host_ns.extend(r.sample());
        }
        pause.wait();
        let slice = seg * run::SLICES / segments;
        let seg_start = Instant::now();
        // Lateness and send-to-send cycles do not span a pause.
        let mut prev_recv = seg_start;
        let mut prev_sent: Option<(Instant, bool)> = None;
        while error.is_none() && seg_start.elapsed().as_secs_f64() < seg_s {
            let res = round(
                conn, lines, masks, &mut rng, &mut batch, &mut picks, codec, slice, &mut out,
            );
            let (t, r) = match res {
                Ok(tr) => tr,
                Err(e) => {
                    error = Some(e);
                    break;
                }
            };
            out.late_ms
                .push(t.duration_since(prev_recv).as_secs_f64() * 1e3);
            let traced = trace && i.is_multiple_of(TRACE_EVERY);
            if traced {
                out.spans.push((id << 40 | i as u64, t, r));
            }
            if let Some((s, was_traced)) = prev_sent {
                let cycle = t.duration_since(s).as_nanos() as f64;
                if was_traced {
                    out.cycle_traced.push(cycle);
                } else {
                    out.cycle_untraced.push(cycle);
                }
            }
            prev_sent = Some((t, traced));
            prev_recv = r;
            i += 1;
        }
        out.active_s[slice] += prev_recv.duration_since(seg_start).as_secs_f64();
    }
    match error {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Segments a window of `seconds` is cut into.
fn segments(seconds: f64) -> usize {
    ((seconds / host::EVERY.as_secs_f64()).round() as usize).max(run::SLICES)
}

/// Sends one round of [`DEPTH`] requests and reads every reply; returns
/// when it sent and when the last reply came.
#[allow(clippy::too_many_arguments)]
fn round(
    conn: &mut Conn,
    lines: &[Vec<u8>],
    masks: &[Masked],
    rng: &mut Rng,
    batch: &mut Vec<u8>,
    picks: &mut [usize; DEPTH],
    codec: CodecKind,
    slice: usize,
    out: &mut Loop,
) -> io::Result<(Instant, Instant)> {
    let t = Instant::now();
    batch.clear();
    for p in picks.iter_mut() {
        *p = rng.below(lines.len());
        batch.extend_from_slice(&lines[*p]);
    }
    conn.send(batch)?;
    let mut r = t;
    for &q in picks.iter() {
        let frame = conn.recv()?;
        r = Instant::now();
        if masks[q].matches(frame, codec) {
            out.lat_ms[slice].push(r.duration_since(t).as_secs_f64() * 1e3);
        } else {
            out.lat_ms[slice].push(f64::INFINITY);
            if wire::is_error(frame, codec) {
                out.failed += 1;
            } else if out.mismatches.len() < 10 {
                out.mismatches.push(format!(
                    "hit for working-set query {q} differs from its set-up answer: {:?}",
                    String::from_utf8_lossy(frame)
                ));
            }
        }
    }
    Ok((t, r))
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, rep: &mut Report) -> io::Result<()> {
    let rng = Rng::new(ctx.seed);
    let tables = [
        gen::independent(&mut rng.fork(1), "hotA", N, 3, 2),
        gen::independent(&mut rng.fork(2), "hotB", N, 3, 3),
    ];
    let mut data = Vec::new();
    for t in &tables {
        let path = ctx.dir.join(format!("{}.csv", t.name));
        t.write_csv(&path)?;
        data.push((t.name.clone(), path));
    }
    let seed_base = rng.fork(3).next_u64() >> 24;
    let ws: Vec<QuerySpec> = tables
        .iter()
        .flat_map(|t| {
            KS.iter().flat_map(move |&k| {
                (0..SEEDS).map(move |j| QuerySpec::new(&t.name, k, 0.1, seed_base + j))
            })
        })
        .collect();
    let lines: Vec<Vec<u8>> = ws.iter().map(|q| q.wire().into_bytes()).collect();
    let writes = gen::write_stream(&mut rng.fork(4), &tables[0], &tables[0], run::PROBE_WRITES);

    let (server, setup, setup_times) = run::set_up(ctx, &data, |s| {
        let mut c0 = Conn::connect(&s.addr, CodecKind::Text)?;
        let mut c1 = Conn::connect(&s.addr, CodecKind::Binary)?;
        let half = lines.len() / 2;
        // Both connections solve half of the working set each, in parallel.
        let (a, b) = std::thread::scope(|sc| {
            let h = sc.spawn(|| {
                lines[half..]
                    .iter()
                    .map(|l| c1.call(l))
                    .collect::<io::Result<Vec<_>>>()
            });
            let a: io::Result<Vec<_>> = lines[..half].iter().map(|l| c0.call(l)).collect();
            (a, h.join().expect("fill thread panicked"))
        });
        let mut filled = a?;
        // Normalize to the text rendering, so `filled` is codec-independent.
        for f in b? {
            let resp = decode(&f, CodecKind::Binary).map_err(io::Error::other)?;
            let line = fairhms_service::protocol::encode_response_line(&resp)
                .map_err(|e| io::Error::other(e.to_string()))?;
            filled.push(format!("{line}\n").into_bytes());
        }
        let h0 = lines
            .iter()
            .map(|l| c0.call(l))
            .collect::<io::Result<_>>()?;
        let h1 = lines
            .iter()
            .map(|l| c1.call(l))
            .collect::<io::Result<_>>()?;
        Ok(Setup {
            conns: [c0, c1],
            filled,
            hits: [h0, h1],
        })
    })?;
    rep.env.insert("serve_args".into(), server.args.join(" "));
    rep.env
        .insert("query_seed_base".into(), seed_base.to_string());
    rep.env.insert("writes".into(), gen::describe(&writes));
    let Setup {
        conns: [mut c0, mut c1],
        filled,
        hits,
    } = setup;

    // Set-up checks: every hit equals the cold answer it repeats.
    let filled: Vec<Result<WireAnswer, String>> = filled
        .iter()
        .map(|f| check::answer_of(f, CodecKind::Text))
        .collect();
    let mut masks: [Vec<Masked>; 2] = [Vec::new(), Vec::new()];
    for (c, codec) in [CodecKind::Text, CodecKind::Binary].into_iter().enumerate() {
        for (q, frame) in hits[c].iter().enumerate() {
            let res = match (check::answer_of(frame, codec), &filled[q]) {
                (Ok(hit), Ok(cold)) if !hit.cached => Err(format!(
                    "repeat of query {q} was not a cache hit: {hit:?} vs {cold:?}"
                )),
                (Ok(hit), Ok(cold)) => check::check_answer(
                    &hit,
                    &check::Expected {
                        indices: cold.indices.clone(),
                        mhr: cold.mhr,
                        violations: cold.violations,
                    },
                ),
                (Err(e), _) => Err(e),
                (_, Err(e)) => Err(e.clone()),
            };
            rep.check(&format!("hot set-up {} query {q}", codec.name()), res);
            masks[c].push(Masked::of(frame, codec).unwrap_or(Masked {
                head: Vec::new(),
                tail: Vec::new(),
            }));
        }
    }

    // Timed window.
    let reference = Reference::default();
    let before = run::snapshot(&mut c0)?;
    let trace = tr.enabled();
    let pause = Barrier::new(2);
    let (l0, l1) = std::thread::scope(|sc| {
        let h = sc.spawn(|| {
            drive(
                &mut c1,
                &lines,
                &masks[1],
                rng.fork(11),
                ctx.seconds,
                &pause,
                None,
                trace,
                1,
            )
        });
        let l0 = drive(
            &mut c0,
            &lines,
            &masks[0],
            rng.fork(10),
            ctx.seconds,
            &pause,
            Some(&reference),
            trace,
            0,
        );
        (l0, h.join().expect("load thread panicked"))
    });
    let (l0, l1) = (l0?, l1?);
    let mut host_ns = l0.host_ns.clone();
    let after = run::snapshot(&mut c0)?;
    drop((c0, c1));
    // As on `cold_solve`, the probe gets a connection of its own.
    let mut probe = Conn::connect(&server.addr, CodecKind::Text)?;
    let wire_writes = run::write_probe(&mut probe, &writes, &reference, &mut host_ns)?;
    let after_writes = run::snapshot(&mut probe)?;
    let rss = server.vm_hwm_kib()?;
    drop(probe);
    server.shutdown()?;

    let loops = [l0, l1];
    let reads: usize = loops.iter().flat_map(|l| &l.lat_ms).map(Vec::len).sum();
    rep.attempted += (reads + wire_writes.len()) as u64;
    rep.failed += loops.iter().map(|l| l.failed).sum::<u64>()
        + wire_writes
            .iter()
            .filter(|w| w.latency_ns.is_infinite())
            .count() as u64;
    for l in &loops {
        for m in &l.mismatches {
            rep.errors.push(m.clone());
        }
    }

    // Set-up answers against registry::by_name, probe writes against the
    // mirror (preps are taken before the mirror applies any write).
    let mirror = Mirror::new(&data).map_err(io::Error::other)?;
    let preps: Vec<_> = tables
        .iter()
        .map(|t| mirror.engine.catalog().get_required(&t.name))
        .collect::<Result<_, _>>()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let prep_for = |name: &str| {
        Arc::clone(if name == tables[0].name {
            &preps[0]
        } else {
            &preps[1]
        })
    };
    for q in (0..CHECKED).map(|j| j * (ws.len() - 1) / (CHECKED - 1)) {
        let res =
            check::solve_by_name(&prep_for(&ws[q].dataset), &ws[q]).and_then(
                |want| match &filled[q] {
                    Ok(got) => check::check_answer(got, &want),
                    Err(e) => Err(e.clone()),
                },
            );
        rep.check(&format!("hot set-up query {q} vs in-process"), res);
    }
    for (w, ww) in writes.iter().zip(&wire_writes) {
        rep.check("hot probe write", mirror.apply(w, ww));
    }
    rep.env.insert(
        "answers_checked".into(),
        format!("{reads} hits + {CHECKED} solves"),
    );

    let [l0, l1] = loops;
    // Both connections' latencies and rates, slice by slice.
    let read_ms: Vec<Vec<f64>> = l0
        .lat_ms
        .iter()
        .zip(&l1.lat_ms)
        .map(|(a, b)| [&a[..], &b[..]].concat())
        .collect();
    let reads_per_s = (0..run::SLICES)
        .map(|i| {
            [&l0, &l1]
                .iter()
                .map(|l| l.lat_ms[i].len() as f64 / l.active_s[i])
                .sum()
        })
        .collect();
    run::end_to_end(
        rep,
        EndToEnd {
            setup_times,
            rss_kib: rss,
            reads_per_s,
            read_ms,
            tail_pct: TAIL_PCT,
            tail_pooled: false,
            write_us: run::probe_bursts(&wire_writes),
            host_ns,
        },
    );

    if tr.enabled() {
        for (req, s, e) in l0.spans.iter().chain(&l1.spans) {
            tr.push(0, *req, "wire.query", tr.ns_of(*s), tr.ns_of(*e));
        }
        let codec_pairs = ws
            .iter()
            .zip(&filled)
            .filter_map(|(q, a)| a.clone().ok().map(|a| (q.wire(), a)))
            .collect();
        let mut late_ms = l0.late_ms;
        late_ms.extend(l1.late_ms);
        let traced: Vec<f64> = l0.cycle_traced.into_iter().chain(l1.cycle_traced).collect();
        let untraced: Vec<f64> = l0
            .cycle_untraced
            .into_iter()
            .chain(l1.cycle_untraced)
            .collect();
        run::per_layer(
            rep,
            tr,
            LayerInputs {
                window: &after.metrics.since(&before.metrics),
                with_writes: &after_writes.metrics.since(&before.metrics),
                stats: &wire::stats_since(&after.stats, &before.stats),
                solves: ws.clone(),
                prep_for: &prep_for,
                codec_pairs,
                datasets: &data,
                writes: &writes,
                wire_writes: &wire_writes,
                late_ms,
                traced_ns: stats::median(&traced),
                untraced_ns: stats::median(&untraced),
            },
        )
        .map_err(io::Error::other)?;
    }
    Ok(())
}
