//! `mixed_rw`: open loop on anti-correlated data (n = 5,000, d = 4, C = 3).
//! Requests arrive on a seeded Poisson schedule at a fixed rate below
//! saturation and are timed from their intended send time.
//!
//! * The text connection carries the fast traffic: hits on a 16-query
//!   working set filled during set-up, and every write — dominated appends
//!   and deletes, which leave the working set cached, plus skyline-changing
//!   appends to a second, small dataset (n = 1,000), which invalidate what
//!   is cached for it.
//! * The binary connection carries the solves: warm-start near-misses of
//!   the working set (same `k` and seed, new α) and cold solves with fresh
//!   seeds on both datasets; they queue behind each other, not behind hits.

use std::collections::VecDeque;
use std::io;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::check;
use crate::gen::{self, QuerySpec, Rng};
use crate::host::Reference;
use crate::poll;
use crate::run::{self, Ctx, EndToEnd, LayerInputs, Mirror, Report, WireWrite};
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{self, CodecKind, Conn};

const N: usize = 5_000;
const N_AUX: usize = 1_000;
/// Working set: `k` ∈ {3, 4}, one seed per `k`, eight α values each.
const WS_KS: [usize; 2] = [3, 4];
const WS_ALPHAS: usize = 8;
/// Cold solves on the main dataset use their own `k`, so they never evict
/// the working set's warm-start entries (keyed by `k`).
const COLD_K: usize = 5;
const AUX_KS: [usize; 3] = [3, 4, 5];
/// Offered load per kind, requests per second (about 2,000 in all). The
/// solves keep one of two cores about a sixth busy, so they rarely queue
/// behind each other; hits and writes share the other core with the load
/// generator, well below its capacity.
const HITS_PER_S: f64 = 1_950.0;
const WRITES_PER_S: f64 = 60.0;
const NEAR_PER_S: f64 = 1.5;
const COLD_PER_S: f64 = 0.5;
const AUX_PER_S: f64 = 1.0;
/// About 58,600 reads per 30 s run, 60 of them near-misses or cold solves
/// on the main dataset: p99.95 has about 30 samples beyond it, all solves.
pub const TAIL_PCT: f64 = 99.95;
/// Reads of each kind compared against the in-process mirror.
const CHECKED_PER_KIND: usize = 3;
/// Hits whose reply is kept (for the mirror sample): one in this many.
const KEEP_HIT_EVERY: usize = 256;
/// One request in this many becomes a span in the traced run.
const TRACE_EVERY: usize = 4;
/// How long replies may trail the last scheduled send.
const DRAIN: Duration = Duration::from_secs(60);
/// Reference-kernel samples taken before and again after the window.
const HOST_SAMPLES: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Near,
    Cold,
    ColdAux,
    Write,
}

impl Kind {
    /// Hits and writes share the text connection; solves use the binary one.
    fn conn(self) -> usize {
        match self {
            Kind::Hit | Kind::Write => 0,
            _ => 1,
        }
    }
}

struct Req {
    kind: Kind,
    /// Index into the working set (hits), the solve list (near-misses and
    /// cold reads) or the write stream (writes).
    item: usize,
    /// Intended send, actual send and reply times, ns since the window began.
    due: u64,
    sent: u64,
    recv: u64,
    answered: bool,
    failed: bool,
    /// The reply, kept for every request but most hits.
    frame: Option<Vec<u8>>,
}

impl Req {
    fn latency_ns(&self) -> f64 {
        if !self.answered || self.failed {
            f64::INFINITY
        } else {
            (self.recv - self.due) as f64
        }
    }
}

fn codec_of(conn: usize) -> CodecKind {
    [CodecKind::Text, CodecKind::Binary][conn]
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, rep: &mut Report) -> io::Result<()> {
    let rng = Rng::new(ctx.seed);
    let table = gen::anticorrelated(&mut rng.fork(1), "mixed", N, 4, 3);
    let aux = gen::anticorrelated(&mut rng.fork(6), "mixed_aux", N_AUX, 4, 3);
    let mut data = Vec::new();
    for t in [&table, &aux] {
        let path = ctx.dir.join(format!("{}.csv", t.name));
        t.write_csv(&path)?;
        data.push((t.name.clone(), path));
    }
    let seed_base = rng.fork(2).next_u64() >> 24;
    let ws: Vec<QuerySpec> = WS_KS
        .iter()
        .flat_map(|&k| {
            (0..WS_ALPHAS).map(move |a| {
                QuerySpec::new("mixed", k, (2 + 2 * a) as f64 / 100.0, seed_base + k as u64)
            })
        })
        .collect();

    // The schedule: fixed counts of each kind, shuffled, on Poisson arrivals.
    let count = |per_s: f64| (per_s * ctx.seconds).round() as usize;
    let counts = [
        (Kind::Hit, count(HITS_PER_S)),
        (Kind::Write, count(WRITES_PER_S)),
        (Kind::Near, count(NEAR_PER_S)),
        (Kind::Cold, count(COLD_PER_S)),
        (Kind::ColdAux, count(AUX_PER_S)),
    ];
    let mut kinds: Vec<Kind> = counts
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    let total = kinds.len();
    let mut srng = rng.fork(3);
    srng.shuffle(&mut kinds);
    let arrivals = gen::poisson_arrivals(&mut srng, total, ctx.seconds);
    let writes = gen::write_stream(&mut rng.fork(4), &table, &aux, count(WRITES_PER_S));
    let mut qrng = rng.fork(5);
    let mut solves: Vec<QuerySpec> = Vec::new();
    let mut n_writes = 0;
    let mut reqs: Vec<Req> = Vec::with_capacity(total);
    for (&kind, &due) in kinds.iter().zip(&arrivals) {
        let item = match kind {
            Kind::Hit => qrng.below(ws.len()),
            Kind::Write => {
                n_writes += 1;
                n_writes - 1
            }
            _ => {
                let j = solves.len();
                let seed = seed_base + 1000 + j as u64;
                solves.push(match kind {
                    Kind::Near => {
                        let base = &ws[qrng.below(ws.len())];
                        let alpha = (1700 + j) as f64 / 10_000.0;
                        QuerySpec::new("mixed", base.k, alpha, base.seed)
                    }
                    Kind::Cold => QuerySpec::new("mixed", COLD_K, 0.1, seed),
                    _ => QuerySpec::new("mixed_aux", AUX_KS[j % AUX_KS.len()], 0.1, seed),
                });
                j
            }
        };
        reqs.push(Req {
            kind,
            item,
            due,
            sent: 0,
            recv: 0,
            answered: false,
            failed: false,
            frame: None,
        });
    }
    let ws_lines: Vec<Vec<u8>> = ws.iter().map(|q| q.wire().into_bytes()).collect();
    let solve_lines: Vec<Vec<u8>> = solves.iter().map(|q| q.wire().into_bytes()).collect();
    let write_lines: Vec<Vec<u8>> = writes.iter().map(|w| w.wire().into_bytes()).collect();
    let line_of = |r: &Req| -> &[u8] {
        match r.kind {
            Kind::Hit => &ws_lines[r.item],
            Kind::Write => &write_lines[r.item],
            _ => &solve_lines[r.item],
        }
    };
    let query_of = |r: &Req| -> &QuerySpec {
        match r.kind {
            Kind::Hit => &ws[r.item],
            _ => &solves[r.item],
        }
    };

    let (server, mut conns, setup_times) = run::set_up(ctx, &data, |s| {
        let mut c0 = Conn::connect(&s.addr, CodecKind::Text)?;
        let mut c1 = Conn::connect(&s.addr, CodecKind::Binary)?;
        let half = ws.len() / 2;
        let (a, b) = std::thread::scope(|sc| {
            let h = sc.spawn(|| fill(&mut c1, &ws[half..]));
            (
                fill(&mut c0, &ws[..half]),
                h.join().expect("fill thread panicked"),
            )
        });
        a?;
        b?;
        Ok([c0, c1])
    })?;
    rep.env.insert("serve_args".into(), server.args.join(" "));
    rep.env
        .insert("query_seed_base".into(), seed_base.to_string());
    rep.env.insert("writes".into(), gen::describe(&writes));
    rep.env.insert(
        "schedule".into(),
        format!("{total} requests in {} s: {counts:?}", ctx.seconds),
    );

    // An open loop cannot pause on schedule, so the host is timed just
    // before and just after the window.
    let reference = Reference::default();
    let mut host_ns = Vec::new();
    for _ in 0..HOST_SAMPLES {
        host_ns.extend(reference.sample());
    }

    // Timed window: one thread sends on schedule and reads both sockets.
    poll::tight_timer_slack()?;
    let before = run::snapshot(&mut conns[0])?;
    let fds = [conns[0].stream.as_raw_fd(), conns[1].stream.as_raw_fd()];
    let mut fifo: [VecDeque<usize>; 2] = [VecDeque::new(), VecDeque::new()];
    let start = Instant::now();
    let start_ns = tr.ns_of(start);
    let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let drain_until = arrivals.last().copied().unwrap_or(0) + DRAIN.as_nanos() as u64;
    let mut next = 0;
    let mut lost = 0u64;
    loop {
        while next < reqs.len() && reqs[next].due <= since(Instant::now()) {
            let c = reqs[next].kind.conn();
            conns[c].send(line_of(&reqs[next]))?;
            reqs[next].sent = since(Instant::now());
            fifo[c].push_back(next);
            next += 1;
        }
        if next == reqs.len() && fifo.iter().all(VecDeque::is_empty) {
            break;
        }
        let now = since(Instant::now());
        if now > drain_until {
            lost = fifo.iter().map(|f| f.len() as u64).sum();
            break;
        }
        let wait = if next < reqs.len() {
            reqs[next].due.saturating_sub(now)
        } else {
            drain_until - now
        };
        let ready = poll::wait_readable(&fds, Duration::from_nanos(wait))?;
        for c in 0..2 {
            if !ready[c] {
                continue;
            }
            if conns[c].read_some()? == 0 {
                return Err(io::Error::other("server closed a connection mid-run"));
            }
            let t = since(Instant::now());
            while let Some(frame) = conns[c].take_frame() {
                let idx = fifo[c]
                    .pop_front()
                    .ok_or_else(|| io::Error::other("reply without a request"))?;
                let r = &mut reqs[idx];
                r.recv = t;
                r.answered = true;
                if c == 0 {
                    r.failed = frame.starts_with(b"ERR");
                    if r.kind == Kind::Write || idx.is_multiple_of(KEEP_HIT_EVERY) {
                        r.frame = Some(frame.to_vec());
                    }
                } else {
                    r.failed = wire::is_error(frame, CodecKind::Binary);
                    r.frame = Some(frame.to_vec());
                }
                if tr.enabled() && idx.is_multiple_of(TRACE_EVERY) {
                    let name = if r.kind == Kind::Write {
                        "wire.write"
                    } else {
                        "wire.read"
                    };
                    tr.push(0, idx as u64, name, start_ns + r.due, start_ns + t);
                }
            }
        }
    }
    let after = run::snapshot(&mut conns[0])?;
    for _ in 0..HOST_SAMPLES {
        host_ns.extend(reference.sample());
    }
    let rss = server.vm_hwm_kib()?;
    drop(conns);
    server.shutdown()?;

    rep.attempted += reqs.len() as u64;
    rep.failed += reqs.iter().filter(|r| r.latency_ns().is_infinite()).count() as u64;
    if lost > 0 {
        rep.env.insert("unanswered".into(), lost.to_string());
    }
    let wreqs: Vec<&Req> = reqs.iter().filter(|r| r.kind == Kind::Write).collect();
    let wire_writes: Vec<WireWrite> = wreqs
        .iter()
        .map(|r| WireWrite {
            latency_ns: r.latency_ns(),
            frame: r.frame.clone().unwrap_or_default(),
            codec: CodecKind::Text,
        })
        .collect();

    // Mirror check: every write in order; a fixed sample of reads whose
    // time on the wire overlapped no write, each answered by the mirror in
    // the state that the writes completed before it was sent had left.
    let mirror = Mirror::new(&data).map_err(io::Error::other)?;
    let get = |name: &str| {
        mirror
            .engine
            .catalog()
            .get_required(name)
            .map_err(|e| io::Error::other(e.to_string()))
    };
    let (prep, prep_aux) = (get("mixed")?, get("mixed_aux")?);
    // Write intervals, in order; a read is eligible if it fits between two.
    let spans: Vec<(u64, u64)> = wreqs.iter().map(|w| (w.sent, w.recv)).collect();
    let mut sample: Vec<(usize, usize)> = Vec::new(); // (writes before, request)
    for kind in [Kind::Hit, Kind::Near, Kind::Cold, Kind::ColdAux] {
        let eligible: Vec<(usize, usize)> = (0..reqs.len())
            .filter(|&i| reqs[i].kind == kind && reqs[i].frame.is_some())
            .filter_map(|i| {
                let (s, e) = (reqs[i].sent, reqs[i].recv);
                let before = spans.partition_point(|w| w.1 < s);
                let clear = spans.get(before).is_none_or(|w| w.0 > e);
                clear.then_some((before, i))
            })
            .collect();
        let n = eligible.len();
        let take = CHECKED_PER_KIND.min(n);
        for j in 0..take {
            sample.push(eligible[(2 * j + 1) * n / (2 * take)]);
        }
    }
    sample.sort_unstable();
    let mut pending = sample.iter().peekable();
    for w in 0..=writes.len() {
        while let Some(&&(_, i)) = pending.peek().filter(|(b, _)| *b == w) {
            pending.next();
            let r = &reqs[i];
            let frame = r.frame.as_deref().unwrap_or_default();
            let res = check::answer_of(frame, codec_of(r.kind.conn()))
                .and_then(|got| check::check_answer(&got, &mirror.answer(query_of(r))?));
            rep.check(&format!("mixed read {i} ({:?})", r.kind), res);
        }
        if w < writes.len() {
            rep.check(
                &format!("mixed write {w}"),
                mirror.apply(&writes[w], &wire_writes[w]),
            );
        }
    }
    rep.env.insert(
        "answers_checked".into(),
        format!("{} reads, {} writes", sample.len(), writes.len()),
    );

    let reads: Vec<&Req> = reqs.iter().filter(|r| r.kind != Kind::Write).collect();
    let read_window_s = reads.iter().map(|r| r.recv).max().unwrap_or(0) as f64 / 1e9;
    let window_ns = (ctx.seconds * 1e9) as u64;
    let mut read_ms = vec![Vec::new(); run::SLICES];
    let mut write_us = vec![Vec::new(); run::SLICES];
    for r in &reqs {
        let slice = run::slice_of(r.due, window_ns);
        match r.kind {
            Kind::Write => write_us[slice].push(r.latency_ns() / 1e3),
            _ => read_ms[slice].push(r.latency_ns() / 1e6),
        }
    }
    run::end_to_end(
        rep,
        EndToEnd {
            setup_times,
            rss_kib: rss,
            reads_per_s: vec![reads.iter().filter(|r| r.answered).count() as f64 / read_window_s],
            read_ms,
            tail_pct: TAIL_PCT,
            tail_pooled: true,
            write_us,
            host_ns,
        },
    );

    if tr.enabled() {
        let mut replay = ws.clone();
        replay.extend(
            sample
                .iter()
                .filter(|(_, i)| matches!(reqs[*i].kind, Kind::Cold | Kind::ColdAux))
                .map(|(_, i)| query_of(&reqs[*i]).clone()),
        );
        let codec_pairs = sample
            .iter()
            .filter_map(|&(_, i)| {
                let r = &reqs[i];
                let a = check::answer_of(r.frame.as_deref()?, codec_of(r.kind.conn())).ok()?;
                Some((query_of(r).wire(), a))
            })
            .collect();
        let prep_for = |name: &str| Arc::clone(if name == "mixed" { &prep } else { &prep_aux });
        let late_ms = reqs
            .iter()
            .map(|r| r.sent.saturating_sub(r.due) as f64 / 1e6)
            .collect();
        let split = |traced: bool| -> Vec<f64> {
            (0..reqs.len())
                .filter(|i| (i.is_multiple_of(TRACE_EVERY)) == traced)
                .map(|i| reqs[i].latency_ns())
                .filter(|v| v.is_finite())
                .collect()
        };
        let window = after.metrics.since(&before.metrics);
        run::per_layer(
            rep,
            tr,
            LayerInputs {
                window: &window,
                with_writes: &window,
                stats: &wire::stats_since(&after.stats, &before.stats),
                solves: replay,
                prep_for: &prep_for,
                codec_pairs,
                datasets: &data,
                writes: &writes,
                wire_writes: &wire_writes,
                late_ms,
                traced_ns: stats::median(&split(true)),
                untraced_ns: stats::median(&split(false)),
            },
        )
        .map_err(io::Error::other)?;
    }
    Ok(())
}

/// Solves `queries` into the answer cache, one at a time.
fn fill(conn: &mut Conn, queries: &[QuerySpec]) -> io::Result<()> {
    for q in queries {
        let f = conn.call(q.wire().as_bytes())?;
        if wire::is_error(&f, conn.codec) {
            return Err(io::Error::other(format!("set-up query failed: {q:?}")));
        }
    }
    Ok(())
}
