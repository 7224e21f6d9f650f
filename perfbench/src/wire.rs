//! The benchmark's own lean client side of the wire protocol: framing,
//! the cache-hit comparison, and the `STATS`/`METRICS` parsers.
//!
//! The timed loops read raw frames and compare bytes; typed decoding
//! (through the service's own codecs) happens only outside timed windows,
//! so client-side cost stays small and constant across program changes.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use fairhms_service::codec::{BinaryCodec, Codec, TextCodec};
use fairhms_service::protocol::Response;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    Text,
    Binary,
}

impl CodecKind {
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::Text => "text",
            CodecKind::Binary => "binary",
        }
    }
}

/// One client connection with a receive buffer.
pub struct Conn {
    pub stream: TcpStream,
    pub codec: CodecKind,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    /// Connects; a binary connection negotiates `HELLO version=2
    /// codec=binary` first (the acknowledgment is still a text line).
    pub fn connect(addr: &str, codec: CodecKind) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let mut c = Conn {
            stream,
            codec: CodecKind::Text,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        };
        if codec == CodecKind::Binary {
            c.send(b"HELLO version=2 codec=binary\n")?;
            let ack = c.recv()?.to_vec();
            if ack != b"OK version=2 codec=binary\n" {
                return Err(io::Error::other(format!(
                    "binary handshake refused: {}",
                    String::from_utf8_lossy(&ack)
                )));
            }
            c.codec = CodecKind::Binary;
        }
        Ok(c)
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Length of the complete frame at the head of the buffer, if any.
    fn frame_len(&self) -> Option<usize> {
        let pending = &self.buf[self.start..];
        match self.codec {
            CodecKind::Text => pending.iter().position(|&b| b == b'\n').map(|i| i + 1),
            CodecKind::Binary => {
                let head: [u8; 4] = pending.get(..4)?.try_into().ok()?;
                let len = 4 + u32::from_le_bytes(head) as usize;
                (pending.len() >= len).then_some(len)
            }
        }
    }

    /// The next complete buffered frame, without reading the socket.
    pub fn take_frame(&mut self) -> Option<&[u8]> {
        let len = self.frame_len()?;
        let at = self.start;
        self.start += len;
        Some(&self.buf[at..at + len])
    }

    /// One `read` from the socket into the buffer; `Ok(0)` is EOF.
    pub fn read_some(&mut self) -> io::Result<usize> {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > (1 << 15) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + (1 << 16), 0);
        let got = self.stream.read(&mut self.buf[old..]);
        self.buf.truncate(old + *got.as_ref().unwrap_or(&0));
        got
    }

    /// Blocks for the next frame.
    pub fn recv(&mut self) -> io::Result<&[u8]> {
        while self.frame_len().is_none() {
            if self.read_some()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        }
        Ok(self.take_frame().expect("a complete frame is buffered"))
    }

    /// Sends one request line and returns its response frame.
    pub fn call(&mut self, line: &[u8]) -> io::Result<Vec<u8>> {
        self.send(line)?;
        Ok(self.recv()?.to_vec())
    }
}

/// Decodes one raw frame through the service's codec of the same kind.
pub fn decode(frame: &[u8], codec: CodecKind) -> Result<Response, String> {
    let mut cursor = io::Cursor::new(frame);
    let res = match codec {
        CodecKind::Text => TextCodec.read_frame(&mut cursor),
        CodecKind::Binary => BinaryCodec.read_frame(&mut cursor),
    };
    match res {
        Ok(Some(r)) => Ok(r),
        Ok(None) => Err("empty frame".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Whether a frame is an error/shed response (`ERR …` or a binary
/// Error/Busy frame) rather than data.
pub fn is_error(frame: &[u8], codec: CodecKind) -> bool {
    match codec {
        CodecKind::Text => frame.starts_with(b"ERR"),
        CodecKind::Binary => matches!(
            decode(frame, codec),
            Ok(Response::Error { .. } | Response::Busy { .. }) | Err(_)
        ),
    }
}

/// An answer frame with its per-execution `micros` field cut out: two
/// executions of one cached query must agree on everything else, bit for
/// bit (`alg`, `cached`, `err`, `mhr`, `indices`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Masked {
    pub head: Vec<u8>,
    pub tail: Vec<u8>,
}

/// Byte range of the `micros` field within an answer frame.
fn micros_span(frame: &[u8], codec: CodecKind) -> Option<(usize, usize)> {
    match codec {
        CodecKind::Text => {
            let at = find(frame, b" micros=")? + 1;
            let end = at + frame[at..].iter().position(|&b| b == b' ')?;
            Some((at, end))
        }
        CodecKind::Binary => {
            // len(4) tag(1) seq(presence byte [+ varint]) alg(varint len +
            // bytes) cached(1) micros(varint) …
            let mut p = 5;
            if *frame.get(p)? != 0 {
                p = skip_varint(frame, p + 1)?;
            } else {
                p += 1;
            }
            let (alg_len, q) = read_varint(frame, p)?;
            p = q + alg_len as usize + 1;
            let end = skip_varint(frame, p)?;
            Some((p, end))
        }
    }
}

impl Masked {
    pub fn of(frame: &[u8], codec: CodecKind) -> Option<Masked> {
        let (a, b) = micros_span(frame, codec)?;
        // The binary length prefix changes with the micros varint's width.
        let from = if codec == CodecKind::Binary { 4 } else { 0 };
        Some(Masked {
            head: frame[from..a].to_vec(),
            tail: frame[b..].to_vec(),
        })
    }

    /// Whether `frame` carries exactly this answer.
    pub fn matches(&self, frame: &[u8], codec: CodecKind) -> bool {
        let from = if codec == CodecKind::Binary { 4 } else { 0 };
        match micros_span(frame, codec) {
            Some((a, b)) => frame[from..a] == self.head[..] && frame[b..] == self.tail[..],
            None => false,
        }
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn read_varint(buf: &[u8], mut p: usize) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *buf.get(p)?;
        p += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((v, p));
        }
    }
    None
}

fn skip_varint(buf: &[u8], p: usize) -> Option<usize> {
    read_varint(buf, p).map(|(_, q)| q)
}

/// Parsed `OK key=value …` line (`STATS`): numeric fields only.
pub fn parse_stats(line: &str) -> Result<BTreeMap<String, f64>, String> {
    let body = line
        .trim_end()
        .strip_prefix("OK ")
        .ok_or_else(|| format!("not an OK line: {line:?}"))?;
    let mut out = BTreeMap::new();
    for tok in body.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad STATS field {tok:?}"))?;
        if let Ok(x) = v.parse::<f64>() {
            out.insert(k.to_string(), x);
        }
    }
    Ok(out)
}

/// One histogram of a `METRICS` line: observation count and sum (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Histo {
    pub count: u64,
    pub sum: u64,
}

impl Histo {
    /// Mean observation, ns (0 without observations).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Parsed `OK metrics enabled=… counters=a:1,… histos=n:count:sum:p50:p90:p99:max,…`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    pub counters: BTreeMap<String, u64>,
    pub histos: BTreeMap<String, Histo>,
}

impl Metrics {
    pub fn parse(line: &str) -> Result<Metrics, String> {
        let body = line
            .trim_end()
            .strip_prefix("OK metrics ")
            .ok_or_else(|| format!("not a METRICS line: {line:?}"))?;
        let mut m = Metrics::default();
        for tok in body.split_whitespace() {
            let (key, val) = tok.split_once('=').unwrap_or((tok, ""));
            for item in val.split(',').filter(|s| !s.is_empty()) {
                let f: Vec<&str> = item.split(':').collect();
                let num = |i: usize| -> Result<u64, String> {
                    f.get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("bad {key} entry {item:?}"))
                };
                match key {
                    "counters" => {
                        m.counters.insert(f[0].to_string(), num(1)?);
                    }
                    "histos" => {
                        m.histos.insert(
                            f[0].to_string(),
                            Histo {
                                count: num(1)?,
                                sum: num(2)?,
                            },
                        );
                    }
                    _ => {}
                }
            }
        }
        Ok(m)
    }

    /// What happened between `before` and `self` (counters and histogram
    /// counts/sums are monotone; gauges may go down and saturate at 0).
    pub fn since(&self, before: &Metrics) -> Metrics {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let b = before.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(b))
            })
            .collect();
        let histos = self
            .histos
            .iter()
            .map(|(k, h)| {
                let b = before.histos.get(k).copied().unwrap_or_default();
                (
                    k.clone(),
                    Histo {
                        count: h.count.saturating_sub(b.count),
                        sum: h.sum.saturating_sub(b.sum),
                    },
                )
            })
            .collect();
        Metrics { counters, histos }
    }

    pub fn histo(&self, name: &str) -> Histo {
        self.histos.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// `after − before` for every numeric STATS field present in both.
pub fn stats_since(
    after: &BTreeMap<String, f64>,
    before: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .filter_map(|(k, v)| before.get(k).map(|b| (k.clone(), v - b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairhms_service::protocol::WireAnswer;

    const M1: &str = "OK metrics enabled=true counters=conn.active:1,shed.total:0,cache.invalidated:4 \
        histos=server.decode:22:372921:16256:20224:48142:48142,engine.cache_lookup:32:24168:420:1456:1680:1687";
    const M2: &str = "OK metrics enabled=true counters=conn.active:2,shed.total:3,cache.invalidated:10 \
        histos=server.decode:32:472921:16256:20224:48142:48142,engine.cache_lookup:32:24168:420:1456:1680:1687,engine.warm_probe:2:100:1:1:1:1\n";

    #[test]
    fn metrics_diff() {
        let a = Metrics::parse(M1).unwrap();
        let b = Metrics::parse(M2).unwrap();
        assert_eq!(a.counter("cache.invalidated"), 4);
        let d = b.since(&a);
        assert_eq!(d.counter("shed.total"), 3);
        assert_eq!(d.counter("cache.invalidated"), 6);
        assert_eq!(
            d.histo("server.decode"),
            Histo {
                count: 10,
                sum: 100_000
            }
        );
        assert_eq!(d.histo("server.decode").mean_ns(), 10_000.0);
        assert_eq!(d.histo("engine.cache_lookup").count, 0);
        assert_eq!(d.histo("engine.cache_lookup").mean_ns(), 0.0);
        assert_eq!(d.histo("engine.warm_probe").sum, 100);
        assert_eq!(d.histo("absent"), Histo::default());
        assert!(Metrics::parse("OK hits=1").is_err());
        assert!(Metrics::parse("OK metrics enabled=true counters=x:y histos=").is_err());
    }

    #[test]
    fn stats_diff() {
        let a = parse_stats("OK hits=2 misses=3 entries=3 hit_rate=0.4 warm_hits=1").unwrap();
        let b =
            parse_stats("OK hits=12 misses=4 entries=4 hit_rate=0.75 warm_hits=1 conns_open=2\n")
                .unwrap();
        let d = stats_since(&b, &a);
        assert_eq!(d["hits"], 10.0);
        assert_eq!(d["misses"], 1.0);
        assert_eq!(d["warm_hits"], 0.0);
        assert!(!d.contains_key("conns_open"));
        assert!(parse_stats("ERR nope").is_err());
    }

    fn answer_frames(micros: u64, indices: Vec<usize>) -> (Vec<u8>, Vec<u8>) {
        let resp = Response::Answer {
            seq: None,
            answer: WireAnswer {
                alg: "BiGreedy".into(),
                cached: true,
                micros,
                violations: 0,
                mhr: Some(0.8123456789),
                indices,
            },
        };
        let mut text = Vec::new();
        TextCodec.encode_frame(&resp, &mut text).unwrap();
        let mut bin = Vec::new();
        BinaryCodec.encode_frame(&resp, &mut bin).unwrap();
        (text, bin)
    }

    #[test]
    fn masked_answer_ignores_only_micros() {
        let (t1, b1) = answer_frames(3, vec![1, 5, 9]);
        let (t2, b2) = answer_frames(70_000, vec![1, 5, 9]);
        let (t3, b3) = answer_frames(3, vec![1, 5, 8]);
        let mt = Masked::of(&t1, CodecKind::Text).unwrap();
        let mb = Masked::of(&b1, CodecKind::Binary).unwrap();
        assert!(mt.matches(&t2, CodecKind::Text));
        assert!(mb.matches(&b2, CodecKind::Binary));
        assert!(!mt.matches(&t3, CodecKind::Text));
        assert!(!mb.matches(&b3, CodecKind::Binary));
        assert!(!mt.matches(b"ERR busy retry_after_ms=3 x\n", CodecKind::Text));
        assert!(matches!(
            decode(&b2, CodecKind::Binary),
            Ok(Response::Answer { answer, .. }) if answer.micros == 70_000
        ));
        assert!(is_error(b"ERR nope\n", CodecKind::Text));
        assert!(!is_error(&b1, CodecKind::Binary));
    }
}
