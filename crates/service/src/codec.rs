//! Pluggable response codecs: v1 text lines and v2 length-prefixed
//! binary frames.
//!
//! A [`Codec`] turns typed [`Response`] values into wire frames and back.
//! A connection speaks one codec — [`TextCodec`] until a
//! `HELLO version=2 codec=binary` handshake swaps in [`BinaryCodec`] —
//! and clients mirror the choice. Neither codec lists a response's
//! fields: both walk the one schema in [`crate::protocol`]
//! (`put_response`/`take_response`), this module supplying the binary
//! field encoding and the framing. So answers are bit-identical
//! regardless of framing (pinned by the codec-equivalence suite): `mhr`
//! travels as shortest round-trip decimal in text and as raw IEEE-754
//! bits in binary, and both decode to the same `f64::to_bits`.
//!
//! ## Binary frame layout
//!
//! ```text
//! ┌────────────┬─────┬──────────────────────────────┐
//! │ u32 LE len │ tag │ payload (len-1 bytes)        │
//! └────────────┴─────┴──────────────────────────────┘
//! ```
//!
//! `len` counts tag + payload and is capped at [`MAX_FRAME_BYTES`].
//! Integers are LEB128 varints, strings are varint-length-prefixed UTF-8,
//! floats are 8 raw little-endian IEEE-754 bytes, `Option`s are a 0/1
//! presence byte, lists a varint count then their entries; field keys are
//! not sent. Decoding a malformed payload (unknown tag, truncated
//! field, trailing bytes) yields a typed [`ServiceError::Protocol`] *for
//! that frame only* — the length prefix has already been consumed, so the
//! stream stays frame-aligned and the next frame decodes normally.

use std::io::BufRead;

use crate::protocol::{decode_response_line, encode_text, put_response, take_response};
use crate::protocol::{Response, Sink, Source};
use crate::ServiceError;

/// Hard cap on one binary frame (tag + payload), matching the text
/// protocol's batch buffer cap: a hostile or corrupt length prefix must
/// not make the peer allocate without bound.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Which codec a connection speaks on its response channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// v1 newline-delimited text (the default; no handshake required).
    Text,
    /// v2 length-prefixed binary frames (requires the `HELLO` handshake).
    Binary,
}

impl CodecKind {
    /// Parses a codec name as it appears in `HELLO codec=<name>`.
    pub fn parse(s: &str) -> Option<CodecKind> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Some(CodecKind::Text),
            "binary" => Some(CodecKind::Binary),
            _ => None,
        }
    }

    /// The codec of this kind (codecs are stateless).
    pub fn codec(self) -> &'static dyn Codec {
        match self {
            CodecKind::Text => &TextCodec,
            CodecKind::Binary => &BinaryCodec,
        }
    }

    /// The codec test hooks select via the `FAIRHMS_TEST_CODEC`
    /// environment variable (`text`/`binary`), defaulting to text.
    ///
    /// Mirrors `FAIRHMS_TEST_SHARDS`: `scripts/ci.sh` re-runs the whole
    /// service test suite once per codec, so every TCP test built on
    /// [`crate::client::WireClient::connect_env`] exercises both wire
    /// formats without duplicating test bodies.
    pub fn from_env() -> CodecKind {
        std::env::var("FAIRHMS_TEST_CODEC")
            .ok()
            .and_then(|v| CodecKind::parse(&v))
            .unwrap_or(CodecKind::Text)
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CodecKind::Text => "text",
            CodecKind::Binary => "binary",
        })
    }
}

/// A response-channel codec: encodes typed [`Response`]s into complete
/// wire frames and reads them back.
///
/// Object-safe: a connection holds a `&'static dyn Codec` (see
/// [`CodecKind::codec`]) and swaps it at the `HELLO` handshake.
pub trait Codec: Send + Sync {
    /// Which kind this codec is.
    fn kind(&self) -> CodecKind;

    /// Appends one complete frame (including framing: trailing newline
    /// for text, length prefix for binary) encoding `resp` to `out`.
    ///
    /// Errors instead of emitting a malformed frame — e.g. a wire-unsafe
    /// string under [`TextCodec`] or an over-[`MAX_FRAME_BYTES`] payload
    /// under [`BinaryCodec`].
    fn encode_frame(&self, resp: &Response, out: &mut Vec<u8>) -> Result<(), ServiceError>;

    /// Reads and decodes one frame. `Ok(None)` means the peer closed the
    /// stream cleanly *at a frame boundary*; EOF mid-frame is an error.
    fn read_frame(&self, reader: &mut dyn BufRead) -> Result<Option<Response>, ServiceError>;
}

/// Protocol v1: one `\n`-terminated text line per response, byte-for-byte
/// the historical format (see [`crate::protocol::encode_response_line`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TextCodec;

impl Codec for TextCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Text
    }

    fn encode_frame(&self, resp: &Response, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        encode_text(resp, out)?;
        out.push(b'\n');
        Ok(())
    }

    fn read_frame(&self, reader: &mut dyn BufRead) -> Result<Option<Response>, ServiceError> {
        let mut buf = Vec::new();
        let n = reader
            .read_until(b'\n', &mut buf)
            .map_err(|e| ServiceError::Io(format!("read response line: {e}")))?;
        if n == 0 {
            return Ok(None);
        }
        let line = String::from_utf8_lossy(&buf);
        Ok(Some(decode_response_line(
            line.trim_end_matches(['\n', '\r']),
        )?))
    }
}

/// Protocol v2: length-prefixed binary frames (see the module docs for
/// the layout). Negotiated by `HELLO version=2 codec=binary`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Typed cursor over one frame payload; every read error names the field
/// so truncation diagnostics point at the exact spot.
struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn truncated(&self, field: &str) -> ServiceError {
        ServiceError::Protocol(format!(
            "truncated binary frame: {field} cut off at byte {} of {}",
            self.pos,
            self.buf.len()
        ))
    }

    fn u8(&mut self, field: &str) -> Result<u8, ServiceError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.truncated(field))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self, field: &str) -> Result<u64, ServiceError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(field)?;
            // The 10th byte holds only bit 63: a continuation flag or any
            // higher payload bit would overflow u64 — reject it instead
            // of silently discarding bits.
            if shift == 63 && byte > 1 {
                return Err(ServiceError::Protocol(format!(
                    "malformed binary frame: varint {field} overflows u64"
                )));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(ServiceError::Protocol(format!(
            "malformed binary frame: varint {field} longer than 10 bytes"
        )))
    }

    /// A 0/1 presence byte: whether an optional field follows.
    fn present(&mut self, field: &str) -> Result<bool, ServiceError> {
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ServiceError::Protocol(format!(
                "malformed binary frame: {field} presence byte {b} (want 0/1)"
            ))),
        }
    }

    fn finish(&self) -> Result<(), ServiceError> {
        if self.pos != self.buf.len() {
            return Err(ServiceError::Protocol(format!(
                "malformed binary frame: {} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Source for PayloadReader<'_> {
    fn u64(&mut self, key: &'static str) -> Result<u64, ServiceError> {
        self.varint(key)
    }

    fn f64(&mut self, key: &'static str) -> Result<f64, ServiceError> {
        let end = self.pos + 8;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.truncated(key))?;
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("8-byte slice"),
        )))
    }

    fn bool(&mut self, key: &'static str) -> Result<bool, ServiceError> {
        Ok(self.u8(key)? != 0)
    }

    fn opt_u64(&mut self, key: &'static str) -> Result<Option<u64>, ServiceError> {
        if self.present(key)? {
            self.varint(key).map(Some)
        } else {
            Ok(None)
        }
    }

    fn opt_f64(&mut self, key: &'static str) -> Result<Option<f64>, ServiceError> {
        if self.present(key)? {
            self.f64(key).map(Some)
        } else {
            Ok(None)
        }
    }

    fn str(&mut self, key: &'static str) -> Result<String, ServiceError> {
        let len = self.usize(key)?;
        if len > self.buf.len() - self.pos {
            return Err(self.truncated(key));
        }
        let end = self.pos + len;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| ServiceError::Protocol(format!("{key}: invalid UTF-8")))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    fn list<T>(
        &mut self,
        key: &'static str,
        take: impl Fn(&mut Self) -> Result<T, ServiceError>,
    ) -> Result<Vec<T>, ServiceError> {
        let n = self.usize(key)?;
        // Each entry costs ≥ 1 byte, so a count beyond the remaining
        // payload is corruption, caught before any proportional allocation.
        if n > self.buf.len() - self.pos {
            return Err(self.truncated(key));
        }
        (0..n).map(|_| take(self)).collect()
    }

    fn appended<T>(
        &mut self,
        default: T,
        take: impl Fn(&mut Self) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        // An older peer's frame ends before the tier; one that ends inside
        // it fails in `take` as truncated.
        if self.pos == self.buf.len() {
            Ok(default)
        } else {
            take(self)
        }
    }
}

/// The binary codec's [`Sink`]: fields in schema order, keys unused.
struct BinarySink<'o>(&'o mut Vec<u8>);

impl Sink for BinarySink<'_> {
    fn begin(&mut self, tag: u8) {
        self.0.push(tag);
    }

    fn u64(&mut self, _key: &'static str, v: u64) {
        put_varint(self.0, v);
    }

    fn f64(&mut self, _key: &'static str, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn bool(&mut self, _key: &'static str, v: bool) {
        self.0.push(u8::from(v));
    }

    fn str(&mut self, _key: &'static str, v: &str) -> Result<(), ServiceError> {
        put_str(self.0, v);
        Ok(())
    }

    fn list<T>(
        &mut self,
        key: &'static str,
        items: &[T],
        put: impl Fn(&mut Self, &T) -> Result<(), ServiceError>,
    ) -> Result<(), ServiceError> {
        self.usize(key, items.len());
        items.iter().try_for_each(|item| put(self, item))
    }
}

/// Decodes one binary frame payload (tag + fields, no length prefix) —
/// exposed for fuzz-style tests; [`BinaryCodec::read_frame`] is the
/// stream entry point.
pub fn decode_binary_payload(payload: &[u8]) -> Result<Response, ServiceError> {
    let mut r = PayloadReader::new(payload);
    let tag = r.u8("tag")?;
    let resp = take_response(tag, &mut r)?;
    r.finish()?;
    Ok(resp)
}

impl Codec for BinaryCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Binary
    }

    fn encode_frame(&self, resp: &Response, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        let start = out.len();
        out.extend_from_slice(&[0; 4]); // length placeholder
        put_response(resp, &mut BinarySink(out))?;
        let len = out.len() - start - 4;
        if len > MAX_FRAME_BYTES {
            out.truncate(start);
            return Err(ServiceError::Protocol(format!(
                "response frame of {len} bytes exceeds {MAX_FRAME_BYTES}"
            )));
        }
        out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(())
    }

    fn read_frame(&self, reader: &mut dyn BufRead) -> Result<Option<Response>, ServiceError> {
        // Length prefix, tolerating clean EOF only before its first byte.
        let mut header = [0u8; 4];
        let mut got = 0;
        while got < 4 {
            let n = reader
                .read(&mut header[got..])
                .map_err(|e| ServiceError::Io(format!("read frame header: {e}")))?;
            if n == 0 {
                if got == 0 {
                    return Ok(None);
                }
                return Err(ServiceError::Protocol(format!(
                    "truncated binary frame: EOF after {got} header bytes"
                )));
            }
            got += n;
        }
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(ServiceError::Protocol(format!(
                "malformed binary frame: length {len} outside 1..={MAX_FRAME_BYTES}"
            )));
        }
        let mut payload = vec![0u8; len];
        reader.read_exact(&mut payload).map_err(|e| {
            ServiceError::Protocol(format!("truncated binary frame: {len}-byte payload: {e}"))
        })?;
        decode_binary_payload(&payload).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tag;

    #[test]
    fn varint_round_trips_at_width_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = PayloadReader::new(&buf);
            assert_eq!(r.varint("v").unwrap(), v);
            r.finish().unwrap();
        }

        // Overflowing encodings are rejected, not silently truncated:
        // 9 continuation bytes followed by a 10th byte carrying more than
        // bit 63 (payload bits 1..7 or another continuation flag).
        for last in [0x7fu8, 0x02, 0x81] {
            let mut buf = vec![0x80u8; 9];
            buf.push(last);
            let mut r = PayloadReader::new(&buf);
            assert!(
                matches!(
                    r.varint("v"),
                    Err(ServiceError::Protocol(m)) if m.contains("overflows")
                ),
                "10th byte {last:#x} must be rejected"
            );
        }
    }

    #[test]
    fn malformed_frames_yield_typed_errors_without_desync() {
        // A valid frame to append after each malformed one.
        let mut good = Vec::new();
        BinaryCodec
            .encode_frame(&Response::Pong, &mut good)
            .unwrap();

        // Unknown tag.
        let mut stream = vec![1, 0, 0, 0, 99];
        stream.extend_from_slice(&good);
        let mut reader = std::io::Cursor::new(stream);
        assert!(matches!(
            BinaryCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("unknown tag")
        ));
        // The length prefix framed the bad payload: the next frame is fine.
        assert_eq!(
            BinaryCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Pong)
        );

        // Truncated payload: ANSWER tag with nothing after it.
        let mut stream = vec![1, 0, 0, 0, tag::ANSWER];
        stream.extend_from_slice(&good);
        let mut reader = std::io::Cursor::new(stream);
        assert!(matches!(
            BinaryCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("truncated")
        ));
        assert_eq!(
            BinaryCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Pong)
        );

        // Trailing bytes after a complete payload.
        let mut stream = vec![2, 0, 0, 0, tag::PONG, 0xab];
        stream.extend_from_slice(&good);
        let mut reader = std::io::Cursor::new(stream);
        assert!(matches!(
            BinaryCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("trailing")
        ));
        assert_eq!(
            BinaryCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Pong)
        );

        // Oversized / zero length prefixes are rejected before allocating.
        for len in [0u32, (MAX_FRAME_BYTES as u32) + 1] {
            let mut reader = std::io::Cursor::new(len.to_le_bytes().to_vec());
            assert!(matches!(
                BinaryCodec.read_frame(&mut reader),
                Err(ServiceError::Protocol(m)) if m.contains("length")
            ));
        }

        // EOF mid-header and mid-payload are truncation errors, not None.
        let mut reader = std::io::Cursor::new(vec![5, 0]);
        assert!(matches!(
            BinaryCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("EOF after 2 header bytes")
        ));
        let mut reader = std::io::Cursor::new(vec![5, 0, 0, 0, tag::PONG]);
        assert!(matches!(
            BinaryCodec.read_frame(&mut reader),
            Err(ServiceError::Protocol(m)) if m.contains("payload")
        ));
    }

    #[test]
    fn oversized_encode_is_a_typed_error_not_a_truncated_header() {
        // Regression (encode-side cap): the frame length is written as
        // `len as u32` after the payload; without the MAX_FRAME_BYTES
        // check an oversized payload would silently truncate the length
        // header and desynchronize every later frame. The encoder must
        // return a typed error and roll the buffer back instead.
        let huge = Response::Error {
            seq: None,
            message: "x".repeat(MAX_FRAME_BYTES + 16),
        };
        let mut out = Vec::new();
        BinaryCodec.encode_frame(&Response::Pong, &mut out).unwrap();
        let after_pong = out.len();
        match BinaryCodec.encode_frame(&huge, &mut out) {
            Err(ServiceError::Protocol(m)) => {
                assert!(m.contains("exceeds"), "unexpected message: {m}")
            }
            other => panic!("expected typed encode error, got {other:?}"),
        }
        // Buffer rolled back to the frame boundary: nothing of the failed
        // frame leaks, and the stream stays decodable.
        assert_eq!(out.len(), after_pong);
        BinaryCodec.encode_frame(&Response::Bye, &mut out).unwrap();
        let mut reader = std::io::Cursor::new(out);
        assert_eq!(
            BinaryCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Pong)
        );
        assert_eq!(
            BinaryCodec.read_frame(&mut reader).unwrap(),
            Some(Response::Bye)
        );
        assert!(BinaryCodec.read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn env_hook_selects_codec() {
        // Not set in the normal test environment → text. (The binary pass
        // is exercised by ci.sh exporting FAIRHMS_TEST_CODEC=binary.)
        assert_eq!(CodecKind::parse("TEXT"), Some(CodecKind::Text));
        assert_eq!(CodecKind::parse("binary"), Some(CodecKind::Binary));
        assert_eq!(CodecKind::parse("morse"), None);
        assert_eq!(CodecKind::Text.to_string(), "text");
        assert_eq!(CodecKind::Binary.to_string(), "binary");
    }
}
