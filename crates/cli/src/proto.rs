//! The `nf serve` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by the payload. Payloads are fixed-layout little-endian
//! binary — no allocation-amplifying containers, every length checked
//! before use, and every malformed input a typed [`ProtoError`], never a
//! panic (the panic-free story of PR 4 extended to the network edge).
//!
//! ```text
//! request  := frame(op …)
//!   op 0 = infer    : id u64, tier u8, n u32, n × f32 pixels
//!   op 1 = ping     : id u64
//!   op 2 = shutdown : (empty; honoured only when the server allows it)
//!
//! response := frame(status …)
//!   status 0 = infer ok : id u64, class u16, exit u8, confidence f32,
//!                         server_us u32
//!   status 1 = rejected : id u64, reason u8 (1 queue-full, 2 deadline,
//!                         3 bad-input, 4 shutting-down)
//!   status 2 = pong     : id u64
//!   status 3 = shutdown-ack
//!   status 4 = error    : len u16, utf-8 message (connection-level;
//!                         the peer closes after sending)
//! ```
//!
//! A frame longer than [`MAX_PAYLOAD`] is rejected from its header alone
//! — the length prefix is never trusted to allocate.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use neuroflux_core::reader::{ReadError, Reader};
use neuroflux_core::SloTier;
use std::io::{Read, Write};

/// Hard cap on one frame's payload (16 MiB) — comfortably above any real
/// image, far below an allocation attack.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one image under an SLO tier.
    Infer {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Requested service level.
        tier: SloTier,
        /// Flattened `C·H·W` pixels.
        pixels: Vec<f32>,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id echoed in the pong.
        id: u64,
    },
    /// Ask the server to stop (honoured only when `allow_shutdown` is
    /// configured — the in-process harness and tests use it).
    Shutdown,
}

/// Why the server refused to serve a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Admission control: the bounded queue was full on arrival.
    QueueFull,
    /// The request sat in the queue past its tier's deadline.
    Deadline,
    /// The pixel payload does not match the model's input geometry.
    BadInput,
    /// The server is draining for shutdown.
    ShuttingDown,
}

impl RejectReason {
    /// Wire encoding.
    pub fn code(self) -> u8 {
        match self {
            RejectReason::QueueFull => 1,
            RejectReason::Deadline => 2,
            RejectReason::BadInput => 3,
            RejectReason::ShuttingDown => 4,
        }
    }

    /// Decodes the wire byte.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(RejectReason::QueueFull),
            2 => Some(RejectReason::Deadline),
            3 => Some(RejectReason::BadInput),
            4 => Some(RejectReason::ShuttingDown),
            _ => None,
        }
    }

    /// Stable lowercase name (artifacts, reports).
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::Deadline => "deadline",
            RejectReason::BadInput => "bad-input",
            RejectReason::ShuttingDown => "shutting-down",
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A served prediction.
    Infer {
        /// The request's correlation id.
        id: u64,
        /// Predicted class.
        class: u16,
        /// Exit head that fired (0-based).
        exit: u8,
        /// Softmax confidence at the firing exit.
        confidence: f32,
        /// Server-side latency (admission → reply), microseconds.
        server_us: u32,
    },
    /// The request was refused.
    Rejected {
        /// The request's correlation id.
        id: u64,
        /// Why it was refused.
        reason: RejectReason,
    },
    /// Reply to [`Request::Ping`].
    Pong {
        /// The ping's correlation id.
        id: u64,
    },
    /// The server accepted a shutdown request and is draining.
    ShutdownAck,
    /// Connection-level failure (malformed frame, disabled shutdown…);
    /// the server closes the connection after sending it.
    Error {
        /// Human-readable diagnostic.
        message: String,
    },
}

/// Every way a frame or payload can be malformed, as typed data.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The stream ended inside a frame (header or payload).
    Truncated {
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The declared payload length.
        len: u64,
    },
    /// Unknown request opcode.
    UnknownOp(u8),
    /// Unknown SLO tier byte.
    UnknownTier(u8),
    /// Unknown response status byte.
    UnknownStatus(u8),
    /// Unknown rejection reason byte.
    UnknownReason(u8),
    /// The payload length disagrees with its own declared fields.
    LengthMismatch {
        /// Message kind being decoded.
        context: &'static str,
        /// Bytes the declared fields require.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// An error message payload was not valid UTF-8.
    BadUtf8,
    /// Underlying socket I/O failed.
    Io(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated { context } => {
                write!(f, "truncated frame while reading {context}")
            }
            ProtoError::Oversized { len } => write!(
                f,
                "frame of {len} bytes exceeds the {MAX_PAYLOAD}-byte payload cap"
            ),
            ProtoError::UnknownOp(op) => write!(f, "unknown request opcode {op}"),
            ProtoError::UnknownTier(t) => write!(f, "unknown SLO tier byte {t}"),
            ProtoError::UnknownStatus(s) => write!(f, "unknown response status {s}"),
            ProtoError::UnknownReason(r) => write!(f, "unknown rejection reason {r}"),
            ProtoError::LengthMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "{context} payload length mismatch: declared fields need \
                 {expected} bytes, frame carries {got}"
            ),
            ProtoError::BadUtf8 => write!(f, "error message is not valid UTF-8"),
            ProtoError::Io(e) => write!(f, "socket i/o: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e.to_string())
    }
}

/// The shared reader's short read is a truncated frame, and its leftover
/// bytes a payload longer than its declared fields.
impl From<ReadError> for ProtoError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated { context } => ProtoError::Truncated { context },
            ReadError::Trailing {
                context,
                expected,
                got,
            } => ProtoError::LengthMismatch {
                context,
                expected,
                got,
            },
        }
    }
}

/// Encodes a request payload (frame body, without the length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Infer { id, tier, pixels } => {
            let mut out = Vec::with_capacity(14 + pixels.len() * 4);
            out.push(0);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(tier.index() as u8);
            out.extend_from_slice(&(pixels.len() as u32).to_le_bytes());
            for p in pixels {
                out.extend_from_slice(&p.to_bits().to_le_bytes());
            }
            out
        }
        Request::Ping { id } => {
            let mut out = Vec::with_capacity(9);
            out.push(1);
            out.extend_from_slice(&id.to_le_bytes());
            out
        }
        Request::Shutdown => vec![2],
    }
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Reader::new(payload, "request");
    match c.u8()? {
        0 => {
            let id = c.u64()?;
            let tier_byte = c.u8()?;
            let tier = SloTier::from_index(tier_byte).ok_or(ProtoError::UnknownTier(tier_byte))?;
            let n = c.u32()?;
            // The count must agree with the frame before anything is
            // allocated from it; compare in u64 so `n * 4` cannot
            // overflow usize on 32-bit targets.
            if c.remaining() as u64 != n as u64 * 4 {
                return Err(ProtoError::LengthMismatch {
                    context: "infer request",
                    expected: (n as usize).saturating_mul(4).saturating_add(14),
                    got: payload.len(),
                });
            }
            let n = n as usize;
            let mut pixels = Vec::with_capacity(n);
            for _ in 0..n {
                pixels.push(c.f32()?);
            }
            Ok(Request::Infer { id, tier, pixels })
        }
        1 => {
            let id = c.u64()?;
            c.finish()?;
            Ok(Request::Ping { id })
        }
        2 => {
            c.finish()?;
            Ok(Request::Shutdown)
        }
        op => Err(ProtoError::UnknownOp(op)),
    }
}

/// Encodes a response payload (frame body, without the length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Infer {
            id,
            class,
            exit,
            confidence,
            server_us,
        } => {
            let mut out = Vec::with_capacity(20);
            out.push(0);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&class.to_le_bytes());
            out.push(*exit);
            out.extend_from_slice(&confidence.to_bits().to_le_bytes());
            out.extend_from_slice(&server_us.to_le_bytes());
            out
        }
        Response::Rejected { id, reason } => {
            let mut out = Vec::with_capacity(10);
            out.push(1);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(reason.code());
            out
        }
        Response::Pong { id } => {
            let mut out = Vec::with_capacity(9);
            out.push(2);
            out.extend_from_slice(&id.to_le_bytes());
            out
        }
        Response::ShutdownAck => vec![3],
        Response::Error { message } => {
            let bytes = message.as_bytes();
            let len = bytes.len().min(u16::MAX as usize);
            let mut out = Vec::with_capacity(3 + len);
            out.push(4);
            out.extend_from_slice(&(len as u16).to_le_bytes());
            // `len <= bytes.len()` by construction; fall back to the whole
            // message rather than panicking if that ever changes.
            out.extend_from_slice(bytes.get(..len).unwrap_or(bytes));
            out
        }
    }
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Reader::new(payload, "response");
    match c.u8()? {
        0 => {
            let id = c.u64()?;
            let class = c.u16()?;
            let exit = c.u8()?;
            let confidence = c.f32()?;
            let server_us = c.u32()?;
            c.finish()?;
            Ok(Response::Infer {
                id,
                class,
                exit,
                confidence,
                server_us,
            })
        }
        1 => {
            let id = c.u64()?;
            let code = c.u8()?;
            let reason = RejectReason::from_code(code).ok_or(ProtoError::UnknownReason(code))?;
            c.finish()?;
            Ok(Response::Rejected { id, reason })
        }
        2 => {
            let id = c.u64()?;
            c.finish()?;
            Ok(Response::Pong { id })
        }
        3 => {
            c.finish()?;
            Ok(Response::ShutdownAck)
        }
        4 => {
            let len = c.u16()? as usize;
            let bytes = c.take(len)?;
            c.finish()?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| ProtoError::BadUtf8)?
                .to_string();
            Ok(Response::Error { message })
        }
        status => Err(ProtoError::UnknownStatus(status)),
    }
}

/// Writes one frame (length prefix + payload) to `w`. A payload over
/// [`MAX_PAYLOAD`] is refused here rather than sent for the peer to
/// reject (and a >4 GiB payload would otherwise truncate the `u32`
/// length prefix).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(ProtoError::Oversized {
            len: payload.len() as u64,
        });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Builds one frame's wire bytes (length prefix + payload) in a single
/// buffer — what the nonblocking reactor/mux write queues enqueue, since
/// they can't use [`write_frame`]'s blocking multi-write sequence without
/// risking a partial-header `WouldBlock`. Same [`MAX_PAYLOAD`] refusal.
pub fn frame_bytes(payload: &[u8]) -> Result<Vec<u8>, ProtoError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(ProtoError::Oversized {
            len: payload.len() as u64,
        });
    }
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload);
    Ok(wire)
}

/// Reads one frame from a blocking reader. `Ok(None)` means the peer
/// closed cleanly at a frame boundary; ending mid-frame is
/// [`ProtoError::Truncated`], an oversized declared length is rejected
/// from the header alone.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Truncated => return Err(ProtoError::Truncated { context: "header" }),
        ReadOutcome::Full => {}
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload)? {
        ReadOutcome::Full => Ok(Some(payload)),
        _ => Err(ProtoError::Truncated { context: "payload" }),
    }
}

/// How a fixed-size read ended.
enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// EOF before the first byte.
    CleanEof,
    /// EOF after at least one byte.
    Truncated,
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        let Some(rest) = buf.get_mut(filled..) else {
            break;
        };
        match r.read(rest) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn requests_round_trip() {
        let msgs = [
            Request::Infer {
                id: 42,
                tier: SloTier::Balanced,
                pixels: vec![0.0, -1.5, 3.25, f32::MIN_POSITIVE],
            },
            Request::Infer {
                id: u64::MAX,
                tier: SloTier::Fast,
                pixels: Vec::new(),
            },
            Request::Ping { id: 7 },
            Request::Shutdown,
        ];
        for msg in msgs {
            let bytes = encode_request(&msg);
            assert_eq!(decode_request(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn responses_round_trip() {
        let msgs = [
            Response::Infer {
                id: 9,
                class: 3,
                exit: 1,
                confidence: 0.875,
                server_us: 1234,
            },
            Response::Rejected {
                id: 8,
                reason: RejectReason::Deadline,
            },
            Response::Pong { id: 1 },
            Response::ShutdownAck,
            Response::Error {
                message: "no thanks".into(),
            },
        ];
        for msg in msgs {
            let bytes = encode_response(&msg);
            assert_eq!(decode_response(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn confidence_bits_survive_the_wire() {
        // The determinism contract compares confidences as bits, so the
        // wire must carry them bit-exactly — including NaN payloads.
        for bits in [0x7fc0_0001u32, 0x0000_0001, 0xff80_0000] {
            let msg = Response::Infer {
                id: 0,
                class: 0,
                exit: 0,
                confidence: f32::from_bits(bits),
                server_us: 0,
            };
            let back = decode_response(&encode_response(&msg)).unwrap();
            match back {
                Response::Infer { confidence, .. } => assert_eq!(confidence.to_bits(), bits),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        let full = encode_request(&Request::Infer {
            id: 1,
            tier: SloTier::Exact,
            pixels: vec![1.0, 2.0],
        });
        for cut in 0..full.len() {
            let err = decode_request(&full[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtoError::Truncated { .. } | ProtoError::LengthMismatch { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
        let full = encode_response(&Response::Infer {
            id: 1,
            class: 2,
            exit: 0,
            confidence: 0.5,
            server_us: 10,
        });
        for cut in 0..full.len() {
            assert!(decode_response(&full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn pixel_count_is_validated_before_allocation() {
        // Claims u32::MAX pixels but carries none: must fail from the
        // lengths alone, not by trying to allocate 16 GiB.
        let mut bytes = vec![0u8];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(2);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        match decode_request(&bytes).unwrap_err() {
            ProtoError::LengthMismatch { .. } => {}
            other => panic!("expected LengthMismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_bytes_are_typed_errors() {
        assert_eq!(decode_request(&[9]).unwrap_err(), ProtoError::UnknownOp(9));
        let mut infer = encode_request(&Request::Infer {
            id: 0,
            tier: SloTier::Fast,
            pixels: Vec::new(),
        });
        infer[9] = 7; // tier byte
        assert_eq!(
            decode_request(&infer).unwrap_err(),
            ProtoError::UnknownTier(7)
        );
        assert_eq!(
            decode_response(&[9]).unwrap_err(),
            ProtoError::UnknownStatus(9)
        );
        let mut rej = encode_response(&Response::Rejected {
            id: 0,
            reason: RejectReason::QueueFull,
        });
        *rej.last_mut().unwrap() = 0;
        assert_eq!(
            decode_response(&rej).unwrap_err(),
            ProtoError::UnknownReason(0)
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut ping = encode_request(&Request::Ping { id: 3 });
        ping.push(0xAA);
        assert!(matches!(
            decode_request(&ping).unwrap_err(),
            ProtoError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn random_payloads_never_panic_the_decoders() {
        // Seeded fuzz: whatever arrives on the wire, decoding returns a
        // value or a typed error — it must never panic.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF0CC ^ 0xBEEF);
        for _ in 0..4000 {
            let len = rng.gen_range(0usize..64);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
        }
        // And structured-prefix fuzz: valid opcodes with random tails.
        for op in 0u8..6 {
            for _ in 0..1000 {
                let len = rng.gen_range(0usize..48);
                let mut bytes = vec![op];
                bytes.extend((0..len).map(|_| rng.gen_range(0u32..256) as u8));
                let _ = decode_request(&bytes);
                let _ = decode_response(&bytes);
            }
        }
    }

    #[test]
    fn frames_round_trip_and_guard_length() {
        let payload = encode_request(&Request::Ping { id: 5 });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        // The one-buffer form the nonblocking write queues use is
        // byte-identical to the blocking writer.
        assert_eq!(frame_bytes(&payload).unwrap(), wire);
        assert!(matches!(
            frame_bytes(&vec![0u8; MAX_PAYLOAD + 1]).unwrap_err(),
            ProtoError::Oversized { .. }
        ));
        let mut reader = wire.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut reader).unwrap(), None); // clean EOF

        // Oversized outgoing payload: refused before any byte hits the
        // wire, in release builds too.
        let big = vec![0u8; MAX_PAYLOAD + 1];
        let mut sink = Vec::new();
        match write_frame(&mut sink, &big).unwrap_err() {
            ProtoError::Oversized { len } => assert_eq!(len, MAX_PAYLOAD as u64 + 1),
            other => panic!("{other:?}"),
        }
        assert!(sink.is_empty());

        // Oversized declared length: rejected from the header alone.
        let mut reader = ((MAX_PAYLOAD as u32) + 1).to_le_bytes().to_vec();
        reader.extend_from_slice(&[0; 8]);
        match read_frame(&mut reader.as_slice()).unwrap_err() {
            ProtoError::Oversized { len } => assert_eq!(len, MAX_PAYLOAD as u64 + 1),
            other => panic!("{other:?}"),
        }

        // Truncated header and payload.
        assert!(matches!(
            read_frame(&mut [1u8, 0].as_slice()).unwrap_err(),
            ProtoError::Truncated { context: "header" }
        ));
        let mut wire = 10u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame(&mut wire.as_slice()).unwrap_err(),
            ProtoError::Truncated { context: "payload" }
        ));
    }
}
