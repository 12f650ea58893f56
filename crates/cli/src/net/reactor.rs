//! Reactor building blocks shared by the `nf serve` server loop and the
//! `nf loadgen` client mux: incremental frame reassembly across arbitrary
//! `read(2)` chunk boundaries, bounded per-connection write queues with
//! partial-write resumption, and the one connection type both loops
//! drive.
//!
//! Both sides of the wire speak the same u32-LE length-prefixed frames
//! ([`crate::proto`]); a nonblocking socket can surface those frames one
//! byte at a time (header straddling a chunk boundary, payload split
//! across dozens of reads), so [`FrameAssembler`] is an explicit state
//! machine over (header bytes seen, payload bytes seen) rather than a
//! blocking `read_exact`. Symmetrically, a nonblocking write can accept
//! any prefix of a frame, so [`WriteQueue`] tracks a byte offset into its
//! buffered wire bytes and resumes exactly where the socket left off.
//! Both are socket-free and unit-tested without a kernel.
//!
//! [`Conn`] owns a socket and its epoll registration: it wraps the two
//! state machines around a nonblocking `TcpStream` and keeps the
//! registered interest bits in step with the outbox. Each loop keeps its
//! own `epoll_wait`, tokens and frame handling; only the
//! flush-and-interest bookkeeping lives here.

use crate::net::sys::{self, Epoll, EPOLLIN, EPOLLOUT};
use crate::proto::{ProtoError, MAX_PAYLOAD};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;

/// Reactor token for the listening socket (never collides with
/// connection ids, which count up from 0).
pub const TOKEN_LISTENER: u64 = u64::MAX;
/// Reactor token for the eventfd wake channel.
pub const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Size of the reactor's shared read scratch buffer. One buffer serves
/// every connection (the reactor is single-threaded), so this is a
/// per-reactor cost, not per-connection.
pub const READ_CHUNK: usize = 64 * 1024;

/// Incremental reassembly of u32-LE length-prefixed frames.
///
/// Feed it whatever byte chunks the socket produces; it yields complete
/// payloads in order. The length prefix is validated against
/// [`MAX_PAYLOAD`] the moment its fourth byte arrives — before any
/// payload allocation — so an adversarial header can never allocate more
/// than the cap.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    header: [u8; 4],
    header_filled: usize,
    /// `Some` once a header completed; holds the partially filled
    /// payload until it reaches its declared length.
    payload: Option<Vec<u8>>,
}

impl FrameAssembler {
    /// A fresh assembler at a frame boundary.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Whether the stream sits at a frame boundary — an EOF here is a
    /// clean close, anywhere else it truncates a frame.
    pub fn at_boundary(&self) -> bool {
        self.payload.is_none() && self.header_filled == 0
    }

    /// The declared payload length once the header is complete.
    fn declared_len(&self) -> usize {
        u32::from_le_bytes(self.header) as usize
    }

    /// Consumes one read chunk, appending every completed frame payload
    /// to `out`. An oversized declared length is a typed
    /// [`ProtoError::Oversized`]; the assembler is poisoned afterwards
    /// and the connection must close (the stream offset is no longer
    /// trustworthy).
    pub fn push(&mut self, mut chunk: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), ProtoError> {
        while !chunk.is_empty() {
            match self.payload.as_mut() {
                None => {
                    // Header phase: copy up to the 4th byte.
                    let take = (4 - self.header_filled).min(chunk.len());
                    let (head, rest) = chunk.split_at(take);
                    if let Some(dst) = self
                        .header
                        .get_mut(self.header_filled..self.header_filled + take)
                    {
                        dst.copy_from_slice(head);
                    }
                    self.header_filled += take;
                    chunk = rest;
                    if self.header_filled == 4 {
                        let len = self.declared_len();
                        if len > MAX_PAYLOAD {
                            return Err(ProtoError::Oversized { len: len as u64 });
                        }
                        if len == 0 {
                            out.push(Vec::new());
                            self.header_filled = 0;
                        } else {
                            self.payload = Some(Vec::with_capacity(len));
                        }
                    }
                }
                Some(buf) => {
                    // Payload phase: copy up to the declared length.
                    let len = u32::from_le_bytes(self.header) as usize;
                    let take = (len - buf.len()).min(chunk.len());
                    let (body, rest) = chunk.split_at(take);
                    buf.extend_from_slice(body);
                    chunk = rest;
                    if buf.len() == len {
                        out.push(std::mem::take(buf));
                        self.payload = None;
                        self.header_filled = 0;
                    }
                }
            }
        }
        Ok(())
    }
}

/// What one nonblocking read pass produced.
#[derive(Debug, PartialEq)]
pub enum ReadEnd {
    /// The socket would block; complete frames (if any) were assembled.
    WouldBlock,
    /// The peer closed at a frame boundary.
    CleanEof,
    /// The peer closed mid-frame, or the socket errored.
    Dropped,
    /// The peer sent an oversized frame header.
    Oversized(ProtoError),
}

/// Drains `stream` until it would block, feeding `asm` and collecting
/// complete payloads into `frames`. `scratch` is the reactor's shared
/// read buffer ([`READ_CHUNK`] bytes).
pub fn read_ready(
    stream: &mut impl Read,
    asm: &mut FrameAssembler,
    scratch: &mut [u8],
    frames: &mut Vec<Vec<u8>>,
) -> ReadEnd {
    loop {
        match stream.read(scratch) {
            Ok(0) => {
                return if asm.at_boundary() {
                    ReadEnd::CleanEof
                } else {
                    ReadEnd::Dropped
                };
            }
            Ok(n) => {
                let chunk = scratch.get(..n).unwrap_or_default();
                if let Err(e) = asm.push(chunk, frames) {
                    return ReadEnd::Oversized(e);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadEnd::WouldBlock,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadEnd::Dropped,
        }
    }
}

/// A bounded per-connection outbox of wire bytes (length prefix included)
/// with partial-write resumption.
///
/// The reactor pushes encoded frames, attempts an immediate flush, and
/// arms `EPOLLOUT` only when bytes remain — the write-interest toggling
/// half of the state machine. The byte bound is backpressure: a peer
/// that stops reading while replies accumulate past the cap is cut off
/// rather than growing the server without limit.
#[derive(Debug)]
pub struct WriteQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    front_sent: usize,
    /// Total unsent bytes across all queued frames.
    queued: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> Self {
        WriteQueue {
            frames: VecDeque::new(),
            front_sent: 0,
            queued: 0,
        }
    }

    /// Unsent bytes currently buffered.
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Whether everything pushed has been written.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Queues one frame's wire bytes (length prefix + payload).
    pub fn push(&mut self, wire: Vec<u8>) {
        self.queued += wire.len();
        self.frames.push_back(wire);
    }

    /// Writes as much as the socket accepts. `Ok(true)` means fully
    /// drained; `Ok(false)` means the socket would block with bytes
    /// still queued (caller arms write interest). Any other error means
    /// the peer is gone.
    pub fn flush(&mut self, w: &mut impl Write) -> io::Result<bool> {
        loop {
            let outcome = match self.frames.front() {
                None => return Ok(true),
                Some(front) => match front.get(self.front_sent..) {
                    None | Some([]) => None, // front fully written
                    Some(rest) => Some(w.write(rest)),
                },
            };
            match outcome {
                None => {
                    self.frames.pop_front();
                    self.front_sent = 0;
                }
                Some(Ok(0)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Some(Ok(n)) => {
                    self.front_sent += n;
                    self.queued = self.queued.saturating_sub(n);
                }
                Some(Err(e)) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Some(Err(e)) if e.kind() == io::ErrorKind::Interrupted => continue,
                Some(Err(e)) => return Err(e),
            }
        }
    }
}

impl Default for WriteQueue {
    fn default() -> Self {
        WriteQueue::new()
    }
}

/// One nonblocking TCP connection registered with an epoll instance —
/// the serve reactor's client sockets and the loadgen mux's server
/// sockets alike: the socket, its [`FrameAssembler`], its [`WriteQueue`]
/// and the interest bits epoll currently holds for it.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    outq: WriteQueue,
    /// The interest bits currently registered with epoll.
    interest: u32,
}

impl Conn {
    /// Sets `stream` nodelay and nonblocking and registers it with
    /// `epoll` under `token`, readable.
    pub fn open(stream: TcpStream, epoll: &Epoll, token: u64) -> io::Result<Conn> {
        // Nagle only delays small frames; failing to turn it off costs
        // latency, not correctness.
        let _ = stream.set_nodelay(true);
        sys::set_nonblocking(stream.as_raw_fd())?;
        epoll.add(stream.as_raw_fd(), EPOLLIN, token)?;
        Ok(Conn {
            stream,
            asm: FrameAssembler::new(),
            outq: WriteQueue::new(),
            interest: EPOLLIN,
        })
    }

    /// Reads until the socket would block, appending every complete
    /// frame payload to `frames` ([`read_ready`] over this socket).
    pub fn read_frames(&mut self, scratch: &mut [u8], frames: &mut Vec<Vec<u8>>) -> ReadEnd {
        read_ready(&mut self.stream, &mut self.asm, scratch, frames)
    }

    /// Queues one frame's wire bytes; [`Conn::sync`] writes them.
    pub fn queue(&mut self, wire: Vec<u8>) {
        self.outq.push(wire);
    }

    /// Unsent bytes queued — what an outbox cap is checked against.
    pub fn queued_bytes(&self) -> usize {
        self.outq.queued_bytes()
    }

    /// Writes what the socket accepts, then reconciles the registered
    /// interest with what is left: `EPOLLIN` iff `want_read`, `EPOLLOUT`
    /// iff bytes remain queued. `Ok(true)` means the outbox is empty. An
    /// error means the peer is gone (or epoll refused the change): close
    /// the connection.
    pub fn sync(&mut self, epoll: &Epoll, token: u64, want_read: bool) -> io::Result<bool> {
        let flushed = self.outq.flush(&mut self.stream)?;
        let read_bit = if want_read { EPOLLIN } else { 0 };
        let want = read_bit | if flushed { 0 } else { EPOLLOUT };
        if want != self.interest {
            epoll.modify(self.stream.as_raw_fd(), want, token)?;
            self.interest = want;
        }
        Ok(flushed)
    }

    /// Deregisters the socket and closes it.
    pub fn close(self, epoll: &Epoll) {
        let _ = epoll.delete(self.stream.as_raw_fd());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;
    use proptest::prelude::*;
    use rand::Rng;

    /// Encodes payloads as wire frames and returns the concatenated
    /// byte stream.
    fn wire_stream(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for p in payloads {
            proto::write_frame(&mut wire, p).unwrap();
        }
        wire
    }

    /// Feeds `wire` to a fresh assembler in the given chunk sizes and
    /// returns the reassembled payloads.
    fn reassemble(wire: &[u8], chunks: &[usize]) -> Vec<Vec<u8>> {
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        let mut off = 0;
        let mut sizes = chunks.iter().copied().cycle();
        while off < wire.len() {
            let take = sizes.next().unwrap_or(1).clamp(1, wire.len() - off);
            asm.push(&wire[off..off + take], &mut out).unwrap();
            off += take;
        }
        assert!(asm.at_boundary(), "stream must end at a frame boundary");
        out
    }

    #[test]
    fn one_byte_reads_reassemble_exactly() {
        let payloads = vec![vec![1, 2, 3], Vec::new(), vec![0xAB; 17]];
        let wire = wire_stream(&payloads);
        assert_eq!(reassemble(&wire, &[1]), payloads);
    }

    #[test]
    fn header_straddling_chunk_boundaries_reassembles() {
        let payloads = vec![vec![9; 5], vec![7; 11]];
        let wire = wire_stream(&payloads);
        // Every split point of the first header: 1, 2, 3 bytes then rest.
        for cut in 1..4 {
            let mut asm = FrameAssembler::new();
            let mut out = Vec::new();
            asm.push(&wire[..cut], &mut out).unwrap();
            assert!(out.is_empty(), "no frame can complete inside a header");
            asm.push(&wire[cut..], &mut out).unwrap();
            assert_eq!(out, payloads);
        }
    }

    proptest! {
        #[test]
        fn arbitrary_chunk_splits_never_corrupt_frames(
            seed in 0u64..1_000_000,
            n_frames in 1usize..6,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let payloads: Vec<Vec<u8>> = (0..n_frames)
                .map(|_| {
                    let len = rng.gen_range(0usize..200);
                    (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
                })
                .collect();
            let wire = wire_stream(&payloads);
            // Adversarial chunking: random sizes from 1 byte up.
            let mut asm = FrameAssembler::new();
            let mut out = Vec::new();
            let mut off = 0;
            while off < wire.len() {
                let take = rng.gen_range(1usize..=9).min(wire.len() - off);
                asm.push(&wire[off..off + take], &mut out).unwrap();
                off += take;
            }
            prop_assert!(asm.at_boundary());
            prop_assert_eq!(out, payloads);
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        let header = ((MAX_PAYLOAD as u32) + 1).to_le_bytes();
        // Byte-at-a-time: the error must fire exactly when the 4th
        // header byte lands, with no payload bytes consumed.
        asm.push(&header[..3], &mut out).unwrap();
        let err = asm.push(&header[3..], &mut out).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { .. }), "{err:?}");
        assert!(out.is_empty());
    }

    #[test]
    fn boundary_tracking_distinguishes_clean_and_dirty_eof() {
        let wire = wire_stream(&[vec![1, 2, 3]]);
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        assert!(asm.at_boundary());
        asm.push(&wire[..2], &mut out).unwrap(); // inside the header
        assert!(!asm.at_boundary());
        asm.push(&wire[2..5], &mut out).unwrap(); // inside the payload
        assert!(!asm.at_boundary());
        asm.push(&wire[5..], &mut out).unwrap();
        assert!(asm.at_boundary());
        assert_eq!(out, vec![vec![1, 2, 3]]);
    }

    /// A writer that accepts at most `cap` bytes per call and then a
    /// WouldBlock, to exercise partial-write resumption.
    struct Throttled {
        sunk: Vec<u8>,
        cap: usize,
        calls_until_block: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.calls_until_block == 0 {
                self.calls_until_block = 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            self.calls_until_block -= 1;
            let n = buf.len().min(self.cap).max(1);
            self.sunk.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_resumes_partial_writes_byte_exactly() {
        let frames: Vec<Vec<u8>> = vec![vec![1; 10], vec![2; 3], vec![3; 7]];
        let expected: Vec<u8> = frames.iter().flatten().copied().collect();
        let mut q = WriteQueue::new();
        for f in &frames {
            q.push(f.clone());
        }
        assert_eq!(q.queued_bytes(), 20);
        let mut w = Throttled {
            sunk: Vec::new(),
            cap: 3,
            calls_until_block: 2,
        };
        // Repeatedly flush through WouldBlock until drained.
        let mut rounds = 0;
        while !q.flush(&mut w).unwrap() {
            w.calls_until_block = 2;
            rounds += 1;
            assert!(rounds < 100, "flush must make progress");
        }
        assert!(q.is_empty());
        assert_eq!(q.queued_bytes(), 0);
        assert_eq!(w.sunk, expected);
    }

    #[test]
    fn read_ready_classifies_eof_against_frame_boundaries() {
        let wire = wire_stream(&[vec![5; 4]]);
        let mut scratch = vec![0u8; 16];

        // Full frame then EOF: frames out, clean close.
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        let end = read_ready(&mut wire.as_slice(), &mut asm, &mut scratch, &mut frames);
        assert_eq!(end, ReadEnd::CleanEof);
        assert_eq!(frames, vec![vec![5; 4]]);

        // EOF mid-frame: dropped.
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        let end = read_ready(&mut &wire[..3], &mut asm, &mut scratch, &mut frames);
        assert_eq!(end, ReadEnd::Dropped);
        assert!(frames.is_empty());
    }

    #[test]
    fn conn_sync_follows_the_outbox_on_a_loopback_pair() {
        use crate::net::sys::EpollEvent;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let epoll = Epoll::new().unwrap();
        let mut conn = Conn::open(stream, &epoll, 7).unwrap();
        assert_eq!(conn.interest, EPOLLIN);

        // Queue frames until the socket stops accepting them: what is
        // left waits on EPOLLOUT.
        let frame = proto::frame_bytes(&vec![0xA5; 64 * 1024]).unwrap();
        let mut sent = 0;
        loop {
            conn.queue(frame.clone());
            sent += frame.len();
            if !conn.sync(&epoll, 7, true).unwrap() {
                break;
            }
            assert!(sent < 64 << 20, "the loopback socket never filled");
        }
        assert_eq!(conn.interest, EPOLLIN | EPOLLOUT);
        assert!(conn.queued_bytes() > 0);

        // Drain the peer: EPOLLOUT wakes the loop, each sync writes more,
        // and the one that empties the queue drops EPOLLOUT.
        let drain = std::thread::spawn(move || {
            let mut buf = vec![0u8; READ_CHUNK];
            let mut got = 0;
            while got < sent {
                let n = peer.read(&mut buf).unwrap();
                assert!(n > 0, "the connection closed early");
                got += n;
            }
            (got, peer)
        });
        let mut events = vec![EpollEvent::zeroed(); 4];
        while !conn.sync(&epoll, 7, true).unwrap() {
            let n = epoll.wait(&mut events, 10_000).unwrap();
            assert!(n > 0, "EPOLLOUT never fired while the peer drained");
        }
        assert_eq!(conn.interest, EPOLLIN);
        assert_eq!(conn.queued_bytes(), 0);
        let (got, mut peer) = drain.join().unwrap();
        assert_eq!(got, sent);

        // want_read = false drops EPOLLIN: a readable socket stays quiet.
        assert!(conn.sync(&epoll, 7, false).unwrap());
        assert_eq!(conn.interest, 0);
        peer.write_all(b"x").unwrap();
        assert_eq!(epoll.wait(&mut events, 100).unwrap(), 0);
        conn.sync(&epoll, 7, true).unwrap();
        assert_eq!(epoll.wait(&mut events, 10_000).unwrap(), 1);
        assert_ne!(events[0].ready() & EPOLLIN, 0);
        conn.close(&epoll);
    }
}
