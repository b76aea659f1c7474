//! Length-prefixed message framing over facade byte streams.
//!
//! Workloads speak in frames: a 4-byte little-endian body length
//! followed by the body (built with `snap_sim::codec`). [`FrameBuf`]
//! accumulates stream bytes from a socket and yields whole frames;
//! partial frames wait for more bytes — exactly the reassembly an app
//! would do over a real socket.

use snap_sim::codec::Writer;
use snap_sim::Sim;

use crate::socket::{SnapSocket, SocketError};

/// Starts a wire frame whose body will be `body_len` bytes: a writer
/// that holds the length prefix and has room for the body, so a caller
/// that knows its size up front builds the frame in one buffer.
pub fn begin_frame(body_len: usize) -> Writer {
    let mut w = Writer::with_capacity(4 + body_len);
    w.u32(body_len as u32);
    w
}

/// Wraps `body` into a wire frame, padding the body with zeros up to
/// `pad_to` bytes so a workload can model request/reply sizes larger
/// than their headers (readers ignore the padding).
pub fn frame(body: Vec<u8>, pad_to: usize) -> Vec<u8> {
    let body_len = body.len().max(pad_to);
    let mut out = begin_frame(body_len).finish();
    out.extend_from_slice(&body);
    out.resize(4 + body_len, 0);
    out
}

/// Reassembles frames from a facade byte stream. Holds no more than
/// the frames not yet taken plus one partial frame: what
/// [`FrameBuf::next_frame`] has handed out is dropped at the next pull.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// `buf[..off]` has been handed out.
    off: usize,
}

impl FrameBuf {
    /// An empty reassembly buffer.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Drains every byte currently available on `sock` into the buffer.
    pub fn pull(&mut self, sim: &mut Sim, sock: &SnapSocket) -> Result<(), SocketError> {
        // What moves is the head of a frame that arrived behind the
        // tail of the last one taken: at most one pull's worth per
        // frame, and each byte at most once.
        self.buf.drain(..self.off);
        self.off = 0;
        sock.recv_all(sim, |part| self.buf.extend_from_slice(part))
    }

    /// Takes the next complete frame body, if one has fully arrived.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        let unread = &self.buf[self.off..];
        let (prefix, rest) = unread.split_first_chunk::<4>()?;
        let body = rest.get(..u32::from_le_bytes(*prefix) as usize)?.to_vec();
        self.off += 4 + body.len();
        Some(body)
    }
}
