//! A minimal byte codec for wire formats and upgrade snapshots.
//!
//! Pony Express defines its own wire protocol (§3.1) and the upgrade
//! path serializes engine state "to an intermediate format" (§4). Both
//! need a deterministic, versionable byte encoding; this module is the
//! small hand-rolled codec they share (little-endian, length-prefixed
//! variable fields).

/// Encoder: appends primitive values to a growing buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a u8.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a u16 (little-endian).
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a u32 (little-endian).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a u64 (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Appends a length-prefixed byte slice (u32 length).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Appends an optional u64 at one width: a presence byte, then the
    /// value (zero when absent).
    pub fn opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        self.bool(v.is_some()).u64(v.unwrap_or(0))
    }

    /// Appends a sequence: a u32 count, then every item as `item`
    /// writes it. The count is filled in after the walk, so any
    /// iterator will do.
    pub fn seq<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut item: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        let count_at = self.buf.len();
        self.u32(0);
        let mut count = 0u32;
        for it in items {
            item(self, it);
            count += 1;
        }
        self.buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        self
    }

    /// Finishes, returning the encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Clears the buffer, keeping its allocation — the scratch-buffer
    /// reuse hook for per-frame encoding on hot paths.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes written so far, without consuming the writer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Decoding error: the buffer was truncated or malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "truncated or malformed buffer")
    }
}

impl std::error::Error for DecodeError {}

/// Decoder: reads primitives sequentially from a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError)?;
        if end > self.buf.len() {
            return Err(DecodeError);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a u8.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a u16.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a bool (one byte; nonzero is true).
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| DecodeError)
    }

    /// Reads what [`Writer::opt_u64`] wrote.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        let (present, v) = (self.bool()?, self.u64()?);
        Ok(present.then_some(v))
    }

    /// Reads what [`Writer::seq`] wrote, into any collection: the u32
    /// count, then that many items as `item` reads them. Nothing is
    /// reserved from the count, so a damaged one runs into the end of
    /// the buffer before it costs memory.
    pub fn seq<T, C: FromIterator<T>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<C, DecodeError> {
        let count = self.u32()?;
        (0..count).map(|_| item(self)).collect()
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset from the start of the buffer — lets callers
    /// that hold the backing buffer in a refcounted form slice the
    /// range a field occupies instead of copying it.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True if the whole buffer was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.u8(7)
            .u16(65_000)
            .u32(4_000_000_000)
            .u64(u64::MAX - 1)
            .bool(true)
            .bytes(b"payload")
            .string("name");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.string().unwrap(), "name");
        assert!(r.is_exhausted());
    }

    #[test]
    fn seq_and_opt_roundtrip_in_the_hand_written_layout() {
        let mut w = Writer::new();
        w.seq([(1u32, 10u64), (2, 20)], |w, (a, b)| {
            w.u32(a).u64(b);
        })
        .opt_u64(Some(7))
        .opt_u64(None);
        let buf = w.finish();
        // The layout the callers used to write by hand.
        let mut by_hand = Writer::new();
        by_hand.u32(2).u32(1).u64(10).u32(2).u64(20);
        by_hand.bool(true).u64(7).bool(false).u64(0);
        assert_eq!(buf, by_hand.finish());

        let mut r = Reader::new(&buf);
        let pairs: Vec<(u32, u64)> = r.seq(|r| Ok((r.u32()?, r.u64()?))).unwrap();
        assert_eq!(pairs, vec![(1, 10), (2, 20)]);
        assert_eq!(r.opt_u64(), Ok(Some(7)));
        assert_eq!(r.opt_u64(), Ok(None));
        assert!(r.is_exhausted());
    }

    #[test]
    fn seq_with_a_damaged_count_errors_without_reserving() {
        let mut w = Writer::new();
        w.u32(u32::MAX).u64(1);
        let buf = w.finish();
        let got: Result<Vec<u64>, _> = Reader::new(&buf).seq(Reader::u64);
        assert_eq!(got, Err(DecodeError));
    }

    #[test]
    fn truncated_buffer_errors() {
        let mut w = Writer::new();
        w.u64(42);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(r.u64(), Err(DecodeError));
    }

    #[test]
    fn oversized_length_prefix_errors() {
        let mut w = Writer::new();
        w.u32(1_000_000); // claims a huge payload that is not there
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap_err(), DecodeError);
    }

    #[test]
    fn empty_reader() {
        let mut r = Reader::new(&[]);
        assert!(r.is_exhausted());
        assert_eq!(r.u8(), Err(DecodeError));
    }

    #[test]
    fn empty_bytes_and_string() {
        let mut w = Writer::new();
        w.bytes(b"").string("");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"");
        assert_eq!(r.string().unwrap(), "");
    }

    #[test]
    fn invalid_utf8_string_errors() {
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.string(), Err(DecodeError));
    }

    #[test]
    fn writer_len_tracks() {
        let mut w = Writer::with_capacity(64);
        assert!(w.is_empty());
        w.u32(1);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn writer_clear_reuses_allocation() {
        let mut w = Writer::with_capacity(8);
        w.u64(7).bytes(b"abc");
        assert_eq!(w.as_slice().len(), w.len());
        w.clear();
        assert!(w.is_empty());
        w.u8(1);
        assert_eq!(w.as_slice(), &[1]);
    }

    #[test]
    fn reader_position_tracks_fields() {
        let mut w = Writer::new();
        w.u32(9).bytes(b"xyz");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.position(), 0);
        r.u32().unwrap();
        assert_eq!(r.position(), 4);
        let start = {
            r.u32().unwrap(); // length prefix of the bytes field
            r.position()
        };
        assert_eq!(&buf[start..start + 3], b"xyz");
    }
}
