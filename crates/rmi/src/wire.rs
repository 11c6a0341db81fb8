//! Low-level binary encoding primitives.
//!
//! All multi-byte integers are little-endian; strings and byte blobs are
//! length-prefixed with a `u32`. The format is deliberately simple and
//! fully self-contained: the point of the reproduction is that *we* own the
//! marshalling layer whose cost Table 2 and Figure 3 measure.

use std::error::Error;
use std::fmt;

/// Error produced while decoding wire data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// An unknown type or frame tag was encountered.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A declared length exceeds the sanity limit.
    OversizedField(u64),
    /// Bytes remained after the outermost value was decoded.
    TrailingBytes(usize),
    /// A field held a value outside its legal domain (for example a logic
    /// byte above 3 or a word width above 128).
    BadValue(&'static str),
    /// A versioned frame declared a format revision this decoder does not
    /// understand. Old (unversioned) frames always decode; this fires
    /// only for revisions from the *future*, so the caller can report
    /// "upgrade me" instead of "corrupt data".
    UnsupportedVersion(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => f.write_str("unexpected end of wire data"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t:#04x}"),
            WireError::BadUtf8 => f.write_str("string field is not valid utf-8"),
            WireError::OversizedField(n) => write!(f, "field length {n} exceeds limit"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::BadValue(what) => write!(f, "field out of domain: {what}"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported frame version {v} (decoder too old)")
            }
        }
    }
}

impl Error for WireError {}

/// Sanity cap on any single length-prefixed field (16 MiB). Protects the
/// decoder against hostile or corrupted length prefixes.
pub(crate) const MAX_FIELD: u64 = 16 << 20;

/// Cap on one length-prefixed socket frame (64 MiB: several maximal
/// fields). A peer announcing more is cut off before anything is
/// buffered or allocated for it.
pub(crate) const MAX_FRAME_LEN: usize = 64 << 20;

/// Bytes in a socket frame's length prefix.
pub(crate) const LEN_PREFIX: usize = 4;

/// The little-endian length prefix of a socket frame carrying `len` bytes.
pub(crate) fn len_prefix(len: usize) -> [u8; LEN_PREFIX] {
    (len as u32).to_le_bytes()
}

/// A length prefix announcing more than [`MAX_FRAME_LEN`] bytes.
#[derive(Debug)]
pub(crate) struct FrameTooLong(pub(crate) usize);

/// Parses a socket frame's length prefix, refusing one above
/// [`MAX_FRAME_LEN`] before anything is buffered or allocated for it.
pub(crate) fn parse_len_prefix(prefix: [u8; LEN_PREFIX]) -> Result<usize, FrameTooLong> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        Err(FrameTooLong(len))
    } else {
        Ok(len)
    }
}

/// Appends binary primitives to a byte buffer.
#[derive(Clone, Debug, Default)]
pub(crate) struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Reads binary primitives from a byte slice.
///
/// Every method returns [`WireError::UnexpectedEof`] rather than panicking
/// when the buffer is exhausted.
#[derive(Clone, Debug)]
pub(crate) struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`WireError::TrailingBytes`] unless the buffer is fully
    /// consumed.
    ///
    /// # Errors
    ///
    /// Returns an error when unread bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] at end of buffer.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] at end of buffer.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] at end of buffer.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] at end of buffer.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian IEEE-754 `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] at end of buffer.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] at end of buffer.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed byte blob.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] on truncation or
    /// [`WireError::OversizedField`] if the prefix exceeds the sanity cap.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = u64::from(self.u32()?);
        if len > MAX_FIELD {
            return Err(WireError::OversizedField(len));
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// As [`WireReader::bytes`], plus [`WireError::BadUtf8`].
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = WireWriter::new();
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(1.5);
        w.u128(u128::MAX - 1);
        w.bytes(&[1, 2, 3]);
        w.str("caffè");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 1.5);
        assert_eq!(r.u128().unwrap(), u128::MAX - 1);
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "caffè");
        r.finish().unwrap();
    }

    #[test]
    fn writer_example_has_the_documented_byte_layout() {
        let mut w = WireWriter::new();
        w.u32(7);
        w.str("hi");
        assert_eq!(w.len(), 10);
        let bytes = w.into_bytes();
        assert_eq!(bytes, [7, 0, 0, 0, 2, 0, 0, 0, b'h', b'i']);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.str().unwrap(), "hi");
        r.finish().unwrap();
    }

    #[test]
    fn eof_detection() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut w = WireWriter::new();
        w.u32(u32::MAX); // absurd length prefix with no payload
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(
            r.bytes(),
            Err(WireError::OversizedField(u64::from(u32::MAX)))
        );
    }

    #[test]
    fn length_prefix_round_trips_up_to_the_cap() {
        assert_eq!(len_prefix(0x0102), [0x02, 0x01, 0, 0]);
        assert_eq!(
            parse_len_prefix(len_prefix(MAX_FRAME_LEN)).unwrap(),
            MAX_FRAME_LEN
        );
        assert!(matches!(
            parse_len_prefix(len_prefix(MAX_FRAME_LEN + 1)),
            Err(FrameTooLong(n)) if n == MAX_FRAME_LEN + 1
        ));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = WireWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.str(), Err(WireError::BadUtf8));
    }
}
