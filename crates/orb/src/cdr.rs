//! CDR-lite: a compact, deterministic binary encoding.
//!
//! CORBA marshals values with CDR (Common Data Representation). This is a
//! simplified little-endian equivalent used for request/reply bodies,
//! checkpoints and the replicator's own control messages. It has no
//! alignment padding and length-prefixes all variable-size values.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Error produced when decoding malformed or truncated bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// A length prefix exceeded the sanity limit.
    LengthOverflow {
        /// What was being decoded.
        what: &'static str,
        /// The claimed length.
        claimed: u64,
    },
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// An enum discriminant was out of range.
    InvalidDiscriminant {
        /// What was being decoded.
        what: &'static str,
        /// The unexpected tag value.
        tag: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated {what}: needed {needed} bytes, had {available}"
            ),
            DecodeError::LengthOverflow { what, claimed } => {
                write!(f, "{what} length {claimed} exceeds sanity limit")
            }
            DecodeError::InvalidUtf8 => f.write_str("string was not valid utf-8"),
            DecodeError::InvalidDiscriminant { what, tag } => {
                write!(f, "invalid discriminant {tag} for {what}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Upper bound on any single length prefix (64 MiB), guarding against
/// adversarial or corrupt inputs.
pub const MAX_LEN: u64 = 64 << 20;

/// An append-only encoder.
///
/// # Examples
///
/// ```
/// use vd_orb::cdr::{Encoder, Decoder};
///
/// let mut enc = Encoder::new();
/// enc.put_u32(7);
/// enc.put_str("hello");
/// let bytes = enc.finish();
///
/// let mut dec = Decoder::new(bytes);
/// assert_eq!(dec.get_u32().unwrap(), 7);
/// assert_eq!(dec.get_string().unwrap(), "hello");
/// assert!(dec.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An encoder pre-sized for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder {
            buf: BytesMut::with_capacity(capacity),
        }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    /// Appends a little-endian IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends an option as a presence byte plus the value.
    pub fn put_option<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        match v {
            Some(value) => {
                self.put_bool(true);
                put(self, value);
            }
            None => self.put_bool(false),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, yielding the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// A consuming decoder over encoded bytes.
#[derive(Debug)]
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    /// Wraps `bytes` for decoding.
    pub fn new(bytes: Bytes) -> Self {
        Decoder { buf: bytes }
    }

    fn need(&self, what: &'static str, n: usize) -> Result<(), DecodeError> {
        if self.buf.remaining() < n {
            Err(DecodeError::Truncated {
                what,
                needed: n,
                available: self.buf.remaining(),
            })
        } else {
            Ok(())
        }
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if the buffer is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.need("u8", 1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if the buffer is exhausted.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than 2 bytes remain.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        self.need("u16", 2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.need("u32", 4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.need("u64", 8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than 8 bytes remain.
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        self.need("i64", 8)?;
        Ok(self.buf.get_i64_le())
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than 8 bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        self.need("f64", 8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Reads a length-prefixed byte string (zero-copy slice of the input).
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] or [`DecodeError::LengthOverflow`].
    pub fn get_bytes(&mut self) -> Result<Bytes, DecodeError> {
        let len = self.get_u32()? as u64;
        if len > MAX_LEN {
            return Err(DecodeError::LengthOverflow {
                what: "bytes",
                claimed: len,
            });
        }
        let len = len as usize;
        self.need("bytes body", len)?;
        Ok(self.buf.split_to(len))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`], [`DecodeError::LengthOverflow`] or
    /// [`DecodeError::InvalidUtf8`].
    pub fn get_string(&mut self) -> Result<String, DecodeError> {
        let bytes = self.get_bytes()?;
        // Validate in place on the shared slice; only a valid string is
        // copied out, and malformed input costs no allocation at all.
        match std::str::from_utf8(&bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(DecodeError::InvalidUtf8),
        }
    }

    /// Reads an option written by [`Encoder::put_option`].
    ///
    /// # Errors
    ///
    /// Whatever the inner closure reports, or [`DecodeError::Truncated`].
    pub fn get_option<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        if self.get_bool()? {
            Ok(Some(get(self)?))
        } else {
            Ok(None)
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// `true` when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(0xAB);
        enc.put_bool(true);
        enc.put_u16(0xBEEF);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX - 1);
        enc.put_i64(-42);
        enc.put_f64(1234.5678);
        let mut dec = Decoder::new(enc.finish());
        assert_eq!(dec.get_u8().unwrap(), 0xAB);
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_u16().unwrap(), 0xBEEF);
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.get_i64().unwrap(), -42);
        assert_eq!(dec.get_f64().unwrap(), 1234.5678);
        assert!(dec.is_empty());
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut enc = Encoder::new();
        enc.put_str("versatile dependability");
        enc.put_bytes(&[1, 2, 3]);
        enc.put_str("");
        let mut dec = Decoder::new(enc.finish());
        assert_eq!(dec.get_string().unwrap(), "versatile dependability");
        assert_eq!(dec.get_bytes().unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(dec.get_string().unwrap(), "");
    }

    #[test]
    fn options_round_trip() {
        let mut enc = Encoder::new();
        enc.put_option(Some(9u64), |e, v| e.put_u64(v));
        enc.put_option(None::<u64>, |e, v| e.put_u64(v));
        let mut dec = Decoder::new(enc.finish());
        assert_eq!(dec.get_option(|d| d.get_u64()).unwrap(), Some(9));
        assert_eq!(dec.get_option(|d| d.get_u64()).unwrap(), None);
    }

    #[test]
    fn truncated_input_reports_what_and_sizes() {
        let mut dec = Decoder::new(Bytes::from_static(&[1, 2]));
        let err = dec.get_u32().unwrap_err();
        assert_eq!(
            err,
            DecodeError::Truncated {
                what: "u32",
                needed: 4,
                available: 2
            }
        );
        assert!(err.to_string().contains("u32"));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut enc = Encoder::new();
        enc.put_u32(u32::MAX); // absurd length prefix, no body
        let mut dec = Decoder::new(enc.finish());
        assert!(matches!(
            dec.get_bytes().unwrap_err(),
            DecodeError::LengthOverflow { .. }
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xFF, 0xFE]);
        let mut dec = Decoder::new(enc.finish());
        assert_eq!(dec.get_string().unwrap_err(), DecodeError::InvalidUtf8);
    }

    #[test]
    fn truncated_byte_body_rejected() {
        let mut enc = Encoder::new();
        enc.put_u32(10); // claims 10 bytes
        enc.put_u8(1); // provides 1
        let mut dec = Decoder::new(enc.finish());
        assert!(matches!(
            dec.get_bytes().unwrap_err(),
            DecodeError::Truncated {
                what: "bytes body",
                ..
            }
        ));
    }
}
