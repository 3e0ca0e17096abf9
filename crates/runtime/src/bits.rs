//! Bit-exact encoding for certificates and messages.
//!
//! Certificate size is *the* complexity measure of proof-labeling
//! schemes, so sizes must be measured honestly: this module provides a
//! writer/reader over a bit stream with fixed-width fields and LEB128
//! varints. No padding to byte boundaries is counted.
//!
//! The stream is MSB-first: the first bit written is the top bit of the
//! first byte. The codec moves whole words, not single bits:
//!
//! * a write places a field of up to 64 bits in a 128-bit accumulator at
//!   the stream's bit offset and ORs it into the buffer with one 64-bit
//!   and one 8-bit store (the writer keeps zeroed slack past its end);
//! * a read loads the bytes the field spans into one accumulator and
//!   shifts the field out;
//! * a varint group (continuation bit, then 7 payload bits) is one 8-bit
//!   field, and a varint of at most eight groups is written as one field
//!   and read from one 64-bit window;
//! * [`BitReader::copy_to`] and [`BitWriter::append`] move 64 bits per
//!   step.
//!
//! A read that fails consumes nothing. The bytes and bit lengths are
//! exactly those of a bit-at-a-time codec; the tests hold the two
//! against each other at every starting alignment.
//!
//! ```
//! use dpc_runtime::bits::{BitWriter, BitReader};
//!
//! let mut w = BitWriter::new();
//! w.write_bits(5, 3);
//! w.write_varint(300);
//! w.write_bool(true);
//! let bits = w.bit_len();
//! let mut r = BitReader::new(w.as_bytes(), bits);
//! assert_eq!(r.read_bits(3).unwrap(), 5);
//! assert_eq!(r.read_varint().unwrap(), 300);
//! assert!(r.read_bool().unwrap());
//! ```

use std::fmt;

/// Error when decoding a bit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Read past the end of the stream.
    OutOfBits,
    /// A varint was longer than 64 bits.
    VarintOverflow,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::OutOfBits => write!(f, "read past end of bit stream"),
            DecodeError::VarintOverflow => write!(f, "varint longer than 64 bits"),
            DecodeError::BadUtf8 => write!(f, "string is not UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only bit stream writer.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    /// The stream's bytes, followed by zeroed slack so a field is OR-ed
    /// in with whole-word stores; only `..len_bits.div_ceil(8)` is the
    /// stream.
    buf: Vec<u8>,
    len_bits: usize,
}

/// Slack the writer keeps past its last byte: one field of up to 64
/// bits, starting anywhere in a byte, touches at most nine bytes.
const SLACK: usize = 9;

impl BitWriter {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.len_bits
    }

    /// The backing bytes (last byte possibly partial).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len_bits.div_ceil(8)]
    }

    /// Empties the stream, keeping its buffer (for a writer reused
    /// across many short encodings).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.len_bits = 0;
    }

    /// Consumes the writer, returning `(bytes, bit_len)`.
    pub fn into_parts(mut self) -> (Vec<u8>, usize) {
        self.buf.truncate(self.len_bits.div_ceil(8));
        (self.buf, self.len_bits)
    }

    /// Writes the `width` low bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64);
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        let at = self.len_bits / 8;
        if self.buf.len() < at + SLACK {
            let len = (at + SLACK).max(2 * self.buf.len());
            self.buf.resize(len, 0);
        }
        // the field, placed at the stream's bit offset within a 72-bit
        // window starting at byte `at`; the slack past the stream is zero,
        // so OR-ing the window in writes exactly the field
        let window = (u128::from(value) << (128 - width)) >> (self.len_bits % 8);
        let word = &mut self.buf[at..at + SLACK];
        let head = u64::from_be_bytes(word[..8].try_into().expect("8 bytes"));
        word[..8].copy_from_slice(&(head | (window >> 64) as u64).to_be_bytes());
        word[8] |= (window >> 56) as u8;
        self.len_bits += width as usize;
    }

    /// Writes a single bool as one bit.
    pub fn write_bool(&mut self, b: bool) {
        self.write_bits(u64::from(b), 1);
    }

    /// Writes an unsigned LEB128 varint (7 bits per group + continuation
    /// bit; small values cost 8 bits). Each group is an 8-bit field, the
    /// continuation bit first; a varint of at most eight groups (a value
    /// below 2^56) goes out as one field.
    pub fn write_varint(&mut self, value: u64) {
        let groups = (64 - value.leading_zeros()).div_ceil(7).max(1);
        if groups <= 8 {
            let mut field = 0u64;
            for k in 0..groups {
                let more = u64::from(k + 1 < groups) << 7;
                field = field << 8 | more | (value >> (7 * k) & 0x7f);
            }
            self.write_bits(field, 8 * groups);
            return;
        }
        let mut value = value;
        loop {
            let group = value & 0x7f;
            value >>= 7;
            self.write_bits(u64::from(value != 0) << 7 | group, 8);
            if value == 0 {
                break;
            }
        }
    }

    /// Appends the whole content of another writer, 64 bits at a time.
    pub fn append(&mut self, other: &BitWriter) {
        BitReader::new(other.as_bytes(), other.bit_len())
            .copy_to(self, other.bit_len())
            .expect("a writer holds its own bit length");
    }
}

/// Sequential reader over a bit stream produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    len_bits: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reader over `buf` limited to `len_bits` bits.
    pub fn new(buf: &'a [u8], len_bits: usize) -> Self {
        BitReader {
            buf,
            len_bits,
            pos: 0,
        }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.len_bits - self.pos
    }

    /// The next 120+ bits of the buffer from the read position, MSB
    /// first (zero past the buffer's end; bits past `len_bits` are
    /// whatever the buffer holds, so callers bound what they use).
    fn window(&self) -> u128 {
        let rest = self.buf.get(self.pos / 8..).unwrap_or_default();
        let word = match rest.get(..16) {
            Some(word) => u128::from_be_bytes(word.try_into().expect("16 bytes")),
            None => {
                let mut word = [0u8; 16];
                word[..rest.len()].copy_from_slice(rest);
                u128::from_be_bytes(word)
            }
        };
        word << (self.pos % 8)
    }

    /// Reads `width` bits (most significant first). On error nothing is
    /// consumed.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, DecodeError> {
        assert!(width <= 64);
        if self.remaining() < width as usize {
            return Err(DecodeError::OutOfBits);
        }
        if width == 0 {
            return Ok(0);
        }
        let v = (self.window() >> (128 - width)) as u64;
        self.pos += width as usize;
        Ok(v)
    }

    /// Reads one bit.
    pub fn read_bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads an unsigned LEB128 varint. A varint of at most eight groups
    /// is decoded from one 64-bit window; longer ones group by group. On
    /// error nothing is consumed.
    pub fn read_varint(&mut self) -> Result<u64, DecodeError> {
        let window = (self.window() >> 64) as u64;
        // the first group whose continuation (top) bit is clear ends it
        let stops = !window & 0x8080_8080_8080_8080;
        if stops != 0 {
            let groups = stops.leading_zeros() / 8 + 1;
            if self.remaining() < 8 * groups as usize {
                return Err(DecodeError::OutOfBits);
            }
            let v = (0..groups).fold(0u64, |v, k| v | (window >> (56 - 8 * k) & 0x7f) << (7 * k));
            self.pos += 8 * groups as usize;
            return Ok(v);
        }
        let start = self.pos;
        let v = self.read_varint_groups();
        if v.is_err() {
            self.pos = start;
        }
        v
    }

    fn read_varint_groups(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let group = self.read_bits(8)?;
            let payload = group & 0x7f;
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(DecodeError::VarintOverflow);
            }
            v |= payload << shift;
            shift += 7;
            if group & 0x80 == 0 {
                return Ok(v);
            }
        }
    }

    /// Copies the next `bits` bits onto the end of `w`, 64 at a time.
    /// On error (fewer than `bits` left) nothing is consumed or written.
    pub fn copy_to(&mut self, w: &mut BitWriter, bits: usize) -> Result<(), DecodeError> {
        if self.remaining() < bits {
            return Err(DecodeError::OutOfBits);
        }
        let mut left = bits;
        while left > 0 {
            let width = left.min(64) as u32;
            w.write_bits(self.read_bits(width)?, width);
            left -= width as usize;
        }
        Ok(())
    }
}

/// Number of bits of the varint encoding of `value` (8 bits per 7-bit
/// group) — handy for size predictions in tests.
pub fn varint_len(value: u64) -> usize {
    let groups = (64 - value.leading_zeros()).div_ceil(7).max(1);
    groups as usize * 8
}

// ---------------------------------------------------------------------------
// Byte-oriented varints.
//
// The bit stream above measures certificates honestly (no padding); wire
// protocols and caches instead want byte-aligned buffers that can be
// memcpy'd and Arc-shared. These helpers are the canonical LEB128
// encoding over `Vec<u8>` / `&[u8]`, shared by the certificate
// serializers in `dpc-core` and the service wire codec.

/// Appends `value` as a standard LEB128 varint (low 7 bits per byte,
/// high bit = continuation).
pub fn put_uvarint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let group = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(group);
            return;
        }
        out.push(group | 0x80);
    }
}

/// Reads a LEB128 varint from the front of `buf`, advancing it.
pub fn get_uvarint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = buf.split_first().ok_or(DecodeError::OutOfBits)?;
        *buf = rest;
        let group = (byte & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && group > 1) {
            return Err(DecodeError::VarintOverflow);
        }
        v |= group << shift;
        shift += 7;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
}

/// Takes exactly `n` bytes from the front of `buf`, advancing it.
pub fn get_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() < n {
        return Err(DecodeError::OutOfBits);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Appends a length-prefixed UTF-8 string: uvarint byte length, then
/// the raw bytes. The one string codec of the wire layer.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Decodes a length-prefixed UTF-8 string from the front of `buf`,
/// advancing it. Inverse of [`put_string`]. The announced length is
/// implicitly bounded by the remaining buffer ([`get_bytes`] rejects
/// anything longer), so no separate cap is needed here.
pub fn get_string(buf: &mut &[u8]) -> Result<String, DecodeError> {
    let len = get_uvarint(buf)? as usize;
    if len > buf.len() {
        return Err(DecodeError::OutOfBits);
    }
    let bytes = get_bytes(buf, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_fixed_width() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0, 1);
        w.write_bits(u64::MAX, 64);
        let mut r = BitReader::new(w.as_bytes(), w.bit_len());
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_varints() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_varint(v);
        }
        let mut r = BitReader::new(w.as_bytes(), w.bit_len());
        for &v in &values {
            assert_eq!(r.read_varint().unwrap(), v);
        }
    }

    #[test]
    fn varint_sizes() {
        assert_eq!(varint_len(0), 8);
        assert_eq!(varint_len(127), 8);
        assert_eq!(varint_len(128), 16);
        let mut w = BitWriter::new();
        w.write_varint(128);
        assert_eq!(w.bit_len(), 16);
    }

    #[test]
    fn out_of_bits_detected() {
        let mut w = BitWriter::new();
        w.write_bits(3, 2);
        let mut r = BitReader::new(w.as_bytes(), w.bit_len());
        assert_eq!(r.read_bits(2).unwrap(), 3);
        assert_eq!(r.read_bits(1), Err(DecodeError::OutOfBits));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_write_panics() {
        let mut w = BitWriter::new();
        w.write_bits(4, 2);
    }

    #[test]
    fn append_concatenates() {
        let mut a = BitWriter::new();
        a.write_bits(0b101, 3);
        let mut b = BitWriter::new();
        b.write_bits(0b01, 2);
        a.append(&b);
        assert_eq!(a.bit_len(), 5);
        let mut r = BitReader::new(a.as_bytes(), 5);
        assert_eq!(r.read_bits(5).unwrap(), 0b10101);
    }

    #[test]
    fn byte_varint_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, 16383, 16384, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut cursor = buf.as_slice();
        for &v in &values {
            assert_eq!(get_uvarint(&mut cursor).unwrap(), v);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn byte_varint_errors() {
        let mut empty: &[u8] = &[];
        assert_eq!(get_uvarint(&mut empty), Err(DecodeError::OutOfBits));
        let mut truncated: &[u8] = &[0x80];
        assert_eq!(get_uvarint(&mut truncated), Err(DecodeError::OutOfBits));
        // 10 continuation groups overflow 64 bits
        let mut long: &[u8] = &[0xff; 10];
        assert_eq!(get_uvarint(&mut long), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn get_bytes_advances() {
        let data = [1u8, 2, 3, 4];
        let mut cursor = data.as_slice();
        assert_eq!(get_bytes(&mut cursor, 3).unwrap(), &[1, 2, 3]);
        assert_eq!(get_bytes(&mut cursor, 2), Err(DecodeError::OutOfBits));
        assert_eq!(get_bytes(&mut cursor, 1).unwrap(), &[4]);
    }

    /// The bit-at-a-time codec the word-level one replaced, kept as the
    /// reference the property tests hold it against.
    mod reference {
        use super::DecodeError;

        #[derive(Default)]
        pub struct Writer {
            pub buf: Vec<u8>,
            pub len_bits: usize,
        }

        impl Writer {
            fn push_bit(&mut self, bit: bool) {
                let byte = self.len_bits / 8;
                if byte == self.buf.len() {
                    self.buf.push(0);
                }
                if bit {
                    self.buf[byte] |= 1 << (7 - (self.len_bits % 8));
                }
                self.len_bits += 1;
            }

            pub fn write_bits(&mut self, value: u64, width: u32) {
                for i in (0..width).rev() {
                    self.push_bit((value >> i) & 1 == 1);
                }
            }

            pub fn write_bool(&mut self, b: bool) {
                self.push_bit(b);
            }

            pub fn write_varint(&mut self, mut value: u64) {
                loop {
                    let group = value & 0x7f;
                    value >>= 7;
                    self.write_bool(value != 0);
                    self.write_bits(group, 7);
                    if value == 0 {
                        break;
                    }
                }
            }
        }

        pub struct Reader<'a> {
            pub buf: &'a [u8],
            pub len_bits: usize,
            pub pos: usize,
        }

        impl Reader<'_> {
            pub fn read_bits(&mut self, width: u32) -> Result<u64, DecodeError> {
                if self.len_bits - self.pos < width as usize {
                    return Err(DecodeError::OutOfBits);
                }
                let mut v = 0u64;
                for _ in 0..width {
                    let bit = (self.buf[self.pos / 8] >> (7 - (self.pos % 8))) & 1;
                    v = (v << 1) | bit as u64;
                    self.pos += 1;
                }
                Ok(v)
            }

            pub fn read_varint(&mut self) -> Result<u64, DecodeError> {
                let mut v = 0u64;
                let mut shift = 0u32;
                loop {
                    let more = self.read_bits(1)? == 1;
                    let group = self.read_bits(7)?;
                    if shift >= 64 || (shift == 63 && group > 1) {
                        return Err(DecodeError::VarintOverflow);
                    }
                    v |= group << shift;
                    shift += 7;
                    if !more {
                        return Ok(v);
                    }
                }
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Field {
        Bits(u64, u32),
        Bool(bool),
        Varint(u64),
    }

    /// A random field: widths cover `0..=64`, varints reach `u64::MAX`.
    fn random_field(rng: &mut impl Rng) -> Field {
        match rng.gen_range(0..3u32) {
            0 => {
                let width = rng.gen_range(0..=64u32);
                let value = match width {
                    0 => 0,
                    64 => rng.gen::<u64>(),
                    w => rng.gen::<u64>() >> (64 - w),
                };
                Field::Bits(value, width)
            }
            1 => Field::Bool(rng.gen_bool(0.5)),
            _ => Field::Varint(rng.gen::<u64>() >> rng.gen_range(0..64u32)),
        }
    }

    fn write_both(fields: &[Field], lead: u32) -> (BitWriter, reference::Writer) {
        let mut w = BitWriter::new();
        let mut old = reference::Writer::default();
        // the leading bits set every starting alignment 0..8
        w.write_bits((1 << lead) - 1, lead);
        old.write_bits((1 << lead) - 1, lead);
        for &f in fields {
            match f {
                Field::Bits(v, width) => {
                    w.write_bits(v, width);
                    old.write_bits(v, width);
                }
                Field::Bool(b) => {
                    w.write_bool(b);
                    old.write_bool(b);
                }
                Field::Varint(v) => {
                    w.write_varint(v);
                    old.write_varint(v);
                }
            }
        }
        (w, old)
    }

    fn read_field(r: &mut BitReader<'_>, f: Field) -> Result<u64, DecodeError> {
        match f {
            Field::Bits(_, width) => r.read_bits(width),
            Field::Bool(_) => r.read_bool().map(u64::from),
            Field::Varint(_) => r.read_varint(),
        }
    }

    #[test]
    fn word_codec_matches_the_bit_loop_at_every_alignment() {
        let mut rng = StdRng::seed_from_u64(0xb175);
        for case in 0..400 {
            let lead = case % 8;
            let count = rng.gen_range(1..40usize);
            let fields: Vec<Field> = (0..count).map(|_| random_field(&mut rng)).collect();
            let (w, old) = write_both(&fields, lead);
            assert_eq!(w.bit_len(), old.len_bits, "case {case}: bit_len");
            assert_eq!(w.as_bytes(), &old.buf[..], "case {case}: bytes");
            // both readers decode the same stream to the written values
            let mut r = BitReader::new(w.as_bytes(), w.bit_len());
            let mut o = reference::Reader {
                buf: &old.buf,
                len_bits: old.len_bits,
                pos: 0,
            };
            assert_eq!(r.read_bits(lead).unwrap(), o.read_bits(lead).unwrap());
            for &f in &fields {
                let expect = match f {
                    Field::Bits(v, _) | Field::Varint(v) => v,
                    Field::Bool(b) => u64::from(b),
                };
                let old_value = match f {
                    Field::Varint(_) => o.read_varint(),
                    Field::Bits(_, width) => o.read_bits(width),
                    Field::Bool(_) => o.read_bits(1),
                };
                assert_eq!(read_field(&mut r, f), Ok(expect), "case {case}: {f:?}");
                assert_eq!(old_value, Ok(expect), "case {case}: reference {f:?}");
            }
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn truncated_reads_fail_without_moving() {
        let mut rng = StdRng::seed_from_u64(0x7a11);
        for case in 0..200 {
            let lead = case % 8;
            let f = random_field(&mut rng);
            let (w, _) = write_both(&[f], lead);
            let full = w.bit_len();
            // every truncation point inside the field
            for cut in lead as usize..full {
                let mut r = BitReader::new(w.as_bytes(), cut);
                r.read_bits(lead).unwrap();
                let before = r.remaining();
                assert_eq!(
                    read_field(&mut r, f),
                    Err(DecodeError::OutOfBits),
                    "case {case}: {f:?} cut at {cut}"
                );
                assert_eq!(r.remaining(), before, "case {case}: a failed read moved");
            }
        }
    }

    #[test]
    fn unaligned_full_word_reads() {
        for lead in 0..8u32 {
            for value in [
                0u64,
                1,
                u64::MAX,
                0x8000_0000_0000_0001,
                0x0123_4567_89ab_cdef,
            ] {
                let mut w = BitWriter::new();
                w.write_bits(0, lead);
                w.write_bits(value, 64);
                w.write_bits(1, 1);
                let mut r = BitReader::new(w.as_bytes(), w.bit_len());
                r.read_bits(lead).unwrap();
                assert_eq!(r.read_bits(64).unwrap(), value, "lead {lead}");
                assert!(r.read_bool().unwrap());
            }
        }
    }

    #[test]
    fn copy_to_moves_any_span_at_any_alignment() {
        let mut rng = StdRng::seed_from_u64(0xc0b1);
        let mut src = BitWriter::new();
        for _ in 0..40 {
            src.write_bits(rng.gen::<u64>() >> 1, 63);
        }
        for case in 0..300 {
            let from = rng.gen_range(0..src.bit_len());
            let bits = rng.gen_range(0..=src.bit_len() - from);
            let lead = case % 8;
            let mut dst = BitWriter::new();
            dst.write_bits(0, lead);
            let mut r = BitReader::new(src.as_bytes(), src.bit_len());
            for _ in 0..from {
                r.read_bool().unwrap();
            }
            r.copy_to(&mut dst, bits).unwrap();
            assert_eq!(dst.bit_len(), lead as usize + bits);
            let mut expect = BitReader::new(src.as_bytes(), src.bit_len());
            let mut got = BitReader::new(dst.as_bytes(), dst.bit_len());
            for _ in 0..from {
                expect.read_bool().unwrap();
            }
            got.read_bits(lead).unwrap();
            for _ in 0..bits {
                assert_eq!(got.read_bool(), expect.read_bool());
            }
            // too long a copy fails and leaves both sides alone
            let left = r.remaining();
            let len = dst.bit_len();
            assert_eq!(r.copy_to(&mut dst, left + 1), Err(DecodeError::OutOfBits));
            assert_eq!((r.remaining(), dst.bit_len()), (left, len));
        }
    }

    #[test]
    fn bools_and_bits_interleave() {
        let mut w = BitWriter::new();
        for i in 0..100u64 {
            w.write_bool(i % 3 == 0);
            w.write_varint(i * i);
        }
        let mut r = BitReader::new(w.as_bytes(), w.bit_len());
        for i in 0..100u64 {
            assert_eq!(r.read_bool().unwrap(), i % 3 == 0);
            assert_eq!(r.read_varint().unwrap(), i * i);
        }
    }
}
