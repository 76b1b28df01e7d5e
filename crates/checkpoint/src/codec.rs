//! The byte codec: [`Writer`], bounds-checked [`Reader`], and the
//! [`Persist`] trait with impls for the primitive and standard types
//! snapshots are built from.
//!
//! Design rules:
//!
//! * Multi-byte integers are canonical LEB128 varints (`u16`/`u32`/`u64`/
//!   `usize` direct, `i32`/`i64` zigzag-mapped first); `u8` stays a raw
//!   byte and `f64` is its fixed 8-byte IEEE-754 bit pattern
//!   (`to_bits`/`from_bits`), so floating state round-trips exactly.
//!   Varints are the format-v5 change: most persisted values (lengths,
//!   day numbers, counters, sizes) are small, so snapshots shrink.
//!   Decoding rejects non-canonical (overlong) varints, keeping the
//!   codec bijective: equal values always encode to equal bytes.
//! * Length prefixes are varints and are validated against the remaining
//!   input *before* any allocation — a corrupt length cannot trigger a
//!   huge `Vec::with_capacity`.
//! * Enums encode as a `u8` index into a stable variant order; unknown
//!   tags decode to [`CheckpointError::Malformed`].
//! * Decoding never panics on bad input; every failure is a
//!   [`CheckpointError`].

use crate::error::CheckpointError;
use std::collections::BTreeMap;

/// Append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed field whose `len` bytes `write` appends
    /// in place, encoded exactly as the same bytes saved as a `String` or
    /// `Vec<u8>` would be, without building that value first.
    ///
    /// # Panics
    /// If `write` appends other than `len` bytes: the prefix is already
    /// written, and a wrong one would make the snapshot undecodable.
    pub fn put_prefixed(&mut self, len: usize, write: impl FnOnce(&mut Vec<u8>)) {
        self.put_varint(len as u64);
        self.buf.reserve(len);
        let start = self.buf.len();
        write(&mut self.buf);
        assert_eq!(
            self.buf.len() - start,
            len,
            "a length-prefixed field wrote other than its declared length"
        );
    }

    /// Append a string as its `String` encoding: a varint byte length,
    /// then the UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_varint(s.len() as u64);
        self.put_bytes(s.as_bytes());
    }

    /// Append `items` exactly as a `Vec` of them encodes: a varint
    /// count, then each item.
    pub fn put_seq<'a, T: Persist + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.put_varint(items.len() as u64);
        for item in items {
            item.save(self);
        }
    }

    /// Append a LEB128 varint: seven value bits per byte, low bits first,
    /// high bit set on every byte except the last. The encoding is
    /// minimal-length by construction, so it is canonical.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }
}

/// Bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes, or fail with `Truncated`.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume one byte.
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Consume a LEB128 varint, rejecting overlong encodings so that
    /// decode(encode(v)) consumes exactly the bytes encode wrote and no
    /// other byte sequence decodes to the same value.
    pub fn get_varint(&mut self) -> Result<u64, CheckpointError> {
        let mut value: u64 = 0;
        for i in 0..10u32 {
            let byte = self.get_u8()?;
            // The 10th byte carries bit 63 only; anything above overflows.
            if i == 9 && byte > 0x01 {
                return Err(CheckpointError::Malformed("varint overflows u64".into()));
            }
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                if i > 0 && byte == 0 {
                    return Err(CheckpointError::Malformed(
                        "non-canonical varint (overlong encoding)".into(),
                    ));
                }
                return Ok(value);
            }
        }
        Err(CheckpointError::Malformed(
            "varint longer than 10 bytes".into(),
        ))
    }

    /// Consume a varint length prefix and validate it against the remaining
    /// input (each encoded element occupies at least one byte, so a length
    /// exceeding `remaining` can never be satisfied). This is the
    /// allocation guard: call it before any `with_capacity`.
    pub fn get_len(&mut self) -> Result<usize, CheckpointError> {
        let len = self.get_varint()?;
        let len = usize::try_from(len)
            .map_err(|_| CheckpointError::Malformed("length prefix overflows usize".into()))?;
        if len > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        Ok(len)
    }
}

/// A type that can write itself to a [`Writer`] and read itself back from
/// a [`Reader`]. The contract: `load(save(x)) == x` exactly, and `load` on
/// arbitrary bytes returns an error rather than panicking.
pub trait Persist: Sized {
    /// Append this value's encoding.
    fn save(&self, w: &mut Writer);
    /// Decode one value, consuming exactly what `save` wrote.
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError>;
}

/// Implement [`Persist`] for a struct with all-public fields by encoding
/// each named field in declaration order. The field list *is* the wire
/// format — reordering it is a format change and needs a
/// [`FORMAT_VERSION`](crate::FORMAT_VERSION) bump.
#[macro_export]
macro_rules! persist_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Persist for $ty {
            fn save(&self, w: &mut $crate::Writer) {
                $($crate::Persist::save(&self.$field, w);)+
            }
            fn load(
                r: &mut $crate::Reader<'_>,
            ) -> Result<Self, $crate::CheckpointError> {
                Ok(Self { $($field: $crate::Persist::load(r)?),+ })
            }
        }
    };
}

/// Implement [`Persist`] for an enum from an explicit tag list: each
/// variant writes its `u8` tag, then its listed fields in order. `save`
/// is one exhaustive `match`, so a variant left out of the list does not
/// compile, and `load` decodes the same list; an unknown tag is
/// [`CheckpointError::Malformed`]. The tags and field order are the wire
/// format.
///
/// ```
/// use chatlens_checkpoint::persist_enum;
/// enum Event { Tick, Day { n: u32 } }
/// persist_enum!(Event { 0 => Tick, 1 => Day { n } });
/// ```
///
/// ```compile_fail,E0004
/// use chatlens_checkpoint::persist_enum;
/// enum Event { Tick, Day { n: u32 } }
/// persist_enum!(Event { 0 => Tick });
/// ```
#[macro_export]
macro_rules! persist_enum {
    ($ty:ident { $($tag:literal => $variant:ident $({ $($field:ident),+ })?),+ $(,)? }) => {
        impl $crate::Persist for $ty {
            fn save(&self, w: &mut $crate::Writer) {
                match self {
                    $($ty::$variant $({ $($field),+ })? => {
                        w.put_u8($tag);
                        $($($crate::Persist::save($field, w);)+)?
                    })+
                }
            }
            fn load(
                r: &mut $crate::Reader<'_>,
            ) -> Result<Self, $crate::CheckpointError> {
                match r.get_u8()? {
                    $($tag => Ok($ty::$variant $({ $($field: $crate::Persist::load(r)?),+ })?),)+
                    tag => Err($crate::CheckpointError::Malformed(format!(
                        concat!(stringify!($ty), " tag {}"),
                        tag
                    ))),
                }
            }
        }
    };
}

// `u8` stays a raw byte: a varint would cost a second byte for values
// ≥ 128, and single bytes are already as small as it gets.
impl Persist for u8 {
    fn save(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        r.get_u8()
    }
}

macro_rules! persist_uvarint {
    ($($ty:ty => $what:literal),+ $(,)?) => {
        $(impl Persist for $ty {
            fn save(&self, w: &mut Writer) {
                w.put_varint(u64::from(*self));
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                <$ty>::try_from(r.get_varint()?)
                    .map_err(|_| CheckpointError::Malformed(concat!("varint overflows ", $what).into()))
            }
        })+
    };
}

persist_uvarint!(u16 => "u16", u32 => "u32", u64 => "u64");

/// Zigzag map: small-magnitude signed values (of either sign) become
/// small unsigned varints (`0, -1, 1, -2, 2, …` → `0, 1, 2, 3, 4, …`).
macro_rules! persist_ivarint {
    ($($ty:ty => $un:ty, $bits:literal, $what:literal);+ $(;)?) => {
        $(impl Persist for $ty {
            fn save(&self, w: &mut Writer) {
                let zig = ((*self << 1) ^ (*self >> ($bits - 1))) as $un;
                w.put_varint(u64::from(zig));
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                let zig = <$un>::try_from(r.get_varint()?)
                    .map_err(|_| CheckpointError::Malformed(concat!("varint overflows ", $what).into()))?;
                Ok(((zig >> 1) as $ty) ^ -((zig & 1) as $ty))
            }
        })+
    };
}

persist_ivarint!(i32 => u32, 32, "i32"; i64 => u64, 64, "i64");

impl Persist for usize {
    fn save(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        usize::try_from(r.get_varint()?)
            .map_err(|_| CheckpointError::Malformed("usize value overflows this platform".into()))
    }
}

impl Persist for bool {
    fn save(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(CheckpointError::Malformed(format!("bool byte {n}"))),
        }
    }
}

impl Persist for f64 {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.to_bits());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

impl Persist for String {
    fn save(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = r.get_len()?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Malformed("string is not valid UTF-8".into()))
    }
}

impl Persist for std::borrow::Cow<'static, str> {
    // Byte-identical to the `String` encoding: the wire format cannot see
    // whether the live value borrowed a `'static` literal or owned its
    // bytes, and loading always produces an owned value.
    fn save(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(std::borrow::Cow::Owned(String::load(r)?))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            n => Err(CheckpointError::Malformed(format!("Option tag {n}"))),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut Writer) {
        w.put_seq(self.iter());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = r.get_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, w: &mut Writer) {
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into()
            .map_err(|_| CheckpointError::Malformed("array length".into()))
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn save(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::load(r)?;
            let v = V::load(r)?;
            // Keys must arrive in strictly ascending order: the encoding of
            // a map is canonical, so equal maps always yield equal bytes.
            match out.last_key_value() {
                Some((last, _)) if *last >= k => {
                    return Err(CheckpointError::Malformed(
                        "map keys out of order or duplicated".into(),
                    ))
                }
                _ => {}
            }
            out.insert(k, v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = Writer::new();
        value.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(T::load(&mut r).unwrap(), value);
        assert!(r.is_empty(), "decoder left trailing bytes");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(u16::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(1.5f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(String::from("héllo"));
        round_trip(String::new());
    }

    #[test]
    fn nan_round_trips_bit_exact() {
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut w = Writer::new();
        nan.save(&mut w);
        let bytes = w.into_bytes();
        let back = f64::load(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<String>::new());
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip([1u8, 2, 3]);
        round_trip((1u32, String::from("x")));
        round_trip((1u32, 2u64, false));
        let mut m = BTreeMap::new();
        m.insert(String::from("a"), 1u64);
        m.insert(String::from("b"), 2u64);
        round_trip(m);
    }

    #[test]
    fn truncation_errors_never_panic() {
        let mut w = Writer::new();
        vec![String::from("abc"), String::from("defg")].save(&mut w);
        let bytes = w.into_bytes();
        for len in 0..bytes.len() {
            let err = Vec::<String>::load(&mut Reader::new(&bytes[..len]));
            assert!(err.is_err(), "prefix of {len} bytes decoded successfully");
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        // A Vec claiming u64::MAX elements (the 10-byte varint) with a
        // one-byte body.
        let mut w = Writer::new();
        w.put_varint(u64::MAX);
        let mut bytes = w.into_bytes();
        assert_eq!(bytes.len(), 10);
        bytes.push(0);
        assert_eq!(
            Vec::<u8>::load(&mut Reader::new(&bytes)),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn varint_boundaries_round_trip_at_minimal_width() {
        for (value, width) in [
            (0u64, 1usize),
            (0x7f, 1),
            (0x80, 2),
            (0x3fff, 2),
            (0x4000, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            let mut w = Writer::new();
            w.put_varint(value);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), width, "width of {value:#x}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), value);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn overlong_varints_are_malformed() {
        // 0x80 0x00 decodes to 0, but 0 must encode as the single byte
        // 0x00: the canonical codec rejects the overlong form.
        for bytes in [&[0x80, 0x00][..], &[0xff, 0x80, 0x00][..]] {
            assert!(matches!(
                Reader::new(bytes).get_varint(),
                Err(CheckpointError::Malformed(_))
            ));
        }
        // An 11-byte continuation chain can never fit in u64.
        let too_long = [0xffu8; 10];
        assert!(matches!(
            Reader::new(&too_long).get_varint(),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        for value in [-1i64, 1, -63, 63] {
            let mut w = Writer::new();
            value.save(&mut w);
            assert_eq!(w.len(), 1, "encoding width of {value}");
        }
        round_trip(i64::MIN);
        round_trip(i64::MAX);
        round_trip(i32::MIN);
        round_trip(i32::MAX);
        round_trip(-1i32);
    }

    #[test]
    fn bad_enum_tags_are_malformed() {
        assert!(matches!(
            bool::load(&mut Reader::new(&[9])),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            Option::<u8>::load(&mut Reader::new(&[7])),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn out_of_order_map_keys_are_malformed() {
        let mut w = Writer::new();
        w.put_varint(2);
        String::from("b").save(&mut w);
        1u64.save(&mut w);
        String::from("a").save(&mut w);
        2u64.save(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            BTreeMap::<String, u64>::load(&mut Reader::new(&bytes)),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut w = Writer::new();
        w.put_varint(2);
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert!(matches!(
            String::load(&mut Reader::new(&bytes)),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
