//! Property tests for the snapshot envelope and the [`Persist`] codec:
//! encode→decode is the identity for arbitrary values, and *no* damaged
//! input — truncated at any byte length, bit-flipped anywhere, or with
//! trailing garbage — ever decodes successfully or panics.

use std::collections::BTreeMap;

use chatlens_checkpoint::{decode_snapshot, encode_snapshot, persist_struct, Persist};
use proptest::prelude::*;
use proptest::{collection, option};

/// A composite exercising every codec shape: fixed-width ints, floats,
/// strings, sequences, options, tuples, maps, and nesting.
#[derive(Debug, Clone, PartialEq)]
struct Blob {
    a: u64,
    b: i64,
    c: String,
    d: Vec<u32>,
    e: Option<String>,
    f: Vec<(u64, String)>,
    g: f64,
    h: BTreeMap<String, u64>,
    i: Vec<u8>,
    j: bool,
}

persist_struct!(Blob {
    a,
    b,
    c,
    d,
    e,
    f,
    g,
    h,
    i,
    j
});

#[expect(clippy::too_many_arguments, reason = "one argument per field")]
fn blob(
    a: u64,
    b: i64,
    c: String,
    d: Vec<u32>,
    e: Option<String>,
    f: Vec<(u64, String)>,
    g: f64,
    h: Vec<(String, u64)>,
    j: bool,
) -> Blob {
    Blob {
        a,
        b,
        i: c.clone().into_bytes(),
        c,
        d,
        e,
        f,
        g,
        h: h.into_iter().collect(),
        j,
    }
}

proptest! {
    #[test]
    fn snapshot_round_trips_exactly(
        a in any::<u64>(),
        b in any::<i64>(),
        c in "\\PC*",
        d in collection::vec(any::<u32>(), 0..8),
        e in option::of("[a-z]{0,12}"),
        f in collection::vec((any::<u64>(), "[A-Za-z0-9]{0,6}"), 0..6),
        g in -1.0e12..1.0e12,
        h in collection::vec(("[a-z]{1,8}", any::<u64>()), 0..6),
        j in any::<bool>(),
    ) {
        let value = blob(a, b, c, d, e, f, g, h, j);
        let bytes = encode_snapshot(&value);
        let back: Blob = match decode_snapshot(&bytes) {
            Ok(v) => v,
            Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e}"))),
        };
        prop_assert_eq!(&back, &value);
        // Canonical: re-encoding the decoded value reproduces the bytes.
        prop_assert_eq!(encode_snapshot(&back), bytes);
    }

    #[test]
    fn every_f64_bit_pattern_survives(bits in any::<u64>()) {
        // NaN payloads and signed zeros included: the codec stores the
        // IEEE-754 bit pattern, so compare bits, not float equality.
        let bytes = encode_snapshot(&f64::from_bits(bits));
        let back: f64 = decode_snapshot(&bytes).expect("round trip");
        prop_assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn truncation_at_every_length_is_rejected(
        a in any::<u64>(),
        c in "\\PC{0,16}",
        d in collection::vec(any::<u32>(), 0..5),
        j in any::<bool>(),
    ) {
        let value = blob(a, 0, c, d, None, Vec::new(), 0.5, Vec::new(), j);
        let bytes = encode_snapshot(&value);
        for len in 0..bytes.len() {
            prop_assert!(
                decode_snapshot::<Blob>(&bytes[..len]).is_err(),
                "prefix of {len}/{} bytes must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected(
        a in any::<u64>(),
        c in "[a-z]{0,16}",
        flip in any::<u64>(),
    ) {
        let value = blob(a, -1, c, Vec::new(), None, Vec::new(), 1.25, Vec::new(), true);
        let mut bytes = encode_snapshot(&value);
        let bit = (flip % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            decode_snapshot::<Blob>(&bytes).is_err(),
            "bit {bit} flipped must not decode"
        );
    }

    #[test]
    fn trailing_garbage_is_rejected(
        a in any::<u64>(),
        extra in collection::vec(any::<u8>(), 1..16),
    ) {
        let value = blob(a, 7, String::new(), Vec::new(), None, Vec::new(), 0.0, Vec::new(), false);
        let mut bytes = encode_snapshot(&value);
        bytes.extend(extra);
        prop_assert!(decode_snapshot::<Blob>(&bytes).is_err());
    }

    #[test]
    fn random_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..128)) {
        // Whatever the input, the decoder returns an error; reaching this
        // assertion at all proves no panic and no absurd allocation.
        prop_assert!(decode_snapshot::<Blob>(&bytes).is_err());
    }

    #[test]
    fn out_of_order_map_keys_are_rejected(
        k1 in "[a-m]{1,6}",
        k2 in "[n-z]{1,6}",
        v in any::<u64>(),
    ) {
        // Hand-encode a map with descending keys; the decoder must refuse
        // it (strictly-ascending keys are part of the canonical format).
        let mut w = chatlens_checkpoint::Writer::new();
        2u64.save(&mut w);
        k2.save(&mut w);
        v.save(&mut w);
        k1.save(&mut w);
        v.save(&mut w);
        let payload = w.into_bytes();
        let mut r = chatlens_checkpoint::Reader::new(&payload);
        prop_assert!(BTreeMap::<String, u64>::load(&mut r).is_err());
    }
}
