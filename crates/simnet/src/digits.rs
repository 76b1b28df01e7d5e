//! Decimal digit writing without `fmt`: a `00`–`99` pair table emits two
//! digits per lookup into a stack buffer, which is appended at once.
//!
//! Wire pages, message lines, tweet records and the report digests print
//! millions of integers per campaign; this is the one writer they share.

/// `00`, `01`, …, `99`: the digit writer emits two digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Copy the two digits of `v < 100` to `buf[at..at + 2]`.
#[inline]
fn put_pair(buf: &mut [u8], at: usize, v: usize) {
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[2 * v..2 * v + 2]);
}

/// Write the decimal digits of `v` into `buf` so that they end just
/// before `buf[end]`, and return the index of the first digit. `buf` must
/// have room: up to 20 bytes before `end`.
///
/// Four digits per 64-bit division: the two pairs of each group come
/// from the remainder by narrow arithmetic, so a 10-digit value takes two
/// dependent divisions instead of five.
#[inline]
pub fn write_digits(buf: &mut [u8], mut end: usize, mut v: u64) -> usize {
    while v >= 10_000 {
        let group = (v % 10_000) as usize;
        v /= 10_000;
        end -= 4;
        put_pair(buf, end, group / 100);
        put_pair(buf, end + 2, group % 100);
    }
    let mut v = v as usize;
    if v >= 100 {
        end -= 2;
        put_pair(buf, end, v % 100);
        v /= 100;
    }
    if v >= 10 {
        end -= 2;
        put_pair(buf, end, v);
    } else {
        end -= 1;
        buf[end] = b'0' + v as u8;
    }
    end
}

/// Append the decimal digits of `v` to the byte buffer `out`.
pub fn extend_u64(out: &mut Vec<u8>, v: u64) {
    let mut digits = [0u8; 20];
    let at = write_digits(&mut digits, 20, v);
    out.extend_from_slice(&digits[at..]);
}

/// Append the decimal digits of `v` to `out`, as `Display` would print
/// them.
pub fn push_u64(out: &mut String, v: u64) {
    let mut digits = [0u8; 20];
    let at = write_digits(&mut digits, 20, v);
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// [`extend_u64`] for signed values (a leading `-` for negatives).
pub fn extend_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    extend_u64(out, v.unsigned_abs());
}

/// `10^0`, …, `10^19`: the digit-count thresholds of [`decimal_len`].
const POWERS_OF_TEN: [u64; 20] = {
    let mut table = [1u64; 20];
    let mut i = 1;
    while i < 20 {
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
};

/// Number of digits [`push_u64`] and [`extend_u64`] append for `v`.
///
/// No division: `(bits * 1233) >> 12` is `⌊bits · log10 2⌋` for every
/// bit length up to 64, so `v` has that many digits, or one more if it
/// reaches the next power of ten. `v | 1` gives 0 one digit and moves no
/// other value across a power of ten (they are all even).
#[inline]
pub fn decimal_len(v: u64) -> usize {
    let v = v | 1;
    let bits = u64::BITS - v.leading_zeros();
    let t = ((bits * 1233) >> 12) as usize;
    t + usize::from(v >= POWERS_OF_TEN[t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_writer_matches_display() {
        let mut out = String::new();
        let mut bytes = Vec::new();
        // Every length and both sides of every power of ten, where the
        // pair table hands over to the single-digit tail.
        let powers = (0..20).map(|e| 10u64.pow(e));
        let edges = powers.flat_map(|p| [p - 1, p, p + 1, p.saturating_mul(5)]);
        let sweep = 0..=10_000u64;
        for v in edges
            .chain(sweep)
            .chain([4_294_967_295, u64::MAX - 1, u64::MAX])
        {
            out.clear();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
            assert_eq!(decimal_len(v), out.len());
            bytes.clear();
            extend_u64(&mut bytes, v);
            assert_eq!(bytes, out.as_bytes());
        }
        for v in [0, -1, 7, -10, i64::MIN, i64::MAX] {
            bytes.clear();
            extend_i64(&mut bytes, v);
            assert_eq!(bytes, v.to_string().as_bytes());
        }
    }
}
