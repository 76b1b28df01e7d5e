//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The paper's ethics protocol (§3.4) stores only one-way hashes of phone
//! numbers. The offline crate set has no hashing crate, so the digest is
//! implemented here and validated against the official NIST test vectors.
//!
//! Whole blocks run on the x86 SHA extensions when the running CPU has
//! them (`ni`, the workspace's only `unsafe` code) and on the portable
//! scalar rounds otherwise; the scalar kernel is also the reference the
//! hardware one is tested against. Digests are bit-identical either way.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// Whole 64-byte blocks go through one dispatch: the x86 SHA extensions
/// when the running CPU has them, the portable scalar rounds otherwise.
/// Both produce bit-identical digests.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(compress_blocks)
    }

    /// [`update`](Self::update) through the block kernel `kernel`.
    fn update_with(&mut self, data: &[u8], kernel: fn(&mut [u32; 8], &[u8])) {
        self.length_bits = self
            .length_bits
            .wrapping_add((data.len() as u64).wrapping_mul(8));
        let mut input = data;
        // Fill a partial buffer first.
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            kernel(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Whole blocks straight from the input, in one kernel call.
        let whole = input.len() - input.len() % 64;
        kernel(&mut self.state, &input[..whole]);
        // Stash the tail.
        let tail = &input[whole..];
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// [`finalize`](Self::finalize) through the block kernel `kernel`.
    fn finalize_with(self, kernel: fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
        // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit
        // big-endian bit length — one block, or two when the tail leaves
        // no room for the length.
        let mut pad = [0u8; 128];
        pad[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        pad[self.buffered] = 0x80;
        let len = if self.buffered < 56 { 64 } else { 128 };
        pad[len - 8..len].copy_from_slice(&self.length_bits.to_be_bytes());
        let mut state = self.state;
        kernel(&mut state, &pad[..len]);
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compress whole 64-byte `blocks` into `state`: the SHA-extension
/// kernel when the CPU has it, the scalar rounds otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if ni::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// The portable kernel, and the reference the hardware one is tested
/// against.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    for block in blocks.chunks_exact(64) {
        compress(state, block);
    }
}

/// FIPS 180-4 §6.2.2: one 64-byte block into `state`.
fn compress(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The x86 SHA-extension kernel (`sha256rnds2`, `sha256msg1/2`), in the
/// Intel reference round layout: the state lives in two registers as
/// `ABEF` and `CDGH`, and each `sha256rnds2` runs two rounds.
#[cfg(target_arch = "x86_64")]
#[expect(unsafe_code, reason = "SHA intrinsics; each block states its SAFETY")]
mod ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Compress whole 64-byte `blocks` into `state` with the SHA
    /// extensions and return `true`, or return `false` without touching
    /// `state` when the CPU lacks them.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        {
            return false;
        }
        // SAFETY: the three target features `kernel` is compiled for were
        // detected on the running CPU just above; `kernel` itself only
        // reads and writes through `state` and `chunks_exact(64)` slices.
        unsafe { kernel(state, blocks) };
        true
    }

    /// # Safety
    ///
    /// The running CPU must support `sha`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
        // Byte-swap each 32-bit word: message words are big-endian.
        let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY (loads and stores in this function): every pointer is
        // derived from a live slice that covers the 16 bytes accessed —
        // `state` (32 bytes, two loads/stores at offsets 0 and 16), a
        // 64-byte block from `chunks_exact(64)` (loads at 0, 16, 32, 48)
        // and `K` (64 words, loads at word offsets 4i for i < 16) — and
        // the `loadu`/`storeu` forms accept any alignment.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr();
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), be),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), be),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), be),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), be),
            ];
            // Sixteen groups of four rounds; from group 4 on, each group
            // first extends the schedule into the slot it retires.
            for i in 0..16 {
                if i >= 4 {
                    let t = _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]),
                        _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4),
                    );
                    w[i % 4] = _mm_sha256msg2_epu32(t, w[(i + 3) % 4]);
                }
                let wk = _mm_add_epi32(w[i % 4], _mm_loadu_si128(K.as_ptr().add(4 * i).cast()));
                // Each `sha256rnds2` consumes the low two words of `W+K`;
                // the shuffle brings the high two down for the second.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 returning lowercase hex.
pub fn sha256_hex(data: &[u8]) -> String {
    to_hex(&sha256(data))
}

/// Bytes a [`DigestWriter`] buffers before hashing them.
const DIGEST_CHUNK: usize = 64 * 1024;

/// Streams text into SHA-256 through one bounded byte buffer, so a
/// canonical serialization (tens of megabytes of lines, say) is hashed
/// without ever existing as one string. Write with [`std::fmt::Write`],
/// or reserve space with [`room`](Self::room) and append bytes to the
/// buffer directly.
#[derive(Debug)]
pub struct DigestWriter {
    buf: Vec<u8>,
    hasher: Sha256,
}

impl Default for DigestWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestWriter {
    /// A fresh writer with an empty buffer.
    pub fn new() -> DigestWriter {
        DigestWriter {
            buf: Vec::with_capacity(DIGEST_CHUNK),
            hasher: Sha256::new(),
        }
    }

    /// The buffer, after hashing out what it holds if `bytes` more would
    /// not fit. Writing more than `bytes` only grows it.
    pub fn room(&mut self, bytes: usize) -> &mut Vec<u8> {
        if self.buf.len() + bytes > DIGEST_CHUNK {
            self.hasher.update(&self.buf);
            self.buf.clear();
        }
        &mut self.buf
    }

    /// Append one byte.
    pub fn push(&mut self, b: u8) {
        self.room(1).push(b);
    }

    /// Hash what is left and return the digest as lowercase hex.
    pub fn finish(mut self) -> String {
        self.hasher.update(&self.buf);
        to_hex(&self.hasher.finalize())
    }
}

impl std::fmt::Write for DigestWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.room(s.len()).extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Lowercase hex encoding of arbitrary bytes.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[usize::from(b >> 4)] as char);
        s.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SHA-256 through the scalar kernel only, fed in `chunks`-sized
    /// pieces (cycled) — the reference the dispatching hasher must match.
    fn scalar_sha256(data: &[u8], chunks: &[usize]) -> [u8; 32] {
        let mut h = Sha256::new();
        for piece in split(data, chunks) {
            h.update_with(piece, compress_blocks_scalar);
        }
        h.finalize_with(compress_blocks_scalar)
    }

    fn dispatched_sha256(data: &[u8], chunks: &[usize]) -> [u8; 32] {
        let mut h = Sha256::new();
        for piece in split(data, chunks) {
            h.update(piece);
        }
        h.finalize()
    }

    fn split<'a>(mut data: &'a [u8], chunks: &[usize]) -> Vec<&'a [u8]> {
        let mut out = Vec::new();
        for &n in chunks.iter().cycle() {
            if data.is_empty() {
                break;
            }
            let (piece, rest) = data.split_at(n.clamp(1, data.len()));
            out.push(piece);
            data = rest;
        }
        out
    }

    /// Whether this CPU runs the SHA-extension kernel; when it does not,
    /// the hardware half of a differential test is reported as not run.
    fn hardware_path_runs() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            let mut state = H0;
            if ni::compress_blocks(&mut state, &[0u8; 64]) {
                return true;
            }
        }
        eprintln!("no SHA-extension kernel on this CPU: hardware half not run");
        false
    }

    #[test]
    fn both_kernels_match_the_nist_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        let hardware = hardware_path_runs();
        for (data, want) in vectors {
            assert_eq!(to_hex(&scalar_sha256(data, &[usize::MAX])), want);
            if hardware {
                assert_eq!(to_hex(&dispatched_sha256(data, &[usize::MAX])), want);
            }
        }
    }

    #[test]
    fn kernels_agree_at_every_length_through_300() {
        // Covers the 55/56/63/64/119/120 padding edges.
        let hardware = hardware_path_runs();
        let data: Vec<u8> = (0u32..300).map(|i| (i * 167 + 13) as u8).collect();
        for n in 0..=300 {
            let want = scalar_sha256(&data[..n], &[usize::MAX]);
            let bytewise = scalar_sha256(&data[..n], &[1]);
            assert_eq!(bytewise, want, "scalar split mismatch at length {n}");
            if hardware {
                let got = dispatched_sha256(&data[..n], &[usize::MAX]);
                assert_eq!(got, want, "kernel mismatch at length {n}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn dispatching_hasher_equals_the_scalar_reference(
            data in proptest::collection::vec(proptest::any::<u8>(), 0..4097),
            chunks in proptest::collection::vec(1usize..300, 1..8),
        ) {
            if hardware_path_runs() {
                proptest::prop_assert_eq!(
                    dispatched_sha256(&data, &chunks),
                    scalar_sha256(&data, &[usize::MAX])
                );
            }
            proptest::prop_assert_eq!(
                scalar_sha256(&data, &chunks),
                scalar_sha256(&data, &[usize::MAX])
            );
        }
    }

    #[test]
    fn digest_writer_equals_one_shot_across_buffer_flushes() {
        use std::fmt::Write as _;
        let mut w = DigestWriter::new();
        let mut whole = String::new();
        for i in 0..20_000u32 {
            let line = format!("line {i} {}\n", "x".repeat((i % 17) as usize));
            w.write_str(&line).unwrap();
            whole.push_str(&line);
        }
        w.room(3).extend_from_slice(b"end");
        w.push(b'\n');
        whole.push_str("end\n");
        assert!(whole.len() > 2 * DIGEST_CHUNK);
        assert_eq!(w.finish(), sha256_hex(whole.as_bytes()));
    }

    #[test]
    fn hex_encoding() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(to_hex(&[]), "");
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"+49151123456"), sha256(b"+49151123457"));
    }
}
