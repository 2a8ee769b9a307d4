//! Dependency-free DEFLATE (RFC 1951) and base64 codecs for the artifact
//! store's compressed payload envelope.
//!
//! Golden-run artifacts for the paper-scale MAC serialize to multi-MB
//! JSON; the store's version-2 envelope deflates the payload text and
//! embeds it as base64 inside the (still self-describing, still JSON)
//! envelope. The build environment has no crates registry, so both codecs
//! are implemented here from the RFC rather than pulled from `flate2`.
//!
//! The encoder emits a single compression mode — LZ77 matching over a
//! 32 KiB window with the *fixed* Huffman tables of RFC 1951 §3.2.6 —
//! and falls back to stored (uncompressed) blocks when fixed-Huffman
//! coding would expand the input. The decoder accepts stored and
//! fixed-Huffman blocks, i.e. everything this encoder can produce;
//! dynamic-Huffman streams (which only a foreign writer could have
//! produced) are rejected as corrupt.
//!
//! Determinism: the encoder is a pure function of the input bytes —
//! greedy matching with a bounded hash-chain walk, no randomization, no
//! heuristics keyed on time or allocation addresses — so identical
//! payloads compress to identical artifact bytes, preserving the store's
//! byte-identical cache-hit property.

/// Longest match DEFLATE can encode.
const MAX_MATCH: usize = 258;
/// Shortest match worth encoding (below this, literals are cheaper).
const MIN_MATCH: usize = 3;
/// LZ77 history window.
const WINDOW: usize = 32 * 1024;
/// Cap on hash-chain probes per position (compression/speed trade-off;
/// also part of the deterministic output contract — do not tune per run).
const MAX_CHAIN: usize = 128;

/// `(base length, extra bits)` for length codes 257..=285 (RFC 1951 §3.2.5).
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];

/// `(base distance, extra bits)` for distance codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

// ---------------------------------------------------------------------------
// Bit I/O (DEFLATE packs bits LSB-first within bytes; Huffman codes are
// written most-significant-bit first)
// ---------------------------------------------------------------------------

struct BitWriter {
    out: Vec<u8>,
    bits: u32,
    nbits: u32,
}

impl BitWriter {
    fn new() -> BitWriter {
        BitWriter {
            out: Vec::new(),
            bits: 0,
            nbits: 0,
        }
    }

    /// Write `n` bits of `v`, least-significant first (headers, extra bits).
    fn write_bits(&mut self, v: u32, n: u32) {
        self.bits |= v << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.bits & 0xFF) as u8);
            self.bits >>= 8;
            self.nbits -= 8;
        }
    }

    /// Write an `n`-bit Huffman code, most-significant bit first: one
    /// bit-reversal plus a single buffered write (this runs once per
    /// symbol — the hot path of compression).
    fn write_code(&mut self, code: u32, n: u32) {
        self.write_bits(code.reverse_bits() >> (32 - n), n);
    }

    /// Pad to a byte boundary with zero bits.
    fn align(&mut self) {
        if self.nbits > 0 {
            self.out.push((self.bits & 0xFF) as u8);
            self.bits = 0;
            self.nbits = 0;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        self.align();
        self.out
    }
}

struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bits: u32,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader {
            data,
            pos: 0,
            bits: 0,
            nbits: 0,
        }
    }

    fn read_bits(&mut self, n: u32) -> Result<u32, String> {
        while self.nbits < n {
            let byte = *self.data.get(self.pos).ok_or("deflate stream truncated")?;
            self.pos += 1;
            self.bits |= (byte as u32) << self.nbits;
            self.nbits += 8;
        }
        let v = self.bits & ((1u32 << n) - 1);
        self.bits >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Read `n` bits accumulating most-significant first (Huffman codes):
    /// one buffered read plus a bit-reversal.
    fn read_code(&mut self, n: u32) -> Result<u32, String> {
        Ok(self.read_bits(n)?.reverse_bits() >> (32 - n))
    }

    /// Discard partial bits and return to whole-byte reading.
    fn align(&mut self) {
        let drop = self.nbits % 8;
        self.bits >>= drop;
        self.nbits -= drop;
    }

    fn read_le16(&mut self) -> Result<u16, String> {
        debug_assert_eq!(self.nbits % 8, 0);
        Ok(self.read_bits(16)? as u16)
    }
}

// ---------------------------------------------------------------------------
// Fixed Huffman tables (RFC 1951 §3.2.6)
// ---------------------------------------------------------------------------

/// `(code, length)` of a literal/length symbol under the fixed table.
fn fixed_litlen_code(sym: u32) -> (u32, u32) {
    match sym {
        0..=143 => (0x30 + sym, 8),
        144..=255 => (0x190 + (sym - 144), 9),
        256..=279 => (sym - 256, 7),
        _ => (0xC0 + (sym - 280), 8),
    }
}

/// Decode one literal/length symbol from a fixed-Huffman block.
fn decode_fixed_litlen(r: &mut BitReader<'_>) -> Result<u32, String> {
    let mut v = r.read_code(7)?;
    if v <= 0x17 {
        return Ok(256 + v);
    }
    v = (v << 1) | r.read_bits(1)?;
    if (0x30..=0xBF).contains(&v) {
        return Ok(v - 0x30);
    }
    if (0xC0..=0xC7).contains(&v) {
        return Ok(280 + (v - 0xC0));
    }
    v = (v << 1) | r.read_bits(1)?;
    if (0x190..=0x1FF).contains(&v) {
        return Ok(144 + (v - 0x190));
    }
    Err("invalid fixed-Huffman literal/length code".into())
}

/// Largest index with `table[i] <= value` (code lookup for length/dist).
fn code_for(table: &[u16], value: u16) -> usize {
    match table.binary_search(&value) {
        Ok(i) => i,
        Err(i) => i - 1,
    }
}

// ---------------------------------------------------------------------------
// Compression
// ---------------------------------------------------------------------------

/// Compress `data` into a raw DEFLATE stream (no zlib/gzip wrapper).
///
/// Deterministic: identical input always yields identical output.
pub fn deflate(data: &[u8]) -> Vec<u8> {
    let fixed = deflate_fixed(data);
    // Fixed-Huffman coding expands truly incompressible input (literals
    // ≥ 144 cost 9 bits); fall back to stored blocks when that happens.
    if fixed.len() > stored_size(data.len()) {
        deflate_stored(data)
    } else {
        fixed
    }
}

/// Size of `n` bytes encoded as stored blocks: per block, a 3-bit header
/// rounded up to a byte plus the 4 LEN/NLEN bytes.
fn stored_size(n: usize) -> usize {
    let blocks = n.div_ceil(0xFFFF).max(1);
    blocks * 5 + n
}

fn deflate_stored(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut chunks = data.chunks(0xFFFF).peekable();
    if data.is_empty() {
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0, 2); // BTYPE = stored
        w.align();
        w.out.extend_from_slice(&[0, 0, 0xFF, 0xFF]);
        return w.finish();
    }
    while let Some(chunk) = chunks.next() {
        w.write_bits(u32::from(chunks.peek().is_none()), 1);
        w.write_bits(0, 2);
        w.align();
        let len = chunk.len() as u16;
        w.out.extend_from_slice(&len.to_le_bytes());
        w.out.extend_from_slice(&(!len).to_le_bytes());
        w.out.extend_from_slice(chunk);
    }
    w.finish()
}

const HASH_BITS: u32 = 15;

fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add(data[i + 2] as u32);
    (h.wrapping_mul(0x9E3779B1) >> (32 - HASH_BITS)) as usize
}

fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut n = 0;
    while n < max && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

fn deflate_fixed(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bits(1, 1); // BFINAL: single block
    w.write_bits(1, 2); // BTYPE = fixed Huffman

    // Hash chains over the sliding window. `prev` is a WINDOW-sized ring
    // keyed by position modulo WINDOW: a slot is only ever read for
    // candidates within WINDOW of the current position (the distance
    // guard below), and its next same-residue writer lies a full WINDOW
    // later — so reads always see the exact chain link, with a fixed
    // footprint instead of one slot per input byte.
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; WINDOW];
    let insert = |head: &mut Vec<usize>, prev: &mut Vec<usize>, i: usize| {
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            prev[i & (WINDOW - 1)] = head[h];
            head[h] = i;
        }
    };

    let emit_sym = |w: &mut BitWriter, sym: u32| {
        let (code, n) = fixed_litlen_code(sym);
        w.write_code(code, n);
    };

    let mut i = 0;
    while i < data.len() {
        let max = (data.len() - i).min(MAX_MATCH);
        let mut best_len = 0;
        let mut best_dist = 0;
        if max >= MIN_MATCH {
            let mut cand = head[hash3(data, i)];
            let mut chain = 0;
            while cand != usize::MAX && i - cand <= WINDOW && chain < MAX_CHAIN {
                let len = match_len(data, cand, i, max);
                if len > best_len {
                    best_len = len;
                    best_dist = i - cand;
                    if len == max {
                        break;
                    }
                }
                cand = prev[cand & (WINDOW - 1)];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            let lcode = code_for(&LENGTH_BASE, best_len as u16);
            emit_sym(&mut w, 257 + lcode as u32);
            w.write_bits(
                (best_len as u16 - LENGTH_BASE[lcode]) as u32,
                LENGTH_EXTRA[lcode] as u32,
            );
            let dcode = code_for(&DIST_BASE, best_dist as u16);
            w.write_code(dcode as u32, 5);
            w.write_bits(
                (best_dist as u16 - DIST_BASE[dcode]) as u32,
                DIST_EXTRA[dcode] as u32,
            );
            for k in i..i + best_len {
                insert(&mut head, &mut prev, k);
            }
            i += best_len;
        } else {
            emit_sym(&mut w, data[i] as u32);
            insert(&mut head, &mut prev, i);
            i += 1;
        }
    }
    emit_sym(&mut w, 256); // end of block
    w.finish()
}

// ---------------------------------------------------------------------------
// Decompression
// ---------------------------------------------------------------------------

/// Decompress a raw DEFLATE stream produced by [`deflate`].
///
/// # Errors
///
/// Returns a description of the first corruption encountered (truncated
/// stream, invalid code, distance before the start of output, or an
/// unsupported dynamic-Huffman block).
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, String> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let bfinal = r.read_bits(1)?;
        match r.read_bits(2)? {
            0 => {
                r.align();
                let len = r.read_le16()? as usize;
                let nlen = r.read_le16()?;
                if !(len as u16) != nlen {
                    return Err("stored block LEN/NLEN mismatch".into());
                }
                for _ in 0..len {
                    out.push(r.read_bits(8)? as u8);
                }
            }
            1 => loop {
                let sym = decode_fixed_litlen(&mut r)?;
                match sym {
                    0..=255 => out.push(sym as u8),
                    256 => break,
                    257..=285 => {
                        let lcode = (sym - 257) as usize;
                        let len = LENGTH_BASE[lcode] as usize
                            + r.read_bits(LENGTH_EXTRA[lcode] as u32)? as usize;
                        let dcode = r.read_code(5)? as usize;
                        if dcode >= DIST_BASE.len() {
                            return Err("invalid distance code".into());
                        }
                        let dist = DIST_BASE[dcode] as usize
                            + r.read_bits(DIST_EXTRA[dcode] as u32)? as usize;
                        if dist > out.len() {
                            return Err("distance before start of output".into());
                        }
                        // Overlapping copies are the RLE idiom — copy
                        // byte-by-byte, never memcpy.
                        let start = out.len() - dist;
                        for k in 0..len {
                            let b = out[start + k];
                            out.push(b);
                        }
                    }
                    _ => return Err("invalid literal/length symbol".into()),
                }
            },
            2 => return Err("dynamic-Huffman blocks unsupported (foreign stream)".into()),
            _ => return Err("invalid block type".into()),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

// ---------------------------------------------------------------------------
// Base64 (standard alphabet, RFC 4648, with padding)
// ---------------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode bytes as standard base64 with padding.
pub(crate) fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
        out.push(B64[(n >> 18) as usize & 63] as char);
        out.push(B64[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decode standard base64 (padding required for the final group).
///
/// # Errors
///
/// Fails on characters outside the alphabet or a malformed length.
pub(crate) fn base64_decode(text: &str) -> Result<Vec<u8>, String> {
    fn val(c: u8) -> Result<u32, String> {
        match c {
            b'A'..=b'Z' => Ok((c - b'A') as u32),
            b'a'..=b'z' => Ok((c - b'a' + 26) as u32),
            b'0'..=b'9' => Ok((c - b'0' + 52) as u32),
            b'+' => Ok(62),
            b'/' => Ok(63),
            _ => Err(format!("invalid base64 character `{}`", c as char)),
        }
    }
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err("base64 length not a multiple of 4".into());
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for group in bytes.chunks(4) {
        let pad = group.iter().filter(|&&c| c == b'=').count();
        if pad > 2 || group[..4 - pad].contains(&b'=') {
            return Err("misplaced base64 padding".into());
        }
        let mut n = 0u32;
        for &c in &group[..4 - pad] {
            n = (n << 6) | val(c)?;
        }
        n <<= 6 * pad as u32;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let packed = deflate(data);
        let unpacked = inflate(&packed).expect("inflate");
        assert_eq!(unpacked, data, "round trip of {} bytes", data.len());
    }

    #[test]
    fn empty_input_is_the_canonical_fixed_block() {
        // BFINAL=1, BTYPE=fixed, EOB — the classic `03 00` stream.
        assert_eq!(deflate(b""), vec![0x03, 0x00]);
        assert_eq!(inflate(&[0x03, 0x00]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn round_trips() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        round_trip(b"Hello Hello Hello Hello, deflate!");
        round_trip("{\"version\":2,\"points\":[1,2,3]}".repeat(500).as_bytes());
        let all: Vec<u8> = (0u16..256).map(|b| b as u8).collect();
        round_trip(&all);
    }

    #[test]
    fn long_repetitive_input_spans_the_window() {
        let mut data = Vec::new();
        for i in 0..20_000u32 {
            data.extend_from_slice(format!("row,{},{}\n", i, i % 7).as_bytes());
        }
        let packed = deflate(&data);
        assert!(
            packed.len() * 2 < data.len(),
            "repetitive text must compress well ({} -> {})",
            data.len(),
            packed.len()
        );
        assert_eq!(inflate(&packed).unwrap(), data);
    }

    #[test]
    fn incompressible_input_falls_back_to_stored_blocks() {
        // xorshift noise: fixed-Huffman would expand it; the stored
        // fallback must keep overhead to the per-block headers.
        let mut x = 0x2545F491_4F6CDD1Du64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let packed = deflate(&data);
        assert!(packed.len() <= stored_size(data.len()));
        assert_eq!(inflate(&packed).unwrap(), data);
    }

    #[test]
    fn deterministic_output() {
        let data = "campaign checkpoint ".repeat(1000);
        assert_eq!(deflate(data.as_bytes()), deflate(data.as_bytes()));
    }

    #[test]
    fn inflate_rejects_corruption() {
        assert!(inflate(&[]).is_err());
        assert!(inflate(&[0x05, 0x00]).is_err(), "dynamic blocks rejected");
        let mut packed = deflate(b"hello hello hello hello");
        packed.truncate(packed.len() - 2);
        assert!(inflate(&packed).is_err(), "truncation detected");
        // Stored block with a broken NLEN complement.
        assert!(inflate(&[0x01, 0x02, 0x00, 0x00, 0x00, b'a', b'b']).is_err());
    }

    #[test]
    fn base64_known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"M"), "TQ==");
        assert_eq!(base64_encode(b"Ma"), "TWE=");
        assert_eq!(base64_encode(b"Man"), "TWFu");
        assert_eq!(base64_decode("TWFu").unwrap(), b"Man");
        assert_eq!(base64_decode("TWE=").unwrap(), b"Ma");
        assert_eq!(base64_decode("TQ==").unwrap(), b"M");
        assert!(base64_decode("TWF").is_err());
        assert!(base64_decode("T=Fu").is_err());
        assert!(base64_decode("TW!u").is_err());
    }

    #[test]
    fn base64_round_trips_binary() {
        let data: Vec<u8> = (0u16..256).map(|b| b as u8).collect();
        for end in [0, 1, 2, 3, 255, 256] {
            let enc = base64_encode(&data[..end]);
            assert_eq!(base64_decode(&enc).unwrap(), &data[..end]);
        }
    }
}
