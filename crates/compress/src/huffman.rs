//! Length-limited canonical Huffman coding.
//!
//! Code lengths are computed with the package-merge algorithm (optimal
//! under a maximum-length constraint), then turned into canonical codes
//! exactly as DEFLATE does, so only the length vector needs to be
//! transmitted.

use xfm_types::{Error, Result};

use crate::bitio::{BitReader, BitWriter};

/// Maximum code length used by xdeflate (same as DEFLATE).
pub const MAX_CODE_LEN: u32 = 15;

/// Reusable buffers for [`code_lengths_into`].
///
/// Package-merge items are `(weight, node)` pairs; a node id below the
/// active-symbol count is a leaf (an index into `active_syms`), anything
/// larger points into `arena`, whose entries hold the two child node
/// ids of a package. This replaces the per-item symbol `Vec`s (and
/// their clones on every merge) with integer ids into one arena.
#[derive(Debug, Clone, Default)]
pub struct HuffScratch {
    active_syms: Vec<u32>,
    arena: Vec<(u32, u32)>,
    original: Vec<(u64, u32)>,
    list: Vec<(u64, u32)>,
    merged: Vec<(u64, u32)>,
    stack: Vec<u32>,
}

impl HuffScratch {
    /// Creates empty buffers (first use sizes them).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes optimal length-limited code lengths for `freqs`.
///
/// Symbols with zero frequency get length 0 (absent). A single-symbol
/// alphabet gets length 1.
///
/// Thin wrapper over [`code_lengths_into`] with fresh buffers.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if more than `2^max_len` symbols have
/// non-zero frequency (no prefix code of that length exists).
///
/// # Examples
///
/// ```
/// use xfm_compress::huffman::code_lengths;
///
/// let lens = code_lengths(&[10, 1, 1, 0], 15)?;
/// assert_eq!(lens[3], 0);            // absent symbol
/// assert!(lens[0] <= lens[1]);       // frequent symbol gets short code
/// # Ok::<(), xfm_types::Error>(())
/// ```
pub fn code_lengths(freqs: &[u64], max_len: u32) -> Result<Vec<u32>> {
    let mut lens = Vec::new();
    code_lengths_into(freqs, max_len, &mut HuffScratch::new(), &mut lens)?;
    Ok(lens)
}

/// [`code_lengths`] into caller-provided buffers: `lens` is cleared and
/// refilled, `scratch` holds the package-merge working set. Steady-state
/// calls perform no heap allocation.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if more than `2^max_len` symbols have
/// non-zero frequency.
pub fn code_lengths_into(
    freqs: &[u64],
    max_len: u32,
    scratch: &mut HuffScratch,
    lens: &mut Vec<u32>,
) -> Result<()> {
    lens.clear();
    lens.resize(freqs.len(), 0);
    scratch.active_syms.clear();
    scratch
        .active_syms
        .extend((0..freqs.len()).filter(|&i| freqs[i] > 0).map(|i| i as u32));
    let n = scratch.active_syms.len();
    match n {
        0 => return Ok(()),
        1 => {
            lens[scratch.active_syms[0] as usize] = 1;
            return Ok(());
        }
        _ => {}
    }
    if n > (1usize << max_len.min(31)) {
        return Err(Error::InvalidConfig(format!(
            "{n} symbols cannot fit codes of at most {max_len} bits"
        )));
    }

    // Leaves sorted by (weight, symbol order) — identical ordering to a
    // stable sort by weight over the ascending symbol list.
    scratch.original.clear();
    scratch.original.extend(
        scratch
            .active_syms
            .iter()
            .enumerate()
            .map(|(leaf, &sym)| (freqs[sym as usize], leaf as u32)),
    );
    scratch
        .original
        .sort_unstable_by_key(|&(w, leaf)| (w, leaf));

    scratch.arena.clear();
    scratch.list.clear();
    scratch.list.extend_from_slice(&scratch.original);
    for _ in 1..max_len {
        // Package: pair consecutive items into arena nodes.
        scratch.merged.clear();
        let packages = scratch.list.len() / 2;
        let (mut a, mut b) = (0usize, 0usize);
        // Merge the (sorted) leaves with the (sorted) packages; ties
        // take the leaf first, matching the reference implementation.
        while a < scratch.original.len() || b < packages {
            let package_weight = (b < packages).then(|| {
                let (w0, _) = scratch.list[2 * b];
                let (w1, _) = scratch.list[2 * b + 1];
                w0 + w1
            });
            let take_original = match (scratch.original.get(a), package_weight) {
                (Some(&(w, _)), Some(pw)) => w <= pw,
                (Some(_), None) => true,
                _ => false,
            };
            if take_original {
                scratch.merged.push(scratch.original[a]);
                a += 1;
            } else {
                let (w0, n0) = scratch.list[2 * b];
                let (w1, n1) = scratch.list[2 * b + 1];
                let id = (n + scratch.arena.len()) as u32;
                scratch.arena.push((n0, n1));
                scratch.merged.push((w0 + w1, id));
                b += 1;
            }
        }
        std::mem::swap(&mut scratch.list, &mut scratch.merged);
    }

    // The first 2n-2 items define the code: each leaf reachable from an
    // item's node adds one to its symbol's code length.
    for &(_, node) in scratch.list.iter().take(2 * n - 2) {
        scratch.stack.clear();
        scratch.stack.push(node);
        while let Some(id) = scratch.stack.pop() {
            if (id as usize) < n {
                lens[scratch.active_syms[id as usize] as usize] += 1;
            } else {
                let (l, r) = scratch.arena[id as usize - n];
                scratch.stack.push(l);
                scratch.stack.push(r);
            }
        }
    }
    debug_assert!(lens.iter().all(|&l| l <= max_len));
    Ok(())
}

/// A canonical Huffman encoder: symbol -> (code, length).
///
/// Codes are stored bit-reversed so a symbol is emitted with a single
/// [`BitWriter::write_bits`] call: writing the reversed code LSB-first
/// produces exactly the MSB-first bit order of
/// [`BitWriter::write_code_msb`].
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    /// `(reversed_code, length)` per symbol.
    codes: Vec<(u32, u32)>,
}

impl Encoder {
    /// Builds the canonical codes for the given length vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the lengths violate the Kraft
    /// inequality (no prefix code exists) or exceed [`MAX_CODE_LEN`].
    pub fn from_lengths(lens: &[u32]) -> Result<Self> {
        let mut enc = Self::default();
        enc.rebuild(lens)?;
        Ok(enc)
    }

    /// Rebuilds the code table in place, reusing its storage. A scratch-
    /// held encoder performs no heap allocation once warmed up.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on invalid lengths (Kraft violation).
    pub fn rebuild(&mut self, lens: &[u32]) -> Result<()> {
        validate_lengths(lens)?;
        let mut bl_count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in lens {
            if l > 0 {
                bl_count[l as usize] += 1;
            }
        }
        let mut next_code = [0u32; MAX_CODE_LEN as usize + 2];
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN {
            code = (code + bl_count[(len - 1) as usize]) << 1;
            next_code[len as usize] = code;
        }
        self.codes.clear();
        self.codes.extend(lens.iter().map(|&l| {
            if l == 0 {
                (0, 0)
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                (c.reverse_bits() >> (32 - l), l)
            }
        }));
        Ok(())
    }

    /// Writes the code for `symbol` to `w`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` has no code (length 0) or is out of range.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: usize) {
        let (rev, len) = self.codes[symbol];
        assert!(len > 0, "symbol {symbol} has no code");
        w.write_bits(rev, len);
    }

    /// Returns the code length for `symbol` (0 if absent).
    #[must_use]
    pub fn length(&self, symbol: usize) -> u32 {
        self.codes[symbol].1
    }
}

/// Width of the [`Decoder`] primary lookup table in bits.
const PRIMARY_BITS: u32 = 10;

/// A canonical Huffman decoder.
///
/// Decoding peeks `PRIMARY_BITS` bits and resolves codes up to that
/// length with one table load; longer (rare) codes fall back to the
/// bit-at-a-time first-code arithmetic.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    /// `first_code[len]`, `offset[len]` into `symbols`, `count[len]`.
    first_code: Vec<u32>,
    offset: Vec<u32>,
    count: Vec<u32>,
    symbols: Vec<u16>,
    max_len: u32,
    /// Primary table indexed by the next `PRIMARY_BITS` stream bits
    /// (LSB-first); entries pack `symbol << 4 | code_len`, 0 = miss.
    primary: Vec<u16>,
}

impl Decoder {
    /// Builds a decoder from the canonical length vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on invalid lengths (Kraft violation).
    pub fn from_lengths(lens: &[u32]) -> Result<Self> {
        let mut dec = Self::default();
        dec.rebuild(lens)?;
        Ok(dec)
    }

    /// Rebuilds the decode tables in place, reusing their storage.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on invalid lengths (Kraft violation).
    pub fn rebuild(&mut self, lens: &[u32]) -> Result<()> {
        validate_lengths(lens)?;
        let max = lens.iter().copied().max().unwrap_or(0);
        self.count.clear();
        self.count.resize((max + 1) as usize, 0);
        for &l in lens {
            if l > 0 {
                self.count[l as usize] += 1;
            }
        }
        self.first_code.clear();
        self.first_code.resize((max + 1) as usize, 0);
        self.offset.clear();
        self.offset.resize((max + 1) as usize, 0);
        let mut code = 0u32;
        let mut sym_base = 0u32;
        for len in 1..=max as usize {
            code = (code + self.count[len - 1]) << 1;
            self.first_code[len] = code;
            self.offset[len] = sym_base;
            sym_base += self.count[len];
        }
        // Symbols sorted by (length, symbol index) — canonical order.
        self.symbols.clear();
        for len in 1..=max {
            for (i, &l) in lens.iter().enumerate() {
                if l == len {
                    self.symbols.push(i as u16);
                }
            }
        }
        self.max_len = max;

        // Primary table: for every code of length ≤ PRIMARY_BITS, fill
        // all slots whose low `len` bits equal the bit-reversed code
        // (the stream delivers the code MSB-first, so the first stream
        // bit lands in bit 0 of the peeked index). Stale entries from a
        // previous rebuild are cleared so they fall back to the exact
        // (error-checked) path rather than decode wrongly.
        self.primary.clear();
        self.primary.resize(1 << PRIMARY_BITS, 0);
        if lens.len() <= (u16::MAX >> 4) as usize {
            for len in 1..=max.min(PRIMARY_BITS) {
                let code = self.first_code[len as usize];
                let base = self.offset[len as usize];
                for rel in 0..self.count[len as usize] {
                    let sym = self.symbols[(base + rel) as usize];
                    let rev = (code + rel).reverse_bits() >> (32 - len);
                    let entry = (sym << 4) | len as u16;
                    let mut slot = rev;
                    while (slot as usize) < self.primary.len() {
                        self.primary[slot as usize] = entry;
                        slot += 1 << len;
                    }
                }
            }
        }
        Ok(())
    }

    /// Decodes one symbol from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the bits do not form a valid code or
    /// the stream ends early.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        // Fast path: one table load resolves codes ≤ PRIMARY_BITS long.
        // peek_bits pads past end-of-stream with zeros; consume() still
        // errors if the matched length exceeds the real stream.
        let idx = r.peek_bits(PRIMARY_BITS) as usize;
        let entry = self.primary.get(idx).copied().unwrap_or(0);
        if entry != 0 {
            r.consume(u32::from(entry & 0xf))?;
            return Ok(entry >> 4);
        }
        self.decode_slow(r)
    }

    /// Bit-at-a-time fallback for codes longer than [`PRIMARY_BITS`]
    /// (or invalid bit patterns).
    fn decode_slow(&self, r: &mut BitReader<'_>) -> Result<u16> {
        let mut code = 0u32;
        for len in 1..=self.max_len as usize {
            code = (code << 1) | r.read_bit()?;
            let rel = code.wrapping_sub(self.first_code[len]);
            if rel < self.count[len] {
                return Ok(self.symbols[(self.offset[len] + rel) as usize]);
            }
        }
        Err(Error::Corrupt("invalid Huffman code".into()))
    }
}

fn validate_lengths(lens: &[u32]) -> Result<()> {
    let mut kraft = 0u64;
    for &l in lens {
        if l > MAX_CODE_LEN {
            return Err(Error::Corrupt(format!("code length {l} exceeds limit")));
        }
        if l > 0 {
            kraft += 1u64 << (MAX_CODE_LEN - l);
        }
    }
    // A single symbol of length 1 (kraft = 2^14) is allowed; otherwise the
    // code must not over-subscribe the tree.
    if kraft > 1u64 << MAX_CODE_LEN {
        return Err(Error::Corrupt(
            "code lengths violate Kraft inequality".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(freqs: &[u64], message: &[u16]) {
        let lens = code_lengths(freqs, MAX_CODE_LEN).unwrap();
        let enc = Encoder::from_lengths(&lens).unwrap();
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut w = BitWriter::new();
        for &s in message {
            enc.encode(&mut w, s as usize);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in message {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn skewed_distribution_round_trips() {
        let freqs = [1000, 500, 100, 10, 1, 1, 1, 1];
        let msg: Vec<u16> = (0..8).cycle().take(100).collect();
        round_trip(&freqs, &msg);
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let lens = code_lengths(&[100, 50, 10, 1], MAX_CODE_LEN).unwrap();
        assert!(lens[0] <= lens[1]);
        assert!(lens[1] <= lens[2]);
        assert!(lens[2] <= lens[3]);
    }

    #[test]
    fn kraft_equality_holds_for_optimal_codes() {
        let freqs = [7, 6, 5, 4, 3, 2, 1];
        let lens = code_lengths(&freqs, MAX_CODE_LEN).unwrap();
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft {kraft}");
    }

    #[test]
    fn length_limit_is_respected() {
        // Fibonacci-like weights force deep trees in unconstrained Huffman.
        let freqs: Vec<u64> = {
            let mut f = vec![1u64, 1];
            for i in 2..30 {
                let next = f[i - 1] + f[i - 2];
                f.push(next);
            }
            f
        };
        let lens = code_lengths(&freqs, 8).unwrap();
        assert!(lens.iter().all(|&l| l <= 8 && l > 0));
        let kraft: f64 = lens.iter().map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!(kraft <= 1.0 + 1e-12);
    }

    #[test]
    fn single_symbol_alphabet() {
        let lens = code_lengths(&[0, 42, 0], MAX_CODE_LEN).unwrap();
        assert_eq!(lens, vec![0, 1, 0]);
        round_trip(&[0, 42, 0], &[1, 1, 1]);
    }

    #[test]
    fn empty_alphabet() {
        let lens = code_lengths(&[0, 0], MAX_CODE_LEN).unwrap();
        assert_eq!(lens, vec![0, 0]);
    }

    #[test]
    fn too_many_symbols_for_limit_rejected() {
        let freqs = vec![1u64; 16];
        assert!(code_lengths(&freqs, 3).is_err());
        assert!(code_lengths(&freqs, 4).is_ok());
    }

    #[test]
    fn decoder_rejects_garbage() {
        // Lengths for a 2-symbol code; a truncated stream must error.
        let lens = vec![1, 1];
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut r = BitReader::new(&[]);
        assert!(dec.decode(&mut r).is_err());
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three symbols of length 1 violate Kraft.
        assert!(Encoder::from_lengths(&[1, 1, 1]).is_err());
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn full_byte_alphabet_round_trips() {
        let freqs: Vec<u64> = (0..256).map(|i| (i % 7 + 1) as u64 * 3).collect();
        let msg: Vec<u16> = (0..256).collect();
        round_trip(&freqs, &msg);
    }

    #[test]
    fn reused_scratch_reproduces_fresh_lengths() {
        let cases: Vec<Vec<u64>> = vec![
            vec![1000, 500, 100, 10, 1, 1, 1, 1],
            vec![7, 6, 5, 4, 3, 2, 1],
            (0..256).map(|i| (i % 7 + 1) as u64 * 3).collect(),
            vec![0, 42, 0],
            vec![0, 0],
            vec![5, 5, 5, 5, 5, 5, 5, 5], // all-tied weights
        ];
        let mut scratch = HuffScratch::new();
        let mut lens = Vec::new();
        for freqs in &cases {
            code_lengths_into(freqs, MAX_CODE_LEN, &mut scratch, &mut lens).unwrap();
            assert_eq!(lens, code_lengths(freqs, MAX_CODE_LEN).unwrap());
        }
    }

    #[test]
    fn rebuilt_coders_match_fresh_ones() {
        let mut enc = Encoder::default();
        let mut dec = Decoder::default();
        for lens in [vec![1u32, 2, 2], vec![2, 2, 2, 2], vec![1, 1]] {
            enc.rebuild(&lens).unwrap();
            dec.rebuild(&lens).unwrap();
            let fresh = Encoder::from_lengths(&lens).unwrap();
            let mut w1 = BitWriter::new();
            let mut w2 = BitWriter::new();
            for s in 0..lens.len() {
                enc.encode(&mut w1, s);
                fresh.encode(&mut w2, s);
            }
            let bytes = w1.finish();
            assert_eq!(bytes, w2.finish());
            let mut r = BitReader::new(&bytes);
            for s in 0..lens.len() {
                assert_eq!(dec.decode(&mut r).unwrap(), s as u16);
            }
        }
    }
}
