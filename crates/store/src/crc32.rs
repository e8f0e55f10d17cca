//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the page and
//! header checksum of the store format.
//!
//! Hand-rolled because the workspace vendors no checksum crate; the IEEE
//! variant is the one every external tool (`cksum -o3`, zlib, Python
//! `binascii.crc32`) reproduces, so store files can be audited without
//! this code.
//!
//! [`Crc32::update`] is one path over sixteen `const`-built 256-entry
//! tables (16 KiB), where table `k` is the CRC of a byte followed by `k`
//! zero bytes. The input length picks how much of it runs:
//!
//! * **One chain** (short inputs): *slice-by-16* folds a 16-byte block
//!   per step with sixteen independent lookups XORed together; the
//!   ragged tail goes through table 0 one byte at a time.
//! * **Interleaved lanes** (from `MULTI_STREAM_MIN` bytes): the input is
//!   cut into `LANES` equal, 16-byte-aligned lanes and one loop folds a
//!   block of every lane per step. The lanes are independent dependency
//!   chains, so the core overlaps their lookups instead of waiting on
//!   one chain. Lane 0 starts from the running state, the others from 0,
//!   and the bytes past the last full lane block finish on one chain.
//! * **Pool split** (from two `SPLIT_PART_MIN` parts, when the pool has
//!   more than one thread): the input is cut into up to
//!   [`pool::global().threads()`](chaff_core::pool::WorkerPool::threads)
//!   contiguous parts, each folded by the lane kernel as one job on the
//!   shared worker pool.
//!
//! Lanes and parts are merged in order with the GF(2) shift operator
//! `x^(8·len) mod P`, which advances a state over `len` zero bytes and is
//! built from a `const` table of repeated squarings. CRC is linear over
//! GF(2), so `state(A‖B) = shift(state(A), |B|) ⊕ state₀(B)`, where
//! `state₀` starts from 0: every kernel and part count gives the classic
//! bytewise CRC bit for bit (proptested against it below), in safe Rust
//! and without CPU-specific code paths.

use chaff_core::pool::{self, WorkerPool};

/// Bytes folded per slice-by-16 step.
const BLOCK: usize = 16;

/// Independent chains the interleaved kernel folds side by side. Three
/// and four measured best on a 2-vCPU Xeon; five was slower.
const LANES: usize = 3;

/// Shortest input the interleaved kernel takes. Below it, building the
/// shift operator and merging the lanes costs more than the overlap wins.
const MULTI_STREAM_MIN: usize = 2048;

/// Smallest part one pool job folds. Only inputs of at least two parts
/// (256 KiB, page scale) are split, so headers, footers and index blocks
/// never pay for a pool scope.
const SPLIT_PART_MIN: usize = 128 * 1024;

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; BLOCK] = build_tables();

const fn build_tables() -> [[u32; 256]; BLOCK] {
    let mut tables = [[0u32; 256]; BLOCK];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < BLOCK {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// `SHIFTS[j]` is `x^(8·2^j) mod P`: the operator that advances a state
/// over `2^j` zero bytes. Each entry is the square of the one before, so
/// any `usize` length is a product of at most 64 entries.
static SHIFTS: [u32; usize::BITS as usize] = build_shifts();

const fn build_shifts() -> [u32; usize::BITS as usize] {
    let mut shifts = [0u32; usize::BITS as usize];
    // x^8; in the reflected order bit 31 is x^0 and bit 0 is x^31.
    shifts[0] = 1 << (31 - 8);
    let mut j = 1;
    while j < shifts.len() {
        shifts[j] = mul_mod(shifts[j - 1], shifts[j - 1]);
        j += 1;
    }
    shifts
}

/// `a · b mod P` over GF(2), both operands in the reflected order.
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        // b · x: one step toward x^31, reducing x^32 by P.
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// The shift operator `x^(8·len) mod P`; `len = 0` gives `x^0`, the
/// identity.
fn shift_operator(len: usize) -> u32 {
    let mut op = 1 << 31;
    let mut rest = len;
    for &square in &SHIFTS {
        if rest == 0 {
            break;
        }
        if rest & 1 != 0 {
            op = mul_mod(square, op);
        }
        rest >>= 1;
    }
    op
}

/// Merges two adjacent runs: the state after `A‖B` from the state after
/// `A` and the state `B` leaves when started from 0. The same identity
/// combines two finished checksums, since the all-ones seed and the final
/// inversion cancel.
fn combine(state_a: u32, state_b: u32, len_b: usize) -> u32 {
    mul_mod(shift_operator(len_b), state_a) ^ state_b
}

/// Folds one 16-byte block into `state` with sixteen independent lookups.
#[inline(always)]
fn fold_block(state: u32, b: &[u8]) -> u32 {
    let t = &TABLES;
    let lo = state ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    t[15][(lo & 0xFF) as usize]
        ^ t[14][((lo >> 8) & 0xFF) as usize]
        ^ t[13][((lo >> 16) & 0xFF) as usize]
        ^ t[12][(lo >> 24) as usize]
        ^ t[11][b[4] as usize]
        ^ t[10][b[5] as usize]
        ^ t[9][b[6] as usize]
        ^ t[8][b[7] as usize]
        ^ t[7][b[8] as usize]
        ^ t[6][b[9] as usize]
        ^ t[5][b[10] as usize]
        ^ t[4][b[11] as usize]
        ^ t[3][b[12] as usize]
        ^ t[2][b[13] as usize]
        ^ t[1][b[14] as usize]
        ^ t[0][b[15] as usize]
}

/// One slice-by-16 chain over `bytes`, the ragged tail bytewise.
fn fold_chain(mut state: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        state = fold_block(state, block);
    }
    for &b in blocks.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// The interleaved kernel: `LANES` equal block-aligned lanes folded in
/// one loop, merged with the shift operator, then the rest on one chain.
fn fold_lanes(state: u32, bytes: &[u8]) -> u32 {
    if bytes.len() < MULTI_STREAM_MIN {
        return fold_chain(state, bytes);
    }
    let lane_len = bytes.len() / (LANES * BLOCK) * BLOCK;
    let (body, rest) = bytes.split_at(lane_len * LANES);
    let lanes: [&[u8]; LANES] = std::array::from_fn(|l| &body[l * lane_len..][..lane_len]);
    let mut states = [0u32; LANES];
    states[0] = state;
    for at in (0..lane_len).step_by(BLOCK) {
        for (s, lane) in states.iter_mut().zip(&lanes) {
            *s = fold_block(*s, &lane[at..at + BLOCK]);
        }
    }
    let op = shift_operator(lane_len);
    let merged = states[1..]
        .iter()
        .fold(states[0], |acc, &s| mul_mod(op, acc) ^ s);
    fold_chain(merged, rest)
}

/// Splits `bytes` into at most `parts` (≥ 1) contiguous block-aligned
/// parts, folds them as jobs on `pool` (part 0 on the calling thread,
/// from `state`; the others from 0) and merges them in order.
fn fold_parts(state: u32, bytes: &[u8], parts: usize, pool: &WorkerPool) -> u32 {
    let part_len = bytes.len().div_ceil(parts).next_multiple_of(BLOCK);
    if part_len >= bytes.len() {
        return fold_lanes(state, bytes);
    }
    let (first, others) = bytes.split_at(part_len);
    let mut states = vec![0u32; others.len().div_ceil(part_len)];
    let head = pool.scope(|scope| {
        for (s, part) in states.iter_mut().zip(others.chunks(part_len)) {
            scope.spawn(move || *s = fold_lanes(0, part));
        }
        fold_lanes(state, first)
    });
    states
        .iter()
        .zip(others.chunks(part_len))
        .fold(head, |acc, (&s, part)| combine(acc, s, part.len()))
}

/// Incremental CRC32 state, for checksumming a page as it is buffered.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let parts = bytes.len() / SPLIT_PART_MIN;
        self.state = if parts > 1 {
            let pool = pool::global();
            fold_parts(self.state, bytes, parts.min(pool.threads()), pool)
        } else {
            fold_lanes(self.state, bytes)
        };
    }

    /// Finishes the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The classic one-byte-per-step loop: the oracle slice-by-16 must
    /// reproduce bit for bit.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        !state
    }

    /// SplitMix64-derived bytes, so large random buffers stay cheap.
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn matches_the_published_ieee_vectors() {
        // The canonical check value from the CRC catalogue.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_updates_equal_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut crc = Crc32::new();
        for chunk in data.chunks(7) {
            crc.update(chunk);
        }
        assert_eq!(crc.finalize(), crc32(&data));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0x5Au8; 4096];
        let base = crc32(&data);
        for byte in [0usize, 1000, 4095] {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "byte {byte} bit {bit}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every length around the block size: empty, tail-only, one
        /// block plus tails, several blocks.
        #[test]
        fn slice_by_16_equals_bytewise_on_short_inputs(
            data in proptest::collection::vec(0u8..=255, 0..=79),
        ) {
            prop_assert_eq!(crc32(&data), bytewise(&data));
        }

        #[test]
        fn slice_by_16_equals_bytewise_up_to_64_kib(seed in 0u64..u64::MAX, len in 0usize..=65_536) {
            let data = bytes(seed, len);
            prop_assert_eq!(crc32(&data), bytewise(&data));
        }

        /// Slices starting 1..15 bytes into a buffer, so blocks never
        /// line up with the allocation.
        #[test]
        fn misaligned_slices_equal_bytewise(
            seed in 0u64..u64::MAX,
            start in 1usize..16,
            len in 0usize..=4_096,
        ) {
            let buffer = bytes(seed, start + len);
            let slice = &buffer[start..];
            prop_assert_eq!(crc32(slice), bytewise(slice));
        }

        /// Incremental updates split at random points (each piece may
        /// leave a ragged tail) equal the one-shot bytewise checksum.
        #[test]
        fn random_splits_equal_bytewise(
            seed in 0u64..u64::MAX,
            len in 0usize..=8_192,
            cuts in proptest::collection::vec(0usize..=8_192, 0..6),
        ) {
            let data = bytes(seed, len);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                crc.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc.finalize(), bytewise(&data));
        }
    }

    #[test]
    fn shifting_by_zero_bytes_is_the_identity() {
        assert_eq!(shift_operator(0), 1 << 31);
        for state in [0, 1, 0x1234_5678, 0xFFFF_FFFF] {
            assert_eq!(mul_mod(shift_operator(0), state), state);
            assert_eq!(combine(state, 0, 0), state);
        }
    }

    #[test]
    fn shifting_equals_feeding_zero_bytes() {
        for len in [1usize, 2, 15, 16, 17, 1_000, 4_096, 100_003] {
            let zeros = vec![0u8; len];
            for state in [1, 0x1234_5678, 0xFFFF_FFFF] {
                assert_eq!(
                    mul_mod(shift_operator(len), state),
                    fold_chain(state, &zeros),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn combining_two_checksums_gives_the_checksum_of_the_concatenation() {
        let data = bytes(7, 10_000);
        for cut in [0, 1, 15, 16, 4_321, 9_999, 10_000] {
            let (a, b) = data.split_at(cut);
            assert_eq!(combine(crc32(a), crc32(b), b.len()), bytewise(&data));
            let state_a = fold_chain(0xFFFF_FFFF, a);
            let state_b = fold_chain(0, b);
            assert_eq!(!combine(state_a, state_b, b.len()), bytewise(&data));
        }
    }

    /// Every length at and around the kernel thresholds and the lane
    /// block, at three start offsets.
    #[test]
    fn threshold_lengths_equal_bytewise() {
        let buffer = bytes(11, 2 * SPLIT_PART_MIN + 2 * LANES * BLOCK + 16);
        let mut lens = Vec::new();
        for edge in [MULTI_STREAM_MIN, 2 * SPLIT_PART_MIN] {
            lens.extend(edge - LANES * BLOCK - 1..=edge + LANES * BLOCK + 1);
        }
        for start in [0, 1, 5] {
            for &len in &lens {
                let slice = &buffer[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "start {start} len {len}");
            }
        }
    }

    /// The split helper agrees with itself and the oracle for explicit
    /// part counts, including more parts than pool threads and more
    /// parts than blocks, so a 1-core host still covers the pool path.
    #[test]
    fn every_part_count_gives_the_same_checksum() {
        let buffer = bytes(13, (1 << 20) + 7);
        for len in [0, 1, 17, 100, 5_000, 65_536, 1 << 20] {
            let slice = &buffer[7..7 + len];
            let expected = bytewise(slice);
            for parts in [1, 2, 3, 7] {
                let state = fold_parts(0xFFFF_FFFF, slice, parts, pool::global());
                assert_eq!(!state, expected, "len {len} parts {parts}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Lengths up to 3 MiB cross the interleaved and split thresholds;
        /// starts 0..15 bytes into a buffer misalign every lane and part.
        #[test]
        fn long_misaligned_inputs_equal_bytewise(
            seed in 0u64..u64::MAX,
            start in 0usize..16,
            len in 0usize..=3 << 20,
        ) {
            let buffer = bytes(seed, start + len);
            let slice = &buffer[start..];
            prop_assert_eq!(crc32(slice), bytewise(slice));
        }

        /// `update` split at random offsets of a long input (each piece
        /// may take a different kernel) equals the one-shot value.
        #[test]
        fn long_random_splits_equal_one_shot(
            seed in 0u64..u64::MAX,
            len in 0usize..=3 << 20,
            cuts in proptest::collection::vec(0usize..=3 << 20, 0..6),
        ) {
            let data = bytes(seed, len);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                crc.update(&data[from..cut]);
                from = cut;
            }
            let one_shot = crc32(&data);
            prop_assert_eq!(crc.finalize(), one_shot);
            prop_assert_eq!(one_shot, bytewise(&data));
        }

        /// Explicit part counts over random lengths and offsets: the pool
        /// split is the oracle's checksum for every count.
        #[test]
        fn split_helper_equals_bytewise_for_every_part_count(
            seed in 0u64..u64::MAX,
            start in 0usize..16,
            len in 0usize..=600_000,
        ) {
            let buffer = bytes(seed, start + len);
            let slice = &buffer[start..];
            let expected = bytewise(slice);
            for parts in [1, 2, 3, 7] {
                let state = fold_parts(0xFFFF_FFFF, slice, parts, pool::global());
                prop_assert_eq!(!state, expected);
            }
        }
    }
}
