//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the page and
//! header checksum of the store format.
//!
//! Hand-rolled because the workspace vendors no checksum crate; the IEEE
//! variant is the one every external tool (`cksum -o3`, zlib, Python
//! `binascii.crc32`) reproduces, so store files can be audited without
//! this code.
//!
//! [`Crc32::update`] is *slice-by-16*: sixteen `const`-built 256-entry
//! tables (16 KiB) fold a 16-byte block per step, where table `k` is the
//! CRC of a byte followed by `k` zero bytes, so the sixteen lookups of a
//! block are independent and XOR together. The ragged tail goes through
//! table 0 one byte at a time. The result is the same polynomial
//! arithmetic as the classic bytewise loop, bit for bit (proptested
//! against it below), in safe Rust and without CPU-specific code paths.

/// Bytes folded per slice-by-16 step.
const BLOCK: usize = 16;

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
                (crc >> 1) ^ 0xEDB8_8320
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
        let t = &TABLES;
        let mut state = self.state;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for b in &mut blocks {
            let lo = state ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            state = t[15][(lo & 0xFF) as usize]
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
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
        }
        self.state = state;
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
}
