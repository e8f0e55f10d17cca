//! On-disk format v1: constants, header, page index and footer codecs.
//!
//! All integers are **little-endian**. The file is laid out as
//!
//! ```text
//! ┌──────────────────────── header (64 bytes, CRC-protected) ─────────┐
//! │ magic "CHAFFST\0" · version u32 · cell_width u32 · services u64   │
//! │ users u64 · horizon u64 · reserved[20] · header_crc u32           │
//! ├──────────────────────── pages (4096-aligned) ─────────────────────┤
//! │ page 0 payload … page k payload   (whole slot rows; zero padding  │
//! │ between pages; every payload checksummed via the footer index)    │
//! ├──────────────────────── footer ───────────────────────────────────┤
//! │ index: k × 40-byte entries (section, first_row, num_rows,         │
//! │        offset, len, crc)                                          │
//! │ tail:  num_entries u64 · index_crc u32 · index_len u64 ·          │
//! │        end magic "CHAFFEND"                                       │
//! └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The footer is located from end of file (read the 28-byte tail, then
//! seek back `index_len`), so a write interrupted anywhere before the
//! final tail bytes is detected as [`StoreError::Truncated`] on open —
//! no partial store ever parses as a complete one.

use crate::crc32::crc32;
use crate::error::{Result, StoreError};

/// Leading file magic.
pub const MAGIC: [u8; 8] = *b"CHAFFST\0";
/// Trailing file magic — the last eight bytes of every complete store.
pub const END_MAGIC: [u8; 8] = *b"CHAFFEND";
/// Format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;
/// Serialized cell width in bytes (`CellId` as little-endian `u32`).
pub const CELL_WIDTH: u32 = 4;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Pages start on multiples of this file offset.
pub const PAGE_ALIGN: u64 = 4096;
/// Target page payload: rows are batched until the next row would push
/// the payload past this size (a single row larger than the target gets
/// a page of its own). Bounds the read-side buffer of
/// [`stream_slots`](crate::FleetStoreReader::stream_slots) to
/// `max(TARGET_PAGE_PAYLOAD, row_bytes)`.
pub const TARGET_PAGE_PAYLOAD: usize = 1 << 20;
/// Size of one serialized footer-index entry.
pub const PAGE_ENTRY_LEN: usize = 40;
/// Size of the fixed footer tail.
pub const FOOTER_TAIL_LEN: usize = 28;

/// Data sections a page can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Slot-major rows of the anonymized observed grid
    /// (`num_services` cells per row).
    Observed,
    /// Slot-major rows of the user ground truth (`num_users` cells per
    /// row); transposed into a `TrajectoryArena` on load.
    Users,
    /// The offsets blob written at finish: shard starts, user observed
    /// indices and fleet stats.
    Offsets,
}

impl Section {
    pub(crate) fn code(self) -> u32 {
        match self {
            Section::Observed => 1,
            Section::Users => 2,
            Section::Offsets => 3,
        }
    }

    pub(crate) fn from_code(code: u32) -> Option<Self> {
        match code {
            1 => Some(Section::Observed),
            2 => Some(Section::Users),
            3 => Some(Section::Offsets),
            _ => None,
        }
    }
}

/// The decoded fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Observed trajectories per slot row.
    pub num_services: u64,
    /// Ground-truth user trajectories per slot row.
    pub num_users: u64,
    /// Declared number of slots.
    pub horizon: u64,
}

impl Header {
    /// Serializes the header, computing its trailing CRC.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&CELL_WIDTH.to_le_bytes());
        out[16..24].copy_from_slice(&self.num_services.to_le_bytes());
        out[24..32].copy_from_slice(&self.num_users.to_le_bytes());
        out[32..40].copy_from_slice(&self.horizon.to_le_bytes());
        // bytes 40..60 reserved, zero in v1.
        let crc = crc32(&out[..HEADER_LEN - 4]);
        out[HEADER_LEN - 4..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes and validates a header: magic, version and cell width
    /// first (so a foreign or future file reports *what* it is rather
    /// than a checksum mismatch), then the CRC over the header bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`],
    /// [`StoreError::WrongCellWidth`] or [`StoreError::HeaderChecksum`].
    pub fn decode(bytes: &[u8; HEADER_LEN]) -> Result<Self> {
        let found = field(bytes, 0);
        if found != MAGIC {
            return Err(StoreError::BadMagic { found });
        }
        let version = u32::from_le_bytes(field(bytes, 8));
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let cell_width = u32::from_le_bytes(field(bytes, 12));
        if cell_width != CELL_WIDTH {
            return Err(StoreError::WrongCellWidth {
                found: cell_width,
                expected: CELL_WIDTH,
            });
        }
        let stored = u32::from_le_bytes(field(bytes, HEADER_LEN - 4));
        let computed = crc32(&bytes[..HEADER_LEN - 4]);
        if stored != computed {
            return Err(StoreError::HeaderChecksum { stored, computed });
        }
        Ok(Header {
            num_services: u64::from_le_bytes(field(bytes, 16)),
            num_users: u64::from_le_bytes(field(bytes, 24)),
            horizon: u64::from_le_bytes(field(bytes, 32)),
        })
    }
}

/// One footer-index entry describing a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// Which section the page belongs to.
    pub section: Section,
    /// First slot row in the page (byte-chunk index for
    /// [`Section::Offsets`]).
    pub first_row: u64,
    /// Whole rows in the page (0 for [`Section::Offsets`]).
    pub num_rows: u64,
    /// Absolute file offset of the payload (4096-aligned).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC32 of the payload.
    pub crc: u32,
}

impl PageEntry {
    /// Serializes the entry.
    pub fn encode(&self) -> [u8; PAGE_ENTRY_LEN] {
        let mut out = [0u8; PAGE_ENTRY_LEN];
        out[0..4].copy_from_slice(&self.section.code().to_le_bytes());
        out[4..12].copy_from_slice(&self.first_row.to_le_bytes());
        out[12..20].copy_from_slice(&self.num_rows.to_le_bytes());
        out[20..28].copy_from_slice(&self.offset.to_le_bytes());
        out[28..36].copy_from_slice(&self.len.to_le_bytes());
        out[36..40].copy_from_slice(&self.crc.to_le_bytes());
        out
    }

    /// Decodes one entry (`index` names it in errors).
    ///
    /// # Errors
    ///
    /// [`StoreError::FooterCorrupt`] on an unknown section code.
    pub fn decode(bytes: &[u8; PAGE_ENTRY_LEN], index: usize) -> Result<Self> {
        let code = u32::from_le_bytes(field(bytes, 0));
        let section = Section::from_code(code).ok_or_else(|| StoreError::FooterCorrupt {
            reason: format!("page {index} names unknown section {code}"),
        })?;
        Ok(PageEntry {
            section,
            first_row: u64::from_le_bytes(field(bytes, 4)),
            num_rows: u64::from_le_bytes(field(bytes, 12)),
            offset: u64::from_le_bytes(field(bytes, 20)),
            len: u64::from_le_bytes(field(bytes, 28)),
            crc: u32::from_le_bytes(field(bytes, 36)),
        })
    }
}

/// Serializes the footer: the index entries followed by the fixed tail.
pub fn encode_footer(entries: &[PageEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * PAGE_ENTRY_LEN + FOOTER_TAIL_LEN);
    for e in entries {
        out.extend_from_slice(&e.encode());
    }
    let index_crc = crc32(&out);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    out.extend_from_slice(&index_crc.to_le_bytes());
    out.extend_from_slice(&((entries.len() * PAGE_ENTRY_LEN) as u64).to_le_bytes());
    out.extend_from_slice(&END_MAGIC);
    out
}

/// Decodes the fixed footer tail. Returns `(num_entries, index_crc,
/// index_len)`.
///
/// # Errors
///
/// [`StoreError::Truncated`] when the end magic is absent (the write
/// never completed) and [`StoreError::FooterCorrupt`] when the recorded
/// lengths disagree.
pub fn decode_footer_tail(bytes: &[u8; FOOTER_TAIL_LEN]) -> Result<(usize, u32, usize)> {
    if bytes[20..28] != END_MAGIC {
        return Err(StoreError::Truncated {
            context: "missing end-of-store magic (interrupted write?)",
        });
    }
    let num_entries = u64::from_le_bytes(field(bytes, 0));
    let index_crc = u32::from_le_bytes(field(bytes, 8));
    let index_len = u64::from_le_bytes(field(bytes, 12));
    let expected_len = num_entries
        .checked_mul(PAGE_ENTRY_LEN as u64)
        .filter(|&l| l == index_len)
        .ok_or_else(|| StoreError::FooterCorrupt {
            reason: format!("{num_entries} entries disagree with index length {index_len}"),
        })?;
    usize::try_from(expected_len)
        .ok()
        .zip(usize::try_from(num_entries).ok())
        .map(|(len, n)| (n, index_crc, len))
        .ok_or_else(|| StoreError::FooterCorrupt {
            reason: format!("index length {index_len} exceeds the address space"),
        })
}

/// The `N` bytes at `at` of a fixed-size record. Every field lies inside
/// its record, so the zero fallback never decodes.
fn field<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    bytes
        .get(at..)
        .and_then(|b| b.first_chunk())
        .copied()
        .unwrap_or([0; N])
}

/// The next page-aligned offset at or after `pos`.
pub fn align_up(pos: u64) -> u64 {
    pos.div_ceil(PAGE_ALIGN) * PAGE_ALIGN
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header {
            num_services: 30,
            num_users: 10,
            horizon: 12,
        }
    }

    #[test]
    fn header_round_trips() {
        let bytes = header().encode();
        assert_eq!(Header::decode(&bytes).unwrap(), header());
    }

    #[test]
    fn header_rejects_foreign_magic_before_anything_else() {
        let mut bytes = header().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn header_reports_future_versions_without_a_checksum_excuse() {
        let mut bytes = header().encode();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        // Deliberately stale CRC: the version verdict must win.
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::UnsupportedVersion {
                found: 2,
                expected: 1
            })
        ));
    }

    #[test]
    fn header_reports_wrong_cell_width() {
        let mut bytes = header().encode();
        bytes[12..16].copy_from_slice(&8u32.to_le_bytes());
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::WrongCellWidth {
                found: 8,
                expected: 4
            })
        ));
    }

    #[test]
    fn header_detects_flipped_payload_bytes() {
        let mut bytes = header().encode();
        bytes[17] ^= 0x40; // inside num_services
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::HeaderChecksum { .. })
        ));
    }

    #[test]
    fn page_entries_round_trip() {
        let entry = PageEntry {
            section: Section::Users,
            first_row: 3,
            num_rows: 9,
            offset: 8192,
            len: 360,
            crc: 0xDEAD_BEEF,
        };
        assert_eq!(PageEntry::decode(&entry.encode(), 0).unwrap(), entry);
    }

    #[test]
    fn footer_round_trips_and_detects_truncation() {
        let entries = vec![
            PageEntry {
                section: Section::Observed,
                first_row: 0,
                num_rows: 4,
                offset: 4096,
                len: 480,
                crc: 7,
            },
            PageEntry {
                section: Section::Offsets,
                first_row: 0,
                num_rows: 0,
                offset: 8192,
                len: 64,
                crc: 9,
            },
        ];
        let footer = encode_footer(&entries);
        let tail: [u8; FOOTER_TAIL_LEN] =
            footer[footer.len() - FOOTER_TAIL_LEN..].try_into().unwrap();
        let (n, crc, len) = decode_footer_tail(&tail).unwrap();
        assert_eq!(n, 2);
        assert_eq!(len, 2 * PAGE_ENTRY_LEN);
        assert_eq!(crc, crc32(&footer[..len]));
        // Chop one byte: the tail window shifts and the magic is gone.
        let chopped: [u8; FOOTER_TAIL_LEN] = footer
            [footer.len() - FOOTER_TAIL_LEN - 1..footer.len() - 1]
            .try_into()
            .unwrap();
        assert!(matches!(
            decode_footer_tail(&chopped),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn alignment_rounds_up_to_page_boundaries() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 4096);
        assert_eq!(align_up(4096), 4096);
        assert_eq!(align_up(4097), 8192);
    }
}
