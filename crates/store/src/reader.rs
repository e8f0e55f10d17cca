//! The two read paths: whole-grid restore and bounded-memory slot
//! streaming.
//!
//! [`FleetStoreReader::open`] validates the header, locates the footer
//! from end of file and cross-checks the page index before any payload
//! is touched — a truncated or bit-flipped file fails typed at open (or
//! at the first read of the damaged page), never with a panic.

use crate::crc32::crc32;
use crate::error::{Result, StoreError};
use crate::format::{
    decode_footer_tail, Header, PageEntry, Section, FOOTER_TAIL_LEN, HEADER_LEN, PAGE_ENTRY_LEN,
};
use crate::meta::{StoreMeta, StoreStats};
use chaff_markov::{CellGrid, CellId, TrajectoryArena};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// A fully restored fleet: what `chaff_sim`'s batch pipeline would have
/// produced in memory, plus the persisted offset tables and stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredFleet {
    /// The anonymized observed population, slot-major — bit-for-bit the
    /// grid that was appended.
    pub observed: CellGrid,
    /// Ground-truth user trajectories, trajectory-major.
    pub user_cells: TrajectoryArena,
    /// Shard boundary prefix table of the originating observation log.
    pub shard_starts: Vec<usize>,
    /// Post-shuffle observed index of each user's real service.
    pub user_observed_indices: Vec<usize>,
    /// Aggregate fleet statistics recorded at finish.
    pub stats: StoreStats,
}

/// Opens and reads store files; see the crate docs for the format.
#[derive(Debug)]
pub struct FleetStoreReader {
    file: File,
    pages: Vec<PageEntry>,
    /// Indices into `pages` for each data section, sorted by
    /// `first_row` (the order rows must be replayed in).
    observed_order: Vec<usize>,
    users_order: Vec<usize>,
    meta: StoreMeta,
    stats: StoreStats,
}

impl FleetStoreReader {
    /// Opens `path`, validating header, footer index and the offsets
    /// section (the data pages themselves are checksummed lazily as
    /// they are read).
    ///
    /// # Errors
    ///
    /// Every corruption mode maps to a typed [`StoreError`]: foreign
    /// files ([`BadMagic`](StoreError::BadMagic)), other format
    /// versions ([`UnsupportedVersion`](StoreError::UnsupportedVersion)),
    /// interrupted writes ([`Truncated`](StoreError::Truncated)),
    /// damaged indices ([`FooterCorrupt`](StoreError::FooterCorrupt))
    /// and damaged offset pages
    /// ([`PageChecksum`](StoreError::PageChecksum) naming the page).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < (HEADER_LEN + FOOTER_TAIL_LEN) as u64 {
            return Err(StoreError::Truncated {
                context: "file shorter than header + footer",
            });
        }
        let mut header_bytes = [0u8; HEADER_LEN];
        file.read_exact(&mut header_bytes)?;
        let header = Header::decode(&header_bytes)?;

        let mut tail = [0u8; FOOTER_TAIL_LEN];
        file.seek(SeekFrom::Start(file_len - FOOTER_TAIL_LEN as u64))?;
        file.read_exact(&mut tail)?;
        let (num_entries, index_crc, index_len) = decode_footer_tail(&tail)?;
        let index_start = file_len
            .checked_sub((FOOTER_TAIL_LEN + index_len) as u64)
            .filter(|&s| s >= HEADER_LEN as u64)
            .ok_or(StoreError::Truncated {
                context: "footer index extends before the header",
            })?;
        let mut index_bytes = vec![0u8; index_len];
        file.seek(SeekFrom::Start(index_start))?;
        file.read_exact(&mut index_bytes)?;
        let computed = crc32(&index_bytes);
        if computed != index_crc {
            return Err(StoreError::FooterCorrupt {
                reason: format!(
                    "index checksum mismatch (stored {index_crc:#010x}, computed {computed:#010x})"
                ),
            });
        }
        let mut pages = Vec::with_capacity(num_entries);
        for (i, chunk) in index_bytes.chunks_exact(PAGE_ENTRY_LEN).enumerate() {
            let entry = PageEntry::decode(chunk.try_into().expect("exact chunk"), i)?;
            let end =
                entry
                    .offset
                    .checked_add(entry.len)
                    .ok_or_else(|| StoreError::FooterCorrupt {
                        reason: format!("page {i} offset + length overflows"),
                    })?;
            if entry.offset < HEADER_LEN as u64 || end > index_start {
                return Err(StoreError::Truncated {
                    context: "page payload extends past the footer",
                });
            }
            pages.push(entry);
        }

        let observed_order = ordered_coverage(
            &pages,
            Section::Observed,
            header.num_services as usize * 4,
            header.horizon,
        )?;
        let users_order = ordered_coverage(
            &pages,
            Section::Users,
            header.num_users as usize * 4,
            header.horizon,
        )?;

        let (shard_starts, user_observed_indices, stats) =
            read_offsets(&mut file, &pages, &header)?;
        let meta = StoreMeta {
            num_services: header.num_services as usize,
            num_users: header.num_users as usize,
            horizon: header.horizon as usize,
            shard_starts,
            user_observed_indices,
        };
        meta.validate()?;
        Ok(FleetStoreReader {
            file,
            pages,
            observed_order,
            users_order,
            meta,
            stats,
        })
    }

    /// The fleet shape and offset tables recorded in the store.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Aggregate fleet statistics recorded at finish.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Observed trajectories per slot.
    pub fn num_services(&self) -> usize {
        self.meta.num_services
    }

    /// Ground-truth users.
    pub fn num_users(&self) -> usize {
        self.meta.num_users
    }

    /// Slots in the store.
    pub fn horizon(&self) -> usize {
        self.meta.horizon
    }

    /// Restores the whole fleet into memory, bit-for-bit equal to the
    /// arenas that were streamed in.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::PageChecksum`] (naming the page) when a
    /// payload was damaged on disk, [`StoreError::Truncated`] when it
    /// ends early, and [`StoreError::Io`] on read failures.
    pub fn load(&mut self) -> Result<StoredFleet> {
        let (num_services, num_users, horizon) = (
            self.meta.num_services,
            self.meta.num_users,
            self.meta.horizon,
        );
        let mut observed = CellGrid::new(num_services);
        let mut buf = Vec::new();
        let mut cells = Vec::new();
        for &page_no in &self.observed_order {
            let entry = self.pages[page_no];
            read_page(&mut self.file, &entry, page_no, &mut buf)?;
            decode_cells(&buf, &mut cells);
            for row in cells
                .chunks_exact(num_services.max(1))
                .take(entry.num_rows as usize)
            {
                observed.push_row(row).map_err(|e| StoreError::Layout {
                    reason: format!("observed row rejected: {e}"),
                })?;
            }
        }
        let mut user_cells = TrajectoryArena::new(num_users, horizon);
        for &page_no in &self.users_order {
            let entry = self.pages[page_no];
            read_page(&mut self.file, &entry, page_no, &mut buf)?;
            decode_cells(&buf, &mut cells);
            // `ordered_coverage` pinned each page inside the horizon with
            // exactly `num_rows × num_users` cells.
            let first = entry.first_row as usize;
            user_cells.copy_slots_from(first..first + entry.num_rows as usize, &cells);
        }
        Ok(StoredFleet {
            observed,
            user_cells,
            shard_starts: self.meta.shard_starts.clone(),
            user_observed_indices: self.meta.user_observed_indices.clone(),
            stats: self.stats,
        })
    }

    /// A bounded-memory iterator over the observed slot rows, in slot
    /// order: one page buffer
    /// (`max(row_bytes, TARGET_PAGE_PAYLOAD)` bytes) is resident at a
    /// time, so an `N = 10⁷` population streams through detection
    /// without ever materializing the grid.
    pub fn stream_slots(&mut self) -> SlotStream<'_> {
        SlotStream {
            file: &mut self.file,
            pages: &self.pages,
            order: &self.observed_order,
            next_page: 0,
            num_services: self.meta.num_services,
            horizon: self.meta.horizon,
            emitted: 0,
            buf: Vec::new(),
            cells: Vec::new(),
            rows_in_buf: 0,
            row_cursor: 0,
        }
    }
}

/// Chunked-read iterator over observed slot rows (see
/// [`FleetStoreReader::stream_slots`]). Also a
/// [`chaff_core::detector::SlotRowSource`], so it plugs straight into
/// the unified
/// [`detect_prefixes`](chaff_core::detector::BatchPrefixDetector::detect_prefixes)
/// entry as [`DetectObservations::Paged`](chaff_core::detector::DetectObservations).
#[derive(Debug)]
pub struct SlotStream<'a> {
    file: &'a mut File,
    pages: &'a [PageEntry],
    order: &'a [usize],
    next_page: usize,
    num_services: usize,
    horizon: usize,
    emitted: usize,
    buf: Vec<u8>,
    cells: Vec<CellId>,
    rows_in_buf: usize,
    row_cursor: usize,
}

impl SlotStream<'_> {
    /// Observed trajectories per row.
    pub fn num_trajectories(&self) -> usize {
        self.num_services
    }

    /// Total rows the stream will yield.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Rows yielded so far.
    pub fn rows_emitted(&self) -> usize {
        self.emitted
    }

    /// The next slot row, or `None` after the last slot. Each page is
    /// checksum-verified as it is paged in.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::PageChecksum`] naming the damaged page,
    /// [`StoreError::Truncated`] on short reads, and [`StoreError::Io`]
    /// on other read failures.
    pub fn next_row(&mut self) -> Result<Option<&[CellId]>> {
        if self.row_cursor >= self.rows_in_buf {
            if self.next_page >= self.order.len() {
                return Ok(None);
            }
            let page_no = self.order[self.next_page];
            let entry = self.pages[page_no];
            read_page(self.file, &entry, page_no, &mut self.buf)?;
            decode_cells(&self.buf, &mut self.cells);
            self.rows_in_buf = entry.num_rows as usize;
            self.row_cursor = 0;
            self.next_page += 1;
        }
        let start = self.row_cursor * self.num_services;
        self.row_cursor += 1;
        self.emitted += 1;
        Ok(Some(&self.cells[start..start + self.num_services]))
    }
}

impl chaff_core::detector::SlotRowSource for SlotStream<'_> {
    fn num_trajectories(&self) -> usize {
        self.num_services
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn next_row(&mut self) -> chaff_core::Result<Option<&[CellId]>> {
        let slot = self.emitted;
        SlotStream::next_row(self).map_err(|e| chaff_core::CoreError::RowSource {
            slot,
            reason: e.to_string(),
        })
    }
}

/// Seeks to and reads one page payload, verifying its checksum.
fn read_page(file: &mut File, entry: &PageEntry, page: usize, buf: &mut Vec<u8>) -> Result<()> {
    buf.resize(entry.len as usize, 0);
    file.seek(SeekFrom::Start(entry.offset))?;
    file.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated {
                context: "page payload ends before its recorded length",
            }
        } else {
            StoreError::Io(e)
        }
    })?;
    let computed = crc32(buf);
    if computed != entry.crc {
        return Err(StoreError::PageChecksum {
            page,
            stored: entry.crc,
            computed,
        });
    }
    Ok(())
}

/// Decodes a page payload into cells (little-endian `u32` each; every
/// `u32` is a valid [`CellId`], so this cannot fail — integrity is the
/// checksum's job).
fn decode_cells(bytes: &[u8], out: &mut Vec<CellId>) {
    out.clear();
    out.reserve(bytes.len() / 4);
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|c| CellId::new(u32::from_le_bytes(c.try_into().expect("4-byte chunk")) as usize)),
    );
}

/// Validates that `section`'s pages tile `0..horizon` without gaps or
/// overlap, that each page holds at least one row (the writer never
/// emits an empty data page, and the slot stream advances a row per
/// call) and that each page's length matches its row count; returns the
/// page indices in row order.
fn ordered_coverage(
    pages: &[PageEntry],
    section: Section,
    row_bytes: usize,
    horizon: u64,
) -> Result<Vec<usize>> {
    let mut order: Vec<usize> = (0..pages.len())
        .filter(|&i| pages[i].section == section)
        .collect();
    order.sort_by_key(|&i| pages[i].first_row);
    let mut next_row = 0u64;
    for &i in &order {
        let e = &pages[i];
        if e.first_row != next_row {
            return Err(StoreError::Layout {
                reason: format!(
                    "page {i} starts at row {} but row {next_row} is next ({section:?})",
                    e.first_row
                ),
            });
        }
        if e.num_rows == 0 {
            return Err(StoreError::FooterCorrupt {
                reason: format!("page {i} holds no rows ({section:?})"),
            });
        }
        if e.num_rows.checked_mul(row_bytes as u64) != Some(e.len) {
            return Err(StoreError::FooterCorrupt {
                reason: format!(
                    "page {i} length {} disagrees with {} rows of {row_bytes} bytes",
                    e.len, e.num_rows
                ),
            });
        }
        next_row = next_row
            .checked_add(e.num_rows)
            .ok_or_else(|| StoreError::FooterCorrupt {
                reason: format!("page {i} row count overflows"),
            })?;
    }
    if next_row != horizon {
        return Err(StoreError::Incomplete {
            expected: horizon as usize,
            found: next_row as usize,
        });
    }
    Ok(order)
}

/// Reads and parses the offsets section.
fn read_offsets(
    file: &mut File,
    pages: &[PageEntry],
    header: &Header,
) -> Result<(Vec<usize>, Vec<usize>, StoreStats)> {
    let mut order: Vec<usize> = (0..pages.len())
        .filter(|&i| pages[i].section == Section::Offsets)
        .collect();
    order.sort_by_key(|&i| pages[i].first_row);
    let mut blob = Vec::new();
    let mut buf = Vec::new();
    for &page_no in &order {
        read_page(file, &pages[page_no], page_no, &mut buf)?;
        blob.extend_from_slice(&buf);
    }
    let mut cursor = 0usize;
    let shard_starts = take_table(&blob, &mut cursor)?;
    let user_observed_indices = take_table(&blob, &mut cursor)?;
    let stats = StoreStats {
        migrations: take_u64(&blob, &mut cursor)? as usize,
        spills: take_u64(&blob, &mut cursor)? as usize,
        user_slots: take_u64(&blob, &mut cursor)? as usize,
        chaff_services: take_u64(&blob, &mut cursor)? as usize,
    };
    if shard_starts.last() != Some(&(header.num_services as usize)) {
        return Err(StoreError::Layout {
            reason: "shard starts disagree with the header's service count".into(),
        });
    }
    Ok((shard_starts, user_observed_indices, stats))
}

/// Reads one little-endian `u64` out of the offsets blob.
fn take_u64(blob: &[u8], cursor: &mut usize) -> Result<u64> {
    let end = *cursor + 8;
    if end > blob.len() {
        return Err(StoreError::Layout {
            reason: "offsets section ends mid-field".into(),
        });
    }
    let v = u64::from_le_bytes(blob[*cursor..end].try_into().expect("8 bytes"));
    *cursor = end;
    Ok(v)
}

/// Reads one length-prefixed `u64` table out of the offsets blob.
fn take_table(blob: &[u8], cursor: &mut usize) -> Result<Vec<usize>> {
    let count = take_u64(blob, cursor)?;
    if count > ((blob.len() - *cursor) / 8) as u64 {
        return Err(StoreError::Layout {
            reason: format!("offsets table claims {count} entries past the section end"),
        });
    }
    (0..count)
        .map(|_| Ok(take_u64(blob, cursor)? as usize))
        .collect()
}
