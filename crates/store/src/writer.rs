//! The streamed append path: slot rows in, pages out.
//!
//! [`FleetStoreWriter`] never buffers more than one partial page per
//! section, so a `N = 10⁷` population streams to disk in
//! `O(max(row_bytes, TARGET_PAGE_PAYLOAD))` memory — the full grid
//! never exists in the writing process.

use crate::crc32::crc32;
use crate::error::{Result, StoreError};
use crate::format::{align_up, encode_footer, Header, PageEntry, Section, TARGET_PAGE_PAYLOAD};
use crate::meta::{StoreMeta, StoreStats};
use chaff_markov::CellId;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// One section's in-flight page: whole rows batched until the payload
/// reaches the target size.
#[derive(Debug)]
struct PageBuffer {
    section: Section,
    rows_per_page: usize,
    first_row: u64,
    num_rows: u64,
    bytes: Vec<u8>,
}

impl PageBuffer {
    fn new(section: Section, cells_per_row: usize) -> Self {
        let row_bytes = cells_per_row * 4;
        let rows_per_page = (TARGET_PAGE_PAYLOAD / row_bytes.max(1)).max(1);
        PageBuffer {
            section,
            rows_per_page,
            first_row: 0,
            num_rows: 0,
            bytes: Vec::with_capacity(rows_per_page.min(4096) * row_bytes),
        }
    }

    fn push_row(&mut self, row: &[CellId]) {
        let start = self.bytes.len();
        self.bytes.resize(start + row.len() * 4, 0);
        for (out, &cell) in self.bytes[start..].chunks_exact_mut(4).zip(row) {
            out.copy_from_slice(&(cell.index() as u32).to_le_bytes());
        }
        self.num_rows += 1;
    }

    fn is_full(&self) -> bool {
        self.num_rows as usize >= self.rows_per_page
    }
}

/// Streams a fleet to disk slot by slot; see the
/// [format module](crate::format) for the byte layout.
///
/// The writer is *transactional at the file level*: the footer that
/// makes the file a complete store is only written by
/// [`finish`](FleetStoreWriter::finish), so a crash (or a deliberate
/// kill) mid-write leaves a file that
/// [`FleetStoreReader::open`](crate::FleetStoreReader::open) rejects as
/// [`StoreError::Truncated`] rather than silently loading a partial
/// fleet.
#[derive(Debug)]
pub struct FleetStoreWriter {
    file: File,
    pos: u64,
    meta: StoreMeta,
    index: Vec<PageEntry>,
    observed: PageBuffer,
    users: PageBuffer,
    rows_written: usize,
}

impl FleetStoreWriter {
    /// Creates (truncating) the store file at `path` and writes the
    /// fixed header.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Layout`] when `meta` is internally
    /// inconsistent (see [`StoreMeta::validate`]) and [`StoreError::Io`]
    /// on file-system failures.
    pub fn create(path: impl AsRef<Path>, meta: StoreMeta) -> Result<Self> {
        meta.validate()?;
        let mut file = File::create(path)?;
        let header = Header {
            num_services: meta.num_services as u64,
            num_users: meta.num_users as u64,
            horizon: meta.horizon as u64,
        };
        file.write_all(&header.encode())?;
        Ok(FleetStoreWriter {
            file,
            pos: crate::format::HEADER_LEN as u64,
            observed: PageBuffer::new(Section::Observed, meta.num_services),
            users: PageBuffer::new(Section::Users, meta.num_users),
            meta,
            index: Vec::new(),
            rows_written: 0,
        })
    }

    /// The metadata this store was created with.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Slots appended so far.
    pub fn rows_written(&self) -> usize {
        self.rows_written
    }

    /// Appends one slot: the anonymized observed row (every service's
    /// cell, post-shuffle order) and the ground-truth user row (every
    /// user's true cell).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::RowArity`] when either row does not match
    /// the population declared at [`create`](FleetStoreWriter::create),
    /// [`StoreError::Layout`] when the declared horizon is already full,
    /// and [`StoreError::Io`] on write failures. Arity errors leave the
    /// writer untouched — the offending slot can be re-sent.
    pub fn append_slot(&mut self, observed_row: &[CellId], user_row: &[CellId]) -> Result<()> {
        if observed_row.len() != self.meta.num_services {
            return Err(StoreError::RowArity {
                section: "observed",
                expected: self.meta.num_services,
                found: observed_row.len(),
            });
        }
        if user_row.len() != self.meta.num_users {
            return Err(StoreError::RowArity {
                section: "users",
                expected: self.meta.num_users,
                found: user_row.len(),
            });
        }
        if self.rows_written >= self.meta.horizon {
            return Err(StoreError::Layout {
                reason: format!(
                    "slot {} past the declared horizon {}",
                    self.rows_written, self.meta.horizon
                ),
            });
        }
        self.observed.push_row(observed_row);
        self.users.push_row(user_row);
        self.rows_written += 1;
        if self.observed.is_full() {
            flush_page(
                &mut self.file,
                &mut self.pos,
                &mut self.index,
                &mut self.observed,
            )?;
        }
        if self.users.is_full() {
            flush_page(
                &mut self.file,
                &mut self.pos,
                &mut self.index,
                &mut self.users,
            )?;
        }
        Ok(())
    }

    /// Seals the store: flushes partial pages, writes the offsets
    /// section (shard starts, user indices, `stats`) and the footer
    /// index, then syncs the file. Only after this returns is the file
    /// a complete store.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Incomplete`] when fewer slots than the
    /// declared horizon were appended, and [`StoreError::Io`] on write
    /// failures.
    pub fn finish(mut self, stats: StoreStats) -> Result<()> {
        if self.rows_written != self.meta.horizon {
            return Err(StoreError::Incomplete {
                expected: self.meta.horizon,
                found: self.rows_written,
            });
        }
        flush_page(
            &mut self.file,
            &mut self.pos,
            &mut self.index,
            &mut self.observed,
        )?;
        flush_page(
            &mut self.file,
            &mut self.pos,
            &mut self.index,
            &mut self.users,
        )?;
        let blob = encode_offsets(&self.meta, stats);
        for (chunk_index, chunk) in blob.chunks(TARGET_PAGE_PAYLOAD).enumerate() {
            write_aligned(&mut self.file, &mut self.pos)?;
            self.index.push(PageEntry {
                section: Section::Offsets,
                first_row: chunk_index as u64,
                num_rows: 0,
                offset: self.pos,
                len: chunk.len() as u64,
                crc: crc32(chunk),
            });
            self.file.write_all(chunk)?;
            self.pos += chunk.len() as u64;
        }
        self.file.write_all(&encode_footer(&self.index))?;
        self.file.sync_all()?;
        Ok(())
    }
}

/// Pads the file to the next page boundary with zeros.
fn write_aligned(file: &mut File, pos: &mut u64) -> Result<()> {
    let target = align_up(*pos);
    const ZEROS: [u8; 4096] = [0; 4096];
    let mut gap = (target - *pos) as usize;
    while gap > 0 {
        let n = gap.min(ZEROS.len());
        file.write_all(&ZEROS[..n])?;
        gap -= n;
    }
    *pos = target;
    Ok(())
}

/// Flushes `buffer` (if non-empty) as one aligned, checksummed page.
fn flush_page(
    file: &mut File,
    pos: &mut u64,
    index: &mut Vec<PageEntry>,
    buffer: &mut PageBuffer,
) -> Result<()> {
    if buffer.num_rows == 0 {
        return Ok(());
    }
    write_aligned(file, pos)?;
    index.push(PageEntry {
        section: buffer.section,
        first_row: buffer.first_row,
        num_rows: buffer.num_rows,
        offset: *pos,
        len: buffer.bytes.len() as u64,
        crc: crc32(&buffer.bytes),
    });
    file.write_all(&buffer.bytes)?;
    *pos += buffer.bytes.len() as u64;
    buffer.first_row += buffer.num_rows;
    buffer.num_rows = 0;
    buffer.bytes.clear();
    Ok(())
}

/// Serializes the offsets section: length-prefixed `u64` tables, then
/// the four stats counters.
fn encode_offsets(meta: &StoreMeta, stats: StoreStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        16 + 8 * (meta.shard_starts.len() + meta.user_observed_indices.len()) + 32,
    );
    let push_table = |table: &[usize], out: &mut Vec<u8>| {
        out.extend_from_slice(&(table.len() as u64).to_le_bytes());
        for &v in table {
            out.extend_from_slice(&(v as u64).to_le_bytes());
        }
    };
    push_table(&meta.shard_starts, &mut out);
    push_table(&meta.user_observed_indices, &mut out);
    for v in [
        stats.migrations,
        stats.spills,
        stats.user_slots,
        stats.chaff_services,
    ] {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
    out
}
