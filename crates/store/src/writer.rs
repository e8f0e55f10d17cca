//! The streamed append path: slot rows in, pages out.
//!
//! [`FleetStoreWriter`] never buffers more than one partial page per
//! section, so a `N = 10⁷` population streams to disk in
//! `O(max(row_bytes, TARGET_PAGE_PAYLOAD))` memory — the full grid
//! never exists in the writing process.

use crate::crc32::crc32;
use crate::error::{Result, StoreError};
use crate::format::{
    align_up, encode_footer, Header, PageEntry, Section, PAGE_ALIGN, TARGET_PAGE_PAYLOAD,
};
use crate::meta::{StoreMeta, StoreStats};
use chaff_markov::CellId;
use std::fs::File;
use std::io::{Seek, Write};
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

    /// Writes the buffered rows, if any, as one page.
    fn flush(&mut self, sink: &mut (impl Write + Seek), index: &mut Vec<PageEntry>) -> Result<()> {
        if self.num_rows > 0 {
            let (section, first_row, num_rows) = (self.section, self.first_row, self.num_rows);
            write_page(sink, index, section, first_row, num_rows, &self.bytes)?;
            self.first_row += self.num_rows;
            self.num_rows = 0;
            self.bytes.clear();
        }
        Ok(())
    }
}

/// Streams a fleet slot by slot into a file or any other `Write + Seek`
/// sink; see the [format module](crate::format) for the byte layout.
///
/// The writer is *transactional at the file level*: the footer that
/// makes the file a complete store is only written by
/// [`finish`](FleetStoreWriter::finish), so a crash (or a deliberate
/// kill) mid-write leaves a file that
/// [`FleetStoreReader::open`](crate::FleetStoreReader::open) rejects as
/// [`StoreError::Truncated`] rather than silently loading a partial
/// fleet.
#[derive(Debug)]
pub struct FleetStoreWriter<W = File> {
    sink: W,
    /// Run by `finish`: `File::sync_all` for `create`, else a no-op.
    sync: fn(&mut W) -> std::io::Result<()>,
    meta: StoreMeta,
    index: Vec<PageEntry>,
    observed: PageBuffer,
    users: PageBuffer,
    rows_written: usize,
}

impl FleetStoreWriter<File> {
    /// Creates (truncating) the store file at `path` and writes the
    /// fixed header; [`finish`](FleetStoreWriter::finish) syncs it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Layout`] when `meta` is internally
    /// inconsistent (see [`StoreMeta::validate`]) and [`StoreError::Io`]
    /// on file-system failures.
    pub fn create(path: impl AsRef<Path>, meta: StoreMeta) -> Result<Self> {
        meta.validate()?;
        let writer = Self::new(File::create(path)?, meta)?;
        Ok(FleetStoreWriter {
            sync: |file| file.sync_all(),
            ..writer
        })
    }
}

impl<W: Write + Seek> FleetStoreWriter<W> {
    /// Starts a store at the beginning of `sink` and writes the fixed
    /// header. The sink should be empty: bytes past the sealed store
    /// would hide its footer.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Layout`] when `meta` is internally
    /// inconsistent (see [`StoreMeta::validate`]) and [`StoreError::Io`]
    /// when the sink fails.
    pub fn new(mut sink: W, meta: StoreMeta) -> Result<Self> {
        meta.validate()?;
        let header = Header {
            num_services: meta.num_services as u64,
            num_users: meta.num_users as u64,
            horizon: meta.horizon as u64,
        };
        sink.rewind()?;
        sink.write_all(&header.encode())?;
        Ok(FleetStoreWriter {
            sink,
            sync: |_| Ok(()),
            observed: PageBuffer::new(Section::Observed, meta.num_services),
            users: PageBuffer::new(Section::Users, meta.num_users),
            meta,
            index: Vec::new(),
            rows_written: 0,
        })
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
        for buffer in [&mut self.observed, &mut self.users] {
            if buffer.is_full() {
                buffer.flush(&mut self.sink, &mut self.index)?;
            }
        }
        Ok(())
    }

    /// Seals the store: flushes partial pages, writes the offsets
    /// section (shard starts, user indices, `stats`) and the footer
    /// index, then syncs a file sink to disk. Only after this returns is
    /// the store complete. Returns the sink.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Incomplete`] when fewer slots than the
    /// declared horizon were appended, and [`StoreError::Io`] on write
    /// failures.
    pub fn finish(mut self, stats: StoreStats) -> Result<W> {
        if self.rows_written != self.meta.horizon {
            return Err(StoreError::Incomplete {
                expected: self.meta.horizon,
                found: self.rows_written,
            });
        }
        self.observed.flush(&mut self.sink, &mut self.index)?;
        self.users.flush(&mut self.sink, &mut self.index)?;
        let blob = encode_offsets(&self.meta, stats);
        for (chunk_index, chunk) in blob.chunks(TARGET_PAGE_PAYLOAD).enumerate() {
            let (sink, index) = (&mut self.sink, &mut self.index);
            write_page(sink, index, Section::Offsets, chunk_index as u64, 0, chunk)?;
        }
        self.sink.write_all(&encode_footer(&self.index))?;
        self.sink.flush()?;
        (self.sync)(&mut self.sink)?;
        Ok(self.sink)
    }
}

/// Pads `sink` with zeros to the next page boundary, writes `bytes`
/// there as one page and indexes it with its checksum.
fn write_page(
    sink: &mut (impl Write + Seek),
    index: &mut Vec<PageEntry>,
    section: Section,
    first_row: u64,
    num_rows: u64,
    bytes: &[u8],
) -> Result<()> {
    const ZEROS: [u8; PAGE_ALIGN as usize] = [0; PAGE_ALIGN as usize];
    let pos = sink.stream_position()?;
    let offset = align_up(pos);
    // The gap to the next boundary is shorter than one page.
    sink.write_all(&ZEROS[..(offset - pos) as usize])?;
    index.push(PageEntry {
        section,
        first_row,
        num_rows,
        offset,
        len: bytes.len() as u64,
        crc: crc32(bytes),
    });
    sink.write_all(bytes)?;
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
