//! Helpers shared by the store's integration batteries.

use chaff_store::format::{decode_footer_tail, PageEntry, FOOTER_TAIL_LEN, PAGE_ENTRY_LEN};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A temp path unique per call: tests run on parallel threads of one
/// process, so the pid alone would let one test delete another's file.
pub fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let call = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "chaff_store_test_{}_{call}_{tag}",
        std::process::id()
    ))
}

/// Decodes a valid store's footer index: the byte offset where the index
/// starts, and its entries in file order.
#[allow(dead_code)] // the round-trip battery never decodes the footer
pub fn footer_index(bytes: &[u8]) -> (usize, Vec<PageEntry>) {
    let tail: &[u8; FOOTER_TAIL_LEN] = bytes[bytes.len() - FOOTER_TAIL_LEN..]
        .try_into()
        .expect("tail");
    let (num_entries, _, index_len) = decode_footer_tail(tail).expect("valid tail");
    let index_start = bytes.len() - FOOTER_TAIL_LEN - index_len;
    let entries: Vec<PageEntry> = bytes[index_start..index_start + index_len]
        .chunks_exact(PAGE_ENTRY_LEN)
        .enumerate()
        .map(|(i, c)| PageEntry::decode(c.try_into().expect("entry"), i).expect("valid entry"))
        .collect();
    assert_eq!(entries.len(), num_entries);
    (index_start, entries)
}
