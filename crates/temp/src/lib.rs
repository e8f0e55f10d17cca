//! `chaff-temp` — the one temp-path helper of the workspace's tests and
//! benches. Tests run on parallel threads of one process, so a path
//! keyed by the pid alone lets one test clobber another's file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A path under [`std::env::temp_dir`] that is unique per call (pid and
/// a counter). Creates nothing; on `Drop` it removes the file or
/// directory tree there, so a failing test leaks nothing.
#[derive(Debug)]
pub struct TempPath(PathBuf);

impl TempPath {
    /// A fresh path whose file name ends in `tag`.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let call = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("chaff_{}_{call}_{tag}", std::process::id());
        TempPath(std::env::temp_dir().join(name))
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    /// Errors are ignored: the path may never have been created
    /// (`NotFound`), and a leftover file must not panic during unwinding.
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0).or_else(|_| std::fs::remove_dir_all(&self.0));
    }
}
