//! The machine a result came from, the process's memory high-water mark,
//! and unique scratch files for the store workload.

use std::fs::{self, OpenOptions};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Directory (relative to the working directory) for trace files and
/// store scratch files.
pub const OUT_DIR: &str = ".bench_out";

/// `VmHWM` of this process in MiB, read from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Size in bytes of the unified cache at `level` seen by CPU 0, or of
/// the last-level cache when `level` is `None`.
fn cache_bytes(level: Option<u32>) -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in fs::read_dir(base).ok()? {
        let dir = entry.ok()?.path();
        let read = |f: &str| fs::read_to_string(dir.join(f)).ok();
        let (Some(lvl), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let lvl: u32 = lvl.trim().parse().ok()?;
        let size = parse_size(size.trim())?;
        let wanted = level.is_none_or(|l| l == lvl);
        if wanted && best.is_none_or(|(b, _)| lvl > b) {
            best = Some((lvl, size));
        }
    }
    best.map(|(_, size)| size)
}

/// Parses sysfs cache sizes such as `1024K` or `32M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

/// The commit of the working tree, read from `.git` without running
/// git; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(reference) {
        return sha.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One-line JSON stamp of the machine and fixture shape a result came
/// from. `shape` holds the workload's own sizes (table and grid bytes).
pub fn stamp_json(workload: &str, seed: u64, shape: &[(&str, u64)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let mut fields = vec![
        format!("\"workload\":\"{workload}\""),
        format!("\"seed\":{seed}"),
        format!("\"git_commit\":\"{}\"", git_commit()),
        format!("\"nproc\":{nproc}"),
        format!("\"pool_threads\":{}", chaff_core::pool::global().threads()),
        format!("\"lane_width\":{}", chaff_markov::LANE_WIDTH),
        format!("\"l2_bytes\":{}", opt(cache_bytes(Some(2)))),
        format!("\"llc_bytes\":{}", opt(cache_bytes(None))),
    ];
    fields.extend(shape.iter().map(|(k, v)| format!("\"{k}\":{v}")));
    format!("{{\"stamp\":{{{}}}}}", fields.join(","))
}

static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A store file path that no other run or op shares: the name carries a
/// per-process counter and is claimed with `create_new`, so two
/// processes (or two ops) can never write the same file. The file is
/// removed on drop.
#[derive(Debug)]
pub struct ScratchFile {
    path: PathBuf,
}

impl ScratchFile {
    pub fn new(stem: &str) -> std::io::Result<Self> {
        let dir = Path::new(OUT_DIR).join("scratch");
        fs::create_dir_all(&dir)?;
        loop {
            let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("{stem}-{}-{n}.store", std::process::id()));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(_) => return Ok(ScratchFile { path }),
                Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn scratch_files_are_unique_and_removed_on_drop() {
        let a = ScratchFile::new("unit").unwrap();
        let b = ScratchFile::new("unit").unwrap();
        assert_ne!(a.path(), b.path());
        let path = a.path().to_path_buf();
        assert!(path.exists());
        drop(a);
        assert!(!path.exists());
    }
}
