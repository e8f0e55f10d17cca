//! The detection checksum that pins the persistent fleet store's
//! golden detections.
//!
//! [`detection_checksum`] lives at this path because two callers import
//! it from `chaff_eval::experiments::fleet_persist`: this crate's
//! `fleet_persist` integration test, which pins the `N = 10⁴` golden
//! value, and fleetbench's `store_replay` workload. Those two and the
//! store's mutation battery hold the write → kill → resume → verify
//! loop.

use chaff_core::detector::Detection;

/// Order-sensitive FNV-1a checksum of a detection sequence: folds every
/// slot's tie-set length and indices.
/// Two detection runs agree bit-for-bit iff their checksums agree
/// (up to hash collision), which lets a `N = 10⁶` equality check
/// travel as one `u64` — the golden value pinned in tier-1.
pub fn detection_checksum(detections: &[Detection]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for detection in detections {
        mix(detection.tie_set().len() as u64);
        for &index in detection.tie_set() {
            mix(index as u64);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_checksums_separate_different_runs() {
        let a = [Detection::new(vec![0]), Detection::new(vec![1, 2])];
        let b = [Detection::new(vec![0]), Detection::new(vec![1, 3])];
        let c = [Detection::new(vec![0]), Detection::new(vec![1, 2])];
        assert_ne!(detection_checksum(&a), detection_checksum(&b));
        assert_eq!(detection_checksum(&a), detection_checksum(&c));
        assert_ne!(detection_checksum(&a), detection_checksum(&a[..1]));
    }
}
