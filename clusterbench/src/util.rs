//! Order statistics, resident-memory readout and the scratch directory.

use std::path::{Path, PathBuf};
use std::time::Duration;

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median (mean of the two middle values for an even count); 0 for
/// an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Each position's median across `series`. Position `i` of every
/// series is the same request, sent once per pass, so a slow stretch
/// that covers part of one pass moves only the positions it covered in
/// that pass, and their medians shrug it off. Series shorter than the
/// longest (a pass that lost requests) are left out.
pub fn per_position_medians(series: &[&[f64]]) -> Vec<f64> {
    let n = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let full: Vec<&[f64]> = series.iter().copied().filter(|s| s.len() == n).collect();
    (0..n)
        .map(|i| median(&full.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .collect()
}

/// Mean of the middle half of `xs`: the lowest and the highest quarter
/// are dropped (nothing below four values); 0 for an empty sample.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile `q` in (0, 1]; 0 for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands memory freed by earlier passes back to the kernel, then
/// restarts the peak-resident-memory count at the resident set that
/// is left (Linux `clear_refs`), so [`peak_rss_mb`] covers only what
/// follows and not what an earlier pass left in the allocator.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim takes a plain integer and only releases
    // pages the allocator already holds free; it has no preconditions.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A per-run scratch directory under the checkout, removed on drop.
pub struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl WorkDir {
    /// Creates `<base>/<tag>-<pid>`, empty.
    pub fn create(base: &Path, tag: &str) -> std::io::Result<WorkDir> {
        let root = base.join(format!("{tag}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, not yet existing path for one store.
    pub fn fresh(&self, what: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{what}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // One slow pass moves no position's median; the short series is
        // left out.
        let a = [1.0, 2.0, 3.0];
        let slow = [10.0, 20.0, 30.0];
        assert_eq!(per_position_medians(&[&a, &slow, &a, &[5.0]]), a);
        assert!(per_position_medians(&[]).is_empty());
        assert_eq!(interquartile_mean(&[100.0, 2.0, 1.0, 4.0]), 3.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0]), 1.5);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }
}
