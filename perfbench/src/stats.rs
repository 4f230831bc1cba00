//! Order statistics and process memory readings.

/// Linear-interpolated quantile `q` in [0, 1] of `values` (0 when empty).
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free memory to the kernel, so the next job's
/// peak RSS counts what that job holds, as in a fresh CLI process, not
/// what earlier jobs left cached in the allocator.
pub(crate) fn trim_heap() {
    // SAFETY: glibc's `malloc_trim` takes a byte count, touches only the allocator's own free lists under its locks, and is safe to call from any thread at any time.
    unsafe { malloc_trim(0) }; // audit: allow(unsafe-scope) — std exposes no way to return freed heap memory to the kernel
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the peak read
/// later covers only what ran in between.
pub(crate) fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last reset, MB.
pub(crate) fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
