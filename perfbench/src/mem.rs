//! Peak resident memory of the system under test.
//!
//! The process also holds the benchmark's own inputs and expected
//! answers, so the process-wide peak would mostly measure the harness.
//! [`PeakRss::reset`] therefore returns freed heap to the operating
//! system and resets the kernel's high-water mark just before the system
//! is built; [`PeakRss::peak_mb`] reports how far the resident set rose
//! above the level at that reset.

use std::io::Write as _;

/// The resident set at the last reset of the high-water mark.
pub struct PeakRss {
    base_kb: f64,
}

impl PeakRss {
    /// Trims the allocator, resets `VmHWM` to the current resident set
    /// (`/proc/self/clear_refs`, value 5) and takes that as the baseline.
    pub fn reset() -> PeakRss {
        trim_heap();
        std::fs::OpenOptions::new()
            .write(true)
            .open("/proc/self/clear_refs")
            .and_then(|mut f| f.write_all(b"5"))
            .expect("the peak resident set can be reset");
        PeakRss {
            base_kb: status_kb("VmRSS:"),
        }
    }

    /// MiB by which the resident set peaked above the baseline.
    pub fn peak_mb(&self) -> f64 {
        (status_kb("VmHWM:") - self.base_kb) / 1024.0
    }
}

/// A `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("/proc/self/status reports the field")
}

/// Returns free heap pages to the operating system, so memory the system
/// allocates after the reset shows as resident growth instead of reusing
/// pages the harness freed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and may be called at
    // any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}
