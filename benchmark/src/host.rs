//! What the benchmark needs to know about, and ask of, the host: core
//! pinning, a quiesce check, and peak memory. Linux only (`/proc` and
//! `sched_setaffinity`); elsewhere every probe reports "unknown" and
//! pinning is a no-op, so the benchmark still runs, just noisier.

use std::time::Duration;

/// Restrict the calling thread — and every thread or process it spawns
/// afterwards — to the given cores. Returns whether the kernel accepted
/// the mask.
///
/// Why: the simnet scheduler runs one actor thread at a time, so an
/// unpinned simulation is bimodal (fast when the hand-offs happen to
/// stay on one core, ~3x slower when they ping-pong across two); and a
/// netfab rank whose reactor and application threads migrate sees the
/// same effect in its tail.
#[cfg(target_os = "linux")]
pub fn pin_to_cores(cores: impl IntoIterator<Item = usize>) -> bool {
    use std::os::raw::c_int;
    extern "C" {
        // The one syscall binding of the benchmark, declared locally in
        // the style of the reactor's `poll(2)` binding.
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }
    let mut mask = [0u64; 16]; // 1024 cpus, the kernel's cpu_set_t
    for core in cores {
        let Some(word) = mask.get_mut(core / 64) else {
            return false;
        };
        *word |= 1u64 << (core % 64);
    }
    // SAFETY: `mask` is a live, properly aligned buffer of exactly the
    // `cpusetsize` bytes passed; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_cores(_cores: impl IntoIterator<Item = usize>) -> bool {
    false
}

/// Cores this process may run on. Pinning narrows it (for children too),
/// so the launcher reads it once, first, and hands it down.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 1-minute load average, if readable.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Busy jiffies and total jiffies summed over all cores.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    if fields.len() < 5 {
        return None;
    }
    let total: u64 = fields.iter().take(8).sum();
    let idle = fields[3] + fields[4]; // idle + iowait
    Some((total - idle, total))
}

/// How many cores' worth of CPU *other* processes are using right now:
/// sleep for `window` and see how busy the machine was without us.
/// `None` where `/proc/stat` is unreadable.
pub fn background_busy_cores(window: Duration) -> Option<f64> {
    let (busy0, total0) = cpu_jiffies()?;
    std::thread::sleep(window);
    let (busy1, total1) = cpu_jiffies()?;
    let total = total1.saturating_sub(total0);
    if total == 0 {
        return Some(0.0);
    }
    let share = busy1.saturating_sub(busy0) as f64 / total as f64;
    Some(share * nproc() as f64)
}

/// More than this much background CPU marks a result set `noisy`.
pub const NOISY_BUSY_CORES: f64 = 0.5;

/// Ask the kernel to restart this process's peak-resident-set watermark
/// from the current resident set (`echo 5 > /proc/self/clear_refs`), so
/// the next [`peak_rss_mb`] is the peak of one world and not of the
/// worst world so far — a maximum over repetitions is an extreme value
/// and spreads far more than their median. Where the kernel refuses,
/// the watermark simply stays the process-lifetime one.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MB (`VmHWM`) since the last
/// [`reset_peak_rss`], 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds since the Unix epoch — the one clock parent and rank
/// processes share, used to place a child's first timed operation
/// relative to the parent's launch instant.
pub fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}
