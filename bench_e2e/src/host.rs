//! What the host is: resident memory of this process, CPU cache sizes and
//! the thread count, read from `/proc` and `/sys`.

use std::path::Path;

/// Resident set size of this process in bytes (`VmRSS` of
/// `/proc/self/status`), or 0 where the file is missing.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// [`rss_bytes`] after handing the allocator's free memory back to the
/// kernel, so that the figure counts live memory, not freed chunks that the
/// allocator happens to keep (which thread freed what, and when, would
/// otherwise move it by several MB between identical runs).
pub fn live_rss_bytes() -> u64 {
    trim_heap();
    rss_bytes()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only releases
    // free heap memory of every arena to the kernel; it may be called from
    // any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Threads the host offers this process.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sizes of the data/unified caches of CPU 0 by level, as `(level, text)`
/// pairs such as `(2, "2048K")`, from `/sys/devices/system/cpu/cpu0/cache`.
pub fn cache_sizes() -> Vec<(u32, String)> {
    let root = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut sizes = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return sizes;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .map(|text| text.trim().to_string())
                .unwrap_or_default()
        };
        if read("type") == "Instruction" {
            continue;
        }
        if let Ok(level) = read("level").parse::<u32>() {
            sizes.push((level, read("size")));
        }
    }
    sizes.sort();
    sizes.dedup();
    sizes
}

/// The size text of cache level `level`, or `"unknown"`.
pub fn cache_size(sizes: &[(u32, String)], level: u32) -> String {
    sizes
        .iter()
        .find(|(l, _)| *l == level)
        .map_or_else(|| "unknown".to_string(), |(_, size)| size.clone())
}
