//! Host-side measurements: CPU time and peak memory from `getrusage`,
//! the load average, and the core count.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the harness reads `struct rusage` with its 64-bit Linux layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    unused: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Whose resources to read.
#[derive(Debug, Clone, Copy)]
pub enum Who {
    /// This process, all threads.
    Own = 0,
    /// Children that have terminated and been waited for.
    Children = -1,
}

/// CPU seconds (user + system) and peak resident set of a process group.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_s: f64,
    /// `ru_maxrss`. For [`Who::Children`] it is the largest single
    /// child's; for the process itself see [`own_peak_rss_mb`].
    pub peak_rss_mb: f64,
}

pub fn usage(who: Who) -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        unused: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // platform guard above pins, and both `who` values are valid.
    let rc = unsafe { getrusage(who as i32, &mut ru) };
    assert_eq!(rc, 0, "getrusage cannot fail with a valid `who`");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
    }
}

/// Peak resident set of this process image, from `VmHWM`.
///
/// `ru_maxrss` will not do for the process itself: across `execve` the
/// kernel folds the replaced image's high-water mark into it, and a child
/// started by `posix_spawn` still shares its parent's memory then, so a
/// round would report the harness that started it whenever that is the
/// larger. `VmHWM` counts the image that is running now.
pub fn own_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    vm_hwm_mb(&status).unwrap_or_else(|| usage(Who::Own).peak_rss_mb)
}

fn vm_hwm_mb(status: &str) -> Option<f64> {
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds of this process plus its reaped children.
pub fn cpu_s() -> f64 {
    usage(Who::Own).cpu_s + usage(Who::Children).cpu_s
}

/// The one-minute load average, or `None` where `/proc/loadavg` is absent.
pub fn loadavg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_usage_advances_with_work() {
        let before = usage(Who::Own);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = usage(Who::Own);
        assert!(after.cpu_s > before.cpu_s);
        assert!(after.peak_rss_mb > 0.5, "a process has resident pages");
    }

    #[test]
    fn vm_hwm_is_read_from_the_status_file() {
        let status = "Name:\tharness\nVmPeak:\t   20000 kB\nVmHWM:\t    9216 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(9.0));
        assert_eq!(vm_hwm_mb("Name:\tharness\n"), None);
        assert!(own_peak_rss_mb() > 0.5, "a process has resident pages");
    }
}
