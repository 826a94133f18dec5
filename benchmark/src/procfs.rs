//! Host facts from `/proc/self`: CPU time, peak memory, core count.
//!
//! CPU time is steadier than wall time on a shared host, and CPU seconds
//! per wall second per core says whether the host was contended while a
//! number was taken.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` is 100 on every Linux ABI Rust targets;
/// the standard library has no `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, or `None` where `/proc` is not available.
#[must_use]
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The second field is the command in parentheses and may itself hold
    // spaces and parentheses; fields are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores this process may run on; every result that depends on threads
/// is reported with it.
#[must_use]
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| u32::try_from(n.get()).unwrap_or(u32::MAX))
}

/// CPU seconds and wall seconds between two points of a run.
pub struct CpuMeter {
    cpu_at_start: Option<f64>,
    started: std::time::Instant,
}

impl CpuMeter {
    #[must_use]
    pub fn start() -> Self {
        CpuMeter {
            cpu_at_start: cpu_seconds(),
            started: std::time::Instant::now(),
        }
    }

    /// `(cpu seconds, wall seconds)` since `start`; CPU is 0 without `/proc`.
    #[must_use]
    pub fn stop(&self) -> (f64, f64) {
        let cpu = match (self.cpu_at_start, cpu_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        (cpu, self.started.elapsed().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn peak_rss_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_cores_and_cpu_time() {
        assert!(nproc() >= 1);
        if let Some(s) = cpu_seconds() {
            assert!(s >= 0.0);
        }
    }
}
