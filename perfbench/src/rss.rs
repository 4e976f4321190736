//! Peak resident memory of this process, read from `/proc/self/status`.
//!
//! `VmHWM` is a high-water mark over the whole process life, so it belongs
//! to one job only when nothing else ran before it: the benchmark reads it
//! after the first job of a fresh process. Resetting the mark between jobs
//! (`/proc/self/clear_refs`) is not enough, because a later job starts on
//! heap the allocator kept from the earlier ones; its reading grows with
//! the number of jobs before it.

/// The `VmHWM` value of a `/proc/<pid>/status` text, in kB. `None` when the
/// line is missing or malformed; only the `kB` unit the kernel writes is
/// accepted.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = line.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB") && fields.next().is_none()).then_some(value)
}

/// This process's peak RSS so far, in MB (10^6 bytes).
pub fn peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_format() {
        let status = "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  812344 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(812_344));
    }

    #[test]
    fn missing_line_is_none() {
        assert_eq!(parse_vm_hwm_kb(""), None);
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 12 kB\n"), None);
    }

    #[test]
    fn odd_lines_are_none() {
        for odd in [
            "VmHWM:",
            "VmHWM:\t kB",
            "VmHWM:\t abc kB",
            "VmHWM:\t -5 kB",
            "VmHWM:\t 12",
            "VmHWM:\t 12 MB",
            "VmHWM:\t 12 kB extra",
            "VmHWM:\t 99999999999999999999999 kB",
        ] {
            assert_eq!(parse_vm_hwm_kb(odd), None, "{odd:?}");
        }
    }

    #[test]
    fn only_the_exact_key_matches() {
        assert_eq!(parse_vm_hwm_kb("VmHWMX:\t 7 kB\nXVmHWM:\t 8 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWMX:\t 7 kB\nVmHWM:\t 9 kB\n"), Some(9));
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_mb().is_some_and(|mb| mb > 0.0));
    }
}
