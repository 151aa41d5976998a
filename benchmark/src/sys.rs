//! Process facts the benchmark reads from Linux: peak resident memory and
//! the host's parallelism.

use std::path::Path;

/// `VmHWM` (peak resident set) in KiB from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
}

/// Peak resident set of a running process, in MiB.
pub fn vm_hwm_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_vm_hwm_kib(&text)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// Reset this process's `VmHWM` to its current resident set, so a later
/// reading covers only what ran in between.
pub fn reset_peak_rss() -> Result<(), String> {
    let path = Path::new("/proc/self/clear_refs");
    std::fs::write(path, "5").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Cores this process may run on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  210000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   18000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20_480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t garbage kB\n"), None);
    }

    #[test]
    fn own_status_has_a_peak() {
        assert!(vm_hwm_mib(None).expect("readable /proc/self/status") > 0.0);
    }
}
