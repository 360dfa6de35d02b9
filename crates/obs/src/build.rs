//! What a process can report about its own footprint: the peak resident set.
//!
//! This is the number the repo benchmark gates for the build workloads, read
//! by the program about itself; `dsearch index` and `dsearch build` print it
//! as `peak rss`.  Nothing here knows the build pipeline: `dsearch-obs`
//! depends on no other dsearch crate, so the pipeline is free to depend on
//! it (and report its stages through it) without a cycle.

/// The peak resident set of this process so far (`VmHWM` in
/// `/proc/self/status`), in bytes; `None` where the kernel does not expose
/// it.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    kb.checked_mul(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_from_a_status_file_and_is_optional() {
        let status = "Name:\tdsearch\nVmPeak:\t  200000 kB\nVmHWM:\t   87654 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(87654 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tdsearch\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots\n"), None);
    }
}
