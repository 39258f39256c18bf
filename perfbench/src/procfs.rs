//! Process CPU time and peak memory from `/proc/self`.

use std::time::Duration;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every mainstream Linux architecture).
const TICKS_PER_SECOND: u64 = 100;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces or parentheses, so fields are counted from the *last* `)`:
/// after it come field 3 (`state`) onwards, which puts `utime` (field 14)
/// and `stime` (field 15) at offsets 11 and 12.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value in KiB of a `Key:   <n> kB` line of `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = value.split_whitespace();
        let number = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(number)
    })
}

/// User plus system CPU time consumed so far by every thread of this
/// process, including threads that already exited.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let ticks = parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    Duration::from_millis(ticks * 1000 / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = parse_status_kib(&status, "VmHWM").expect("/proc/self/status has VmHWM");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_sum_utime_and_stime() {
        let stat = "4242 (perfbench) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 56 0 0 20 0 3 0 100 200000 500 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1290));
    }

    #[test]
    fn cpu_ticks_survive_a_command_name_with_spaces_and_parens() {
        let stat = "7 (a) b (c)) S 1 7 7 0 -1 0 0 0 0 0 30 12 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
    }

    #[test]
    fn cpu_ticks_reject_truncated_input() {
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis here"), None);
    }

    #[test]
    fn status_lines_parse_by_exact_key() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   10240 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(10240));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(9000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        // A key is never matched as the prefix of a longer key.
        assert_eq!(parse_status_kib("VmHWMx:\t5 kB\n", "VmHWM"), None);
        assert_eq!(parse_status_kib("VmHWM:\t5 MB\n", "VmHWM"), None);
    }

    #[test]
    fn live_process_values_are_plausible() {
        assert!(peak_rss_mib() > 0.0);
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() >= before, "{x}");
    }
}
