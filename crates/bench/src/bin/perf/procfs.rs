//! `/proc` readers: CPU time and page faults of this process
//! (`/proc/self/stat`), its peak resident set (`VmHWM` in
//! `/proc/self/status`) and the CPU model (`/proc/cpuinfo`).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields. Linux
/// exports them in `USER_HZ`, which is 100 on every supported
/// architecture (it is an ABI constant, not the scheduler's `HZ`).
const USER_HZ: f64 = 100.0;

/// Cumulative process counters from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStat {
    pub user_cpu_s: f64,
    pub sys_cpu_s: f64,
    pub minor_faults: u64,
}

impl ProcStat {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_cpu_s: self.user_cpu_s - earlier.user_cpu_s,
            sys_cpu_s: self.sys_cpu_s - earlier.sys_cpu_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }

    /// Kernel share of the CPU time (0 when no CPU time was used).
    pub fn sys_frac(&self) -> f64 {
        let total = self.user_cpu_s + self.sys_cpu_s;
        if total <= 0.0 {
            0.0
        } else {
            self.sys_cpu_s / total
        }
    }
}

/// Parse one `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesised and may itself contain spaces and parentheses, so the
/// numeric fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<ProcStat> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); minflt is field 10, utime 14,
    // stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minor_faults: field(10)?,
        user_cpu_s: field(14)? as f64 / USER_HZ,
        sys_cpu_s: field(15)? as f64 / USER_HZ,
    })
}

/// `VmHWM` (peak resident set) in MiB from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// First `model name` of a `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `(all ticks, steal ticks)` of the aggregate `cpu` line of a
/// `/proc/stat` text: the time the hypervisor ran someone else while a
/// vCPU had work is the first thing to look at when a run is an outlier.
pub fn parse_cpu_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user.
    Some((ticks.iter().take(8).sum(), *ticks.get(7)?))
}

/// `(all ticks, steal ticks)` of the machine now (zeros when unreadable).
pub fn cpu_steal_now() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_cpu_steal(&s))
        .unwrap_or((0, 0))
}

/// This process's counters now (zeros off Linux, so the benchmark still
/// runs; the metrics then read 0).
pub fn stat_now() -> ProcStat {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

/// This process's peak resident set in MiB (0 when unreadable).
pub fn vm_hwm_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .unwrap_or(0.0)
}

/// CPU model string ("unknown" when unreadable).
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_hostile_command_names() {
        let line = "4242 (perf (x) y) S 1 4242 4242 0 -1 4194304 1234 0 5 0 \
                    250 75 0 0 20 0 3 0 100 1000000 500 18446744073709551615";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.minor_faults, 1234);
        assert_eq!(s.user_cpu_s, 2.5);
        assert_eq!(s.sys_cpu_s, 0.75);
        assert!((s.sys_frac() - 0.75 / 3.25).abs() < 1e-12);
        let later = ProcStat {
            user_cpu_s: 4.0,
            sys_cpu_s: 1.0,
            minor_faults: 2000,
        };
        let d = later.since(&s);
        assert_eq!(
            (d.user_cpu_s, d.sys_cpu_s, d.minor_faults),
            (1.5, 0.25, 766)
        );
        assert!(parse_stat("garbage").is_none());
        assert!(parse_stat("1 (x) S 1 2").is_none());
        assert_eq!(ProcStat::default().sys_frac(), 0.0);
    }

    #[test]
    fn status_and_cpuinfo() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert!(parse_vm_hwm_mib("Name: x\n").is_none());
        let cpuinfo = "processor\t: 0\nmodel name\t: Intel(R) Xeon(R) @ 2.10GHz\nflags: x\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Intel(R) Xeon(R) @ 2.10GHz")
        );
    }

    #[test]
    fn steal_is_the_eighth_field() {
        let stat = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 1 2 3 4 5 6 7 8 0 0\nintr 1\n";
        assert_eq!(parse_cpu_steal(stat), Some((1000, 30)));
        assert!(parse_cpu_steal("intr 5\n").is_none());
        assert!(parse_cpu_steal("cpu  1 2 x\n").is_none());
    }

    #[test]
    fn live_readers_do_not_fail() {
        // On Linux these are real numbers; elsewhere zeros. Either way
        // they must not panic.
        let _ = stat_now();
        let _ = cpu_steal_now();
        assert!(vm_hwm_mib() >= 0.0);
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
    }
}
