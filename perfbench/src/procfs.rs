//! Process and host counters from `/proc`: CPU split and page faults of
//! this process, steal time of the host, and run-queue wait of the serving
//! thread. A field that cannot be read counts as 0.

use std::fs;

/// One reading of the counters; subtract two with [`ProcSample::since`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Process user CPU, clock ticks.
    pub utime: u64,
    /// Process system CPU, clock ticks.
    pub stime: u64,
    /// Process minor page faults.
    pub minflt: u64,
    /// Host-wide steal time, clock ticks.
    pub steal: u64,
    /// Host-wide CPU time of all kinds, clock ticks.
    pub cpu_total: u64,
    /// Time this thread waited on a run queue, ns.
    pub run_delay_ns: u64,
}

impl ProcSample {
    /// Reads the counters now.
    pub fn now() -> Self {
        let mut s = ProcSample::default();
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // fields after the parenthesised command name, starting at `state`
            if let Some((_, rest)) = stat.rsplit_once(") ") {
                let f: Vec<u64> = rest.split_whitespace().map(|x| x.parse().unwrap_or(0)).collect();
                s.minflt = f.get(7).copied().unwrap_or(0);
                s.utime = f.get(11).copied().unwrap_or(0);
                s.stime = f.get(12).copied().unwrap_or(0);
            }
        }
        if let Ok(stat) = fs::read_to_string("/proc/stat") {
            if let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) {
                // user nice system idle iowait irq softirq steal (guest time
                // is already inside user)
                let f: Vec<u64> =
                    cpu.split_whitespace().skip(1).map(|x| x.parse().unwrap_or(0)).collect();
                s.steal = f.get(7).copied().unwrap_or(0);
                s.cpu_total = f.iter().take(8).sum();
            }
        }
        if let Ok(sched) = fs::read_to_string("/proc/thread-self/schedstat") {
            s.run_delay_ns =
                sched.split_whitespace().nth(1).and_then(|x| x.parse().ok()).unwrap_or(0);
        }
        s
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
            minflt: self.minflt.saturating_sub(earlier.minflt),
            steal: self.steal.saturating_sub(earlier.steal),
            cpu_total: self.cpu_total.saturating_sub(earlier.cpu_total),
            run_delay_ns: self.run_delay_ns.saturating_sub(earlier.run_delay_ns),
        }
    }

    /// System share of this process's CPU time.
    pub fn sys_cpu_frac(&self) -> f64 {
        ratio(self.stime as f64, (self.utime + self.stime) as f64)
    }

    /// Steal share of the host's CPU time.
    pub fn steal_frac(&self) -> f64 {
        ratio(self.steal as f64, self.cpu_total as f64)
    }

    /// Run-queue wait as a share of `wall_ns`.
    pub fn runqueue_wait_frac(&self, wall_ns: u128) -> f64 {
        ratio(self.run_delay_ns as f64, wall_ns as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
