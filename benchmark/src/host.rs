//! Host-speed normalisation.
//!
//! The boxes this benchmark runs on are shared virtual machines, and the
//! same pinned, closed-loop run on the same binary drifts with the host:
//! over minutes, latency rises 40–60 % and falls back, throughput, CPU per
//! query and build rate move with it, and two sets of runs taken ten
//! minutes apart disagree by more than any useful regression bound (see
//! "Host noise" in the README for the measurements). More work per run
//! does not average that out; it is not noise around a mean but the mean
//! moving.
//!
//! So what the measured loop times — throughput, latencies, server CPU
//! per query, ingest applies — is reported **at reference host speed**. A
//! fixed, harness-owned loop — the kind of work the system does (hashing,
//! allocation, string comparison, sorting, formatting; a few hundred KiB
//! of working set) and none of its code — is timed every [`PROBE_EVERY`]
//! while the workload is measured, on the same pinned CPU, between
//! requests. A run's *host scale* is the median of those timings over
//! [`REFERENCE_US`]; times are divided by it and rates multiplied. On an
//! undisturbed host the scale is 1 and nothing changes; on a disturbed one
//! the probe slows roughly as the server does (README, "Host noise": when
//! the host drifts, run-to-run spreads of 23 % shrink to 8 %; when it
//! holds still, the probe's own jitter costs a few points). Set-up, build
//! rate and boot time happen outside the probed loop and are reported as
//! measured. `load.host_probe_us` and `load.host_scale` come with every
//! run, so the raw number is one multiplication away.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What the probe takes on the box the first baseline was recorded on
/// while the host is otherwise idle. A constant of the benchmark, not of
/// the machine: on faster or slower hardware every run's scale is off 1 by
/// the same factor, which cancels in any comparison made on that hardware.
pub const REFERENCE_US: f64 = 650.0;

/// How often the measured loop stops to probe (≈ 1.5 % of its time, which
/// is taken out of the measured period again).
pub const PROBE_EVERY: Duration = Duration::from_millis(50);

/// The reference loop and its fixed input.
#[derive(Debug)]
pub struct HostProbe {
    keys: Vec<String>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe {
            keys: (0..4096u32)
                .map(|i| format!("条目-{i:05}-{:08x}", i.wrapping_mul(2_654_435_761)))
                .collect(),
        }
    }
}

impl HostProbe {
    /// Runs the loop once and returns how long it took.
    pub fn run(&self) -> Duration {
        let clock = Instant::now();
        let mut map: HashMap<&str, u32> = HashMap::new();
        for (i, key) in self.keys.iter().enumerate() {
            map.insert(key, i as u32);
        }
        let mut sum = 0u64;
        for i in 0..8192u32 {
            let key = &self.keys[(i.wrapping_mul(2_654_435_761) % 4096) as usize];
            sum += u64::from(map.get(key.as_str()).copied().unwrap_or(0));
        }
        let mut sorted: Vec<&str> = self.keys.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        let mut text = String::new();
        for (i, key) in sorted.iter().take(512).enumerate() {
            text.push_str(key);
            text.push_str(&i.to_string());
        }
        std::hint::black_box((sum, text.len()));
        clock.elapsed()
    }
}

/// Host scale of a set of probe timings (µs): median ÷ reference.
/// `1.0` when there are none.
pub fn scale(probe_us: &[f64]) -> f64 {
    crate::stats::median(probe_us).map_or(1.0, |m| m / REFERENCE_US)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_median_over_reference() {
        assert_eq!(scale(&[]), 1.0);
        assert_eq!(scale(&[REFERENCE_US]), 1.0);
        assert_eq!(
            scale(&[REFERENCE_US, 3.0 * REFERENCE_US, 2.0 * REFERENCE_US]),
            2.0
        );
        // The probe does real work.
        assert!(HostProbe::default().run() > Duration::ZERO);
    }
}
