//! Order statistics, the report fingerprint, and every metric that is a
//! pure function of a [`RunReport`] (the simulated outcomes and the
//! report-derived per-layer counters).

use lsm_core::RunReport;
use lsm_netsim::TrafficTag;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Fingerprint of a report: FNV-64 of its compact JSON serialization.
pub fn fingerprint(report: &RunReport) -> u64 {
    let json = serde_json::to_string(report).expect("a RunReport always serializes");
    fnv64(json.as_bytes())
}

/// Median of `xs` (mean of the middle pair for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `xs`; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank percentile of unsorted integer samples (sorts in place);
/// 0 when there are none.
pub fn percentile_u32(samples: &mut [u32], p: f64) -> f64 {
    samples.sort_unstable();
    percentile_sorted(samples, p).unwrap_or(0) as f64
}

/// The highest percentile of [`TAIL_CANDIDATES`] that leaves at least
/// ten samples beyond it (p80 for 64 samples, p90 for 128, p95 for 256,
/// p99 for 2048); p50 when there are fewer than twenty.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 80.0];

/// The simulated end-to-end outcomes of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    pub scheduled: usize,
    pub completed: usize,
    /// Completed migrations whose destination disk diverged.
    pub inconsistent: usize,
    pub makespan_s: f64,
    pub migration_time_p50_s: f64,
    pub migration_time_tail_s: f64,
    pub downtime_p50_ms: f64,
    pub downtime_tail_ms: f64,
    /// The percentile behind both `_tail` metrics.
    pub tail_pct: f64,
    pub migration_traffic_gb: f64,
    pub sla_violation_s: f64,
    pub guest_io_mbps: f64,
}

impl SimOutcome {
    pub fn of(r: &RunReport) -> Self {
        let done: Vec<_> = r.migrations.iter().filter(|m| m.completed).collect();
        let mut times: Vec<f64> = done
            .iter()
            .filter_map(|m| m.migration_time.map(|d| d.as_secs_f64()))
            .collect();
        let mut downs: Vec<f64> = done
            .iter()
            .map(|m| m.downtime.as_secs_f64() * 1e3)
            .collect();
        times.sort_by(f64::total_cmp);
        downs.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(done.len());
        let first_request = r.migrations.iter().map(|m| m.requested_at).min();
        let last_completion = done.iter().filter_map(|m| m.completed_at).max();
        let makespan_s = match (first_request, last_completion) {
            (Some(a), Some(b)) => b.since(a).as_secs_f64(),
            _ => 0.0,
        };
        let guest_bytes: u64 = r.vms.iter().map(|v| v.bytes_read + v.bytes_written).sum();
        SimOutcome {
            scheduled: r.migrations.len(),
            completed: done.len(),
            inconsistent: done.iter().filter(|m| m.consistent != Some(true)).count(),
            makespan_s,
            migration_time_p50_s: percentile_sorted(&times, 50.0).unwrap_or(0.0),
            migration_time_tail_s: percentile_sorted(&times, tail_pct).unwrap_or(0.0),
            downtime_p50_ms: percentile_sorted(&downs, 50.0).unwrap_or(0.0),
            downtime_tail_ms: percentile_sorted(&downs, tail_pct).unwrap_or(0.0),
            tail_pct,
            migration_traffic_gb: r.migration_traffic as f64 / 1e9,
            sla_violation_s: r.sla.total_violation_secs,
            guest_io_mbps: guest_bytes as f64 / r.horizon.as_secs_f64() / 1e6,
        }
    }

    /// The outcome over several inputs: migration counts summed, every
    /// other number the median over the inputs.
    pub fn median_of(all: &[SimOutcome]) -> SimOutcome {
        let med = |f: fn(&SimOutcome) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        SimOutcome {
            scheduled: all.iter().map(|o| o.scheduled).sum(),
            completed: all.iter().map(|o| o.completed).sum(),
            inconsistent: all.iter().map(|o| o.inconsistent).sum(),
            makespan_s: med(|o| o.makespan_s),
            migration_time_p50_s: med(|o| o.migration_time_p50_s),
            migration_time_tail_s: med(|o| o.migration_time_tail_s),
            downtime_p50_ms: med(|o| o.downtime_p50_ms),
            downtime_tail_ms: med(|o| o.downtime_tail_ms),
            tail_pct: med(|o| o.tail_pct),
            migration_traffic_gb: med(|o| o.migration_traffic_gb),
            sla_violation_s: med(|o| o.sla_violation_s),
            guest_io_mbps: med(|o| o.guest_io_mbps),
        }
    }

    /// `(name, unit, value)` for every simulated end-to-end metric.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            (
                "migrations_completed_frac",
                "ratio",
                self.completed as f64 / self.scheduled.max(1) as f64,
            ),
            ("sim_makespan_s", "sim_s", self.makespan_s),
            (
                "sim_migration_time_p50_s",
                "sim_s",
                self.migration_time_p50_s,
            ),
            (
                "sim_migration_time_tail_s",
                "sim_s",
                self.migration_time_tail_s,
            ),
            ("sim_downtime_p50_ms", "sim_ms", self.downtime_p50_ms),
            ("sim_downtime_tail_ms", "sim_ms", self.downtime_tail_ms),
            ("sim_migration_traffic_gb", "GB", self.migration_traffic_gb),
            ("sim_sla_violation_s", "sim_s", self.sla_violation_s),
            ("sim_guest_io_mbps", "MB/s", self.guest_io_mbps),
        ]
    }
}

/// Per-layer counters read off the report: the migration scheme, the
/// hypervisor, the block device, the repository, the planner and QoS.
pub fn report_layers(r: &RunReport) -> Vec<(&'static str, &'static str, f64)> {
    let sum = |f: &dyn Fn(&lsm_core::MigrationRecord) -> u64| -> f64 {
        r.migrations.iter().map(f).sum::<u64>() as f64
    };
    let vsum =
        |f: &dyn Fn(&lsm_core::VmRecord) -> u64| -> f64 { r.vms.iter().map(f).sum::<u64>() as f64 };
    let pulled = sum(&|m| m.pulled_chunks);
    let ondemand = sum(&|m| m.ondemand_chunks);
    let hit = vsum(&|v| v.reads_hit_bytes);
    let miss = vsum(&|v| v.reads_miss_bytes);
    let buffered = vsum(&|v| v.writes_buffered_bytes);
    let throttled = vsum(&|v| v.writes_throttled_bytes);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let gb = |t: TrafficTag| r.traffic_for(t) as f64 / 1e9;
    vec![
        (
            "migration.pushed_chunks",
            "count",
            sum(&|m| m.pushed_chunks),
        ),
        ("migration.pulled_chunks", "count", pulled),
        ("migration.ondemand_chunks", "count", ondemand),
        ("migration.ondemand_frac", "ratio", ratio(ondemand, pulled)),
        (
            "migration.reads_pull_blocked",
            "count",
            vsum(&|v| v.reads_pull_blocked),
        ),
        ("traffic.memory_gb", "GB", gb(TrafficTag::Memory)),
        ("traffic.storage_push_gb", "GB", gb(TrafficTag::StoragePush)),
        ("traffic.storage_pull_gb", "GB", gb(TrafficTag::StoragePull)),
        ("traffic.mirror_gb", "GB", gb(TrafficTag::Mirror)),
        (
            "hypervisor.mem_rounds",
            "count",
            sum(&|m| m.mem_rounds as u64),
        ),
        ("blockdev.read_hit_ratio", "ratio", ratio(hit, hit + miss)),
        (
            "blockdev.write_throttled_frac",
            "ratio",
            ratio(throttled, buffered + throttled),
        ),
        ("repo.fetch_gb", "GB", gb(TrafficTag::RepoFetch)),
        ("planner.decisions", "count", r.planner.len() as f64),
        (
            "planner.deferred",
            "count",
            r.planner.iter().filter(|d| d.deferred).count() as f64,
        ),
        ("qos.downtime_s", "sim_s", r.sla.total_downtime_secs),
        ("qos.degraded_s", "sim_s", r.sla.total_degraded_secs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(64), 80.0);
        assert_eq!(tail_percentile(128), 90.0);
        assert_eq!(tail_percentile(256), 95.0);
        assert_eq!(tail_percentile(2048), 99.0);
        assert_eq!(tail_percentile(12), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
