//! The one search over the configuration space.
//!
//! The paper explored thread allocations by brute force (five repetitions per
//! point, partly steered by an auto-tuner that saved measured runs).  On the
//! model a point costs microseconds, so every point is evaluated:
//! [`sweep_implementation`] is the only function that enumerates `(x, y, z)`
//! tuples.  [`best_configuration`] is the fastest point of a sweep — the
//! model-side counterpart of the paper's "best config." column — and
//! [`speedup_curve`](crate::curves::speedup_curve) the fastest point at each
//! x.  Both break ties by one rule: the lower total, then fewer threads.

use serde::{Deserialize, Serialize};

use dsearch_core::{Configuration, Implementation};

use crate::model::{estimate_run, RunEstimate};
use crate::platform::PlatformModel;
use crate::workload::WorkloadModel;

/// Join threads swept for an implementation that joins (z from 0 to this).
const MAX_JOIN: usize = 2;

/// One evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The configuration evaluated.
    pub configuration: Configuration,
    /// The model's estimate for it.
    pub estimate: RunEstimate,
}

impl SweepPoint {
    /// Every thread the configuration starts: extractors, updaters, joiners.
    fn threads(&self) -> usize {
        self.configuration.worker_threads() + self.configuration.join_threads
    }
}

/// Evaluates every configuration of one implementation with up to
/// `max_extraction` extraction threads, in `(x, y, z)` order: x from 1 to
/// `max_extraction`, y from 0 to half the platform's cores (at least 1), and
/// z from 0 to 2 where the implementation joins, 0 where it does not — the
/// region the paper explored.
#[must_use]
pub fn sweep_implementation(
    platform: &PlatformModel,
    workload: &WorkloadModel,
    implementation: Implementation,
    max_extraction: usize,
) -> Vec<SweepPoint> {
    let max_update = (platform.cores / 2).max(1);
    let max_join = if implementation.joins() { MAX_JOIN } else { 0 };
    let mut points = Vec::new();
    for x in 1..=max_extraction.max(1) {
        for y in 0..=max_update {
            for z in 0..=max_join {
                let configuration = Configuration::new(x, y, z);
                let estimate = estimate_run(platform, workload, implementation, configuration);
                points.push(SweepPoint { configuration, estimate });
            }
        }
    }
    points
}

/// The fastest of `points` by the sweep's one tie rule: the lower total,
/// then fewer threads (the paper reports the smallest configuration
/// achieving the best time), then the earlier point.
pub(crate) fn fastest(points: impl IntoIterator<Item = SweepPoint>) -> Option<SweepPoint> {
    points.into_iter().min_by(|a, b| {
        a.estimate
            .total_s
            .total_cmp(&b.estimate.total_s)
            .then_with(|| a.threads().cmp(&b.threads()))
    })
}

/// The fastest configuration for one implementation over the platform's
/// sweep, x running to `cores + 2`.
#[must_use]
pub fn best_configuration(
    platform: &PlatformModel,
    workload: &WorkloadModel,
    implementation: Implementation,
) -> SweepPoint {
    let sweep = sweep_implementation(platform, workload, implementation, platform.cores + 2);
    fastest(sweep).expect("a sweep has at least one point")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every implementation's best point on `platform`, in paper order.
    fn bests(platform: &PlatformModel) -> [SweepPoint; 3] {
        let workload = WorkloadModel::paper();
        Implementation::ALL.map(|i| best_configuration(platform, &workload, i))
    }

    /// Implementation 1's best time over Implementation 3's.
    fn shared_vs_no_join_ratio(platform: &PlatformModel) -> f64 {
        let [impl1, _, impl3] = bests(platform);
        impl1.estimate.total_s / impl3.estimate.total_s
    }

    #[test]
    fn sweep_covers_the_whole_grid() {
        let platform = PlatformModel::four_core();
        let workload = WorkloadModel::paper();
        let impl3 = sweep_implementation(&platform, &workload, Implementation::ReplicateNoJoin, 4);
        // x in 1..=4, y in 0..=2, z fixed at 0.
        assert_eq!(impl3.len(), 4 * 3);
        let impl2 = sweep_implementation(&platform, &workload, Implementation::ReplicateJoin, 4);
        assert_eq!(impl2.len(), 4 * 3 * 3);
        for points in [&impl2, &impl3] {
            for pair in points.windows(2) {
                let key = |p: &SweepPoint| {
                    let c = p.configuration;
                    (c.extraction_threads, c.update_threads, c.join_threads)
                };
                assert!(key(&pair[0]) < key(&pair[1]), "points are in (x, y, z) order");
            }
        }
    }

    #[test]
    fn best_configuration_is_the_minimum_of_its_sweep() {
        let platform = PlatformModel::eight_core();
        let workload = WorkloadModel::paper();
        for implementation in Implementation::ALL {
            let best = best_configuration(&platform, &workload, implementation);
            let points =
                sweep_implementation(&platform, &workload, implementation, platform.cores + 2);
            for p in points {
                assert!(
                    best.estimate.total_s < p.estimate.total_s
                        || (best.estimate.total_s == p.estimate.total_s
                            && best.threads() <= p.threads()),
                    "{implementation}: {} beaten by {}",
                    best.configuration,
                    p.configuration
                );
            }
        }
    }

    #[test]
    fn model_best_configs_reproduce_the_papers_ordering_on_every_platform() {
        for platform in PlatformModel::paper_platforms() {
            let [impl1, impl2, impl3] = bests(&platform).map(|p| p.estimate.total_s);
            // The paper's headline: the no-join design is the overall winner
            // on every platform (ties allowed on the 4-core machine, where all
            // three designs are equivalent).
            assert!(impl3 <= impl2 + 1e-9, "{}", platform.name);
            assert!(
                impl3 <= impl1 * 1.05 + 1e-9,
                "{}: impl3 {impl3} vs impl1 {impl1}",
                platform.name
            );
        }
    }

    #[test]
    fn gap_between_designs_grows_with_core_count() {
        let ratios: Vec<f64> =
            PlatformModel::paper_platforms().iter().map(shared_vs_no_join_ratio).collect();
        // The paper's crossover: the advantage of replication over the shared
        // lock grows from essentially nothing on 4 cores to a large factor on
        // 32 cores.
        assert!(ratios[0] < 1.15, "4-core ratio {}", ratios[0]);
        assert!(ratios[2] > ratios[0], "32-core {} should exceed 4-core {}", ratios[2], ratios[0]);
        assert!(ratios[2] > 1.3, "32-core ratio {}", ratios[2]);
    }

    #[test]
    fn ranges_for_platform_scale_with_cores() {
        let workload = WorkloadModel::paper();
        let bounds = |platform: &PlatformModel, implementation| {
            let sweep =
                sweep_implementation(platform, &workload, implementation, platform.cores + 2);
            sweep.iter().fold((0, 0, 0), |(x, y, z), p| {
                let c = p.configuration;
                (x.max(c.extraction_threads), y.max(c.update_threads), z.max(c.join_threads))
            })
        };
        let small = bounds(&PlatformModel::four_core(), Implementation::ReplicateJoin);
        let large = bounds(&PlatformModel::thirty_two_core(), Implementation::ReplicateJoin);
        assert_eq!(small, (6, 2, 2));
        assert_eq!(large, (34, 16, 2));
        let no_join = bounds(&PlatformModel::four_core(), Implementation::ReplicateNoJoin);
        assert_eq!(no_join, (6, 2, 0));
    }

    #[test]
    fn lock_penalty_drives_the_gap_between_impl1_and_impl3() {
        let base = PlatformModel::thirty_two_core();
        let mut ratios = Vec::new();
        for factor in [0.25, 0.5, 1.0, 2.0] {
            let mut platform = base.clone();
            platform.lock_penalty_s_per_contender *= factor;
            let [impl1, impl2, impl3] = bests(&platform).map(|p| p.estimate.total_s);
            // At every factor the no-join design is at least as good as the
            // lock, and the lock never wins.
            assert!(impl3 <= impl1 + 1e-9, "factor {factor}");
            assert!(impl2.min(impl3) < impl1, "factor {factor}");
            ratios.push(impl1 / impl3);
        }
        // A more expensive lock widens the gap monotonically.
        for pair in ratios.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9, "ratios {ratios:?}");
        }
    }

    #[test]
    fn more_aggregate_bandwidth_raises_every_speedup() {
        let base = PlatformModel::four_core();
        let mut wider = base.clone();
        wider.aggregate_bandwidth_mbps *= 4.0;
        for (i, (before, after)) in bests(&base).into_iter().zip(bests(&wider)).enumerate() {
            assert!(
                after.estimate.speedup >= before.estimate.speedup - 1e-9,
                "impl{} got slower with more bandwidth",
                i + 1
            );
        }
    }

    #[test]
    fn join_cost_only_affects_implementation_two() {
        let base = PlatformModel::eight_core();
        let mut dearer = base.clone();
        dearer.join_s_single_thread *= 3.0;
        let before = bests(&base).map(|p| p.estimate.total_s);
        let after = bests(&dearer).map(|p| p.estimate.total_s);
        // Implementations 1 and 3 never join, so their best times are flat.
        assert!((before[0] - after[0]).abs() < 1e-9);
        assert!((before[2] - after[2]).abs() < 1e-9);
        // Implementation 2 pays for the more expensive join.
        assert!(after[1] >= before[1]);
    }

    #[test]
    fn core_axis_reproduces_the_papers_platform_trend() {
        // Giving the 4-core machine eight times the cores (keeping its disk)
        // grows the advantage of the no-join design, mirroring what the
        // paper saw when moving to the bigger machines.
        let base = PlatformModel::four_core();
        let mut more_cores = base.clone();
        more_cores.cores *= 8;
        let gap_small = shared_vs_no_join_ratio(&base);
        let gap_large = shared_vs_no_join_ratio(&more_cores);
        assert!(gap_large >= gap_small - 1e-9, "gap {gap_small} -> {gap_large}");
    }
}
