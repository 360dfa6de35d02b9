//! Scalability curves.
//!
//! The paper reports only the best configuration per implementation per
//! platform (Tables 2–4), but the underlying experiment swept every thread
//! allocation.  The curves here regenerate that underlying sweep as
//! figure-style series: speed-up as a function of the extraction thread
//! count, with the remaining tuple components chosen optimally for each
//! point.  They also expose the Amdahl ceiling implied by the sequential
//! Stage 1, which explains why even the best design saturates.

use serde::{Deserialize, Serialize};

use dsearch_core::Implementation;

use crate::model::sequential_stages;
use crate::platform::PlatformModel;
use crate::sweep::{fastest, sweep_implementation, SweepPoint};
use crate::workload::WorkloadModel;

/// A speed-up-vs-threads series for one implementation on one platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupCurve {
    /// The implementation the series describes.
    pub implementation: Implementation,
    /// Platform name (for labelling output).
    pub platform: String,
    /// The fastest configuration at each extraction-thread count, ascending.
    pub points: Vec<SweepPoint>,
}

impl SpeedupCurve {
    /// The highest speed-up reached anywhere on the curve.
    #[must_use]
    pub fn peak_speedup(&self) -> f64 {
        self.points.iter().map(|p| p.estimate.speedup).fold(0.0, f64::max)
    }

    /// The smallest extraction-thread count achieving at least
    /// `fraction` of the peak speed-up (the "knee" of the curve).
    #[must_use]
    pub fn knee(&self, fraction: f64) -> Option<usize> {
        let target = self.peak_speedup() * fraction;
        self.points
            .iter()
            .find(|p| p.estimate.speedup >= target)
            .map(|p| p.configuration.extraction_threads)
    }
}

/// Computes the speed-up curve for one implementation: for every extraction
/// thread count `x` in `1..=max_extraction`, the fastest point of the sweep
/// at that `x`.
#[must_use]
pub fn speedup_curve(
    platform: &PlatformModel,
    workload: &WorkloadModel,
    implementation: Implementation,
    max_extraction: usize,
) -> SpeedupCurve {
    let sweep = sweep_implementation(platform, workload, implementation, max_extraction);
    let points = sweep
        .chunk_by(|a, b| a.configuration.extraction_threads == b.configuration.extraction_threads)
        .map(|at_x| fastest(at_x.iter().copied()).expect("chunks are never empty"))
        .collect();
    SpeedupCurve { implementation, platform: platform.name.clone(), points }
}

/// All three implementations' curves on one platform.
#[must_use]
pub fn all_curves(
    platform: &PlatformModel,
    workload: &WorkloadModel,
    max_extraction: usize,
) -> Vec<SpeedupCurve> {
    Implementation::ALL
        .into_iter()
        .map(|implementation| speedup_curve(platform, workload, implementation, max_extraction))
        .collect()
}

/// The speed-up ceiling implied by Amdahl's law, taking the sequential
/// Stage 1 (filename generation) as the serial fraction and the read +
/// extract + update work as the parallelisable fraction.
#[must_use]
pub fn amdahl_ceiling(platform: &PlatformModel, workload: &WorkloadModel, threads: usize) -> f64 {
    let stages = sequential_stages(platform, workload);
    let serial = stages.filename_generation_s;
    let parallel = stages.read_and_extract_s + stages.index_update_s;
    let total = serial + parallel;
    if total <= 0.0 {
        return 1.0;
    }
    let serial_fraction = serial / total;
    1.0 / (serial_fraction + (1.0 - serial_fraction) / threads.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_are_monotone_in_the_model_for_the_no_join_design() {
        let platform = PlatformModel::thirty_two_core();
        let workload = WorkloadModel::paper();
        let curve = speedup_curve(&platform, &workload, Implementation::ReplicateNoJoin, 12);
        assert_eq!(curve.points.len(), 12);
        for pair in curve.points.windows(2) {
            assert!(
                pair[1].estimate.total_s <= pair[0].estimate.total_s + 1e-9,
                "adding extractors never hurts when (y, z) are re-optimised"
            );
        }
        assert!(curve.peak_speedup() > 3.0);
        assert_eq!(curve.points[0].configuration.extraction_threads, 1);
    }

    #[test]
    fn shared_lock_curve_saturates_below_the_replicated_designs() {
        let platform = PlatformModel::thirty_two_core();
        let workload = WorkloadModel::paper();
        let curves = all_curves(&platform, &workload, 12);
        assert_eq!(curves.len(), 3);
        let impl1 = &curves[0];
        let impl3 = &curves[2];
        assert_eq!(impl1.implementation, Implementation::SharedLocked);
        assert_eq!(impl3.implementation, Implementation::ReplicateNoJoin);
        assert!(impl3.peak_speedup() > impl1.peak_speedup() * 1.3);
        assert!(impl1.platform.contains("32-core"));
    }

    #[test]
    fn four_core_curves_are_close_together() {
        // On the 4-core machine the paper found all three designs equivalent.
        let platform = PlatformModel::four_core();
        let workload = WorkloadModel::paper();
        let curves = all_curves(&platform, &workload, 6);
        let peaks: Vec<f64> = curves.iter().map(SpeedupCurve::peak_speedup).collect();
        let max = peaks.iter().cloned().fold(f64::MIN, f64::max);
        let min = peaks.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.10, "peaks {peaks:?}");
    }

    #[test]
    fn knee_finds_the_saturation_point() {
        let platform = PlatformModel::eight_core();
        let workload = WorkloadModel::paper();
        let curve = speedup_curve(&platform, &workload, Implementation::ReplicateNoJoin, 10);
        let knee = curve.knee(0.95).expect("curve has points");
        assert!((1..=10).contains(&knee));
        // A 50 % target is reached no later than the 95 % target.
        assert!(curve.knee(0.5).unwrap() <= knee);
    }

    #[test]
    fn amdahl_ceiling_behaves_like_amdahls_law() {
        let platform = PlatformModel::four_core();
        let workload = WorkloadModel::paper();
        let one = amdahl_ceiling(&platform, &workload, 1);
        assert!((one - 1.0).abs() < 1e-9);
        let four = amdahl_ceiling(&platform, &workload, 4);
        let many = amdahl_ceiling(&platform, &workload, 1_000_000);
        assert!(four > 1.0 && four < 4.0);
        assert!(many > four);
        // The ceiling converges to total / serial ≈ (5 + 88 + 22) / 5 = 23.
        assert!(many < 25.0 && many > 20.0);
    }
}
