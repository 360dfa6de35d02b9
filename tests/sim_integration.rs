//! Integration tests for the platform model: reproduction of the paper's
//! tables, and the one configuration search (`sim::sweep`) behind both the
//! best configurations and the speed-up curves.

use dsearch::core::Implementation;
use dsearch::sim::{
    best_configuration, estimate_run, paper, sequential_stages, speedup_curve,
    sweep_implementation, PlatformModel, SweepPoint, WorkloadModel,
};

#[test]
fn table1_reproduction_within_tolerance() {
    let workload = WorkloadModel::paper();
    for (platform, expected) in PlatformModel::paper_platforms().iter().zip(paper::table1()) {
        let est = sequential_stages(platform, &workload);
        for (name, model, paper_value) in [
            ("filename generation", est.filename_generation_s, expected.filename_generation_s),
            ("read files", est.read_files_s, expected.read_files_s),
            ("read and extract", est.read_and_extract_s, expected.read_and_extract_s),
            ("index update", est.index_update_s, expected.index_update_s),
        ] {
            let rel = (model - paper_value).abs() / paper_value;
            assert!(
                rel < 0.05,
                "{}: {name} model {model:.1} vs paper {paper_value:.1}",
                platform.name
            );
        }
    }
}

#[test]
fn tables_2_to_4_reproduction_within_ten_percent() {
    let workload = WorkloadModel::paper();
    let platforms = PlatformModel::paper_platforms();
    for (platform, table) in platforms.iter().zip(paper::best_config_tables()) {
        for row in &table.rows {
            let est = estimate_run(platform, &workload, row.implementation, row.best_configuration);
            let rel = (est.speedup - row.speedup).abs() / row.speedup;
            assert!(
                rel < 0.10,
                "{} {}: model speed-up {:.2} vs paper {:.2}",
                platform.name,
                row.implementation,
                est.speedup,
                row.speedup
            );
        }
    }
}

#[test]
fn the_papers_qualitative_ordering_holds_in_the_model() {
    let workload = WorkloadModel::paper();
    let platforms = PlatformModel::paper_platforms();

    // 4-core: all three within ten percent of each other.
    let four = &platforms[0];
    let speedups: Vec<f64> = paper::table2()
        .rows
        .iter()
        .map(|row| {
            estimate_run(four, &workload, row.implementation, row.best_configuration).speedup
        })
        .collect();
    let spread = speedups.iter().cloned().fold(f64::MIN, f64::max)
        / speedups.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 1.10, "4-core spread {spread:.3} ({speedups:?})");

    // 8- and 32-core: Implementation 3 > Implementation 2 > Implementation 1,
    // and the relative advantage grows with the core count.
    let mut impl3_over_impl1 = Vec::new();
    for (platform, table) in platforms[1..].iter().zip([paper::table3(), paper::table4()]) {
        let estimates: Vec<f64> = table
            .rows
            .iter()
            .map(|row| {
                estimate_run(platform, &workload, row.implementation, row.best_configuration)
                    .speedup
            })
            .collect();
        assert!(estimates[2] > estimates[1], "{}: impl3 vs impl2", platform.name);
        assert!(estimates[1] > estimates[0], "{}: impl2 vs impl1", platform.name);
        impl3_over_impl1.push(estimates[2] / estimates[0]);
    }
    assert!(impl3_over_impl1[1] > impl3_over_impl1[0], "the gap widens from 8 to 32 cores");
}

/// The fastest of `points` by the sweep's tie rule, written out again: the
/// lower total, then fewer threads, then the earlier point.
fn tie_ruled_minimum<'a>(points: impl IntoIterator<Item = &'a SweepPoint>) -> SweepPoint {
    let threads = |p: &SweepPoint| {
        let c = p.configuration;
        c.extraction_threads + c.update_threads + c.join_threads
    };
    let mut best: Option<SweepPoint> = None;
    for p in points {
        let wins = best.is_none_or(|b| {
            p.estimate.total_s < b.estimate.total_s
                || (p.estimate.total_s == b.estimate.total_s && threads(p) < threads(&b))
        });
        if wins {
            best = Some(*p);
        }
    }
    best.expect("at least one point")
}

#[test]
fn curves_and_best_configurations_are_minima_of_the_one_sweep() {
    let workload = WorkloadModel::paper();
    for platform in PlatformModel::paper_platforms() {
        let max_x = platform.cores + 2;
        for implementation in Implementation::ALL {
            let sweep = sweep_implementation(&platform, &workload, implementation, max_x);
            let curve = speedup_curve(&platform, &workload, implementation, max_x);
            assert_eq!(curve.points.len(), max_x);
            for (x, point) in (1..=max_x).zip(&curve.points) {
                let at_x = sweep.iter().filter(|p| p.configuration.extraction_threads == x);
                assert_eq!(
                    *point,
                    tie_ruled_minimum(at_x),
                    "{} {implementation} at x = {x}",
                    platform.name
                );
            }
            assert_eq!(
                best_configuration(&platform, &workload, implementation),
                tie_ruled_minimum(&curve.points),
                "{} {implementation}",
                platform.name
            );
        }
    }
}

#[test]
fn model_agrees_with_itself_across_workload_scales() {
    // Speed-ups are scale-invariant in the model: a 10× smaller corpus
    // produces the same relative ordering and (nearly) the same speed-ups.
    let platform = PlatformModel::thirty_two_core();
    let full = WorkloadModel::paper();
    let small = WorkloadModel::from_counts(5_100, 86_900_000);
    for row in paper::table4().rows {
        let a = estimate_run(&platform, &full, row.implementation, row.best_configuration);
        let b = estimate_run(&platform, &small, row.implementation, row.best_configuration);
        assert!((a.speedup - b.speedup).abs() / a.speedup < 0.02, "{}", row.implementation);
    }
}
