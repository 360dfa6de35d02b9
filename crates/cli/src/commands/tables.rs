//! `dsearch-cli tables` — print the paper's tables from the platform models,
//! with this host's measured run beside them.

use dsearch::core::report::SequentialTimings;
use dsearch::core::{Configuration, Implementation, IndexGenerator, SequentialRun};
use dsearch::corpus::{materialize_to_memfs, CorpusManifest, CorpusSpec};
use dsearch::sim::paper;
use dsearch::sim::{
    best_configuration, estimate_run, sequential_stages, PlatformModel, WorkloadModel,
};
use dsearch::vfs::{MemFs, VPath};

use crate::args::ParsedArgs;
use crate::commands::format_table;
use crate::CliError;

/// The measured corpus is the paper's scaled to 0.2 % (about 1.4 MB), held
/// in memory so the runs time the pipeline and not the disk.
const MEASURED_SCALE: f64 = 0.002;
/// One seed, so every measured run indexes the same files.
const MEASURED_SEED: u64 = 2010;

/// Seconds as the measured rows print them: milliseconds, because this
/// host's stages take a few of them.
fn ms(seconds: f64) -> String {
    format!("{:.2} ms", seconds * 1e3)
}

/// This host's side of the tables: one in-memory corpus and the sequential
/// run over it, the baseline every measured speed-up divides.
struct ThisHost {
    fs: MemFs,
    manifest: CorpusManifest,
    sequential: SequentialRun,
}

impl ThisHost {
    fn measure() -> Result<Self, CliError> {
        let spec = CorpusSpec::paper_scaled(MEASURED_SCALE);
        let (fs, manifest) = materialize_to_memfs(&spec, MEASURED_SEED);
        let sequential = IndexGenerator::default()
            .run_sequential(&fs, &VPath::root())
            .map_err(CliError::failed)?;
        Ok(ThisHost { fs, manifest, sequential })
    }

    /// The closing section: the sequential run and Implementations 1–3, all
    /// at `(cores, 0, 0)` over the same corpus.  The sequential total leaves
    /// out the read-only pass, as a production run would.
    ///
    /// # Errors
    ///
    /// Fails when a run fails or indexes a different number of files from
    /// the sequential run.
    fn implementations(&self) -> Result<String, CliError> {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let configuration = Configuration::new(cores, 0, 0);
        let t = &self.sequential.timings;
        let sequential_s = t.total().as_secs_f64();
        let mut rows = vec![vec![
            "Sequential".to_owned(),
            "-".to_owned(),
            ms(sequential_s),
            ms((t.read_and_extract + t.index_update).as_secs_f64()),
            "-".to_owned(),
            "1.00".to_owned(),
        ]];
        let generator = IndexGenerator::default();
        for implementation in Implementation::ALL {
            let report = generator
                .run(&self.fs, &VPath::root(), implementation, configuration)
                .map_err(CliError::failed)?
                .report();
            if report.files != self.sequential.stage2.files {
                return Err(CliError::Failed(format!(
                    "{} indexed {} files, the sequential run {}",
                    implementation.paper_name(),
                    report.files,
                    self.sequential.stage2.files
                )));
            }
            rows.push(vec![
                implementation.paper_name().to_owned(),
                configuration.to_string(),
                ms(report.total_seconds),
                ms(report.extraction_seconds),
                ms(report.join_seconds),
                format!("{:.2}", report.speedup_vs_seconds(sequential_s)),
            ]);
        }
        Ok(format!(
            "Measured on this host — {cores} core(s), {} files, {:.1} MB in memory \
             (paper corpus × {MEASURED_SCALE}, seed {MEASURED_SEED})\n{}",
            self.manifest.file_count(),
            self.manifest.total_bytes() as f64 / 1e6,
            format_table(
                &["implementation", "(x, y, z)", "total", "extract + update", "join", "speed-up"],
                &rows
            )
        ))
    }
}

/// Table 1: the model's stages for the paper's machines, and the four stages
/// of this host's sequential run as measured.
fn table1(measured: &SequentialTimings) -> String {
    let workload = WorkloadModel::paper();
    let mut rows: Vec<Vec<String>> = PlatformModel::paper_platforms()
        .iter()
        .zip(paper::table1())
        .map(|(platform, expected)| {
            let est = sequential_stages(platform, &workload);
            vec![
                format!("{}-core", platform.cores),
                format!("{:.1} ({:.1})", est.filename_generation_s, expected.filename_generation_s),
                format!("{:.1} ({:.1})", est.read_files_s, expected.read_files_s),
                format!("{:.1} ({:.1})", est.read_and_extract_s, expected.read_and_extract_s),
                format!("{:.1} ({:.1})", est.index_update_s, expected.index_update_s),
            ]
        })
        .collect();
    rows.push(vec![
        "this host (measured)".to_owned(),
        ms(measured.filename_generation.as_secs_f64()),
        ms(measured.read_files.as_secs_f64()),
        ms(measured.read_and_extract.as_secs_f64()),
        ms(measured.index_update.as_secs_f64()),
    ]);
    format!(
        "Table 1 — sequential stage times in seconds, model (paper)\n{}",
        format_table(
            &["platform", "filename gen", "read files", "read + extract", "index update"],
            &rows
        )
    )
}

fn best_config_table(platform: &PlatformModel, table: &paper::BestConfigTable) -> String {
    let workload = WorkloadModel::paper();
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|row| {
            let at_paper =
                estimate_run(platform, &workload, row.implementation, row.best_configuration);
            let model_best = best_configuration(platform, &workload, row.implementation);
            vec![
                row.implementation.paper_name().to_owned(),
                row.best_configuration.to_string(),
                format!("{:.1} ({:.1})", at_paper.total_s, row.execution_time_s),
                format!("{:.2} ({:.2})", at_paper.speedup, row.speedup),
                format!("{} @ {:.1}s", model_best.configuration, model_best.estimate.total_s),
            ]
        })
        .collect();
    format!(
        "Table {} — {}-core machine, model (paper), sequential ≈ {:.0} s\n{}",
        match table.platform_cores {
            4 => 2,
            8 => 3,
            _ => 4,
        },
        table.platform_cores,
        table.sequential_s,
        format_table(
            &["implementation", "paper best (x,y,z)", "exec time s", "speed-up", "model best"],
            &rows
        )
    )
}

/// Runs the `tables` command.
///
/// # Errors
///
/// Fails when `--table` names anything other than 1–4, or when a measured
/// run fails.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let which = args.value_of("table");
    let platforms = PlatformModel::paper_platforms();
    let best_tables = [paper::table2(), paper::table3(), paper::table4()];
    let mut sections: Vec<String> = Vec::new();
    let mut closing = None;
    match which {
        None => {
            let host = ThisHost::measure()?;
            sections.push(table1(&host.sequential.timings));
            for (platform, table) in platforms.iter().zip(&best_tables) {
                sections.push(best_config_table(platform, table));
            }
            closing = Some(host);
        }
        Some("1") => sections.push(table1(&ThisHost::measure()?.sequential.timings)),
        Some("2") => sections.push(best_config_table(&platforms[0], &best_tables[0])),
        Some("3") => sections.push(best_config_table(&platforms[1], &best_tables[1])),
        Some("4") => sections.push(best_config_table(&platforms[2], &best_tables[2])),
        Some(other) => {
            return Err(CliError::Usage(format!("--table must be 1, 2, 3 or 4 (got {other:?})")))
        }
    }
    // Sanity note: the model's winner matches the paper's on every platform.
    let workload = WorkloadModel::paper();
    let winner_note = platforms
        .iter()
        .map(|p| {
            let best = Implementation::ALL
                .into_iter()
                .map(|i| (i, best_configuration(p, &workload, i).estimate.total_s))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i.paper_name().to_owned())
                .unwrap_or_default();
            format!("{}-core winner: {best}", p.cores)
        })
        .collect::<Vec<_>>()
        .join("; ");
    sections.push(format!("({winner_note})\n"));
    if let Some(host) = closing {
        sections.push(host.implementations()?);
    }
    Ok(sections.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tables_are_printed_by_default() {
        let args = ParsedArgs::parse(["tables"]).unwrap();
        let out = run(&args).unwrap();
        for needle in ["Table 1", "Table 2", "Table 3", "Table 4", "Implementation 3"] {
            assert!(out.contains(needle), "missing {needle}");
        }
        assert!(out.contains("winner"));
        let (_, host) = out.split_once("Measured on this host").expect("this host section");
        assert!(host.contains("Sequential"));
        for implementation in Implementation::ALL {
            assert!(
                host.contains(implementation.paper_name()),
                "missing measured {implementation:?}"
            );
        }
    }

    #[test]
    fn single_table_selection_works() {
        let args = ParsedArgs::parse(["tables", "--table", "3"]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("Table 3"));
        assert!(!out.contains("Table 2"));
        let args = ParsedArgs::parse(["tables", "--table", "1"]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("this host (measured)"));
        assert!(!out.contains("Measured on this host"));
        let args = ParsedArgs::parse(["tables", "--table", "2"]).unwrap();
        let out = run(&args).unwrap();
        assert!(!out.contains("this host"));
        let args = ParsedArgs::parse(["tables", "--table", "9"]).unwrap();
        assert!(matches!(run(&args).unwrap_err(), CliError::Usage(_)));
    }
}
