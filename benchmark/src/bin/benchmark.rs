//! The suite runner and the comparison tool.
//!
//! `benchmark suite [--seed N] [--quick] [--seconds S] [--dsearch-bin PATH]…
//!                  [--pairs N] [--out-dir DIR]`
//! runs every workload through the sibling `e2e` binary (three repetitions,
//! workloads interleaved across repetitions) and once through `layers`,
//! prints every metric by name with its unit and sample count, writes
//! `<out-dir>/result.json`, and fails when any answer was wrong.  With two
//! `--dsearch-bin` it runs `--pairs` interleaved A/B pairs per workload
//! instead, alternating which side goes first.
//!
//! `benchmark compare A.json B.json` prints, per end-to-end metric and
//! workload, both medians, the ratio with its base, the bound and a verdict
//! (`ungated` for the times, which have no bound); it exits non-zero on any
//! `worse`.

use std::path::{Path, PathBuf};
use std::process::Command;

use dsbench::cli::Args;
use dsbench::harness::Workload;
use dsbench::json::{count, get, get_num, num, obj, parse, render_pretty, text, Value};
use dsbench::report::{metric_def, Better, END_TO_END, UNGATED_TIMES};
use dsbench::stats::Summary;

/// One finished run of `e2e` or `layers`: its parsed result line.
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = me.with_file_name(name);
    if path.exists() {
        Ok(path)
    } else {
        Err(format!("{} is not built next to {}", name, me.display()))
    }
}

fn run_one(
    binary: &Path,
    args: &Args,
    workload: Workload,
    dsearch: Option<&Path>,
) -> Result<Run, String> {
    let mut command = Command::new(binary);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        // The ungated times as well as the gated metrics.
        .arg("--measured");
    if args.quick {
        command.arg("--quick");
    }
    if let Some(dsearch) = dsearch {
        command.arg("--dsearch-bin").arg(dsearch);
    }
    let output = command.output().map_err(|e| format!("{}: {e}", binary.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} {} exited with {}:\n{}",
            binary.display(),
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("no result line")?;
    let value = parse(line)?;
    let number = |key: &str| get_num(&value, key).ok_or(format!("result lacks {key}"));
    let metrics = get(&value, "metrics")
        .and_then(Value::as_object)
        .ok_or("result lacks metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), get_num(m, "value")?)))
        .collect();
    Ok(Run {
        correct: get(&value, "correct") == Some(&Value::Bool(true)),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

fn summary_json(name: &str, values: &[f64]) -> Value {
    let summary = Summary::of(values);
    obj([
        ("median", num(summary.median)),
        ("q1", num(summary.q1)),
        ("q3", num(summary.q3)),
        ("n", count(summary.n as u64)),
        ("unit", text(metric_def(name).map_or("", |d| d.unit))),
        ("values", Value::Array(values.iter().map(|&v| num(v)).collect())),
    ])
}

/// Collects `runs` of one workload into per-metric value lists.
fn by_metric(runs: &[Run]) -> Vec<(String, Vec<f64>)> {
    let mut lists: Vec<(String, Vec<f64>)> = Vec::new();
    for run in runs {
        for (name, value) in &run.metrics {
            match lists.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(*value),
                None => lists.push((name.clone(), vec![*value])),
            }
        }
    }
    lists
}

fn operations_json(runs: &[Run]) -> Value {
    obj([
        ("attempted", num(runs.iter().map(|r| r.attempted).sum())),
        ("failed", num(runs.iter().map(|r| r.failed).sum())),
        ("correct", Value::Bool(runs.iter().all(|r| r.correct))),
    ])
}

/// One line per metric with a value; the metrics that read 0 (layers the
/// workload never enters, counters that stayed at zero) share one line.
/// `half` says which run the numbers are from: both report the four times.
fn print_summaries(workload: Workload, half: &str, lists: &[(String, Vec<f64>)]) {
    let mut zero = Vec::new();
    for (name, values) in lists {
        let s = Summary::of(values);
        if s.median == 0.0 && s.q3 == 0.0 {
            zero.push(name.as_str());
            continue;
        }
        let unit = metric_def(name).map_or("", |d| d.unit);
        let quartiles =
            if s.n > 1 { format!(" [q1 {:.4}, q3 {:.4}]", s.q1, s.q3) } else { String::new() };
        println!(
            "{:16} {half:6} {name:28} {:>14.4} {unit:6}{quartiles} n={}",
            workload.name(),
            s.median,
            s.n
        );
    }
    if !zero.is_empty() {
        println!("{:16} {half:6} 0 (n={}): {}", workload.name(), lists[0].1.len(), zero.join(" "));
    }
}

fn suite(args: &Args) -> Result<bool, String> {
    let e2e = sibling("e2e")?;
    let layers = sibling("layers")?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let reps = if args.quick { 1 } else { 3 };
    let dsearch = args.dsearch_bins.first().map(PathBuf::as_path);
    println!(
        "# dsearch benchmark: seed {}, {} s per run, {reps} repetition(s), nproc {nproc}{}",
        args.seed,
        args.seconds,
        if args.quick { ", quick" } else { "" }
    );

    // Workloads are interleaved across repetitions, so slow drift of the
    // machine lands on every workload alike.
    let mut runs: Vec<Vec<Run>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (slot, &workload) in Workload::ALL.iter().enumerate() {
            eprintln!("[rep {}/{reps}] {}", rep + 1, workload.name());
            runs[slot].push(run_one(&e2e, args, workload, dsearch)?);
        }
    }
    let mut traced = Vec::new();
    for &workload in &Workload::ALL {
        eprintln!("[traced] {}", workload.name());
        traced.push(run_one(&layers, args, workload, dsearch)?);
    }

    let mut all_correct = true;
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    let mut operations = Vec::new();
    for (slot, &workload) in Workload::ALL.iter().enumerate() {
        let lists = by_metric(&runs[slot]);
        print_summaries(workload, "e2e", &lists);
        let ops = operations_json(&runs[slot]);
        println!(
            "{:16} operations: attempted {}, failed {}, correct {}",
            workload.name(),
            get_num(&ops, "attempted").unwrap_or(0.0),
            get_num(&ops, "failed").unwrap_or(0.0),
            get(&ops, "correct") == Some(&Value::Bool(true)),
        );
        all_correct &= runs[slot].iter().all(|r| r.correct) && traced[slot].correct;
        end_to_end.push((
            workload.name(),
            obj(lists.iter().map(|(n, v)| (n.clone(), summary_json(n, v)))),
        ));
        operations.push((workload.name(), ops));

        let layer_lists = by_metric(std::slice::from_ref(&traced[slot]));
        print_summaries(workload, "traced", &layer_lists);
        per_layer.push((
            workload.name(),
            obj(layer_lists.iter().map(|(n, v)| (n.clone(), summary_json(n, v)))),
        ));
    }
    let result = obj([
        ("claim", Value::Null),
        ("seed", count(args.seed)),
        ("seconds", num(args.seconds)),
        ("quick", Value::Bool(args.quick)),
        ("nproc", count(nproc as u64)),
        ("repetitions", count(reps as u64)),
        ("end_to_end", obj(end_to_end)),
        ("per_layer", obj(per_layer)),
        ("operations", obj(operations)),
    ]);
    write_result(args, "result.json", &result)?;
    Ok(all_correct)
}

fn write_result(args: &Args, name: &str, result: &Value) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let path = args.out_dir.join(name);
    std::fs::write(&path, render_pretty(result)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(())
}

/// Whether `b` beats `a` on a metric of direction `better`.
fn beats(better: Better, b: f64, a: f64) -> Option<bool> {
    if a == b {
        None
    } else {
        Some(if better == Better::Lower { b < a } else { b > a })
    }
}

/// Interleaved A/B: `pairs` pairs per workload, the side that goes first
/// alternating.  Reports each side's median and quartiles and, per metric,
/// how many pairs B won; B counts as a gain (or loss) only when it wins (or
/// loses) at least nine tenths of the pairs, ties counting for neither, and
/// the medians differ by more than A's own inter-quartile distance.
fn pairs(args: &Args) -> Result<bool, String> {
    let e2e = sibling("e2e")?;
    let (a_bin, b_bin) = (&args.dsearch_bins[0], &args.dsearch_bins[1]);
    let pairs = if args.pairs == 0 { 10 } else { args.pairs };
    println!("# A = {}\n# B = {}\n# {pairs} pairs per workload", a_bin.display(), b_bin.display());
    let mut all_correct = true;
    let mut report = Vec::new();
    for &workload in &Workload::ALL {
        let (mut a_runs, mut b_runs) = (Vec::new(), Vec::new());
        for pair in 0..pairs {
            eprintln!("[pair {}/{pairs}] {}", pair + 1, workload.name());
            if pair % 2 == 0 {
                a_runs.push(run_one(&e2e, args, workload, Some(a_bin))?);
                b_runs.push(run_one(&e2e, args, workload, Some(b_bin))?);
            } else {
                b_runs.push(run_one(&e2e, args, workload, Some(b_bin))?);
                a_runs.push(run_one(&e2e, args, workload, Some(a_bin))?);
            }
        }
        all_correct &= a_runs.iter().chain(&b_runs).all(|r| r.correct);
        let (a_lists, b_lists) = (by_metric(&a_runs), by_metric(&b_runs));
        let mut metrics = Vec::new();
        for ((name, a), (_, b)) in a_lists.iter().zip(&b_lists) {
            let Some(def) = metric_def(name) else { continue };
            let (sa, sb) = (Summary::of(a), Summary::of(b));
            let outcomes: Vec<bool> =
                a.iter().zip(b).filter_map(|(&a, &b)| beats(def.better, b, a)).collect();
            let wins = outcomes.iter().filter(|&&won| won).count();
            let losses = outcomes.len() - wins;
            let beyond_noise = (sb.median - sa.median).abs() > sa.q3 - sa.q1;
            let needed = (pairs * 9).div_ceil(10);
            let verdict = if wins >= needed && beyond_noise {
                "gain"
            } else if losses >= needed && beyond_noise {
                "loss"
            } else {
                "no difference shown"
            };
            println!(
                "{:16} {name:18} A {:.4} [{:.4}, {:.4}]  B {:.4} [{:.4}, {:.4}] {}  B/A {:.4} (base A)  \
                 B won {wins}/{pairs}, lost {losses}  -> {verdict}",
                workload.name(),
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                def.unit,
                sb.median / sa.median,
            );
            metrics.push((
                name.clone(),
                obj([
                    ("a", summary_json(name, a)),
                    ("b", summary_json(name, b)),
                    ("b_wins", count(wins as u64)),
                    ("b_losses", count(losses as u64)),
                    ("verdict", text(verdict)),
                ]),
            ));
        }
        report.push((workload.name(), obj(metrics)));
    }
    let result = obj([
        ("a", text(&a_bin.display().to_string())),
        ("b", text(&b_bin.display().to_string())),
        ("pairs", count(pairs as u64)),
        ("seed", count(args.seed)),
        ("workloads", obj(report)),
    ]);
    write_result(args, "pairs.json", &result)?;
    Ok(all_correct)
}

/// The verdict on one metric of one workload across two result files.
fn verdict(def_better: Better, bound: f64, a: &Summary, b: &Summary) -> &'static str {
    if a.spread() > bound || b.spread() > bound {
        return "unresolved";
    }
    // How much worse B is than A, as a share of A.
    let worse_by = match def_better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    }
}

fn summary_of(value: &Value) -> Option<Summary> {
    Some(Summary {
        median: get_num(value, "median")?,
        q1: get_num(value, "q1")?,
        q3: get_num(value, "q3")?,
        n: get_num(value, "n")? as usize,
    })
}

fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["nproc", "seconds", "quick"] {
        if get(&a, key) != get(&b, key) {
            return Err(format!("the two files differ in {key}: their results are not comparable"));
        }
    }
    println!("# A = {a_path}\n# B = {b_path}");
    let mut counts = std::collections::BTreeMap::new();
    let workloads =
        get(&a, "end_to_end").and_then(Value::as_object).ok_or("A has no end_to_end")?;
    for (workload, metrics) in workloads {
        let side = |file: &Value, name: &str| {
            get(get(get(file, "end_to_end")?, workload)?, name).and_then(summary_of)
        };
        let names = END_TO_END.iter().map(|def| def.name).chain(UNGATED_TIMES);
        for (name, def) in names.filter_map(|name| Some((name, metric_def(name)?))) {
            let gated = def.bound > 0.0;
            let (sa, sb) = match (get(metrics, name).and_then(summary_of), side(&b, name)) {
                (Some(sa), Some(sb)) => (sa, sb),
                // A time the workload does not have (a build has no `qps`).
                (None, None) if !gated => continue,
                _ => return Err(format!("{workload} {name} is missing from a file")),
            };
            let verdict = if gated { verdict(def.better, def.bound, &sa, &sb) } else { "ungated" };
            *counts.entry(verdict).or_insert(0usize) += 1;
            let bound =
                if gated { format!("bound {:.0}%", def.bound * 100.0) } else { "no bound".into() };
            println!(
                "{workload:16} {name:18} A {:>12.4}  B {:>12.4} {:6} B/A {:.4} (base A)  spread A {:.1}% B {:.1}%  \
                 {bound}  {verdict}",
                sa.median,
                sb.median,
                def.unit,
                sb.median / sa.median,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
            );
        }
    }
    println!("# {counts:?}");
    Ok(!counts.contains_key("worse"))
}

fn main() {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positionals.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
            ["compare", a, b] => compare(a, b),
            ["suite"] | [] if args.dsearch_bins.len() == 2 => pairs(&args),
            ["suite"] | [] if args.dsearch_bins.len() > 2 => {
                Err("at most two --dsearch-bin (A and B)".into())
            }
            ["suite"] | [] => suite(&args),
            other => Err(format!("usage: benchmark suite [options] | benchmark compare A.json B.json (got {other:?})")),
        }
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsbench::json::get_str;

    fn summary(median: f64, q1: f64, q3: f64) -> Summary {
        Summary { median, q1, q3, n: 3 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |m: f64| summary(m, m * 0.99, m * 1.01);
        // Lower is better, bound 10 %.
        assert_eq!(verdict(Better::Lower, 0.1, &steady(100.0), &steady(105.0)), "same");
        assert_eq!(verdict(Better::Lower, 0.1, &steady(100.0), &steady(111.0)), "worse");
        assert_eq!(verdict(Better::Lower, 0.1, &steady(100.0), &steady(89.0)), "better");
        // Higher is better: the same numbers read the other way.
        assert_eq!(verdict(Better::Higher, 0.1, &steady(100.0), &steady(111.0)), "better");
        assert_eq!(verdict(Better::Higher, 0.1, &steady(100.0), &steady(89.0)), "worse");
        // A spread wider than the bound on either side resolves nothing.
        let noisy = summary(100.0, 90.0, 105.0);
        assert_eq!(verdict(Better::Lower, 0.1, &noisy, &steady(150.0)), "unresolved");
        assert_eq!(verdict(Better::Lower, 0.1, &steady(100.0), &noisy), "unresolved");
    }

    #[test]
    fn ties_count_for_neither_side() {
        assert_eq!(beats(Better::Lower, 1.0, 1.0), None);
        assert_eq!(beats(Better::Lower, 0.9, 1.0), Some(true));
        assert_eq!(beats(Better::Higher, 0.9, 1.0), Some(false));
    }

    #[test]
    fn runs_fold_into_per_metric_lists_in_first_seen_order() {
        let run = |p50: f64| Run {
            correct: true,
            attempted: 10.0,
            failed: 0.0,
            metrics: vec![("setup_s".into(), 1.0), ("p50_us".into(), p50)],
        };
        let lists = by_metric(&[run(10.0), run(12.0), run(11.0)]);
        assert_eq!(lists[0], ("setup_s".to_owned(), vec![1.0, 1.0, 1.0]));
        assert_eq!(lists[1], ("p50_us".to_owned(), vec![10.0, 12.0, 11.0]));
        let json = summary_json("p50_us", &lists[1].1);
        assert_eq!(get_num(&json, "median"), Some(11.0));
        assert_eq!(get_str(&json, "unit"), Some("us"));
        assert_eq!(summary_of(&json).unwrap().n, 3);
        let ops = operations_json(&[run(1.0), run(2.0)]);
        assert_eq!(get_num(&ops, "attempted"), Some(20.0));
    }
}
