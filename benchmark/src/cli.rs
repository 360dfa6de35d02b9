//! Command-line arguments shared by the benchmark's binaries.

use std::path::PathBuf;

use crate::harness::{Env, Scale, Workload};

/// Parsed `--name value` arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    /// Measured seconds of one run.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// `e2e` only: after the gated metrics, print the ungated times the run
    /// measured as well (the driver's line has the gated ones alone).
    pub measured: bool,
    /// Program builds to drive; more than one asks for an interleaved A/B.
    pub dsearch_bins: Vec<PathBuf>,
    pub pairs: usize,
    pub out_dir: PathBuf,
    /// Positional arguments (`compare A.json B.json`).
    pub positionals: Vec<String>,
}

impl Args {
    /// Parses `raw` (without the program name).
    ///
    /// # Errors
    ///
    /// Fails on an unknown option, a missing or malformed value, or an
    /// unknown workload name.
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            quick: false,
            measured: false,
            dsearch_bins: Vec::new(),
            pairs: 0,
            out_dir: PathBuf::from("benchmark/out"),
            positionals: Vec::new(),
        };
        let mut seconds_given = false;
        let mut iter = raw.into_iter();
        while let Some(token) = iter.next() {
            let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
            match token.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    args.workload =
                        Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
                }
                "--seed" => args.seed = number(&value("--seed")?)?,
                "--seconds" => {
                    args.seconds = number(&value("--seconds")?)?;
                    seconds_given = true;
                }
                "--trace" => args.trace = number::<u8>(&value("--trace")?)? != 0,
                "--pairs" => args.pairs = number(&value("--pairs")?)?,
                "--dsearch-bin" => args.dsearch_bins.push(value("--dsearch-bin")?.into()),
                "--out-dir" => args.out_dir = value("--out-dir")?.into(),
                "--quick" => args.quick = true,
                "--measured" => args.measured = true,
                other if other.starts_with("--") => return Err(format!("unknown option {other}")),
                _ => args.positionals.push(token),
            }
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        if args.quick && !seconds_given {
            args.seconds = 1.0;
        }
        Ok(args)
    }

    /// The environment of a run against the first `--dsearch-bin` (or the
    /// program built into the target directory).
    ///
    /// # Errors
    ///
    /// Fails when the program or the scratch directory is missing.
    pub fn env(&self) -> Result<Env, String> {
        let dsearch = match self.dsearch_bins.first() {
            Some(path) => path.clone(),
            None => {
                let target =
                    std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
                PathBuf::from(target).join("release").join("dsearch")
            }
        };
        // Children are spawned from temp dirs' parents, so the path must not
        // depend on the working directory.
        let dsearch = std::fs::canonicalize(&dsearch)
            .map_err(|e| format!("dsearch binary {}: {e}", dsearch.display()))?;
        std::fs::create_dir_all(&self.out_dir)
            .map_err(|e| format!("scratch directory {}: {e}", self.out_dir.display()))?;
        let out = std::fs::canonicalize(&self.out_dir).map_err(|e| e.to_string())?;
        let scale = if self.quick { Scale::quick() } else { Scale::standard() };
        Ok(Env {
            dsearch,
            out,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            scale,
        })
    }
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("not a number: {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(tokens.iter().map(|t| (*t).to_owned()))
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let args =
            parse(&["--workload", "serve_cold", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(args.workload, Some(Workload::ServeCold));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(!parse(&["--trace", "0"]).unwrap().trace);
    }

    #[test]
    fn quick_shortens_the_run_unless_told_otherwise() {
        assert_eq!(parse(&["--quick"]).unwrap().seconds, 1.0);
        assert_eq!(parse(&["--quick", "--seconds", "3"]).unwrap().seconds, 3.0);
        assert_eq!(parse(&[]).unwrap().seconds, 10.0);
    }

    #[test]
    fn repeated_binaries_and_positionals_are_kept_in_order() {
        let args =
            parse(&["compare", "--dsearch-bin", "a", "x.json", "--dsearch-bin", "b"]).unwrap();
        assert_eq!(args.dsearch_bins, [PathBuf::from("a"), PathBuf::from("b")]);
        assert_eq!(args.positionals, ["compare", "x.json"]);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--workload", "serve_warm"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
