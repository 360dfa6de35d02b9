//! Binary entry point for `dsearch-cli`.

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dsearch_cli::run(raw) {
        Ok(output) => {
            let mut stdout = io::stdout().lock();
            match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                Ok(()) => ExitCode::SUCCESS,
                // Whoever was reading stopped (`dsearch search … | head`): the
                // command did its work, and there is no one left to tell.
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("dsearch: writing output: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("dsearch: {e}");
            if matches!(e, dsearch_cli::CliError::Usage(_)) {
                eprintln!("\n{}", dsearch_cli::usage());
            }
            ExitCode::FAILURE
        }
    }
}
