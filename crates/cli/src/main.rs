//! The `riskroute` binary: argument I/O around the testable library.

use riskroute_cli::{parse_args, run, CliError};
use std::io::Write;

/// Write to stdout, exiting quietly when the consumer (e.g. `head`) closed
/// the pipe — standard CLI hygiene.
fn emit(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = writeln!(stdout, "{text}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error writing output: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(CliError::Help(usage)) => {
            emit(usage.trim_end());
            return;
        }
        Err(err) => fail(&err),
    };
    match run(&cli) {
        Ok(output) => emit(output.trim_end()),
        Err(err) => fail(&err),
    }
}

/// Print `err` (with its cause chain — see [`riskroute::render_chain`],
/// which [`CliError`]'s `Display` delegates to for core errors) and exit
/// with the family's code. The write is unchecked: `eprintln!` would panic
/// on a closed stderr pipe (`riskroute explode 2>&1 | head`), turning every
/// exit code into 101 — the exit code is the contract, not the text.
fn fail(err: &CliError) -> ! {
    let mut stderr = std::io::stderr().lock();
    let _ = writeln!(stderr, "{err}");
    std::process::exit(err.exit_code());
}
