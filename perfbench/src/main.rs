//! `perfbench --workload static|adaptive|churn --seed N --seconds S --trace 0|1`
//!
//! Prints a detail line, then the result as one JSON object on the last
//! line. Exits 1 when a correctness check fails and 2 on bad arguments.

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    let report = perfbench::run(&args, process_start);
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    for v in &report.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
