//! Command line of the benchmark:
//!
//! ```text
//! cheetah-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON line with the run stamp, then, as the last line, the
//! result: `{"correct", "attempted", "failed", "metrics"}`. A result that
//! differs from the oracle is counted in the result line, not fatal; the
//! exit code is 2 only for a bad command line.

use std::path::PathBuf;
use std::process::ExitCode;

use cheetah_perfbench::workload::Workload;
use cheetah_perfbench::{run, Config};

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: cheetah-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Config> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = Some(false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return None,
        }
    }
    let workload = workload?;
    Some(Config {
        workload,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
        rows: None,
        trace_out: Some(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}.tsv", workload.name())),
        ),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cfg) = parse(&args) else {
        return usage();
    };
    let outcome = run(&cfg);
    println!("{{\"stamp\": {}}}", outcome.stamp);
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
