//! The RapiLog benchmark. See `benchmark/README.md` for what it measures
//! and why; `BENCHMARK.json` at the repository root declares the names.
//!
//! ```text
//! rapilog-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! rapilog-benchmark --all   [--seed <n>] [--seconds <n>]
//! rapilog-benchmark --check [--seed <n>] [--seconds <n>]
//! ```
//!
//! One workload runs per process, single-threaded, so `peak_rss_mib` is per
//! workload and the numbers measure the program, not the scheduler. `--all`
//! and `--check` start one child process per run, one at a time.

mod agree;
mod alloc;
mod drive;
mod machine;
mod measure;
mod probes;
mod report;
mod saturate;
mod spans;
mod tracefold;
mod trials;

use std::process::ExitCode;

use measure::Stopwatch;
use report::Outcome;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "storm_hdd",
    "saturate_nvme4",
    "tpcc_mixed",
    "crash_recover",
    "pair_failover",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Host seconds the timed section is sized for. The work is a fixed
    /// function of this number (simulated-time metrics must repeat exactly
    /// for a seed), calibrated so it takes about this long on the box the
    /// reference numbers come from.
    pub seconds: u64,
    pub trace: bool,
}

enum Mode {
    One(Args),
    All { seed: u64, seconds: u64 },
    Check { seed: u64, seconds: u64 },
}

fn parse(argv: &[String]) -> Result<Mode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let (mut all, mut check) = (false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.to_string()),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--all" => all = true,
            "--check" => check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: expected 1..=60"));
    }
    match (workload, all, check) {
        (Some(workload), false, false) => {
            if !WORKLOADS.contains(&workload.as_str()) {
                return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
            }
            Ok(Mode::One(Args {
                workload,
                seed,
                seconds,
                trace,
            }))
        }
        (None, true, false) => Ok(Mode::All { seed, seconds }),
        (None, false, true) => Ok(Mode::Check { seed, seconds }),
        _ => Err("give exactly one of --workload <name>, --all, --check".into()),
    }
}

fn run_one(args: &Args, start: Stopwatch) -> Outcome {
    macro_rules! drive {
        ($workload:expr) => {{
            let w = $workload;
            if args.trace {
                drive::per_layer(&w, args)
            } else {
                drive::end_to_end(&w, start)
            }
        }};
    }
    match args.workload.as_str() {
        "storm_hdd" => drive!(machine::storm_hdd(args)),
        "saturate_nvme4" => drive!(saturate::saturate_nvme4(args)),
        "tpcc_mixed" => drive!(machine::tpcc_mixed(args)),
        "crash_recover" => drive!(trials::crash_recover(args)),
        "pair_failover" => drive!(trials::pair_failover(args)),
        other => unreachable!("parse() admitted workload {other}"),
    }
}

fn main() -> ExitCode {
    let start = Stopwatch::start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse(&argv) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("rapilog-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::One(args) => {
            println!(
                "# workload {} seed {} seconds {} trace {}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            let outcome = run_one(&args, start);
            for failure in &outcome.check_failures {
                println!("# CHECK FAILED: {failure}");
            }
            // The result is always the last line. Audit failures inside
            // trials are counted, not fatal; a failed output check or a
            // determinism mismatch is.
            println!("{}", outcome.result_line());
            if outcome.check_failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Mode::All { seed, seconds } => agree::all(seed, seconds),
        Mode::Check { seed, seconds } => agree::check(seed, seconds),
    }
}
