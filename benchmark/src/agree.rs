//! `--all` (every workload, untraced then traced, one JSON document) and
//! `--check` (do two sets of runs of the same code agree?).
//!
//! Both start one child process per run, one at a time: a workload's peak
//! RSS must be its own, and nothing else may compete for the two cores.

use std::process::{Command, ExitCode, Stdio};

use crate::report::{scan_top, scan_value, END_TO_END, PER_LAYER};
use crate::WORKLOADS;

/// End-to-end metrics measured on the host, with how far two runs of the
/// same code may differ in them (their `BENCHMARK.json` bounds); everything
/// else an untraced run reports is simulated time and must repeat exactly
/// for a seed.
const HOST_SIDE: [(&str, f64); 2] = [("setup_s", 0.25), ("peak_rss_mib", 0.06)];

/// Runs one child; echoes its notes and returns its result line.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    eprintln!("== {workload} seed {seed} trace {}", u8::from(trace));
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or_default().to_string();
    for line in lines {
        eprintln!("{line}");
    }
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    if scan_top(&result, "correct").as_deref() != Some("true") {
        return Err(format!("{workload} seed {seed}: no correct result line"));
    }
    Ok(result)
}

/// Every workload untraced, then every workload traced; one JSON document
/// on stdout with every metric by name and unit.
pub fn all(seed: u64, seconds: u64) -> ExitCode {
    let mut doc = Vec::new();
    for trace in [false, true] {
        for workload in WORKLOADS {
            match child(workload, seed, seconds, trace) {
                Ok(line) => doc.push((workload, trace, line)),
                Err(e) => {
                    eprintln!("rapilog-benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("{{");
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let line = |t: bool| {
            &doc.iter()
                .find(|d| d.0 == *workload && d.1 == t)
                .expect("ran")
                .2
        };
        println!(
            "  \"{workload}\": {{\n    \"end_to_end\": {},\n    \"per_layer\": {}\n  }}{}",
            line(false),
            line(true),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    println!("}}");
    ExitCode::SUCCESS
}

/// Every name `BENCHMARK.json` must declare appears there, and nothing
/// else does (by count).
fn declaration_agrees() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let names = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0));
    let mut expected = 0;
    for name in names {
        expected += 1;
        if !text.contains(&format!("\"name\": \"{name}\"")) {
            return Err(format!("BENCHMARK.json does not declare {name}"));
        }
    }
    // `BENCHMARK.json` keeps one entry per line.
    for (name, bound) in HOST_SIDE {
        let declared = text
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .is_some_and(|l| l.contains(&format!("\"bound\": {bound}}}")));
        if !declared {
            return Err(format!("BENCHMARK.json does not bound {name} at {bound}"));
        }
    }
    let declared = text.matches("\"name\": ").count();
    if declared != expected {
        return Err(format!(
            "BENCHMARK.json declares {declared} names, the program reports {expected}"
        ));
    }
    Ok(())
}

/// Each workload twice with `seed` and once with `seed + 1`: simulated-time
/// metrics and counts must be identical across the same-seed pair, and
/// host-side metrics must agree within their bounds.
pub fn check(seed: u64, seconds: u64) -> ExitCode {
    let mut problems = Vec::new();
    if let Err(e) = declaration_agrees() {
        problems.push(e);
    }
    for workload in WORKLOADS {
        let runs: Result<Vec<String>, String> = [seed, seed, seed + 1]
            .into_iter()
            .map(|s| child(workload, s, seconds, false))
            .collect();
        let runs = match runs {
            Ok(runs) => runs,
            Err(e) => {
                problems.push(e);
                continue;
            }
        };
        println!("{workload}");
        println!(
            "  {:<16} {:>18} {:>18} {:>18}",
            "metric",
            format!("seed {seed}"),
            format!("seed {seed} again"),
            format!("seed {}", seed + 1)
        );
        for key in ["attempted", "failed"] {
            let v: Vec<String> = runs
                .iter()
                .map(|r| scan_top(r, key).unwrap_or_default())
                .collect();
            println!("  {key:<16} {:>18} {:>18} {:>18}", v[0], v[1], v[2]);
            if v[0] != v[1] {
                problems.push(format!(
                    "{workload}: {key} {} vs {} for the same seed",
                    v[0], v[1]
                ));
            }
        }
        for &(name, unit) in END_TO_END {
            let v: Vec<f64> = runs
                .iter()
                .map(|r| scan_value(r, name).unwrap_or(f64::NAN))
                .collect();
            println!("  {name:<16} {:>18} {:>18} {:>18} {unit}", v[0], v[1], v[2]);
            if v.iter().any(|x| x.is_nan()) {
                problems.push(format!("{workload}: {name} missing from a result line"));
            } else if let Some(&(_, bound)) = HOST_SIDE.iter().find(|h| h.0 == name) {
                let apart = (v[0] - v[1]).abs() / v[0].min(v[1]);
                if apart > bound {
                    problems.push(format!(
                        "{workload}: {name} {} vs {} for the same seed ({:.1} % apart)",
                        v[0],
                        v[1],
                        apart * 100.0
                    ));
                }
            } else if v[0].to_bits() != v[1].to_bits() {
                problems.push(format!(
                    "{workload}: {name} {} vs {} for the same seed",
                    v[0], v[1]
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("CHECK OK: same-seed runs agree");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("CHECK FAILED: {p}");
        }
        ExitCode::FAILURE
    }
}
