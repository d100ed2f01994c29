//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric with its distribution and
//! unit, and ends with one JSON result line. Exits 1 when a correctness
//! gate failed and 2 on bad arguments.

use std::process::ExitCode;

use perfbench::{catalog, run, run_record, Options, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    let names: Vec<&str> = catalog::catalog()
        .workloads
        .iter()
        .map(|w| w.name.as_str())
        .collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::Full,
        inject_wrong_digest: false,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let _ = std::fs::create_dir_all(perfbench::out_dir());
    let report = run(&opts);

    println!(
        "perfbench {} seed {} trace {} host.cpus {} rev {}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        perfbench::host_cpus(),
        perfbench::git_revision()
    );
    for (name, unit, s) in &report.summaries {
        let tail = s.tail.map_or_else(
            || "tail n/a (fewer than 10 samples above the median)".to_string(),
            |(level, v)| format!("p{level} {v:.6}"),
        );
        println!(
            "  {name} [{unit}]: median {:.6} q1 {:.6} q3 {:.6} {tail} n {}",
            s.median, s.q1, s.q3, s.n
        );
    }
    for (root, table) in &report.layers {
        println!(
            "  layers under `{root}`: wall {:.4} s, other {:.4} s, coverage {:.4}",
            table.wall_s,
            table.other_s,
            table.coverage()
        );
        for (layer, (self_s, n)) in &table.layers {
            println!("    {layer}: self {self_s:.4} s over {n} span(s)");
        }
    }
    for m in &report.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    for m in &report.ungated {
        println!("  {} = {} {} (not gated)", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("  {note}");
    }
    println!(
        "  {} of {} operations failed",
        report.gates.failed, report.gates.attempted
    );
    for f in &report.gates.failures {
        println!("  FAILED: {f}");
    }
    if let Some(path) = &report.trace_file {
        println!("  trace written to {}", path.display());
    }
    let record = perfbench::out_dir().join(format!(
        "result-{}-{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&record, run_record(&opts, &report)) {
        eprintln!("perfbench: could not write {}: {e}", record.display());
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
