//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload on the harness's own
//! deployment, repeating the identical seeded run until `--seconds` of
//! host time have passed (three runs at least), and reports the
//! end-to-end metrics: virtual-time latencies and throughput from the
//! first run, host time as the median over the runs. With `--trace 1`
//! it runs the workload once plain and once on a wrapped copy of the
//! deployment, checks that both behaved identically, and reports the
//! per-layer metrics of the wrapped run. The last line of standard
//! output is one JSON object; every output check that fails is named
//! on standard error, makes `correct` false and the exit code 1.

mod client;
mod deploy;
mod host;
mod report;
mod run;
mod trace;
mod workload;

use std::time::Instant;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Runs at least this many repetitions, so set-up time has a median.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "error: unknown workload {:?}; expected one of {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };

    let (mut failures, result) = if args.trace {
        let plain = run::run(&spec, args.seed, false);
        let traced = run::run(&spec, args.seed, true);
        let mut failures = plain.failures.clone();
        failures.extend(traced.failures.iter().cloned());
        if let Some(diff) = plain.virtual_difference(&traced) {
            failures.push(format!("traced run diverged from the plain run: {diff}"));
        }
        let metrics = report::per_layer(&plain, &traced);
        (failures, report::Output::new(&plain, metrics))
    } else {
        let started = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
            let rep = run::run(&spec, args.seed, false);
            println!("{}", rep.summary_line(reps.len()));
            reps.push(rep);
        }
        let mut failures = reps[0].failures.clone();
        for (i, rep) in reps.iter().enumerate().skip(1) {
            if let Some(diff) = reps[0].virtual_difference(rep) {
                failures.push(format!("run {i} of the same seed diverged: {diff}"));
            }
        }
        let metrics = report::end_to_end(&spec, &reps);
        (failures, report::Output::new(&reps[0], metrics))
    };
    for line in result.sample_lines() {
        println!("{line}");
    }
    failures.dedup();
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", result.to_json(failures.is_empty()));
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
