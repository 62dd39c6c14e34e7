//! The FlowDiff benchmark harness.
//!
//! ```text
//! perfbench --workload <replay-steady|batch-diagnose|serve-paced>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --bin-dir <dir with flowdiff-bench and flowdiff_cli> --work-dir <dir>
//! ```
//!
//! Generates the seed's captures, runs the workload against the
//! release binaries (or, with `--trace 1`, the in-process traced run),
//! checks every output, and prints one JSON result line last.

mod alloc;
mod calib;
mod capture;
mod lines;
mod pacer;
mod proc;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use capture::{Inputs, Reference};
use workloads::{Bins, Outcome};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::new(),
        work_dir: PathBuf::new(),
        trace_dir: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--bin-dir" => args.bin_dir = value.into(),
            "--work-dir" => args.work_dir = value.into(),
            "--trace-dir" => args.trace_dir = value.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.bin_dir.as_os_str().is_empty() || args.work_dir.as_os_str().is_empty() {
        return Err("--bin-dir and --work-dir are required".into());
    }
    if args.trace_dir.as_os_str().is_empty() {
        args.trace_dir = args.work_dir.join("traces");
    }
    Ok(args)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args = parse_args()?;
    let dir = args
        .work_dir
        .join(format!("{}-{}", args.workload, args.seed));
    std::fs::create_dir_all(&dir)?;
    let inputs = Inputs::generate(&dir, args.seed)?;
    let reference = Reference::online(&inputs);
    workloads::shape(&inputs, &reference)?;
    let bins = Bins {
        bench: args.bin_dir.join("flowdiff-bench"),
        cli: args.bin_dir.join("flowdiff_cli"),
        cpus: proc::split_cpus()?,
    };
    println!("programs run on CPU {:?}", bins.cpus);
    let outcome = if args.trace {
        traced(&args, &bins, &inputs, &reference, &dir)?
    } else {
        timed(&args, &bins, &inputs, &reference, &dir)?
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(emit(&outcome))
}

/// The end-to-end run of one workload.
fn timed(
    args: &Args,
    bins: &Bins,
    inputs: &Inputs,
    reference: &Reference,
    dir: &std::path::Path,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    Ok(match args.workload.as_str() {
        "replay-steady" => workloads::replay_steady(bins, inputs, reference, dir, args.seconds)?,
        "batch-diagnose" => workloads::batch_diagnose(bins, inputs, dir, args.seconds)?,
        "serve-paced" => workloads::serve_paced(bins, inputs, reference, dir, args.seconds)?,
        other => return Err(format!("unknown workload {other}").into()),
    })
}

/// The traced in-process run, plus one untraced `watch` replay to
/// measure what tracing costs.
fn traced(
    args: &Args,
    bins: &Bins,
    inputs: &Inputs,
    reference: &Reference,
    dir: &std::path::Path,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    if !["replay-steady", "batch-diagnose", "serve-paced"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {}", args.workload).into());
    }
    let mut out = Outcome::default();
    let Some(replay) = workloads::watch_once(bins, inputs, reference, dir, &mut None, &mut out)?
    else {
        return Ok(out);
    };
    let tag = format!("{}-{}", args.workload, args.seed);
    out.metrics = trace::run(
        inputs,
        reference,
        dir,
        &args.trace_dir,
        &tag,
        replay.ready_to_final_s(),
    )?;
    Ok(out)
}

/// Prints the result line; a failed output check fails the run.
fn emit(out: &Outcome) -> ExitCode {
    for m in &out.mismatches {
        println!("check failed: {m}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let correct = out.mismatches.is_empty();
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON has no infinities or NaN: those become null.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}
