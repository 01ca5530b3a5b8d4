//! One wall-clock benchmark for the whole lab.
//!
//! ```text
//! greenness-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]
//!     one run of one workload; the last stdout line is the result object
//! greenness-benchmark [--seed N] [--seconds S] [--smoke] [--save DIR]
//!     every workload, each pass in a fresh child process: the end-to-end
//!     pass, then the traced pass
//! greenness-benchmark --repeat-check [--seed N] [--save DIR]
//!     the end-to-end pass twice, back to back, in opposite workload order;
//!     fails if any metric differs by more than its bound
//! ```
//!
//! Exit status is non-zero when any correctness check fails.

mod gen;
mod heap;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use report::{MetricDef, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::Ctx;

/// Measuring budget per run when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;
/// Budget per run under `--smoke`.
const SMOKE_SECONDS: f64 = 0.3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
    save: Option<String>,
    spans_out: Option<String>,
}

fn usage() -> String {
    "usage: greenness-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--spans-out FILE] [--smoke] [--repeat-check] [--save DIR]\n  workloads: "
        .to_string()
        + &WORKLOADS.join(" ")
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        repeat_check: false,
        save: None,
        spans_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--smoke" => args.smoke = true,
            "--repeat-check" => args.repeat_check = true,
            "--save" => args.save = Some(value()?),
            "--spans-out" => args.spans_out = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let outcome = match &args.workload {
        Some(name) => run_one(name, &args, seconds),
        None if args.repeat_check => repeat_check(&args, seconds),
        None => run_all(&args, seconds),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload in this process. The result object is the last
/// line of stdout.
fn run_one(name: &str, args: &Args, seconds: f64) -> Result<bool, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
    };
    let result = workloads::run(name, &ctx, args.trace, args.spans_out.as_deref())?;
    println!("{}", result.to_json());
    Ok(result.correct)
}

/// One pass of one workload in a fresh child process: its stdout, and the
/// result parsed from the last line.
fn child(
    name: &str,
    args: &Args,
    seconds: f64,
    trace: bool,
) -> Result<(String, RunResult), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    let defs: &'static [MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let result = RunResult::parse(last, defs).map_err(|e| {
        format!(
            "{name} child ({}) printed no result: {e}\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    Ok((stdout, result))
}

/// Everything but the result line of a child's stdout.
fn narrative(stdout: &str) -> String {
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.pop();
    lines.join("\n") + "\n"
}

fn environment(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "\"seed\":{},\"nproc\":{nproc},\"rustc\":\"{rustc}\",\"smoke\":{}",
        args.seed, args.smoke
    )
}

/// One pass's results, in run order.
type Pass = Vec<(&'static str, RunResult)>;

/// One end-to-end pass over `order`, and its result-file body.
fn e2e_pass(order: &[&'static str], args: &Args, seconds: f64) -> Result<(Pass, String), String> {
    let mut results = Vec::new();
    for &name in order {
        let (stdout, result) = child(name, args, seconds, false)?;
        print!("{}", narrative(&stdout));
        results.push((name, result));
    }
    let body: Vec<String> = results
        .iter()
        .map(|(name, r)| format!("\"{name}\":{}", r.to_json()))
        .collect();
    let file = format!(
        "{{{},\"pass\":\"end_to_end\",\"seconds\":{seconds:?},\"order\":[{}],\"results\":{{{}}}}}\n",
        environment(args),
        order
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(","),
        body.join(",")
    );
    Ok((results, file))
}

fn save(args: &Args, file: &str, contents: &str) -> Result<(), String> {
    let Some(dir) = &args.save else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = format!("{dir}/{file}");
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Every workload: the end-to-end pass, then the traced pass.
fn run_all(args: &Args, seconds: f64) -> Result<bool, String> {
    let tag = if args.smoke { "smoke" } else { "full" };
    println!(
        "== end-to-end pass (tracing off), seed {}, {seconds} s per workload ==",
        args.seed
    );
    let (e2e, file) = e2e_pass(&WORKLOADS, args, seconds)?;
    save(args, &format!("e2e-{tag}-seed{}.json", args.seed), &file)?;

    println!("== traced pass (per-layer), seed {} ==", args.seed);
    let mut ok = e2e.iter().all(|(_, r)| r.correct);
    let mut traced_text = format!("{{{}}}\n", environment(args));
    for name in WORKLOADS {
        let (stdout, result) = child(name, args, seconds, true)?;
        print!("{}", narrative(&stdout));
        traced_text.push_str(&stdout);
        ok &= result.correct;
    }
    save(
        args,
        &format!("traced-{tag}-seed{}.txt", args.seed),
        &traced_text,
    )?;

    println!("== summary ==");
    for (name, r) in &e2e {
        let cells: Vec<String> = r
            .metrics
            .iter()
            .map(|(d, v)| format!("{} {v:.4} {}", d.name, d.unit))
            .collect();
        println!(
            "{name:<17} {}  failed {}/{}",
            cells.join("  "),
            r.failed,
            r.attempted
        );
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// The end-to-end pass twice, back to back, in opposite workload order:
/// every metric × workload must agree within the metric's own bound.
fn repeat_check(args: &Args, seconds: f64) -> Result<bool, String> {
    let forward = WORKLOADS;
    let mut backward = WORKLOADS;
    backward.reverse();
    println!(
        "== repeat check, pass A (forward order), seed {} ==",
        args.seed
    );
    let (a, file_a) = e2e_pass(&forward, args, seconds)?;
    save(args, &format!("repeat-seed{}-a.json", args.seed), &file_a)?;
    println!("== repeat check, pass B (reverse order) ==");
    let (b, file_b) = e2e_pass(&backward, args, seconds)?;
    save(args, &format!("repeat-seed{}-b.json", args.seed), &file_b)?;

    println!("== repeat check: |B - A| / A against each metric's bound ==");
    let mut ok = true;
    let mut table = String::new();
    for (name, ra) in &a {
        let rb = &b
            .iter()
            .find(|(n, _)| n == name)
            .expect("both passes ran every workload")
            .1;
        ok &= ra.correct && rb.correct;
        for (d, va) in ra.metrics.iter() {
            let vb = rb.metrics.get(d.name);
            let diff = (vb - va).abs() / va.abs().max(1e-300);
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let verdict = if diff <= bound { "ok" } else { "EXCEEDS" };
            ok &= diff <= bound;
            table.push_str(&format!(
                "{name:<17} {:<12} A {va:>14.6} B {vb:>14.6} {}  diff {:>6.2} %  bound {:>4.0} %  {verdict}\n",
                d.name,
                d.unit,
                diff * 100.0,
                bound * 100.0
            ));
        }
    }
    print!("{table}");
    save(args, &format!("repeat-seed{}-diff.txt", args.seed), &table)?;
    println!(
        "{}",
        if ok {
            "repeat check passed"
        } else {
            "REPEAT CHECK FAILED"
        }
    );
    Ok(ok)
}
