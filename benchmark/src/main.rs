//! One reconciled benchmark of the powerscale stack: five workloads, the
//! end-to-end metrics a user of the system sees and a per-layer ledger,
//! every number taken from outside through public functions.
//!
//! ```text
//! powerscale-benchmark [--workload <name>] [--seed <n>] [--seconds <s>]
//!                      [--trace <0|1>] [--repeat <k>]
//! powerscale-benchmark --compare <a.json> <b.json>
//! ```
//!
//! The process started by this command line only orchestrates: every
//! workload runs in fresh child processes of the same executable (the
//! kernel and dtype tiers under test are process globals, and `setup_s`
//! and `peak_rss_mb` are properties of a process). The last line of
//! standard output is the result object of the (last) workload.

mod compare;
mod dist_wl;
mod gemm_wl;
mod host;
mod json;
mod layers;
mod run;
mod serve_wl;
mod spec;
mod stats;
mod trace;

use json::{get, num, obj};
use run::{Ctx, Mode, Report};
use serde::Value;
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use stats::Sample;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: powerscale-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--repeat <k>]\n       powerscale-benchmark --compare <a.json> <b.json>";

/// Fresh processes behind one `setup_s`: the measuring one and
/// `SETUP_SAMPLES - 1` that only set up. The driver compares medians of
/// `setup_s` over runs, and asks for several set-ups per run.
const SETUP_SAMPLES: usize = 5;
/// A child that has not finished by then is killed: one invocation must
/// end, with every process it started, well inside the driver's limit.
const INVOCATION_LIMIT: Duration = Duration::from_secs(170);

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    child: Option<Mode>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: None,
        seed: 2015,
        seconds: 12.0,
        traced: false,
        repeat: 1,
        child: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i)
            .cloned()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
    };
    fn parsed<T: std::str::FromStr>(flag: &str, v: &str) -> T {
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag}: cannot parse `{v}`")))
    }
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload");
                if spec::workload(&w).is_none() {
                    usage_error(&format!("unknown workload `{w}`"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = parsed("--seed", &value(&mut i, "--seed")),
            "--seconds" => {
                args.seconds = parsed("--seconds", &value(&mut i, "--seconds"));
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    usage_error("--seconds must be in (0, 60]");
                }
            }
            "--trace" => {
                args.traced = match value(&mut i, "--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage_error(&format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                args.repeat = parsed("--repeat", &value(&mut i, "--repeat"));
                if args.repeat == 0 {
                    usage_error("--repeat must be at least 1");
                }
            }
            "--child" => {
                args.child = Some(match value(&mut i, "--child").as_str() {
                    "setup" => Mode::SetupOnly,
                    "measure" => Mode::Measure,
                    "trace" => Mode::Trace,
                    other => usage_error(&format!("unknown child mode `{other}`")),
                })
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    args
}

// ---------------------------------------------------------------------------
// child side
// ---------------------------------------------------------------------------

fn report_to_value(name: &str, ctx: &Ctx, report: &Report) -> Value {
    let metrics = if ctx.mode == Mode::Trace {
        // Every row of the ledger, 0 where this workload's calls do not
        // reach the layer.
        PER_LAYER
            .iter()
            .map(|m| {
                let v = report
                    .layers
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name.to_string(), Sample::single(v).to_value(m.unit))
            })
            .collect()
    } else {
        report
            .e2e
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_value(spec::unit_of(n).unwrap_or(""))))
            .collect()
    };
    obj(vec![
        ("workload", Value::String(name.into())),
        (
            "header",
            host::header(ctx.seed, ctx.seconds, ctx.mode == Mode::Trace),
        ),
        ("setup_s", Value::Float(report.setup_s)),
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::UInt(report.attempted)),
        ("failed", Value::UInt(report.failed)),
        (
            "checks",
            Value::Array(
                report
                    .checks
                    .iter()
                    .map(|(n, ok, d)| {
                        obj(vec![
                            ("name", Value::String(n.clone())),
                            ("ok", Value::Bool(*ok)),
                            ("detail", Value::String(d.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counts",
            Value::Object(
                report
                    .counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                    .collect(),
            ),
        ),
        (
            "exact",
            Value::Object(
                report
                    .exact
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Float(*v)))
                    .collect(),
            ),
        ),
        ("cells", Value::Array(report.cells.clone())),
        ("metrics", Value::Object(metrics)),
    ])
}

fn child_main(name: &str, ctx: Ctx) -> ExitCode {
    let mut report = match name {
        "gemm_large" => gemm_wl::run(&ctx, true),
        "gemm_1t" => gemm_wl::run(&ctx, false),
        "serve_f64" => serve_wl::run(&ctx, false),
        "serve_mixed_journaled" => serve_wl::run(&ctx, true),
        "dist_caps" => dist_wl::run(&ctx),
        other => usage_error(&format!("unknown workload `{other}`")),
    };
    match ctx.mode {
        // Read after the window and its checks: the process's whole life.
        Mode::Measure => report
            .e2e
            .push(("peak_rss_mb", Sample::single(host::peak_rss_mb()))),
        Mode::Trace => {
            let path = host::out_dir().join(format!("trace_{name}.json"));
            if let Err(e) = trace::write(&path, name, &report.spans) {
                eprintln!("warning: trace not written: {e}");
            }
        }
        Mode::SetupOnly => {}
    }
    let doc = report_to_value(name, &ctx, &report);
    println!(
        "{}",
        serde_json::to_string(&doc).expect("value tree renders")
    );
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// parent side
// ---------------------------------------------------------------------------

/// Runs this executable as a child and returns the JSON document on the
/// last line of its standard output. The child is killed at `deadline`.
fn spawn_child(name: &str, args: &Args, mode: &str, deadline: Instant) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", mode, "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    // The parent sleeps until the child's standard output closes (its exit)
    // or the deadline passes: a parent that polls wakes up beside the
    // workload's threads on a host with as many cores as they use.
    let mut stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = tx.send(stdout.read_to_string(&mut text).map(|_| text));
    });
    let left = deadline.saturating_duration_since(Instant::now());
    let Ok(text) = rx.recv_timeout(left) else {
        let _ = child.kill();
        let _ = child.wait();
        let _ = reader.join();
        return Err(format!(
            "{name} ({mode}) exceeded the time limit and was stopped"
        ));
    };
    let _ = reader.join();
    let text = text.map_err(|e| format!("read: {e}"))?;
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("{name} ({mode}) exited with {status}"));
    }
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{name} ({mode}) printed nothing"))?;
    serde_json::from_str(line).map_err(|e| format!("{name} ({mode}) report: {e}"))
}

/// What a workload whose child crashed, hung or reported nonsense comes to:
/// the process is the one op that was attempted, and it failed. There is
/// no second attempt — a crash of the program under test is a result.
fn failed_run(name: &str, error: &str) -> Value {
    obj(vec![
        ("workload", Value::String(name.into())),
        ("correct", Value::Bool(false)),
        ("attempted", Value::UInt(1)),
        ("failed", Value::UInt(1)),
        (
            "checks",
            Value::Array(vec![obj(vec![
                ("name", Value::String("child_process".into())),
                ("ok", Value::Bool(false)),
                ("detail", Value::String(error.into())),
            ])]),
        ),
        ("metrics", Value::Object(Vec::new())),
    ])
}

/// One workload, end to end: set-up samples, the measuring (or tracing)
/// process, the printed table, the result document.
fn run_workload(name: &str, args: &Args) -> Value {
    let deadline = Instant::now() + INVOCATION_LIMIT;
    let doc = measure(name, args, deadline).unwrap_or_else(|e| failed_run(name, &e));
    print_table(name, args, &doc);
    doc
}

/// The traced child's report, or the measuring child's with `setup_s` (the
/// median over it and the set-up-only children) put first in its metrics.
fn measure(name: &str, args: &Args, deadline: Instant) -> Result<Value, String> {
    if args.traced {
        return spawn_child(name, args, "trace", deadline);
    }
    let mut setups = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let doc = spawn_child(name, args, "setup", deadline)?;
        setups.push(num(get(&doc, "setup_s")).ok_or("set-up child reported no setup_s")?);
    }
    let mut doc = spawn_child(name, args, "measure", deadline)?;
    setups.push(num(get(&doc, "setup_s")).ok_or("measuring child reported no setup_s")?);
    let setup = Sample::median_of(&setups).to_value("s");
    match &mut doc {
        Value::Object(fields) => match fields.iter_mut().find(|(k, _)| k == "metrics") {
            Some((_, Value::Object(metrics))) => metrics.insert(0, ("setup_s".into(), setup)),
            _ => return Err("measuring child reported no metrics".into()),
        },
        _ => return Err("measuring child reported no object".into()),
    }
    Ok(doc)
}

fn print_table(name: &str, args: &Args, doc: &Value) {
    let header = get(doc, "header");
    println!(
        "== {name}  seed {}  {} s  {}  [host numbers: kernel {}, nproc {}, load threads {}, commit {}]",
        args.seed,
        args.seconds,
        if args.traced { "traced pass (per-layer)" } else { "untraced pass (end-to-end)" },
        get(header, "kernel").as_str().unwrap_or("?"),
        num(get(header, "nproc")).unwrap_or(0.0),
        num(get(header, "load_threads")).unwrap_or(0.0),
        get(header, "git_commit").as_str().unwrap_or("?"),
    );
    if let Some(w) = spec::workload(name) {
        println!("   {}", w.why);
    }
    println!(
        "{:<40} {:>16} {:<6} {:<7} {:>6} {:>8}  {}",
        "metric",
        "value",
        "unit",
        "better",
        "bound",
        "samples",
        if args.traced {
            "should move"
        } else {
            "quartiles"
        }
    );
    let metrics = get(doc, "metrics");
    let row = |name: &str, unit: &str, better: &str, bound: Option<f64>, note: &str| {
        let m = get(metrics, name);
        let Some(v) = num(get(m, "value")) else {
            return;
        };
        let n = num(get(m, "n")).unwrap_or(1.0);
        let bound = bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b));
        let note = match (num(get(m, "q1")), num(get(m, "q3"))) {
            (Some(a), Some(b)) if n > 1.0 => format!("{a:.6} .. {b:.6}"),
            _ => note.to_string(),
        };
        println!("{name:<40} {v:>16.6} {unit:<6} {better:<7} {bound:>6} {n:>8}  {note}");
    };
    if args.traced {
        for m in &PER_LAYER {
            row(m.name, m.unit, m.better.as_str(), None, m.moves);
        }
    } else {
        for m in &END_TO_END {
            row(
                m.name,
                m.unit,
                m.better.as_str(),
                Some(m.bound_on(name)),
                "",
            );
        }
    }
    let (attempted, failed) = (
        num(get(doc, "attempted")).unwrap_or(0.0),
        num(get(doc, "failed")).unwrap_or(0.0),
    );
    println!(
        "ops attempted {attempted}, failed {failed} (failed_frac {:.6}); output checks {}",
        if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        },
        if get(doc, "correct") == &Value::Bool(true) {
            "passed"
        } else {
            "FAILED"
        }
    );
    if let Value::Array(checks) = get(doc, "checks") {
        for c in checks.iter().filter(|c| get(c, "ok") != &Value::Bool(true)) {
            println!(
                "  check failed: {} — {}",
                get(c, "name").as_str().unwrap_or("?"),
                get(c, "detail").as_str().unwrap_or("")
            );
        }
    }
    if let Value::Array(cells) = get(doc, "cells") {
        for cell in cells {
            println!(
                "  count-only cell: {}",
                serde_json::to_string(cell).unwrap_or_default()
            );
        }
    }
}

/// The object the driver reads: exactly `correct`, `attempted`, `failed`,
/// `metrics`, each metric a `{value, unit}` pair.
fn result_line(doc: &Value) -> String {
    let metrics = json::entries(get(doc, "metrics"))
        .iter()
        .map(|(k, m)| {
            (
                k.clone(),
                obj(vec![
                    ("value", get(m, "value").clone()),
                    ("unit", get(m, "unit").clone()),
                ]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", get(doc, "correct").clone()),
        ("attempted", get(doc, "attempted").clone()),
        ("failed", get(doc, "failed").clone()),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("value tree renders")
}

fn out_file(stem: &str) -> PathBuf {
    host::out_dir().join(format!("{stem}.json"))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = argv.as_slice() else {
            usage_error("--compare takes two files");
        };
        let docs = json::read(a.as_ref()).and_then(|a| Ok((a, json::read(b.as_ref())?)));
        return match docs {
            Ok((a, b)) if !compare::compare(&a, &b) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = parse_args(&argv);
    if let Some(mode) = args.child {
        let name = args
            .workload
            .clone()
            .unwrap_or_else(|| usage_error("--child needs --workload"));
        return child_main(
            &name,
            Ctx {
                seed: args.seed,
                seconds: args.seconds,
                mode,
                started,
            },
        );
    }

    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let pass = if args.traced { "traced" } else { "untraced" };
    let mut all_correct = true;
    let mut sets = Vec::new();
    for rep in 1..=args.repeat {
        let mut results = Vec::new();
        for name in &names {
            let doc = run_workload(name, &args);
            all_correct &= get(&doc, "correct") == &Value::Bool(true);
            if let Err(e) = json::write(
                &out_file(&format!("result_{name}_seed{}_{pass}", args.seed)),
                &doc,
            ) {
                eprintln!("warning: result file not written: {e}");
            }
            println!("{}", result_line(&doc));
            results.push(doc);
        }
        let set = obj(vec![
            ("numbers", Value::String("host".into())),
            ("seed", Value::UInt(args.seed)),
            ("workloads", Value::Array(results)),
        ]);
        if names.len() > 1 || args.repeat > 1 {
            if let Err(e) = json::write(
                &out_file(&format!("set_seed{}_{pass}_run{rep}", args.seed)),
                &set,
            ) {
                eprintln!("warning: set file not written: {e}");
            }
        }
        sets.push(set);
    }
    let mut beyond = false;
    for pair in sets.windows(2) {
        println!("== repeatability: run A against run B of the same commit");
        beyond |= compare::compare(&pair[0], &pair[1]);
    }
    if args.repeat > 1 {
        // Keep the contract's last line last.
        if let Some(Value::Array(results)) = sets.last().map(|s| get(s, "workloads")) {
            if let Some(doc) = results.last() {
                println!("{}", result_line(doc));
            }
        }
    }
    if all_correct && !beyond {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
