//! `iva-perf`: the repo's one benchmark.
//!
//! ```text
//! iva-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process (the driver's form); the last line
//!     of standard output is the result object
//! iva-perf all    [--seed n] [--seconds s] [--smoke]
//!     every workload, untraced then traced, one process each; prints
//!     every metric by name with its unit and checks every answer
//! iva-perf repeat [--runs n] [--seed n] [--seconds s] [--smoke]
//!     every workload `n` times (default 2); fails if any end-to-end
//!     metric's runs differ by more than its bound, or an exact one at all
//! ```
//!
//! Run from the repository root: scratch stores and trace files go to
//! `perf/out` (or `--out <dir>`), relative to the working directory.

mod drive;
mod host;
mod json;
mod layers;
mod nosync;
mod ops;
mod oracle;
mod report;
mod run;
mod spans;
mod stats;
mod target;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use iva_storage::{write_vec, RealVfs, Vfs};

use json::Json;
use report::{MetricDef, END_TO_END, PER_LAYER};
use run::RunArgs;
use workloads::{EngineKind, Scale, Spec, Traffic, FULL, SMOKE, SPECS};

/// `run_seconds` of `BENCHMARK.json`: the run length the frozen op
/// counts are quoted for.
const DEFAULT_SECONDS: u64 = 15;

/// Parsed command line.
struct Cli {
    mode: String,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    runs: usize,
    clients: Option<usize>,
    out_dir: PathBuf,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: "one".into(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 2,
        clients: None,
        out_dir: PathBuf::from("perf/out"),
    };
    let mut args = argv.iter().skip(1).peekable();
    if let Some(first) = args.peek() {
        if !first.starts_with("--") {
            cli.mode = args.next().cloned().unwrap_or_default();
        }
    }
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes {what}"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => cli.seed = number(value("a number")?)?,
            "--seconds" => cli.seconds = number(value("a number")?)?,
            "--trace" => cli.trace = number(value("0 or 1")?)? != 0,
            "--runs" => cli.runs = number(value("a number")?)? as usize,
            "--clients" => cli.clients = Some(number(value("a number")?)? as usize),
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(cli)
}

fn scale_of(cli: &Cli) -> Scale {
    if cli.smoke {
        SMOKE
    } else {
        FULL
    }
}

/// The workload `cli` names, with `--clients` applied, refused when it
/// would run more load-generating threads than the host has cores: past
/// that point the numbers measure the scheduler.
fn spec_of(cli: &Cli) -> Result<Spec, String> {
    let name = cli
        .workload
        .as_deref()
        .ok_or("--workload is required (or use `all` / `repeat`)")?;
    let mut spec = *SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    if let (Some(n), Traffic::ReadsThenTail { clients, .. }) = (cli.clients, &mut spec.traffic) {
        *clients = n.max(1);
    }
    let cores = host::cores();
    if spec.load_threads() > cores {
        return Err(format!(
            "{name}: {} load-generating threads requested on {cores} cores; refusing",
            spec.load_threads()
        ));
    }
    Ok(spec)
}

fn op_counts_json(spec: &Spec, seconds: u64, scale: &Scale) -> Json {
    let c = spec.op_counts(seconds, scale);
    Json::obj([
        ("distinct_queries", Json::Int(c.distinct as u64)),
        ("warm_queries", Json::Int(c.warm as u64)),
        ("measured_queries", Json::Int(c.reads as u64)),
        ("write_ops", Json::Int(c.writes as u64)),
        ("repetitions", Json::Int(c.repetitions as u64)),
    ])
}

/// One workload in this process.
fn run_one(cli: &Cli) -> Result<bool, String> {
    let spec = spec_of(cli)?;
    let scale = scale_of(cli);
    RealVfs
        .create_dir_all(&cli.out_dir)
        .map_err(|e| format!("{}: {e}", cli.out_dir.display()))?;
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale,
        out_dir: cli.out_dir.clone(),
    };
    let header = Json::obj([
        ("workload", Json::str(spec.name)),
        ("why", Json::str(spec.why)),
        (
            "engine",
            Json::str(match spec.engine {
                EngineKind::Mono => "IvaDb",
                EngineKind::Lsm => "LsmDb",
            }),
        ),
        ("scale", Json::str(scale.label)),
        ("tuples", Json::Int(scale.tuples as u64)),
        ("seed", Json::Int(cli.seed)),
        ("seconds", Json::Int(cli.seconds)),
        ("traced", Json::Bool(cli.trace)),
        (
            "load",
            Json::str(match spec.traffic {
                Traffic::ReadsThenTail { clients, .. } => format!(
                    "closed loop, zero think time: {clients} query clients -> Server{{workers: {}, max_batch: 16}}, then a serial write tail",
                    spec.workers
                ),
                Traffic::Interleaved { .. } => format!(
                    "closed loop, zero think time: 1 thread interleaves write ops (maintain() after each) with queries through 1 client -> Server{{workers: {}, max_batch: 16}}",
                    spec.workers
                ),
            }),
        ),
        (
            "search",
            Json::str("search_threads = 1, k = 10, L2, equal weights"),
        ),
        ("frozen_op_counts", op_counts_json(&spec, cli.seconds, &scale)),
        ("host", host::block(&cli.out_dir)),
    ]);
    println!("{}", header.render());

    let ticks_before = host::cpu_ticks();
    let out = run::run(&spec, &args).map_err(|e| format!("{}: {e}", spec.name))?;
    for line in &out.notes {
        println!("{line}");
    }
    if let Some(((steal0, total0), (steal1, total1))) = ticks_before.zip(host::cpu_ticks()) {
        println!(
            "host steal during the run: {:.1} % of CPU time",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    for line in report::metric_lines(&out.metrics) {
        println!("{line}");
    }
    println!("failed_fraction = {} / {} ops", out.failed, out.attempted);
    if cli.trace {
        let path = run::trace_path(&cli.out_dir, spec.name);
        let doc = Json::obj([("run", header), ("spans", out.spans.to_json())]);
        write_vec(&RealVfs, &path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    println!("{}", report::result_line(&out));
    Ok(out.failed == 0)
}

/// What a child run printed.
struct ChildRun {
    metrics: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    digest: Option<String>,
}

/// Run one workload in a process of its own (peak RSS is a per-process
/// high-water mark) and read its result line back.
fn spawn_run(cli: &Cli, spec: &Spec, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out_dir);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let parsed = json::metrics_of_result_line(last).zip(
        json::scalar_of_result_line(last, "attempted")
            .and_then(|v| v.parse().ok())
            .zip(json::scalar_of_result_line(last, "failed").and_then(|v| v.parse().ok())),
    );
    let Some((metrics, (attempted, failed))) = parsed else {
        return Err(format!(
            "{} (trace {}) printed no result (exit {:?})",
            spec.name,
            u8::from(trace),
            output.status.code()
        ));
    };
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("answers_digest: "))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string);
    if !output.status.success() {
        eprintln!(
            "{} (trace {}) exited {:?}",
            spec.name,
            u8::from(trace),
            output.status.code()
        );
    }
    Ok(ChildRun {
        metrics,
        attempted,
        failed,
        digest,
    })
}

fn value_of(run: &ChildRun, name: &str) -> Option<f64> {
    run.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

fn print_table(title: &str, defs: &[MetricDef], runs: &[ChildRun]) {
    println!("\n{title}");
    print!("{:<40} {:>6}", "metric", "unit");
    for spec in SPECS.iter().take(runs.len()) {
        print!(" {:>14}", spec.name);
    }
    println!();
    for d in defs {
        print!("{:<40} {:>6}", d.name, d.unit);
        for run in runs {
            match value_of(run, d.name) {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Every workload, untraced then traced.
fn run_all(cli: &Cli) -> Result<bool, String> {
    println!(
        "{}",
        Json::obj([
            ("mode", Json::str("all")),
            ("scale", Json::str(scale_of(cli).label)),
            ("seed", Json::Int(cli.seed)),
            ("seconds", Json::Int(cli.seconds)),
            ("host", host::block(&cli.out_dir)),
            ("claim", Json::Null),
        ])
        .render()
    );
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for spec in &SPECS {
        plain.push(spawn_run(cli, spec, false)?);
        traced.push(spawn_run(cli, spec, true)?);
    }
    print_table("end-to-end (tracing off)", &END_TO_END, &plain);
    print!("{:<40} {:>6}", "failed_fraction", "ratio");
    for (p, t) in plain.iter().zip(&traced) {
        let attempted = (p.attempted + t.attempted).max(1);
        print!(" {:>14.4}", (p.failed + t.failed) as f64 / attempted as f64);
    }
    println!();
    print!("{:<40} {:>6}", "trace_overhead_fraction", "ratio");
    for (p, t) in plain.iter().zip(&traced) {
        let base = value_of(p, "query_p50_ms").unwrap_or(f64::NAN);
        let with = value_of(t, "trace.query_p50_ms").unwrap_or(f64::NAN);
        print!(" {:>14.4}", (with - base) / base);
    }
    println!();
    print!("{:<40} {:>6}", "answers_digest", "");
    for p in &plain {
        print!(
            " {:>14}",
            p.digest
                .as_deref()
                .map_or("-", |d| d.get(..12).unwrap_or(d))
        );
    }
    println!();
    print_table("per layer (tracing on)", &PER_LAYER, &traced);
    let failed: u64 = plain.iter().chain(&traced).map(|r| r.failed).sum();
    println!("\nfailed ops: {failed}");
    Ok(failed == 0)
}

/// Every workload `runs` times; the benchmark's own repeatability gate.
fn run_repeat(cli: &Cli) -> Result<bool, String> {
    let runs = cli.runs.max(2);
    let mut ok = true;
    for spec in &SPECS {
        let results: Vec<ChildRun> = (0..runs)
            .map(|_| spawn_run(cli, spec, false))
            .collect::<Result<_, _>>()?;
        println!("\n{} ({runs} runs, seed {})", spec.name, cli.seed);
        for d in &END_TO_END {
            let values: Vec<f64> = results.iter().filter_map(|r| value_of(r, d.name)).collect();
            let range = report::relative_range(d, &values);
            let verdict = if values.len() != runs {
                "MISSING"
            } else if d.exact && range != 0.0 {
                "NOT EXACT"
            } else if range > d.bound {
                "OUTSIDE BOUND"
            } else {
                "ok"
            };
            ok &= verdict == "ok";
            println!(
                "  {:<20} range {:>8.4} bound {:>5.2}{} {verdict:<14} {values:?}",
                d.name,
                range,
                d.bound,
                if d.exact { " exact" } else { "      " },
            );
        }
        let digests: Vec<&str> = results
            .iter()
            .map(|r| r.digest.as_deref().unwrap_or("-"))
            .collect();
        let same = digests.windows(2).all(|w| w.first() == w.get(1));
        ok &= same && results.iter().all(|r| r.failed == 0);
        println!(
            "  answers_digest {} {digests:?}; failed ops {:?}",
            if same { "identical" } else { "DIFFERS" },
            results.iter().map(|r| r.failed).collect::<Vec<_>>()
        );
    }
    println!("\nrepeat: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let outcome = parse_cli(&argv).and_then(|cli| match cli.mode.as_str() {
        "one" => run_one(&cli),
        "all" => run_all(&cli),
        "repeat" => run_repeat(&cli),
        other => Err(format!("unknown mode {other} (expected all or repeat)")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("iva-perf: {message}");
            ExitCode::from(2)
        }
    }
}
