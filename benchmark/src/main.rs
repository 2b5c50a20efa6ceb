//! Native benchmark of the PBSM reproduction: four workloads, fifteen
//! end-to-end metrics, per-layer probes and a traced run. See README.md.
//!
//! `--workload NAME` runs one workload in this process and ends with the
//! result as one JSON line; without it the four workloads run as child
//! processes (one process each, so `peak_rss_mb` is a workload's own) and
//! the results are gathered into `benchmark/out/results.json`.

mod engine;
mod metrics;
mod probes;
mod rng;
mod selfcheck;
mod trace;
mod workload;

use metrics::{Better, Measured, END_TO_END, PER_LAYER};
use pbsm_obs::Json;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;
use workload::{Ctx, Plan, NOMINAL_SECONDS, PLANS, SERVE_QUANTILES};

const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] \
[--trace [0|1]] [--repeat-check] [--selfcheck] [--list]";

struct Opts {
    workload: Option<&'static Plan>,
    seed: u64,
    seconds: u32,
    /// `None`: flag absent. A bare `--trace` reads as `--trace 1`.
    trace: Option<bool>,
    repeat_check: bool,
    selfcheck: bool,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: None,
        repeat_check: false,
        selfcheck: false,
        list: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let plan = PLANS.iter().find(|p| p.name == name);
                opts.workload = Some(plan.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&opts.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                let on = it.next_if(|v| *v == "0" || *v == "1");
                opts.trace = Some(on.is_none_or(|v| v == "1"));
            }
            "--repeat-check" => opts.repeat_check = true,
            "--selfcheck" => opts.selfcheck = true,
            "--list" => opts.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One workload's outcome, as printed in the last line: `(metric, unit,
/// value)` in catalogue order.
struct Outcome {
    values: Vec<(&'static str, &'static str, Measured)>,
    attempted: u64,
    failed: u64,
}

/// Runs one workload in this process: the untraced run reports the
/// end-to-end metrics, the traced run the per-layer ones.
fn run_workload(plan: &Plan, seed: u64, seconds: u32, traced: bool) -> Outcome {
    let tracer = Tracer::new(traced);
    let mut ctx = Ctx::new(&tracer, seed, seconds);
    ctx.enter("bench", plan.name);
    workload::joins_section(&mut ctx, plan);
    workload::serve_section(&mut ctx, plan);
    workload::shard_section(&mut ctx, plan);
    if traced {
        probes::run(&mut ctx);
    }
    ctx.leave();

    let mut values = ctx.medians();
    values.insert("setup_s", Measured::single(ctx.setup_s));
    values.insert("peak_rss_mb", Measured::single(peak_rss_mib()));
    for (metric, series, q) in SERVE_QUANTILES {
        values.insert(metric, Measured::quantile_of(ctx.samples(series), q));
    }
    let declared: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut reported = Vec::new();
    for (name, unit) in declared {
        match values.get(name).filter(|m| m.n > 0 && m.value.is_finite()) {
            Some(m) => {
                println!("{}", metrics::render_line(name, unit, m));
                reported.push((name, unit, *m));
            }
            None => {
                ctx.failed += 1;
                eprintln!("FAILED no value for {name}");
                reported.push((name, unit, Measured::single(0.0)));
            }
        }
    }
    if traced {
        write_trace(plan.name, seed, &ctx);
    } else {
        // Not gated: the highest percentile each query class supports.
        // (The first two rows of the table share a series.)
        for (_, series, _) in SERVE_QUANTILES.iter().skip(1) {
            let samples = ctx.samples(series);
            if let Some(p) = metrics::highest_percentile(samples.len()) {
                let v = metrics::quantile(samples, p / 100.0);
                println!("  ({series} p{p} = {v}, n={})", samples.len());
            }
        }
    }
    println!(
        "ops_failed/ops_attempted {}/{} ({})",
        ctx.failed, ctx.attempted, plan.name
    );
    Outcome {
        values: reported,
        attempted: ctx.attempted.max(1),
        failed: ctx.failed,
    }
}

/// Writes one document into `benchmark/out/`.
fn write_out(file: &str, doc: &Json) {
    let path = format!("{OUT_DIR}/{file}");
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc.render())) {
        Ok(()) => println!("-> {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// Writes the spans and prints each layer's self time.
fn write_trace(workload: &str, seed: u64, ctx: &Ctx) {
    println!("trace: {} spans", ctx.spans.len());
    write_out(
        &format!("trace-{workload}.json"),
        &trace::to_json(workload, seed, &ctx.spans),
    );
    for (layer, secs) in trace::layer_self_seconds(&ctx.spans) {
        println!("  self time {layer}: {secs:.3} s");
    }
}

fn outcome_json(o: &Outcome) -> Json {
    let metrics = o
        .values
        .iter()
        .map(|(name, unit, m)| {
            let fields = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ];
            (name.to_string(), Json::Obj(fields))
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(o.failed == 0)),
        ("attempted".into(), Json::uint(o.attempted)),
        ("failed".into(), Json::uint(o.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

// ---------------------------------------------------------------------
// All workloads, one process each
// ---------------------------------------------------------------------

/// Runs one workload as a child process, passing its output through;
/// returns the JSON of its last line.
fn run_child(plan: &Plan, opts: &Opts, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--workload", plan.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut last = String::new();
    if let Some(out) = child.stdout.take() {
        for line in BufReader::new(out).lines() {
            let line = line.map_err(|e| e.to_string())?;
            if !line.starts_with('{') {
                println!("{line}");
            }
            last = line;
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{} exited with {status}", plan.name));
    }
    Json::parse(&last).map_err(|e| format!("{}: bad result line: {e:?}", plan.name))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Who measured: commit, whether the tree was clean, cores, CPU model.
fn host_fingerprint() -> Vec<(String, Json)> {
    let text = |s: Option<String>| Json::Str(s.unwrap_or_else(|| "unknown".into()));
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        let line = s.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split(':').nth(1)?.trim().to_string())
    });
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    vec![
        (
            "git_rev".into(),
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty".into(), dirty.map_or(Json::Null, Json::Bool)),
        (
            "nproc".into(),
            Json::uint(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model".into(), text(cpu)),
    ]
}

/// Runs the selected workloads once (twice under `--repeat-check`), each
/// in its own process, untraced and — with `--trace` — traced as well.
///
/// The two sets of a repeat check are interleaved, workload by workload,
/// and follow one discarded run: this host drifts by several percent over
/// minutes, and the first process after it has been idle gets a second
/// vCPU that is up to 50 % faster (`serve_qps` 650 against 420 on the next
/// two runs), so sets run one after the other would compare the host.
fn run_all(opts: &Opts) -> ExitCode {
    let plans: Vec<&Plan> = PLANS
        .iter()
        .filter(|p| opts.workload.is_none_or(|w| w.name == p.name))
        .collect();
    let mut ok = true;
    // Per set: `(workload, traced, result line)`.
    let mut sets: Vec<Vec<(&str, bool, Json)>> =
        vec![Vec::new(); 1 + usize::from(opts.repeat_check)];
    if opts.repeat_check {
        println!("== discarded warm-up run: {}", plans[0].name);
        ok &= run_child(plans[0], opts, false).is_ok();
    }
    for plan in &plans {
        for (set, results) in sets.iter_mut().enumerate() {
            for traced in [false, true] {
                if traced && opts.trace != Some(true) {
                    continue;
                }
                println!(
                    "== set {set}: {}{}",
                    plan.name,
                    if traced { " (traced)" } else { "" }
                );
                match run_child(plan, opts, traced) {
                    Ok(result) => {
                        ok &= result.get("correct") == Some(&Json::Bool(true));
                        results.push((plan.name, traced, result));
                    }
                    Err(e) => {
                        ok = false;
                        eprintln!("FAILED {e}");
                    }
                }
            }
        }
    }
    if opts.repeat_check {
        ok &= repeat_check(&sets[0], &sets[1]);
    }

    let entry = |(workload, traced, result): (&str, bool, Json)| {
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("traced".into(), Json::Bool(traced)),
            ("result".into(), result),
        ])
    };
    let sets = sets
        .into_iter()
        .map(|set| Json::Arr(set.into_iter().map(entry).collect()));
    let mut doc = host_fingerprint();
    doc.extend([
        ("seed".into(), Json::uint(opts.seed)),
        ("seconds".into(), Json::uint(u64::from(opts.seconds))),
        ("sets".into(), Json::Arr(sets.collect())),
    ]);
    write_out("results.json", &Json::Obj(doc));
    println!("{}", if ok { "PASS" } else { "FAIL" });
    exit_code(ok)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two sets of runs of the same code must agree by the rule a change is
/// later held to: no end-to-end metric of the second set may be worse
/// than the first's by more than its bound.
fn repeat_check(first: &[(&str, bool, Json)], second: &[(&str, bool, Json)]) -> bool {
    let mut ok = true;
    // Untraced runs of the same workload (a failed child leaves a gap).
    let pairs = first
        .iter()
        .zip(second)
        .filter(|(a, b)| !a.1 && !b.1 && a.0 == b.0);
    for ((name, _, first), (_, _, second)) in pairs {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (metric_value(first, m.name), metric_value(second, m.name))
            else {
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let verdict = if worse_by <= m.bound { "ok" } else { "WORSE" };
            println!(
                "repeat-check {name} {}: {a} -> {b} {} ({:+.2} % worse, bound {:.0} %) {verdict}",
                m.name,
                m.unit,
                worse_by * 100.0,
                m.bound * 100.0
            );
            ok &= worse_by <= m.bound;
        }
    }
    ok
}

/// Everything declared up front: workloads with their reasons, metrics
/// with unit, direction and bound or prediction. Tab-separated.
fn list() {
    for p in &PLANS {
        println!("workload\t{}\t{}", p.name, p.why);
    }
    for m in &END_TO_END {
        let (better, bound) = (m.better.as_str(), m.bound);
        println!("end_to_end\t{}\t{}\t{better}\t{bound}", m.name, m.unit);
    }
    for m in &PER_LAYER {
        let better = m.better.as_str();
        println!("per_layer\t{}\t{}\t{better}\t{}", m.name, m.unit, m.moves);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.list {
        list();
        return ExitCode::SUCCESS;
    }
    if opts.selfcheck {
        return exit_code(selfcheck::run(opts.seed));
    }
    match opts.workload {
        Some(plan) if !opts.repeat_check => {
            let traced = opts.trace == Some(true);
            let outcome = run_workload(plan, opts.seed, opts.seconds, traced);
            println!("{}", outcome_json(&outcome).render());
            ExitCode::SUCCESS
        }
        _ => run_all(&opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let o = parse_args(&args(
            "--workload tiger_join --seed 9 --seconds 5 --trace 0",
        ))
        .unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (9, 5, Some(false)));
        assert_eq!(o.workload.map(|p| p.name), Some("tiger_join"));
        assert_eq!(parse_args(&args("--trace 1")).unwrap().trace, Some(true));
        assert_eq!(parse_args(&args("--trace")).unwrap().trace, Some(true));
        let o = parse_args(&args("--trace --seed 3")).unwrap();
        assert_eq!((o.trace, o.seed), (Some(true), 3));
        assert_eq!(parse_args(&args("")).unwrap().trace, None);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            values: vec![("setup_s", "s", Measured::single(1.25))],
            attempted: 10,
            failed: 0,
        };
        let doc = Json::parse(&outcome_json(&o).render()).unwrap();
        let Json::Obj(fields) = &doc else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(metric_value(&doc, "setup_s"), Some(1.25));
        let unit = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s")?.get("unit")?.as_str());
        assert_eq!(unit, Some("s"));
    }
}
