//! The repo's benchmark. One workload per process:
//!
//! ```text
//! db2graph-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints a report and, as the last line of standard output, one JSON
//! object with the workload's end-to-end metrics (`--trace 0`) or its
//! per-layer metrics (`--trace 1`). Without `--workload` it runs all six,
//! each in a child process so that peak memory is per workload; with
//! `--repeat N` it runs N such sets and reports their spread against the
//! bounds in `BENCHMARK.json`. See `benchmark/README.md`.

mod http;
mod layers;
mod measure;
mod model;
mod report;
mod run;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use layers::Counters;
use report::{Outcome, END_TO_END, PER_LAYER};
use workloads::{Kind, Spec, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Set-ups per run; `setup_s` reports their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    smoke: bool,
    allow_env: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: None,
        smoke: false,
        allow_env: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") | Some("1") => it.next().as_deref() == Some("1"),
                    _ => true,
                }
            }
            "--repeat" => {
                args.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--smoke" => args.smoke = true,
            "--allow-env" => args.allow_env = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke {
        args.seconds = args.seconds.min(0.5);
    }
    Ok(args)
}

/// The program reads 25 `DB2GRAPH_*` / `LB_*` variables that silently
/// change its behaviour; the benchmark measures the defaults.
fn behaviour_variables() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DB2GRAPH_") || k.starts_with("LB_"))
        .collect();
    set.sort();
    set
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

fn print_table(
    title: &str,
    metrics: &[(&'static str, f64)],
    names: &[(&str, &str)],
    notes: &BTreeMap<&str, String>,
) {
    println!("{title}");
    for (name, unit) in names {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |m| m.1);
        let note = notes
            .get(name)
            .map_or(String::new(), |n| format!("  ({n})"));
        println!("  {name:<30} {value:>16.3} {unit}{note}");
    }
}

/// Run one workload in this process and print its report and result line.
fn run_workload(spec: &'static Spec, args: &Args) -> Outcome {
    let started = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mixed = spec.kind == Kind::MixedRw;
    let clients = nproc.min(spec.max_clients);
    let connections = clients + mixed as usize;
    std::fs::create_dir_all(run::OUT_DIR).expect("create benchmark/out");

    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let (data, fixture, one_setup_s) =
        run::set_up(spec, args.seed, args.smoke, connections, repeats);
    let plan = workloads::plan(spec, &data, args.seed, args.smoke);
    let baseline_rows = data
        .links
        .iter()
        .filter(|l| l.label == "et0" || l.label == "et1")
        .count() as i64;
    let stats = data.stats();
    let threads = fixture.graph.threads();
    drop(data);

    let rss_after_build = measure::peak_rss_mb();
    let prefill = Instant::now();
    if spec.kind == Kind::Traverse {
        run::prefill_adjacency(&fixture.graph, stats.num_vertices);
    }
    let prefill_s = prefill.elapsed().as_secs_f64();

    let load_seconds = if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    };
    let before = Counters::read(&fixture);
    let mut load = run::run_load(&fixture, &plan, clients, load_seconds);
    let after = Counters::read(&fixture);
    let setup_s = one_setup_s + prefill_s + load.warmup_s;

    let mut acked = load.writer.as_ref().map_or(0, |w| w.acked);
    let mut notes: BTreeMap<&str, String> = BTreeMap::new();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let reads_ok = load.reads.latency.len();
    if args.trace {
        layers::counter_metrics(&mut load, &before, &after, &mut metrics);
        let (k, _) = layers::replay_untraced(&fixture, &plan, usize::MAX, args.seconds * 0.12);
        // The traced commits continue where the load phase's writer stopped.
        let mut writer = plan.writer.clone();
        if let (Some(writer), Some(done)) = (&mut writer, &load.writer) {
            writer.skip(done.tally.attempted as usize);
        }
        let rec = layers::replay_traced(&fixture, &plan, k, writer.as_mut(), &mut acked);
        let (_, untraced_us) = layers::replay_untraced(&fixture, &plan, k, f64::INFINITY);
        layers::span_metrics(&rec, &plan, k, untraced_us, &mut metrics);
        let path = format!("{}/trace.{}.json", run::OUT_DIR, spec.name);
        std::fs::write(&path, rec.to_json()).expect("write trace file");
        notes.insert(
            "trace.run_mean_us",
            format!("{k} ops replayed, {} spans in {path}", rec.spans.len()),
        );
        notes.insert(
            "trace.overhead_us",
            format!("traced minus untraced mean {untraced_us:.3} us"),
        );
        notes.insert("latency_p99_us", format!("n={reads_ok}"));
    } else {
        metrics.push(("setup_s", setup_s));
        metrics.push(("throughput_ops_s", reads_ok as f64 / load.wall_s));
        metrics.push(("latency_p50_us", load.reads.latency.percentile_us(0.5)));
        notes.insert(
            "setup_s",
            format!(
                "median of {repeats} set-ups {one_setup_s:.3} + cache prefill {prefill_s:.3} + warm-up {:.3}",
                load.warmup_s
            ),
        );
        notes.insert(
            "throughput_ops_s",
            format!(
                "{reads_ok} correct reads in {:.3} s, closed loop, {clients} client(s)",
                load.wall_s
            ),
        );
        notes.insert("latency_p50_us", format!("n={reads_ok}"));
    }

    let mut attempted = load.reads.attempted;
    let mut failed = load.reads.failed;
    let mut errors = std::mem::take(&mut load.reads.errors);
    if let Some(w) = &mut load.writer {
        attempted += w.tally.attempted;
        failed += w.tally.failed;
        errors.append(&mut w.tally.errors);
    }
    // Durability of what was acknowledged, after a clean shutdown.
    if let Some(rows) = run::shut_down_and_count_rows(fixture) {
        let want = baseline_rows + 2 * acked as i64;
        if rows != Ok(want) {
            failed += 1;
            errors.push(format!(
                "after reopen links_et0+links_et1 hold {rows:?} rows, want {want}"
            ));
        }
    }
    if !args.trace {
        // Read last, so everything the workload allocated is counted.
        metrics.push(("peak_rss_mb", measure::peak_rss_mb()));
        notes.insert(
            "peak_rss_mb",
            format!("VmHWM at the end; {rss_after_build:.1} after the set-ups, before any query"),
        );
    }

    println!("workload {} — {}", spec.name, spec.why);
    println!(
        "meta {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"nproc\": {nproc}, \
         \"intra_query_threads\": {threads}, \"clients\": {clients}, \"server_workers\": {}, \"vertices\": {}, \
         \"edges\": {}, \"max_degree\": {}, \"block_ops\": {}, \"flush_policy\": \"{}\", \"write_rate_per_s\": {}, \
         \"git_revision\": \"{}\", \"total_s\": {:.3}}}",
        spec.name,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        if spec.http { connections } else { 0 },
        stats.num_vertices,
        stats.num_edges,
        stats.max_degree,
        plan.block,
        if mixed { "Durability::Always (fsync per commit)" } else { "in-memory" },
        plan.writer.as_ref().map_or(0, |w| w.rate_per_s),
        git_revision(),
        started.elapsed().as_secs_f64(),
    );
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    print_table(
        if args.trace {
            "per-layer (not gated; 0 where the workload bypasses the layer):"
        } else {
            "end-to-end:"
        },
        &metrics,
        names,
        &notes,
    );
    if !args.trace {
        let (q, tail) = load.reads.latency.tail_us(0.99);
        println!(
            "  also, not gated here (see --trace 1): latency_p90_us {:.3}, latency_p{:.1}_us {tail:.3}",
            load.reads.latency.percentile_us(0.9),
            q * 100.0
        );
    }
    if let (false, Some(w)) = (args.trace, &mut load.writer) {
        println!(
            "  writer: {} commits acknowledged at {} due/s, open loop; latency from due time p50 {:.1} us, p99 {:.1} us; \
             sent late by p99 {:.1} us",
            w.acked,
            plan.writer.as_ref().map_or(0, |p| p.rate_per_s),
            w.tally.latency.percentile_us(0.5),
            w.tally.latency.tail_us(0.99).1,
            w.lateness.tail_us(0.99).1,
        );
    }
    println!(
        "  failed_share {} of {attempted} attempted",
        failed as f64 / attempted.max(1) as f64
    );
    for e in &errors {
        println!("  failure: {e}");
    }
    let outcome = Outcome {
        attempted,
        failed,
        metrics,
    };
    println!("{}", report::result_line(&outcome, names));
    outcome
}

/// Run one workload in a child process; returns its result line's
/// metrics, or `None` if it failed or reported a wrong answer.
fn run_child(spec: &Spec, args: &Args, seed: u64, trace: bool) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &seed.to_string()]);
    cmd.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.allow_env {
        cmd.arg("--allow-env");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .expect("start workload process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let (correct, metrics) = report::parse_result_line(stdout.lines().last()?)?;
    (output.status.success() && correct).then_some(metrics)
}

/// All workloads, `sets` times over; returns values per (metric, workload).
fn run_sets(args: &Args, sets: usize) -> (BTreeMap<(String, &'static str), Vec<f64>>, bool) {
    let mut values: BTreeMap<(String, &'static str), Vec<f64>> = BTreeMap::new();
    let mut all_ok = true;
    for set in 0..sets {
        for spec in WORKLOADS {
            for trace in [false, true] {
                if trace && !args.trace {
                    continue;
                }
                // Each set has a seed of its own, as the acceptance runs do.
                match run_child(spec, args, args.seed + set as u64, trace) {
                    Some(metrics) => {
                        for (name, v) in metrics {
                            values.entry((name, spec.name)).or_default().push(v);
                        }
                    }
                    None => {
                        eprintln!("{}: run failed or returned a wrong answer", spec.name);
                        all_ok = false;
                    }
                }
                println!();
            }
        }
    }
    (values, all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--smoke] [--allow-env]");
            return ExitCode::from(2);
        }
    };
    let set = behaviour_variables();
    if !set.is_empty() && !args.allow_env {
        eprintln!("refusing to measure with {set:?} set: they change the program's behaviour (--allow-env overrides)");
        return ExitCode::from(2);
    }

    if let Some(name) = &args.workload {
        let Some(spec) = workloads::spec(name) else {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("unknown workload {name}; known: {known:?}");
            return ExitCode::from(2);
        };
        let outcome = run_workload(spec, &args);
        return if outcome.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let sets = args.repeat.unwrap_or(1).max(1);
    let (values, mut ok) = run_sets(&args, sets);
    let bounds = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|s| report::bounds(&s));
    println!(
        "summary over {sets} set(s), seeds {}..={}:",
        args.seed,
        args.seed + sets as u64 - 1
    );
    println!(
        "  {:<16} {:<30} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for spec in WORKLOADS {
        for (metric, _) in END_TO_END.iter().chain(PER_LAYER) {
            // Rows that are 0 throughout are layers the workload bypasses.
            let Some(v) = values
                .get(&(metric.to_string(), spec.name))
                .filter(|v| v.iter().any(|x| *x != 0.0))
            else {
                continue;
            };
            let s = report::spread(v);
            let bound = bounds.as_ref().and_then(|b| b.get(*metric)).copied();
            let over = sets > 1 && bound.is_some_and(|b| s.relative > b);
            println!(
                "  {:<16} {metric:<30} {:>14.3} {:>14.3} {:>14.3} {:>7.1}% {:>6}{}",
                spec.name,
                s.quartiles[0],
                s.quartiles[1],
                s.quartiles[2],
                s.relative * 100.0,
                bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                if over {
                    "  <-- sets disagree beyond the bound"
                } else {
                    ""
                }
            );
            ok &= !over;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
