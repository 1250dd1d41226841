//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|search|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs in this one process on at most two simulation
//! threads. The
//! untraced run (`--trace 0`) measures the end-to-end metrics; the traced
//! run (`--trace 1`) records spans around the benchmark's calls into each
//! layer and reports the per-layer metrics. Both check the outputs and
//! print human-readable rows, then one JSON object as the last line of
//! standard output. See `perfbench/README.md` for the metric map.

mod gen;
mod http;
mod layers;
mod measure;
mod search;
mod serve;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gen::Size;
use layers::{Layers, PER_LAYER};
use measure::median;

/// Simulation threads of the `sweep` and `search` runners. One, not the
/// host's two: with both cores saturated, interference from neighbours
/// on the shared host widened the run-to-run spread of every timing
/// several-fold.
pub const THREADS: usize = 1;

/// Simulation threads of the `serve` daemon's executor slot.
pub const DAEMON_THREADS: usize = 2;

/// How often set-up is repeated; `setup_s` is the median. The first
/// repetition runs before the measurement window, the others at even
/// intervals inside it (outside any timed operation), so the median sees
/// the same host conditions as the operations do.
pub const SETUP_REPS: usize = 5;

/// `true` when the next set-up repetition is due `elapsed` into a
/// `window`-second measurement window, `done` repetitions in.
pub fn setup_due(done: usize, elapsed: std::time::Duration, window: f64) -> bool {
    done < SETUP_REPS && elapsed.as_secs_f64() >= window * done as f64 / SETUP_REPS as f64
}

/// Where runs keep their campaign directories and the span file.
pub const WORK_DIR: &str = ".bench_work";

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up time of each repetition, s.
    pub setup_s: Vec<f64>,
    /// Primary operation latencies (spec → report), ms, each tagged
    /// with the spec variant it ran.
    pub op_ms: Vec<(usize, f64)>,
    /// Read-path latencies, ms, tagged like `op_ms`.
    pub read_ms: Vec<(usize, f64)>,
    /// Grid cells one primary operation evaluates.
    pub cells_per_op: usize,
    /// Peak resident memory of each operation, MiB (the watermark is
    /// reset before each one).
    pub peak_rss_mb: Vec<f64>,
    /// Operations attempted (cells, searches or requests).
    pub attempted: u64,
    /// Failed cells, errored searches, non-2xx or timed-out requests.
    pub failed: u64,
    /// Correctness-check failures; empty means correct.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced run).
    pub layers: Layers,
    /// Human-readable rows printed before the result line.
    pub rows: Vec<String>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Grid cells per second of an `op_ms` operation.
    pub fn cells_per_s(&self) -> f64 {
        self.cells_per_op as f64 / (grouped_best(&self.op_ms) / 1e3).max(1e-12)
    }
}

/// Operations are tagged with a group: the spec variant they ran, or for
/// `serve`, whose every spec is fresh, the iteration modulo 8. This is
/// the mean over groups of each group's fastest sample.
///
/// A group's fastest repetition filters out the seconds-long slowdowns
/// the shared host imposes (its repetitions are spread over the whole
/// window); the mean over groups averages the inputs' own differences
/// in cost.
pub fn grouped_best(samples: &[(usize, f64)]) -> f64 {
    let mut best: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
    for &(k, v) in samples {
        best.entry(k).and_modify(|b| *b = b.min(v)).or_insert(v);
    }
    best.values().sum::<f64>() / best.len().max(1) as f64
}

/// End-to-end metrics: name, unit, value.
fn end_to_end(o: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    vec![
        ("setup_s", "s", median(&o.setup_s)),
        ("op_ms", "ms", grouped_best(&o.op_ms)),
        ("read_ms", "ms", grouped_best(&o.read_ms)),
        ("cells_per_s", "1/s", o.cells_per_s()),
        ("peak_rss_mb", "MiB", median(&o.peak_rss_mb)),
    ]
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// `sweep`, `search` or `serve`.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window, s.
    pub seconds: f64,
    /// Traced run.
    pub traced: bool,
    /// Input scale.
    pub size: Size,
    /// This run's private scratch directory.
    pub work: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
            }
            "--trace" => traced = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload sweep|search|serve is required")?;
    if !["sweep", "search", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let work = Path::new(WORK_DIR).join(format!("{workload}-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds,
        traced,
        size: Size::Full,
        work,
    })
}

/// Runs one workload in `ctx.work` (created fresh, removed afterwards).
pub fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&ctx.work);
    std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("creating {}: {e}", ctx.work.display()))?;
    let outcome = match ctx.workload.as_str() {
        "sweep" => sweep::run(ctx),
        "search" => search::run(ctx),
        _ => serve::run(ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    outcome
}

/// Where the traced run writes its spans (once, when the run ends).
pub fn trace_path(ctx: &Ctx) -> PathBuf {
    ctx.work
        .parent()
        .unwrap_or(Path::new(WORK_DIR))
        .join(format!("trace-{}.json", ctx.workload))
}

/// The determinism fingerprint: a digest of the report bytes next to the
/// exact counts a perf-only change must leave unchanged.
pub fn fingerprint_row(
    report_digest: u64,
    counts: &layers::CellCounts,
    stats: &dpm_campaign::RunStats,
) -> String {
    format!(
        "fingerprint: report {report_digest:016x} kernel.events {} core.psm_transitions {} \
         core.lem_selections {} runner.simulations {} runner.coarse_simulations {}",
        counts.events,
        counts.psm_transitions,
        counts.lem_selections,
        stats.simulations,
        stats.coarse_simulations
    )
}

fn result_line(o: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, o.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        end_to_end(o)
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failures.is_empty(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_workload(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "== perfbench {} seed {} ({}) ==",
        ctx.workload,
        ctx.seed,
        if ctx.traced { "traced" } else { "untraced" }
    );
    for row in &outcome.rows {
        println!("{row}");
    }
    for (name, unit, value) in end_to_end(&outcome) {
        println!("e2e {name} = {value:.4} {unit}");
    }
    for (name, samples) in [("op", &outcome.op_ms), ("read", &outcome.read_ms)] {
        let v: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let v = &v;
        println!(
            "latency: {name} min {:.3} p10 {:.3} p25 {:.3} p50 {:.3} p90 {:.3} ms over {} samples",
            measure::quantile(v, 0.0),
            measure::quantile(v, 0.1),
            measure::quantile(v, 0.25),
            median(v),
            measure::quantile(v, 0.9),
            v.len()
        );
    }
    println!(
        "ops: {} attempted, {} failed (ops_failed_frac {:.4}), {} primary operations",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.op_ms.len()
    );
    for f in &outcome.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", result_line(&outcome, ctx.traced));
    ExitCode::SUCCESS
}

/// A tiny-size, zero-second context for the self-tests, in its own
/// temporary directory.
#[cfg(test)]
pub fn tiny_ctx(workload: &str, seed: u64, traced: bool) -> Ctx {
    Ctx {
        workload: workload.into(),
        seed,
        seconds: 0.0,
        traced,
        size: Size::Tiny,
        work: std::env::temp_dir().join(format!(
            "perfbench-test-{workload}-{traced}-{}",
            std::process::id()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let rest = &json[start..];
        let end = rest.find(']').expect("section closes");
        rest[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_reported_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let e2e: Vec<String> = end_to_end(&Outcome::default())
            .iter()
            .map(|m| m.0.to_string())
            .collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names_in(&json, "per_layer"), layers);
        assert_eq!(names_in(&json, "workloads"), ["sweep", "search", "serve"]);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            op_ms: vec![(0, 1.5), (0, 2.5), (1, 1.5)],
            cells_per_op: 3,
            ..Outcome::default()
        };
        let line = result_line(&o, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(
            line.contains("\"cells_per_s\": {\"value\": 2000.0, \"unit\": \"1/s\"}"),
            "{line}"
        );
        let traced = result_line(&o, true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    fn groups_keep_their_fastest_sample() {
        let samples = [(0, 5.0), (0, 3.0), (1, 4.0), (2, 9.0), (2, 8.0)];
        assert_eq!(grouped_best(&samples), 5.0);
        assert_eq!(grouped_best(&[]), 0.0);
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed x --workload sweep")).is_err());
        let ctx = parse_args(&args("--workload serve --seed 4 --seconds 2 --trace 1")).unwrap();
        assert!(ctx.traced && ctx.seed == 4 && ctx.seconds == 2.0);
    }
}
