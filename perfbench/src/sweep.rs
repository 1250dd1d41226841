//! `sweep`: an exhaustive cold `campaign run` at fine fidelity into a
//! fresh archive directory, then a resumed run of the same spec.
//!
//! The kernel does nearly all of the cold run's work; the resume does
//! zero simulations, so archive read, aggregation and report rendering
//! do all of its work.

use std::path::Path;
use std::time::{Duration, Instant};

use dpm_campaign::{
    campaign_json, parse_campaign_toml, run_campaign_with, summarize, CampaignArchive,
    CampaignResult, CampaignSpec, Fidelity, RunStats, RunnerConfig, ScenarioSpec,
};

use crate::layers;
use crate::measure::{digest, median, ms, peak_rss_mb, reset_peak_rss, timed};
use crate::trace::Tracer;
use crate::{gen, setup_due, Ctx, Outcome, THREADS};

/// Spec variants the operations cycle through, so one run's medians
/// average over several seeded grids rather than one.
const SPECS: usize = 8;

/// At least this many cold+resume pairs, however short the window.
const MIN_OPS: usize = 4;

/// One `campaign run`: spec text → report bytes.
pub struct RunOutput {
    /// The JSON report.
    pub bytes: String,
    /// The parsed spec.
    pub spec: CampaignSpec,
    /// Work accounting.
    pub stats: RunStats,
    /// Every cell's result.
    pub result: CampaignResult,
}

/// Runs `dpm campaign run SPEC --resume DIR --format json` in-process,
/// with a span around each layer call.
pub fn campaign_run(
    text: &str,
    dir: &Path,
    threads: usize,
    tr: &mut Tracer,
    name: &'static str,
) -> Result<RunOutput, String> {
    tr.begin(name);
    let out = (|| {
        let (spec, _) = tr.time("spec.parse", || parse_campaign_toml(text))?;
        let archive = tr.time("archive.open", || CampaignArchive::open(dir, &spec))?;
        let config = RunnerConfig {
            threads,
            ..RunnerConfig::default()
        };
        let run = tr.time("runner.run_campaign_with", || {
            run_campaign_with(&spec, &config, Some(&archive))
        })?;
        let summary = tr.time("aggregate.summarize", || summarize(&run.result));
        let bytes = tr
            .time("report.render", || campaign_json(&summary, None))
            .map_err(|e| e.to_string())?;
        Ok(RunOutput {
            bytes,
            spec,
            stats: run.stats,
            result: run.result,
        })
    })();
    tr.end();
    out
}

/// The sweep checks: equal cold and resumed report bytes, a resume that
/// simulates nothing, and every cold run equal to the first (digest and
/// exact work counts).
pub fn check_pair(
    o: &mut Outcome,
    i: usize,
    cold: &RunOutput,
    resume: &RunOutput,
    first: &(u64, RunStats),
) {
    o.check(cold.bytes == resume.bytes, || {
        format!("sweep op {i}: resumed report bytes differ from the cold run's")
    });
    o.check(
        resume.stats.simulations == 0 && resume.stats.coarse_simulations == 0,
        || {
            format!(
                "sweep op {i}: resume ran {} simulations",
                resume.stats.simulations
            )
        },
    );
    o.check(
        (digest(cold.bytes.as_bytes()), cold.stats) == *first,
        || format!("sweep op {i}: report digest or work counts differ from the first run"),
    );
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let setup = |k: usize| -> Result<f64, String> {
        let dir = ctx.work.join(format!("setup-{k}"));
        let (res, t) = timed(|| {
            let text = gen::sweep_toml(ctx.seed, (k % SPECS) as u64, ctx.size);
            campaign_run(&text, &dir, THREADS, &mut Tracer::new(false), "setup")
        });
        res?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(t.as_secs_f64())
    };
    o.setup_s.push(setup(0)?);
    let texts: Vec<String> = (0..SPECS as u64)
        .map(|k| gen::sweep_toml(ctx.seed, k, ctx.size))
        .collect();

    let mut tr = Tracer::new(false);
    // primary-operation latencies of untraced [0] and traced [1] operations
    let mut by_trace: [Vec<f64>; 2] = Default::default();
    let mut first: Vec<Option<(u64, RunStats)>> = vec![None; SPECS];
    let mut first_run: Option<RunOutput> = None;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut i = 0;
    while i < MIN_OPS || Instant::now() < deadline {
        if setup_due(o.setup_s.len(), start.elapsed(), ctx.seconds) {
            let k = o.setup_s.len();
            o.setup_s.push(setup(k)?);
        }
        // the traced run alternates untraced and traced operations, so
        // their difference is the tracing overhead
        let traced = ctx.traced && i % 2 == 1;
        tr.set_enabled(traced);
        let dir = ctx.work.join(format!("run-{i}"));
        let text = &texts[i % SPECS];
        reset_peak_rss();
        let (cold, cold_t) = timed(|| campaign_run(text, &dir, THREADS, &mut tr, "sweep.cold"));
        let (resume, resume_t) =
            timed(|| campaign_run(text, &dir, THREADS, &mut tr, "sweep.resume"));
        let (cold, resume) = match (cold, resume) {
            (Ok(c), Ok(r)) => (c, r),
            (c, r) => {
                let e = c.err().or(r.err()).unwrap_or_default();
                o.failures.push(format!("sweep op {i} errored: {e}"));
                o.attempted += 2;
                o.failed += 2;
                i += 1;
                continue;
            }
        };
        let cells = cold.result.results.len();
        o.cells_per_op = cells;
        o.attempted += 2 * cells as u64;
        o.failed += (cold.result.failures().count() + resume.result.failures().count()) as u64;
        o.peak_rss_mb.push(peak_rss_mb());
        o.op_ms.push((i % SPECS, ms(cold_t)));
        o.read_ms.push((i % SPECS, ms(resume_t)));
        by_trace[usize::from(traced)].push(ms(cold_t));
        let reference =
            *first[i % SPECS].get_or_insert((digest(cold.bytes.as_bytes()), cold.stats));
        check_pair(&mut o, i, &cold, &resume, &reference);
        if first_run.is_none() {
            first_run = Some(cold);
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
        i += 1;
    }
    let first_run = first_run.ok_or("no sweep operation succeeded")?;
    let first_dir = ctx.work.join("run-0");

    // untimed: fingerprint, paper comparison, per-layer probes
    let spec = &first_run.spec;
    let cells = spec.expand();
    let (costs, same) = layers::common_probes(&mut o.layers, &mut o.rows, spec, &cells);
    o.check(same, || {
        "sweep: kernel/core counts differ between two probe passes".into()
    });
    let (d, stats) = first[0].unwrap_or_default();
    o.rows
        .push(crate::fingerprint_row(d, &costs.counts, &stats));
    let errors = layers::table2_energy_errors();
    let mean_err = errors
        .iter()
        .map(|(_, ours, paper)| (ours - paper).abs())
        .sum::<f64>()
        / errors.len() as f64;
    o.layers.insert("table2_energy_err_pp", mean_err);
    o.rows.push(format!(
        "paper: Table 2 energy saving, |ours - paper| mean {mean_err:.2} pp over six scenarios \
         (Table 2 is the model's only reference data)"
    ));
    for (id, ours, paper) in &errors {
        o.rows.push(format!(
            "paper:   {id}: ours {ours:.1} % vs paper {paper:.1} % -> {:.2} pp",
            (ours - paper).abs()
        ));
    }
    if ctx.traced {
        traced_layers(ctx, &mut o, &tr, &first_run, &costs, &first_dir, &texts[0])?;
        o.layers.insert(
            "trace.overhead_frac",
            median(&by_trace[1]) / median(&by_trace[0]) - 1.0,
        );
    }
    Ok(o)
}

/// Runner counts shared by the workloads that run campaigns.
pub fn record_runner(o: &mut Outcome, stats: &RunStats, calls: usize) {
    let l = &mut o.layers;
    l.insert("runner.calls", calls as f64);
    l.insert("runner.simulations", stats.simulations as f64);
    l.insert("runner.coarse_simulations", stats.coarse_simulations as f64);
    l.insert("runner.baseline_groups", stats.baseline_groups as f64);
    let evaluations = stats.simulations + stats.coarse_simulations;
    l.insert(
        "runner.dedup_ratio",
        evaluations as f64 / (2 * stats.executed_cells).max(1) as f64,
    );
    o.rows.push(format!(
        "ratio: runner.dedup_ratio = {evaluations} evaluations ({} fine + {} coarse) / \
         (2 x {} executed cells)",
        stats.simulations, stats.coarse_simulations, stats.executed_cells
    ));
}

/// Medians of five timed `open` + `load_as` calls for `cells` on a
/// finished campaign directory: the resume's (and `GET /report`'s) read
/// path.
pub fn record_archive_reads(
    o: &mut Outcome,
    spec: &CampaignSpec,
    dir: &Path,
    cells: &[ScenarioSpec],
    fidelity: Fidelity,
) -> Result<(), String> {
    let (mut open, mut load) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (archive, t) = timed(|| CampaignArchive::open(dir, spec));
        let archive = archive?;
        open.push(t.as_secs_f64());
        let (loaded, t) = timed(|| archive.load_as(spec, cells, fidelity));
        o.check(loaded.loaded == cells.len(), || {
            format!(
                "archive load found {} of {} cells",
                loaded.loaded,
                cells.len()
            )
        });
        load.push(t.as_secs_f64());
    }
    o.layers.insert("archive.open_s", median(&open));
    o.layers.insert("archive.load_s", median(&load));
    Ok(())
}

/// Archive write probes on the workload's own results.
pub fn record_archive_writes(
    o: &mut Outcome,
    spec: &CampaignSpec,
    result: &CampaignResult,
    dir: &Path,
) -> Result<(), String> {
    let (store_us, claim_us, bytes) = layers::archive_probe(spec, &result.results, dir)?;
    o.layers.insert("archive.store_us", store_us);
    o.layers.insert("archive.try_claim_us", claim_us);
    o.layers.insert("archive.bytes_per_cell", bytes);
    Ok(())
}

fn traced_layers(
    ctx: &Ctx,
    o: &mut Outcome,
    tr: &Tracer,
    first: &RunOutput,
    costs: &layers::CellCosts,
    first_dir: &Path,
    text: &str,
) -> Result<(), String> {
    record_runner(o, &first.stats, 1);
    let resume = Some("sweep.resume");
    o.layers.insert(
        "aggregate.summarize_s",
        median(&secs_each(&tr.durations("aggregate.summarize", resume))),
    );
    o.layers.insert(
        "report.render_s",
        median(&secs_each(&tr.durations("report.render", resume))),
    );
    record_archive_reads(
        o,
        &first.spec,
        first_dir,
        &first.spec.expand(),
        Fidelity::Fine,
    )?;
    record_archive_writes(
        o,
        &first.spec,
        &first.result,
        &ctx.work.join("probe-archive"),
    )?;

    // runner self time: the fastest of three serial cold runs' runner
    // spans minus the layer time beneath it (the replayed per-cell cost
    // times the simulations)
    let mut serial = Tracer::new(true);
    let mut sims = 0;
    for k in 0..3 {
        let dir = ctx.work.join(format!("serial-{k}"));
        sims = campaign_run(text, &dir, 1, &mut serial, "sweep.serial")?
            .stats
            .simulations;
    }
    let runner_s = serial
        .durations("runner.run_campaign_with", None)
        .into_iter()
        .min()
        .unwrap_or_default()
        .as_secs_f64();
    let beneath_s = costs.fine_eval_us() * sims as f64 / 1e6;
    o.layers.insert("runner.self_s", runner_s - beneath_s);
    tr.write(&crate::trace_path(ctx), &ctx.workload, ctx.seed)
        .map_err(|e| format!("writing spans: {e}"))
}

/// Durations in seconds.
pub fn secs_each(ds: &[Duration]) -> Vec<f64> {
    ds.iter().map(Duration::as_secs_f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Size;

    #[test]
    fn tiny_sweep_is_correct_in_both_modes() {
        for traced in [false, true] {
            let ctx = crate::tiny_ctx("sweep", 3, traced);
            let o = crate::run_workload(&ctx).unwrap();
            assert!(o.failures.is_empty(), "{:?}", o.failures);
            assert_eq!(o.failed, 0);
            assert!(o.op_ms.len() >= MIN_OPS);
            if traced {
                assert!(o.layers["archive.load_s"] > 0.0);
                assert!(o.layers["kernel.events"] > 0.0);
            }
        }
    }

    #[test]
    fn the_checks_trip_on_wrong_reports() {
        let ctx = crate::tiny_ctx("sweep-wrong", 3, false);
        std::fs::create_dir_all(&ctx.work).unwrap();
        let text = gen::sweep_toml(3, 0, Size::Tiny);
        let mut quiet = Tracer::new(false);
        let cold = campaign_run(&text, &ctx.work, 1, &mut quiet, "c").unwrap();
        let mut resume = campaign_run(&text, &ctx.work, 1, &mut quiet, "r").unwrap();
        let first = (digest(cold.bytes.as_bytes()), cold.stats);
        let mut o = Outcome::default();
        check_pair(&mut o, 0, &cold, &resume, &first);
        assert!(o.failures.is_empty(), "{:?}", o.failures);

        resume.bytes.push(' ');
        resume.stats.simulations = 1;
        check_pair(&mut o, 0, &cold, &resume, &first);
        assert_eq!(o.failures.len(), 2, "{:?}", o.failures);

        let resume = campaign_run(&text, &ctx.work, 1, &mut quiet, "r").unwrap();
        let mut o = Outcome::default();
        let other = (first.0 ^ 1, first.1);
        check_pair(&mut o, 0, &cold, &resume, &other);
        assert_eq!(o.failures.len(), 1, "{:?}", o.failures);
        let _ = std::fs::remove_dir_all(&ctx.work);
    }

    #[test]
    fn span_totals_cover_every_layer_call() {
        let ctx = crate::tiny_ctx("sweep-spans", 3, true);
        std::fs::create_dir_all(&ctx.work).unwrap();
        let mut tr = Tracer::new(true);
        campaign_run(
            &gen::sweep_toml(1, 0, Size::Tiny),
            &ctx.work,
            1,
            &mut tr,
            "op",
        )
        .unwrap();
        for name in [
            "spec.parse",
            "archive.open",
            "runner.run_campaign_with",
            "aggregate.summarize",
            "report.render",
        ] {
            assert_eq!(tr.durations(name, Some("op")).len(), 1, "{name}");
        }
        let _ = std::fs::remove_dir_all(&ctx.work);
    }
}
