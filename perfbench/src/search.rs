//! `search`: a multi-fidelity climb (`dpm search --resume DIR` on a fresh
//! directory) under the `specs/exploration.toml` objective and
//! constraint, then the same search resumed from that directory.
//!
//! The grid is at least ten times the budget, so the coarse screen spends
//! the budget and a single cell goes to fine: the coarse evaluator, the
//! search driver and the runner's per-batch path do almost all the work.

use std::path::Path;
use std::time::{Duration, Instant};

use dpm_campaign::{
    drive_strategy, parse_campaign_toml, run_campaign, run_cells_with, search_campaign,
    search_json, summarize, CampaignArchive, CampaignResult, CampaignSpec, CellScore,
    ClimbStrategy, Direction, Fidelity, RunStats, RunnerConfig, ScenarioResult, SearchFidelity,
    SearchReport, SearchSpec, Strategy, StrategyKind, COARSE_FACTOR, DEFAULT_START_POINTS,
};
use dpm_soc::run_config_coarse;

use crate::layers;
use crate::measure::{digest, median, ms, peak_rss_mb, reset_peak_rss, timed, us};
use crate::sweep::{record_archive_reads, record_archive_writes, record_runner, secs_each};
use crate::trace::Tracer;
use crate::{gen, setup_due, Ctx, Outcome, THREADS};

/// Spec variants the operations cycle through, so one run's medians
/// average over several seeded grids rather than one.
const SPECS: usize = 16;

/// At least this many search+resume pairs, however short the window.
const MIN_OPS: usize = 4;

/// One search: spec text → search report bytes.
pub struct SearchOutput {
    /// The JSON report.
    pub bytes: String,
    /// The parsed grid.
    pub spec: CampaignSpec,
    /// The parsed search.
    pub search: SearchSpec,
    /// The deterministic report.
    pub report: SearchReport,
    /// Work accounting.
    pub stats: RunStats,
}

fn search_spec(text: &str) -> Result<(CampaignSpec, SearchSpec), String> {
    let (spec, defaults) = parse_campaign_toml(text)?;
    let objective = defaults
        .objective
        .ok_or("the search spec names no objective")?;
    let objective = match defaults.constraint {
        Some(c) => objective.with_constraint(c),
        None => objective,
    };
    let budget = defaults.budget.ok_or("the search spec names no budget")?;
    let search = SearchSpec::new(objective, budget)
        .with_strategy(defaults.strategy.unwrap_or(StrategyKind::Climb))
        .with_fidelity(defaults.fidelity.unwrap_or(SearchFidelity::Multi));
    Ok((spec, search))
}

/// Runs `dpm search SPEC --format json` in-process (with `--resume DIR`
/// when `dir` is given), with a span around each layer call.
pub fn search_run(
    text: &str,
    dir: Option<&Path>,
    threads: usize,
    tr: &mut Tracer,
    name: &'static str,
) -> Result<SearchOutput, String> {
    tr.begin(name);
    let out = (|| {
        let (spec, search) = tr.time("spec.parse", || search_spec(text))?;
        let archive = match dir {
            Some(dir) => Some(tr.time("archive.open", || CampaignArchive::open(dir, &spec))?),
            None => None,
        };
        let config = RunnerConfig {
            threads,
            ..RunnerConfig::default()
        };
        let outcome = tr.time("search.search_campaign", || {
            search_campaign(&spec, &search, &config, archive.as_ref())
        })?;
        let bytes = tr
            .time("report.render", || search_json(&outcome.report))
            .map_err(|e| e.to_string())?;
        Ok(SearchOutput {
            bytes,
            spec,
            search,
            report: outcome.report,
            stats: outcome.stats,
        })
    })();
    tr.end();
    out
}

/// The per-operation checks: the resume reproduces the report bytes with
/// zero fine and zero coarse evaluations, and every search equals the
/// first (digest and exact work counts).
pub fn check_pair(
    o: &mut Outcome,
    i: usize,
    cold: &SearchOutput,
    resume: &SearchOutput,
    first: &(u64, RunStats),
) {
    o.check(cold.bytes == resume.bytes, || {
        format!("search op {i}: resumed report bytes differ from the cold search's")
    });
    o.check(
        resume.stats.simulations == 0 && resume.stats.coarse_simulations == 0,
        || {
            format!(
                "search op {i}: resume ran {} fine and {} coarse evaluations",
                resume.stats.simulations, resume.stats.coarse_simulations
            )
        },
    );
    o.check(
        (digest(cold.bytes.as_bytes()), cold.stats) == *first,
        || format!("search op {i}: report digest or work counts differ from the first search"),
    );
}

/// Scores the report against the exhaustive fine reference sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The reported best value equals the reference's fine value for
    /// that cell.
    pub value_matches: bool,
    /// Exhaustive best feasible value − reported best value, in the
    /// objective's favourable direction (0 = the true winner was found).
    pub regret_pp: f64,
    /// The promoted (fine) cells include the exhaustive winner.
    pub promote_hit: bool,
}

/// Checks `report` against the reference results of the whole grid.
pub fn verdict(
    report: &SearchReport,
    search: &SearchSpec,
    reference: &CampaignResult,
) -> Option<Verdict> {
    let objective = &search.objective;
    let best = report.best.as_ref()?;
    let fine = objective
        .metric
        .extract(reference.results.get(best.index)?)?;
    let winner = objective.argbest(&reference.results)?;
    let top = objective.metric.extract(winner)?;
    let regret = match objective.direction {
        Direction::Maximize => top - best.value,
        Direction::Minimize => best.value - top,
    };
    Some(Verdict {
        value_matches: fine == best.value,
        regret_pp: regret,
        promote_hit: report
            .trajectory
            .iter()
            .any(|e| e.index == winner.scenario.index),
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let setup = |k: usize| -> Result<f64, String> {
        let dir = ctx.work.join(format!("setup-{k}"));
        let (res, t) = timed(|| {
            let text = gen::search_toml(ctx.seed, (k % SPECS) as u64, ctx.size);
            search_run(&text, None, THREADS, &mut Tracer::new(false), "setup")
        });
        res?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(t.as_secs_f64())
    };
    o.setup_s.push(setup(0)?);
    let texts: Vec<String> = (0..SPECS as u64)
        .map(|k| gen::search_toml(ctx.seed, k, ctx.size))
        .collect();

    let mut tr = Tracer::new(false);
    // primary-operation latencies of untraced [0] and traced [1] operations
    let mut by_trace: [Vec<f64>; 2] = Default::default();
    let mut first: Vec<Option<(u64, RunStats)>> = vec![None; SPECS];
    let mut first_run: Option<SearchOutput> = None;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut i = 0;
    while i < MIN_OPS || Instant::now() < deadline {
        if setup_due(o.setup_s.len(), start.elapsed(), ctx.seconds) {
            let k = o.setup_s.len();
            o.setup_s.push(setup(k)?);
        }
        let traced = ctx.traced && i % 2 == 1;
        tr.set_enabled(traced);
        let dir = ctx.work.join(format!("run-{i}"));
        let text = &texts[i % SPECS];
        reset_peak_rss();
        // the primary operation is the in-memory search; the read path
        // resumes it from a directory an untimed archived search filled
        let (cold, cold_t) = timed(|| search_run(text, None, THREADS, &mut tr, "search.cold"));
        let fill = search_run(text, Some(&dir), THREADS, &mut Tracer::new(false), "fill");
        let (resume, resume_t) =
            timed(|| search_run(text, Some(&dir), THREADS, &mut tr, "search.resume"));
        o.attempted += 2;
        let (cold, resume) = match (cold, fill.and(resume)) {
            (Ok(c), Ok(r)) => (c, r),
            (c, r) => {
                let e = c.err().or(r.err()).unwrap_or_default();
                o.failures.push(format!("search op {i} errored: {e}"));
                o.failed += 2;
                i += 1;
                continue;
            }
        };
        o.failed += u64::from(cold.report.best.is_none()) + u64::from(resume.report.best.is_none());
        o.cells_per_op = cold.report.screened + cold.report.evaluated;
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
    let first_run = first_run.ok_or("no search succeeded")?;
    let first_dir = ctx.work.join("run-0");

    // untimed: the exhaustive fine reference sweep of the same grid
    let spec = &first_run.spec;
    let report = &first_run.report;
    let config = RunnerConfig {
        threads: THREADS,
        ..RunnerConfig::default()
    };
    let reference = run_campaign(spec, &config);
    match verdict(report, &first_run.search, &reference) {
        Some(v) => {
            o.check(v.value_matches, || {
                "search: the reported best value differs from the reference sweep's fine value"
                    .into()
            });
            o.layers.insert("search_regret_pp", v.regret_pp);
            o.layers
                .insert("search.promote_hit", f64::from(u8::from(v.promote_hit)));
            o.rows.push(format!(
                "quality: search_regret_pp {:.4} (exhaustive fine best - reported best); \
                 search.promote_hit {} of {} promoted after {} screened",
                v.regret_pp,
                u8::from(v.promote_hit),
                report.evaluated,
                report.screened
            ));
        }
        None => o
            .failures
            .push("search: no best cell to check against the reference".into()),
    }
    let l = &mut o.layers;
    l.insert("search.rounds", report.rounds as f64);
    l.insert("search.screened", report.screened as f64);
    l.insert("search.promoted", report.evaluated as f64);
    l.insert(
        "soc.coarse_evals",
        first_run.stats.coarse_simulations as f64,
    );
    record_runner(&mut o, &first_run.stats, report.rounds);

    let mut probe_cells = layers::sample_cells(spec, 16);
    if let Some(best) = &report.best {
        probe_cells.push(spec.cell_at(best.index));
    }
    let (costs, same) = layers::common_probes(&mut o.layers, &mut o.rows, spec, &probe_cells);
    o.check(same, || {
        "search: kernel/core counts differ between two probe passes".into()
    });
    let (d, stats) = first[0].unwrap_or_default();
    o.rows
        .push(crate::fingerprint_row(d, &costs.counts, &stats));
    if ctx.traced {
        traced_layers(ctx, &mut o, &tr, &first_run, &reference, &costs, &first_dir)?;
        o.layers.insert(
            "trace.overhead_frac",
            median(&by_trace[1]) / median(&by_trace[0]) - 1.0,
        );
    }
    Ok(o)
}

/// Times the public [`Strategy`] calls `drive_strategy` makes.
struct TimedStrategy {
    inner: ClimbStrategy,
    propose_us: Vec<f64>,
    observe_us: Vec<f64>,
}

impl Strategy for TimedStrategy {
    fn propose(&mut self, spec: &CampaignSpec) -> Vec<usize> {
        let (batch, t) = timed(|| self.inner.propose(spec));
        self.propose_us.push(us(t));
        batch
    }

    fn observe(&mut self, index: usize, result: &ScenarioResult) {
        let (_, t) = timed(|| self.inner.observe(index, result));
        self.observe_us.push(us(t));
    }

    fn prefetch_hint(&self, spec: &CampaignSpec) -> Vec<usize> {
        self.inner.prefetch_hint(spec)
    }
}

/// Ranks screened cells the way the multi-fidelity search does (the
/// shared argmax comparator; failed cells last).
fn rank(search: &SearchSpec, screened: &[(usize, ScenarioResult)]) -> Vec<usize> {
    let objective = &search.objective;
    let mut ranked: Vec<(usize, Option<CellScore>)> = screened
        .iter()
        .map(|(_, r)| (r.scenario.index, objective.score(r)))
        .collect();
    ranked.sort_unstable_by(|a, b| match (a.1, b.1) {
        (Some(sa), Some(sb)) if objective.wins(sa, a.0, sb, b.0) => std::cmp::Ordering::Less,
        (Some(_), Some(_)) | (None, Some(_)) => std::cmp::Ordering::Greater,
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, None) => a.0.cmp(&b.0),
    });
    ranked.into_iter().map(|(i, _)| i).collect()
}

/// The traced decomposition: a serial replay of the search's two phases
/// through the public driver (`drive_strategy` with a timed climber, then
/// the fine promotion batch), with the evaluator cost of the very cells
/// it evaluated replayed separately.
fn traced_layers(
    ctx: &Ctx,
    o: &mut Outcome,
    tr: &Tracer,
    first: &SearchOutput,
    reference: &CampaignResult,
    costs: &layers::CellCosts,
    first_dir: &Path,
) -> Result<(), String> {
    let spec = &first.spec;
    let search = &first.search;
    let n = spec.scenario_count();
    let budget = search.budget.min(n);
    let coarse_budget = n.min(budget * COARSE_FACTOR);
    let archive = CampaignArchive::open(&ctx.work.join("serial"), spec)?;
    let serial = RunnerConfig {
        threads: 1,
        ..RunnerConfig::default()
    };
    let mut strategy = TimedStrategy {
        inner: ClimbStrategy::new(
            spec,
            search.objective,
            DEFAULT_START_POINTS.clamp(1, coarse_budget),
        ),
        propose_us: Vec::new(),
        observe_us: Vec::new(),
    };
    let coarse_config = serial.clone().with_fidelity(Fidelity::Coarse);
    let (screen, screen_t) = timed(|| {
        drive_strategy(
            spec,
            &mut strategy,
            coarse_budget,
            &coarse_config,
            Some(&archive),
            false,
        )
    });
    let screen = screen?;
    let screened = screen.evaluations.len();
    let promote = budget
        .saturating_sub(screened.div_ceil(COARSE_FACTOR))
        .clamp(1, screened.max(1));
    let mut chosen: Vec<usize> = rank(search, &screen.evaluations)
        .into_iter()
        .take(promote)
        .collect();
    chosen.sort_unstable();
    let cells: Vec<_> = chosen.iter().map(|&i| spec.cell_at(i)).collect();
    let fine_config = serial.with_fidelity(Fidelity::Fine);
    let (promoted, promote_t) =
        timed(|| run_cells_with(spec, &cells, &fine_config, Some(&archive), None));
    let promoted = promoted?;
    let mut reported: Vec<usize> = first.report.trajectory.iter().map(|e| e.index).collect();
    reported.sort_unstable();
    o.check(chosen == reported, || {
        "search: the traced replay promoted different cells than the search".into()
    });

    // evaluator cost of exactly the screened cells, replayed serially
    let coarse_each: Vec<f64> = screen
        .evaluations
        .iter()
        .map(|(_, r)| {
            let (_, t) = timed(|| {
                let cfg = r.scenario.build_config(spec);
                std::hint::black_box(run_config_coarse(&cfg, spec.horizon()))
            });
            us(t)
        })
        .collect();
    let coarse_mean_us = coarse_each.iter().sum::<f64>() / coarse_each.len().max(1) as f64;
    let (propose, observe) = (&strategy.propose_us, &strategy.observe_us);
    let strategy_s = (propose.iter().sum::<f64>() + observe.iter().sum::<f64>()) / 1e6;
    let screen_eval_s = coarse_mean_us * screen.stats.coarse_simulations as f64 / 1e6;
    o.layers.insert("search.propose_us", median(propose));
    o.layers.insert("search.observe_us", median(observe));
    o.layers.insert(
        "search.round_overhead_us",
        (screen_t.as_secs_f64() - strategy_s - screen_eval_s) * 1e6 / screen.rounds.max(1) as f64,
    );
    let fine_eval_s = costs.fine_eval_us() * promoted.stats.simulations as f64 / 1e6;
    o.layers.insert(
        "runner.self_s",
        (screen_t + promote_t).as_secs_f64() - strategy_s - screen_eval_s - fine_eval_s,
    );

    // the coarse tier's read path on a finished search directory
    let screened: Vec<_> = screen.evaluations.iter().map(|(_, r)| r.scenario).collect();
    record_archive_reads(o, spec, first_dir, &screened, Fidelity::Coarse)?;
    record_archive_writes(o, spec, reference, &ctx.work.join("probe-archive"))?;
    let summarize_s: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| std::hint::black_box(summarize(reference)))
                .1
                .as_secs_f64()
        })
        .collect();
    o.layers
        .insert("aggregate.summarize_s", median(&summarize_s));
    o.layers.insert(
        "report.render_s",
        median(&secs_each(
            &tr.durations("report.render", Some("search.resume")),
        )),
    );
    tr.write(&crate::trace_path(ctx), &ctx.workload, ctx.seed)
        .map_err(|e| format!("writing spans: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Size;

    #[test]
    fn tiny_search_is_correct_in_both_modes() {
        for traced in [false, true] {
            let o = crate::run_workload(&crate::tiny_ctx("search", 5, traced)).unwrap();
            assert!(o.failures.is_empty(), "{:?}", o.failures);
            assert_eq!(o.failed, 0);
            assert!(o.layers["search.screened"] > 0.0);
            if traced {
                assert!(o.layers["search.propose_us"] > 0.0);
            }
        }
    }

    #[test]
    fn the_checks_trip_on_wrong_reports() {
        let ctx = crate::tiny_ctx("search-wrong", 5, false);
        std::fs::create_dir_all(&ctx.work).unwrap();
        let text = gen::search_toml(5, 0, Size::Tiny);
        let mut quiet = Tracer::new(false);
        let cold = search_run(&text, None, 1, &mut quiet, "c").unwrap();
        search_run(&text, Some(&ctx.work), 1, &mut quiet, "f").unwrap();
        let mut resume = search_run(&text, Some(&ctx.work), 1, &mut quiet, "r").unwrap();
        let first = (digest(cold.bytes.as_bytes()), cold.stats);
        let mut o = Outcome::default();
        check_pair(&mut o, 0, &cold, &resume, &first);
        assert!(o.failures.is_empty(), "{:?}", o.failures);
        resume.bytes.insert(0, ' ');
        resume.stats.coarse_simulations = 3;
        check_pair(&mut o, 0, &cold, &resume, &first);
        assert_eq!(o.failures.len(), 2);

        // a reported value that is not the cell's fine value must trip
        let reference = run_campaign(&cold.spec, &RunnerConfig::serial());
        let good = verdict(&cold.report, &cold.search, &reference).unwrap();
        assert!(good.value_matches);
        let mut wrong = cold.report.clone();
        wrong.best.as_mut().unwrap().value += 1.0;
        let bad = verdict(&wrong, &cold.search, &reference).unwrap();
        assert!(!bad.value_matches);
        assert!((bad.regret_pp - (good.regret_pp - 1.0)).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&ctx.work);
    }
}
