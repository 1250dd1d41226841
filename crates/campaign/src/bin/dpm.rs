//! `dpm` — the dpmsim command line.
//!
//! ```text
//! dpm campaign run <spec.toml | --builtin> [--threads N] [--format F]
//!                  [--per-scenario] [--out FILE] [--resume DIR]
//! dpm campaign list <spec.toml | DIR | --builtin> [--format F]
//! dpm campaign gc <DIR>
//! dpm campaign compact <DIR>
//! dpm search <spec.toml | --builtin> [--strategy climb|anneal|pareto]
//!            [--objective O] [--constraint C] [--fidelity fine|coarse|multi]
//!            [--budget N] [--start-points N] [--threads N] [--prefetch]
//!            [--initial-temp T] [--cooling F] [--anneal-seed N]
//!            [--format F] [--out FILE] [--resume DIR]
//! dpm serve <DIR> [--addr HOST:PORT] [--workers N] [--threads N]
//! dpm table2 [--format F]
//! dpm quickstart
//! ```
//!
//! Formats: `ascii` (default), `markdown`, `json`.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use dpm_campaign::{
    campaign_ascii, campaign_json, campaign_markdown, grid_json, pareto_ascii, pareto_campaign,
    pareto_json, pareto_markdown, parse_campaign_toml, run_campaign_with, run_stats_line,
    search_ascii, search_campaign, search_json, search_markdown, spawn_server, summarize,
    CampaignArchive, CampaignSpec, Constraint, MultiObjective, Objective, ParetoSpec, RunnerConfig,
    SearchDefaults, SearchFidelity, SearchSpec, ServeOptions, StrategyKind,
};
use dpm_soc::experiment::{run_scenario, ScenarioId};
use dpm_soc::report::{table2_ascii, table2_json, table2_markdown};

const USAGE: &str = "\
dpm — DATE'05 dynamic power management simulator

USAGE:
    dpm campaign run  <spec.toml | --builtin> [--threads N]
                      [--format ascii|markdown|json] [--per-scenario] [--out FILE]
                      [--resume DIR]
    dpm campaign list <spec.toml | DIR | --builtin> [--format ascii|json]
    dpm campaign gc   <DIR>
    dpm campaign compact <DIR>
    dpm search <spec.toml | --builtin> [--strategy climb|anneal|pareto]
               [--objective METRIC[,METRIC...]] [--constraint METRIC<=X]
               [--fidelity fine|coarse|multi]
               [--budget N] [--start-points N] [--threads N] [--prefetch]
               [--initial-temp T] [--cooling F] [--anneal-seed N]
               [--format ascii|markdown|json] [--out FILE] [--resume DIR]
    dpm serve <DIR> [--addr HOST:PORT] [--workers N] [--threads N]
    dpm table2 [--format ascii|markdown|json]
    dpm quickstart
    dpm help

A campaign spec is a TOML grid over six axes; see `dpm campaign list
--builtin` for the built-in sweep and the README for the format.
`--resume DIR` persists per-cell archives into DIR and skips cells
already completed there; the aggregate report is byte-identical to a
cold run. A campaign runs in this process on --threads threads; the
report is byte-identical for any thread count.

`dpm campaign gc DIR` removes unloadable records, recordless segments
and orphaned temp files. `dpm campaign compact DIR` rewrites all live
cell records into a single fresh segment file, dropping torn tails and
duplicates. Both delete segment files: run them only while nothing else
writes DIR. `dpm campaign list DIR --format json` reports each cell's
state (archived / screened / pending).

`dpm serve DIR` runs the campaign service: a daemon owning DIR as a
root of campaign directories (one per submitted spec, keyed by spec
fingerprint) with an HTTP/JSON API — POST /campaigns submits a TOML or
JSON spec (idempotent: equal specs dedup into one campaign), GET
/campaigns[/{id}] reports status, /report /best /pareto answer from
the archive with zero fresh simulations once complete, /events streams
cell completions, POST /shutdown drains gracefully. --workers N
(default 1, at least 1) sets how many campaigns run at once, each in
the daemon on --threads threads.

`dpm search` explores the grid adaptively instead of sweeping it: pass
an objective (metric label or alias, optional min:/max: prefix, e.g.
energy_saving or min:energy_j), an optional feasibility constraint, and
an evaluation budget (default: half the grid). A spec's [search] section
supplies per-spec defaults; flags override it. --strategy selects the
exploration: 'climb' (deterministic neighborhood climbing, the
default), 'anneal' (seeded simulated annealing; tune --initial-temp,
--cooling and --anneal-seed), or 'pareto' (multi-objective front
expansion; pass two or more comma-separated --objective metrics and get
the non-dominated front instead of a single winner). A search runs in
this process on --threads threads; the report is byte-identical for
any thread count. With --resume DIR the campaign directory doubles as a
result cache — re-searching it performs zero fresh simulations.
--prefetch (needs --resume) lets idle threads speculatively evaluate
each strategy's likely next proposals while a batch is in flight:
results land in the archive keyed by grid index, so reports are
unchanged, and speculative work is accounted separately (never against
the strategy's budget).

--fidelity picks how scalar searches spend the budget: 'fine' (full
kernel simulation, the default), 'coarse' (the analytic dwell-time
evaluator — screening numbers, ~10x faster), or 'multi' (screen widely
at coarse fidelity, then promote the top-ranked cells to full fine
runs within the same fine-equivalent budget; the report contains fine
numbers only). Archive records are fidelity-tagged, so coarse screens
and fine results share a campaign directory without ever standing in
for each other.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a line to stdout, exiting quietly when the consumer closed the
/// pipe (`dpm campaign list big.toml | head` must not panic).
fn out(text: impl std::fmt::Display) {
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "{text}").is_err() {
        std::process::exit(0);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("campaign") => campaign(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("search") => search(&args[1..]),
        Some("table2") => table2(&args[1..]),
        Some("quickstart") => {
            quickstart();
            Ok(())
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            out(USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

/// Flag/positional splitter: `--key value` pairs plus bare positionals.
struct Opts {
    positionals: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    /// Parses `--flag value`, `--flag=value` and bare flags; unknown
    /// flags are an error (a typo must not silently change behaviour).
    fn parse(args: &[String], value_flags: &[&str], bare_flags: &[&str]) -> Result<Self, String> {
        let mut positionals = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(body) = a.strip_prefix("--") else {
                positionals.push(a.clone());
                continue;
            };
            let (name, inline_value) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (body, None),
            };
            let value = if value_flags.contains(&name) {
                match inline_value {
                    Some(v) => Some(v),
                    None => Some(
                        it.next()
                            .ok_or_else(|| format!("--{name} needs a value"))?
                            .clone(),
                    ),
                }
            } else if bare_flags.contains(&name) {
                if inline_value.is_some() {
                    return Err(format!("--{name} does not take a value"));
                }
                None
            } else {
                let known: Vec<String> = value_flags
                    .iter()
                    .chain(bare_flags)
                    .map(|f| format!("--{f}"))
                    .collect();
                return Err(if known.is_empty() {
                    format!("unknown flag '--{name}' (this command takes no flags)")
                } else {
                    format!(
                        "unknown flag '--{name}' (expected one of: {})",
                        known.join(", ")
                    )
                });
            };
            flags.push((name.to_string(), value));
        }
        Ok(Self { positionals, flags })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }
}

fn load_spec_full(opts: &Opts) -> Result<(CampaignSpec, SearchDefaults), String> {
    if opts.has("builtin") {
        return Ok((CampaignSpec::default_sweep(), SearchDefaults::default()));
    }
    let path = opts
        .positionals
        .first()
        .ok_or("expected a spec file path or --builtin")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_campaign_toml(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_spec(opts: &Opts) -> Result<CampaignSpec, String> {
    load_spec_full(opts).map(|(spec, _)| spec)
}

/// The value of `--name` parsed as a `T`, if the flag was given.
fn flag<T: std::str::FromStr>(opts: &Opts, name: &str) -> Result<Option<T>, String> {
    opts.value(name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{name} expects a number, got '{v}'"))
        })
        .transpose()
}

/// Like [`flag`], but zero is rejected (mirroring the validation the
/// `[search]` TOML section applies to the same knobs).
fn parse_positive_flag(opts: &Opts, name: &str) -> Result<Option<usize>, String> {
    match flag(opts, name)? {
        Some(0) => Err(format!("--{name} must be positive")),
        other => Ok(other),
    }
}

fn warn_archive_errors(errors: &[String]) {
    for e in errors {
        eprintln!(
            "  warning: archive write failed ({e}); \
             unsaved cells will re-run on the next resume"
        );
    }
}

/// Writes the rendered report to `--out` (logging the path) or stdout.
fn emit_report(opts: &Opts, rendered: &str) -> Result<(), String> {
    match opts.value("out") {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("  report written to {path}");
        }
        None => out(rendered),
    }
    Ok(())
}

/// The report format shared by `campaign run`, `search` and `table2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Ascii,
    Markdown,
    Json,
}

/// Parses `--format` (validated *before* any simulation runs).
fn output_format(opts: &Opts) -> Result<OutputFormat, String> {
    match opts.value("format").unwrap_or("ascii") {
        "ascii" => Ok(OutputFormat::Ascii),
        "markdown" | "md" => Ok(OutputFormat::Markdown),
        "json" => Ok(OutputFormat::Json),
        other => Err(format!("unknown format '{other}'")),
    }
}

/// The one report-emission path: renders with the matching closure and
/// writes to `--out` or stdout. `campaign run` and `search` both go
/// through here, so format handling cannot drift between them.
fn render_report(
    opts: &Opts,
    format: OutputFormat,
    ascii: impl FnOnce() -> String,
    markdown: impl FnOnce() -> String,
    json: impl FnOnce() -> Result<String, serde_json::Error>,
) -> Result<(), String> {
    let rendered = match format {
        OutputFormat::Ascii => ascii(),
        OutputFormat::Markdown => markdown(),
        OutputFormat::Json => json().map_err(|e| e.to_string())?,
    };
    emit_report(opts, &rendered)
}

fn campaign(args: &[String]) -> Result<(), String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("run") => campaign_run(rest),
        Some("list") => campaign_list(rest),
        Some("gc") => campaign_gc(rest),
        Some("compact") => campaign_compact(rest),
        _ => Err(format!(
            "expected 'campaign run', 'campaign list', 'campaign gc' or 'campaign compact'\n\n{USAGE}"
        )),
    }
}

fn campaign_run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["threads", "format", "out", "resume"],
        &["builtin", "per-scenario"],
    )?;
    let format = output_format(&opts)?;
    let spec = load_spec(&opts)?;
    let config = RunnerConfig {
        threads: flag(&opts, "threads")?.unwrap_or(0),
        progress: true,
        ..RunnerConfig::default()
    };
    let archive = match opts.value("resume") {
        Some(dir) => Some(CampaignArchive::open(Path::new(dir), &spec)?),
        None => None,
    };
    eprintln!(
        "campaign '{}': {} scenarios on {} threads (horizon {} ms, master seed {})",
        spec.name,
        spec.scenario_count(),
        config.effective_threads().min(spec.scenario_count().max(1)),
        spec.horizon_ms,
        spec.master_seed,
    );

    let started = std::time::Instant::now();
    let run = run_campaign_with(&spec, &config, archive.as_ref())?;
    let wall = started.elapsed();
    let result = run.result;
    eprintln!(
        "  {} scenarios in {:.2?} ({:.1} scenarios/s)",
        result.results.len(),
        wall,
        result.results.len() as f64 / wall.as_secs_f64().max(1e-9),
    );
    eprintln!("  {}", run_stats_line(&run.stats));
    warn_archive_errors(&run.archive_errors);
    for f in result.failures() {
        eprintln!(
            "  FAILED #{:04} {}: {}",
            f.scenario.index,
            f.scenario.label(),
            f.error.as_deref().unwrap_or("unknown"),
        );
    }
    let summary = summarize(&result);
    render_report(
        &opts,
        format,
        || campaign_ascii(&summary),
        || campaign_markdown(&summary),
        || campaign_json(&summary, opts.has("per-scenario").then_some(&result)),
    )?;
    Ok(())
}

fn campaign_list(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["format"], &["builtin"])?;
    // a campaign *directory* lists with per-cell state; a spec file (or
    // --builtin) lists the bare grid
    let (spec, archive) = match opts.positionals.first() {
        Some(path) if Path::new(path).is_dir() => {
            let (archive, spec) = CampaignArchive::open_existing(Path::new(path))?;
            (spec, Some(archive))
        }
        _ => (load_spec(&opts)?, None),
    };
    let states = archive.map(|a| a.cell_states(&spec));
    match opts.value("format").unwrap_or("ascii") {
        "ascii" => {
            out(format_args!(
                "campaign '{}': {} scenarios (horizon {} ms, master seed {})",
                spec.name,
                spec.scenario_count(),
                spec.horizon_ms,
                spec.master_seed,
            ));
            for cell in spec.expand() {
                match &states {
                    Some(s) => out(format_args!("  {cell} [{}]", s[cell.index].label())),
                    None => out(format_args!("  {cell}")),
                }
            }
        }
        "json" => out(grid_json(&spec, states.as_deref())),
        other => return Err(format!("unknown format '{other}'")),
    }
    Ok(())
}

fn campaign_gc(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[], &[])?;
    let dir = opts
        .positionals
        .first()
        .ok_or("expected a campaign directory")?;
    let (archive, spec) = CampaignArchive::open_existing(Path::new(dir))?;
    let report = archive.gc(&spec)?;
    out(format_args!(
        "gc {dir}: kept {} records, removed {} stale/foreign records, \
         removed {} temp files",
        report.records_kept, report.records_removed, report.tmp_removed,
    ));
    Ok(())
}

fn campaign_compact(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[], &[])?;
    let dir = opts
        .positionals
        .first()
        .ok_or("expected a campaign directory")?;
    let (archive, spec) = CampaignArchive::open_existing(Path::new(dir))?;
    let report = archive.compact(&spec)?;
    out(format_args!(
        "compact {dir}: {} records rewritten into one segment \
         ({} old segments removed; {} -> {} segment bytes)",
        report.records, report.segments_removed, report.bytes_before, report.bytes_after,
    ));
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["addr", "workers", "threads"], &[])?;
    let dir = opts
        .positionals
        .first()
        .ok_or("expected a store directory (it will hold one subdirectory per campaign)")?;
    let options = ServeOptions {
        addr: opts.value("addr").unwrap_or("127.0.0.1:0").to_string(),
        job_slots: parse_positive_flag(&opts, "workers")?.unwrap_or(1),
        threads: flag(&opts, "threads")?.unwrap_or(0),
    };
    let slots = options.job_slots;
    let server = spawn_server(Path::new(dir), options)?;
    // scripts parse this line for the resolved port (--addr HOST:0)
    out(format_args!(
        "dpm serve: listening on http://{}",
        server.addr()
    ));
    eprintln!(
        "  store root {dir}; {} executor slot(s); POST /shutdown drains gracefully",
        slots,
    );
    server.join();
    eprintln!("dpm serve: drained and stopped");
    Ok(())
}

fn search(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "strategy",
            "objective",
            "constraint",
            "fidelity",
            "budget",
            "start-points",
            "threads",
            "initial-temp",
            "cooling",
            "anneal-seed",
            "format",
            "out",
            "resume",
        ],
        &["builtin", "prefetch"],
    )?;
    let format = output_format(&opts)?;
    let (spec, defaults) = load_spec_full(&opts)?;

    // CLI flags override the spec's [search] section
    let strategy = match opts.value("strategy") {
        Some(text) => StrategyKind::parse(text)?,
        None => defaults.strategy.unwrap_or(StrategyKind::Climb),
    };
    if strategy != StrategyKind::Anneal {
        for flag in ["initial-temp", "cooling", "anneal-seed"] {
            if opts.value(flag).is_some() {
                return Err(format!("--{flag} only applies with --strategy anneal"));
            }
        }
    }
    let constraint = match opts.value("constraint") {
        Some(text) => Some(Constraint::parse(text)?),
        None => defaults.constraint,
    };
    let fidelity = match opts.value("fidelity") {
        Some(text) => {
            let fidelity = SearchFidelity::parse(text)?;
            if strategy == StrategyKind::Pareto && fidelity != SearchFidelity::Fine {
                return Err(
                    "--fidelity only applies to scalar strategies (climb, anneal); \
                     pareto fronts are always computed at fine fidelity"
                        .into(),
                );
            }
            fidelity
        }
        // A spec-default fidelity applies to the scalar strategies only;
        // pareto quietly stays fine rather than rejecting a spec whose
        // [search] section was written for climb/anneal.
        None if strategy == StrategyKind::Pareto => SearchFidelity::Fine,
        None => defaults.fidelity.unwrap_or_default(),
    };
    let grid = spec.scenario_count();
    let budget = parse_positive_flag(&opts, "budget")?
        .or(defaults.budget)
        .unwrap_or_else(|| grid.div_ceil(2));
    let start_points = parse_positive_flag(&opts, "start-points")?.or(defaults.start_points);

    let prefetch = opts.has("prefetch") || defaults.prefetch.unwrap_or(false);
    if opts.has("prefetch") && !opts.has("resume") {
        return Err("--prefetch needs an archive to key speculative results \
                    by grid index: pass --resume DIR"
            .into());
    }
    // the fidelity stays the default (fine): search_campaign pins the
    // per-phase fidelity itself from the SearchSpec, and pareto fronts
    // are fine-only
    let config = RunnerConfig {
        threads: flag(&opts, "threads")?.unwrap_or(0),
        ..RunnerConfig::default()
    };
    let archive = match opts.value("resume") {
        Some(dir) => Some(CampaignArchive::open(Path::new(dir), &spec)?),
        None => None,
    };
    let started = std::time::Instant::now();

    if strategy == StrategyKind::Pareto {
        // two or more comma-separated objectives form the front axes
        let objectives = match opts.value("objective") {
            Some(text) => MultiObjective::parse(text)?,
            None => match defaults.objectives {
                Some(list) => MultiObjective::new(list)?,
                None => {
                    return Err("strategy 'pareto' needs at least two objectives: pass \
                         comma-separated --objective metrics or add 'objectives' to \
                         the spec's [search] section"
                        .into())
                }
            },
        };
        let objectives = match constraint {
            Some(c) => objectives.with_constraint(c),
            None => objectives,
        };
        let mut pareto_spec = ParetoSpec::new(objectives, budget).with_prefetch(prefetch);
        if let Some(points) = start_points {
            pareto_spec.start_points = points;
        }
        eprintln!(
            "search '{}' (pareto): {} over a {}-cell grid, budget {}",
            spec.name,
            pareto_spec.objectives.describe(),
            grid,
            pareto_spec.budget,
        );
        let outcome = pareto_campaign(&spec, &pareto_spec, &config, archive.as_ref())?;
        eprintln!(
            "  {} cells evaluated in {} rounds in {:.2?}; front size {}; {}",
            outcome.report.evaluated,
            outcome.report.rounds,
            started.elapsed(),
            outcome.report.front.len(),
            run_stats_line(&outcome.stats),
        );
        warn_archive_errors(&outcome.archive_errors);
        return render_report(
            &opts,
            format,
            || pareto_ascii(&outcome.report),
            || pareto_markdown(&outcome.report),
            || pareto_json(&outcome.report),
        );
    }

    let objective = match opts.value("objective") {
        Some(text) if text.contains(',') => {
            return Err(format!(
                "strategy '{}' takes a single objective (comma-separated \
                 lists are for --strategy pareto)",
                strategy.label()
            ))
        }
        Some(text) => Objective::parse(text)?,
        None => defaults
            .objective
            .ok_or("no objective: pass --objective or add a [search] section to the spec")?,
    };
    let objective = match constraint {
        Some(c) => objective.with_constraint(c),
        None => objective,
    };
    let mut search_spec = SearchSpec::new(objective, budget)
        .with_strategy(strategy)
        .with_fidelity(fidelity)
        .with_prefetch(prefetch);
    if let Some(points) = start_points {
        search_spec.start_points = points;
    }
    if let Some(temp) = flag(&opts, "initial-temp")?.or(defaults.initial_temp) {
        search_spec.anneal.initial_temp = temp;
    }
    if let Some(cooling) = flag(&opts, "cooling")?.or(defaults.cooling) {
        search_spec.anneal.cooling = cooling;
    }
    // parsed as u64 (not usize) so the full seed range works on any
    // target, exactly like the TOML `anneal_seed` key
    if let Some(seed) = flag::<u64>(&opts, "anneal-seed")?.or(defaults.anneal_seed) {
        search_spec.anneal.seed = seed;
    }
    search_spec.anneal.validate()?;
    // fine mode keeps the exact historical header; the other modes name
    // their fidelity so a screening run is never mistaken for fine data
    let fidelity_note = match fidelity {
        SearchFidelity::Fine => String::new(),
        other => format!(", {} fidelity", other.label()),
    };
    eprintln!(
        "search '{}' ({}{}): {} over a {}-cell grid, budget {}",
        spec.name,
        strategy.label(),
        fidelity_note,
        search_spec.objective.describe(),
        grid,
        search_spec.budget,
    );
    let outcome = search_campaign(&spec, &search_spec, &config, archive.as_ref())?;
    let screened_note = match outcome.report.screened {
        0 => String::new(),
        n => format!(" ({n} coarse-screened)"),
    };
    eprintln!(
        "  {} cells evaluated{} in {} rounds in {:.2?}; {}",
        outcome.report.evaluated,
        screened_note,
        outcome.report.rounds,
        started.elapsed(),
        run_stats_line(&outcome.stats),
    );
    warn_archive_errors(&outcome.archive_errors);
    render_report(
        &opts,
        format,
        || search_ascii(&outcome.report),
        || search_markdown(&outcome.report),
        || search_json(&outcome.report),
    )
}

fn table2(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["format"], &[])?;
    let format = output_format(&opts)?;
    let outcomes: Vec<_> = ScenarioId::ALL.into_iter().map(run_scenario).collect();
    match format {
        OutputFormat::Ascii => out(table2_ascii(&outcomes).trim_end()),
        OutputFormat::Markdown => out(table2_markdown(&outcomes).trim_end()),
        OutputFormat::Json => out(table2_json(&outcomes).map_err(|e| e.to_string())?),
    }
    Ok(())
}

fn quickstart() {
    use dpm_kernel::Simulation;
    use dpm_soc::{build_soc, collect_metrics, ControllerKind, SocConfig};
    use dpm_units::SimTime;
    use dpm_workload::{ActivityLevel, BurstyGenerator, PriorityWeights, TraceGenerator};

    let horizon = SimTime::from_millis(100);
    let trace = BurstyGenerator::for_activity(ActivityLevel::Low, PriorityWeights::typical_user())
        .generate(horizon, 42);
    println!("workload: {} tasks over {horizon}", trace.len());
    let dpm_cfg = SocConfig::single_ip(trace);
    let base_cfg = dpm_cfg.clone().with_controller(ControllerKind::AlwaysOn);
    for (label, cfg) in [
        ("DPM (LEM + Table 1)", &dpm_cfg),
        ("always-ON1 baseline", &base_cfg),
    ] {
        let mut sim = Simulation::new();
        let handles = build_soc(&mut sim, cfg);
        sim.run_until(horizon);
        let m = collect_metrics(&mut sim, &handles, horizon);
        println!(
            "{label:>22}: {:>3}/{} tasks | energy {} | mean latency {}",
            m.completed(),
            m.total_tasks(),
            m.total_energy,
            m.mean_latency()
                .map_or("n/a".to_string(), |l| l.to_string()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dpm-cli-test-{}-{tag}", std::process::id()))
    }

    #[test]
    fn empty_grid_is_a_clear_error_not_a_panic() {
        let spec = tmp_path("empty-grid.toml");
        std::fs::write(&spec, "name = \"empty\"\n[axes]\nseeds = []\n").unwrap();
        let err = run(&args(&["campaign", "run", spec.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("axis 'seeds' is empty"), "{err}");
        let _ = std::fs::remove_file(&spec);
    }

    #[test]
    fn unwritable_resume_directory_is_a_clear_error() {
        let file = tmp_path("not-a-dir");
        std::fs::write(&file, "x").unwrap();
        // a campaign directory can never be created under a regular file
        let target = file.join("camp");
        let err = run(&args(&[
            "campaign",
            "run",
            "--builtin",
            "--resume",
            target.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("cannot create campaign directory"), "{err}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn unwritable_out_path_is_a_clear_error() {
        let dir = tmp_path("out-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = CampaignSpec::default_sweep();
        spec.horizon_ms = 2;
        spec.seeds = vec![1];
        spec.ip_counts = vec![1];
        spec.thermals.truncate(1);
        spec.workloads.truncate(1);
        let spec_path = tmp_path("tiny-spec.toml");
        std::fs::write(&spec_path, spec.to_toml()).unwrap();
        // writing the report over an existing *directory* must fail loudly
        let err = run(&args(&[
            "campaign",
            "run",
            spec_path.to_str().unwrap(),
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("writing"), "{err}");
        let _ = std::fs::remove_file(&spec_path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_flags_still_rejected_with_new_options_listed() {
        let err = run(&args(&["campaign", "run", "--builtin", "--resumee", "x"])).unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        assert!(err.contains("--per-scenario"), "{err}");
        // run sharing has no switch
        for cmd in [
            &["campaign", "run", "--builtin", "--no-dedup"][..],
            &["search", "--builtin", "--no-dedup"],
            &["serve", "/nonexistent", "--no-dedup"],
        ] {
            let err = run(&args(cmd)).unwrap_err();
            assert!(err.contains("unknown flag '--no-dedup'"), "{cmd:?}: {err}");
        }
    }

    #[test]
    fn search_without_an_objective_is_a_clear_error() {
        let err = run(&args(&["search", "--builtin", "--budget", "2"])).unwrap_err();
        assert!(err.contains("no objective"), "{err}");
    }

    #[test]
    fn search_rejects_bad_objectives_budgets_and_formats() {
        let err = run(&args(&["search", "--builtin", "--objective", "warp"])).unwrap_err();
        assert!(err.contains("unknown metric"), "{err}");
        let err = run(&args(&[
            "search",
            "--builtin",
            "--objective",
            "energy_saving",
            "--budget",
            "two",
        ]))
        .unwrap_err();
        assert!(err.contains("--budget expects a number"), "{err}");
        let err = run(&args(&[
            "search",
            "--builtin",
            "--objective",
            "energy_saving",
            "--budget",
            "2",
            "--format",
            "yaml",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown format"), "{err}");
    }

    #[test]
    fn search_rejects_zero_budget_and_start_points_like_the_toml_layer() {
        for flag in ["--budget", "--start-points"] {
            let err = run(&args(&[
                "search",
                "--builtin",
                "--objective",
                "energy_saving",
                flag,
                "0",
            ]))
            .unwrap_err();
            assert!(err.contains("must be positive"), "{flag}: {err}");
        }
    }

    #[test]
    fn search_rejects_bad_strategy_combinations() {
        for strategy in ["warp", "portfolio"] {
            let err = run(&args(&[
                "search",
                "--builtin",
                "--objective",
                "energy_saving",
                "--strategy",
                strategy,
            ]))
            .unwrap_err();
            assert!(err.contains("unknown strategy"), "{err}");
            assert!(
                err.contains("(expected one of: climb, anneal, pareto)"),
                "{err}"
            );
        }
        // anneal knobs only apply to anneal
        let err = run(&args(&[
            "search",
            "--builtin",
            "--objective",
            "energy_saving",
            "--initial-temp",
            "2.0",
        ]))
        .unwrap_err();
        assert!(err.contains("--initial-temp only applies"), "{err}");
        // comma lists are pareto-only
        let err = run(&args(&[
            "search",
            "--builtin",
            "--objective",
            "energy_saving,min:delay",
        ]))
        .unwrap_err();
        assert!(err.contains("single objective"), "{err}");
        // pareto needs at least two objectives
        let err = run(&args(&[
            "search",
            "--builtin",
            "--strategy",
            "pareto",
            "--objective",
            "energy_saving",
        ]))
        .unwrap_err();
        assert!(err.contains("at least two"), "{err}");
        let err = run(&args(&["search", "--builtin", "--strategy", "pareto"])).unwrap_err();
        assert!(err.contains("needs at least two objectives"), "{err}");
        // out-of-range schedule values fail before any simulation
        let err = run(&args(&[
            "search",
            "--builtin",
            "--objective",
            "energy_saving",
            "--strategy",
            "anneal",
            "--cooling",
            "1.5",
        ]))
        .unwrap_err();
        assert!(err.contains("cooling"), "{err}");
    }

    #[test]
    fn search_runs_anneal_and_pareto_end_to_end() {
        let spec_path = tmp_path("search-strategies.toml");
        std::fs::write(
            &spec_path,
            "name = \"strategies\"\nhorizon_ms = 2\n\n[axes]\nworkloads = [\"low\"]\n\
             seeds = [1]\nthermals = [\"cool\"]\nip_counts = [1]\n",
        )
        .unwrap();
        let out_path = tmp_path("search-strategies.json");
        run(&args(&[
            "search",
            spec_path.to_str().unwrap(),
            "--strategy",
            "anneal",
            "--objective",
            "energy_saving",
            "--budget",
            "2",
            "--anneal-seed",
            "7",
            "--format",
            "json",
            "--out",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(v["strategy"].as_str(), Some("anneal"));
        assert_eq!(v["evaluated"].as_u64(), Some(2));

        run(&args(&[
            "search",
            spec_path.to_str().unwrap(),
            "--strategy",
            "pareto",
            "--objective",
            "energy_saving,min:delay",
            "--budget",
            "2",
            "--format",
            "json",
            "--out",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(v["strategy"].as_str(), Some("pareto"));
        assert!(v["front"].get_index(0).is_some());
        let _ = std::fs::remove_file(&spec_path);
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn gc_needs_a_campaign_directory() {
        let dir = tmp_path("not-a-campaign");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run(&args(&["campaign", "gc", dir.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("not a campaign directory"), "{err}");
        let err = run(&args(&["campaign", "gc"])).unwrap_err();
        assert!(err.contains("expected a campaign directory"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn search_has_no_process_fan_out_flags() {
        for extra in [
            &["--coordinate"][..],
            &["--worker-summary"],
            &["--ttl-ms", "5"],
            &["--poll-ms", "5"],
            &["--holder", "x"],
            &["--workers", "2"],
        ] {
            let mut argv = vec!["search", "--builtin", "--objective", "energy_saving"];
            argv.extend_from_slice(extra);
            let err = run(&args(&argv)).unwrap_err();
            assert!(
                err.contains(&format!("unknown flag '{}'", extra[0])),
                "{extra:?}: {err}"
            );
        }
    }

    #[test]
    fn campaigns_have_no_process_fan_out() {
        let dir = tmp_path("no-fan-out-store");
        let dir_arg = dir.to_str().unwrap();
        for argv in [
            &["campaign", "run", "--builtin", "--workers", "2"][..],
            &["campaign", "run", "--builtin", "--ttl-ms", "5"],
            &["campaign", "list", dir_arg, "--ttl-ms", "5"],
        ] {
            let flag = argv[argv.len() - 2];
            let err = run(&args(argv)).unwrap_err();
            assert!(
                err.contains(&format!("unknown flag '{flag}'")),
                "{argv:?}: {err}"
            );
        }
        // gc and compact take no flags, and say so instead of listing none
        for argv in [
            &["campaign", "gc", dir_arg, "--ttl-ms", "5"][..],
            &["campaign", "compact", dir_arg, "--x"],
        ] {
            let err = run(&args(argv)).unwrap_err();
            assert_eq!(
                err,
                format!("unknown flag '{}' (this command takes no flags)", argv[3]),
                "{argv:?}"
            );
        }
        let err = run(&args(&["worker", dir.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("unknown command 'worker'"), "{err}");
        for flag in ["--ttl-ms", "--poll-ms"] {
            let err = run(&args(&["serve", dir.to_str().unwrap(), flag, "5"])).unwrap_err();
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        }
        // a daemon that could run nothing is refused before it binds or
        // creates its store
        let err = run(&args(&["serve", dir.to_str().unwrap(), "--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers must be positive"), "{err}");
        assert!(!dir.exists(), "a refused daemon must not create its store");
    }

    #[test]
    fn bad_formats_fail_before_any_simulation_runs() {
        // an invalid spec would also error, so use a path that does not
        // even exist: the format must be rejected first
        let err = run(&args(&[
            "campaign",
            "run",
            "/nonexistent-spec.toml",
            "--format",
            "yaml",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown format 'yaml'"), "{err}");
    }

    #[test]
    fn search_renders_markdown() {
        let spec_path = tmp_path("search-md.toml");
        std::fs::write(
            &spec_path,
            "name = \"md\"\nhorizon_ms = 2\n\n[axes]\nworkloads = [\"low\"]\n\
             seeds = [1]\nthermals = [\"cool\"]\nip_counts = [1]\n\n\
             [search]\nobjective = \"energy_saving\"\nbudget = 2\n",
        )
        .unwrap();
        let out_path = tmp_path("search-md.md");
        run(&args(&[
            "search",
            spec_path.to_str().unwrap(),
            "--format",
            "markdown",
            "--out",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out_path).unwrap();
        assert!(text.contains("## Search `md`"), "{text}");
        assert!(text.contains("### Best cell"), "{text}");
        let _ = std::fs::remove_file(&spec_path);
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn search_picks_up_spec_search_defaults() {
        let spec_path = tmp_path("search-defaults.toml");
        std::fs::write(
            &spec_path,
            "name = \"defaulted\"\nhorizon_ms = 2\n\n[axes]\nworkloads = [\"low\"]\n\
             seeds = [1]\nthermals = [\"cool\"]\nip_counts = [1]\n\n\
             [search]\nobjective = \"energy_saving\"\nbudget = 2\n",
        )
        .unwrap();
        let out_path = tmp_path("search-defaults.json");
        run(&args(&[
            "search",
            spec_path.to_str().unwrap(),
            "--format",
            "json",
            "--out",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out_path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["budget"].as_u64(), Some(2));
        assert_eq!(v["evaluated"].as_u64(), Some(2));
        assert_eq!(v["objective"].as_str(), Some("maximize energy_saving_pct"));
        let _ = std::fs::remove_file(&spec_path);
        let _ = std::fs::remove_file(&out_path);
    }
}
