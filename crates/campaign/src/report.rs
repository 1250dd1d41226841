//! Campaign report rendering: ASCII, Markdown and JSON, in the style of
//! `dpm-soc::report`'s Table 2 renderers.

use crate::aggregate::CampaignSummary;
use crate::runner::{CampaignResult, RunStats};
use crate::search::{ParetoReport, SearchReport};

/// One-line human summary of a run's work accounting (resume hits,
/// shared runs). Printed to stderr by the CLI — deliberately kept out
/// of the report files, whose bytes must not depend on how much work a
/// particular run skipped.
pub fn run_stats_line(stats: &RunStats) -> String {
    // the coarse clause appears only when coarse work was done, so
    // fine-only runs keep the exact historical line (CI greps it)
    let coarse = match stats.coarse_simulations {
        0 => String::new(),
        n => format!(", {n} coarse evaluations"),
    };
    // the speculative clause deliberately avoids the word "simulations":
    // CI greps resumed runs for " 0 simulations" to prove zero fresh
    // strategy work, and speculative evals must not defeat that check
    let speculative = match (
        stats.speculative_cells,
        stats.speculative_simulations,
        stats.speculative_coarse,
    ) {
        (0, 0, 0) => String::new(),
        (cells, fine, coarse) => {
            format!(", {cells} speculative cells ({fine} fine, {coarse} coarse evals)")
        }
    };
    format!(
        "{} cells: {} archived, {} executed; {} simulations \
         ({} shared baselines, {} reused runs){coarse}{speculative}",
        stats.total_cells,
        stats.archived_cells,
        stats.executed_cells,
        stats.simulations,
        stats.baseline_groups,
        stats.reused_runs,
    )
}

/// Renders the summary as an ASCII report.
pub fn campaign_ascii(summary: &CampaignSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "campaign '{}': {} scenarios ({} failed)\n\n",
        summary.name, summary.scenarios, summary.failed
    ));
    out.push_str(
        "+--------------------+-----------+-----------+-----------+-----------+-----------+\n\
         | metric             |      mean |       min |       p50 |       p90 |       max |\n\
         +--------------------+-----------+-----------+-----------+-----------+-----------+\n",
    );
    for (metric, s) in &summary.metrics {
        out.push_str(&format!(
            "| {:<18} | {:>9.3} | {:>9.3} | {:>9.3} | {:>9.3} | {:>9.3} |\n",
            metric.label(),
            s.mean,
            s.min,
            s.p50,
            s.p90,
            s.max,
        ));
    }
    out.push_str(
        "+--------------------+-----------+-----------+-----------+-----------+-----------+\n",
    );

    out.push_str("\nwinners (best scenario per metric):\n");
    for w in &summary.winners {
        out.push_str(&format!(
            "  {:<18} = {:>10.3}  #{:04} {}\n",
            w.metric.label(),
            w.value,
            w.index,
            w.label
        ));
    }

    for (title, groups) in [
        ("by controller", &summary.by_controller),
        ("by tuning", &summary.by_tuning),
        ("by workload", &summary.by_workload),
    ] {
        out.push_str(&format!(
            "\n{title}:\n\
             +--------------------+------+------------+------------+------------+----------+\n\
             | group              |    n | saving %   | delay %    | energy J   | low-pwr  |\n\
             +--------------------+------+------------+------------+------------+----------+\n"
        ));
        for g in groups.iter() {
            out.push_str(&format!(
                "| {:<18} | {:>4} | {:>10.2} | {:>10.2} | {:>10.4} | {:>8.3} |\n",
                g.key,
                g.scenarios,
                g.mean_energy_saving_pct,
                g.mean_delay_overhead_pct,
                g.mean_energy_j,
                g.mean_low_power_frac,
            ));
        }
        out.push_str(
            "+--------------------+------+------------+------------+------------+----------+\n",
        );
    }
    out
}

/// Renders the summary as a Markdown report.
pub fn campaign_markdown(summary: &CampaignSummary) -> String {
    let mut out = format!(
        "## Campaign `{}` — {} scenarios ({} failed)\n\n\
         | metric | mean | min | p50 | p90 | max |\n\
         |--------|------|-----|-----|-----|-----|\n",
        summary.name, summary.scenarios, summary.failed
    );
    for (metric, s) in &summary.metrics {
        out.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |\n",
            metric.label(),
            s.mean,
            s.min,
            s.p50,
            s.p90,
            s.max,
        ));
    }
    out.push_str("\n### Winners\n\n| metric | value | scenario |\n|--------|-------|----------|\n");
    for w in &summary.winners {
        out.push_str(&format!(
            "| {} | {:.3} | `{}` |\n",
            w.metric.label(),
            w.value,
            w.label
        ));
    }
    for (title, groups) in [
        ("By controller", &summary.by_controller),
        ("By tuning", &summary.by_tuning),
        ("By workload", &summary.by_workload),
    ] {
        out.push_str(&format!(
            "\n### {title}\n\n| group | n | saving % | delay % | energy J | low-power |\n\
             |-------|---|----------|---------|----------|-----------|\n"
        ));
        for g in groups.iter() {
            out.push_str(&format!(
                "| `{}` | {} | {:.2} | {:.2} | {:.4} | {:.3} |\n",
                g.key,
                g.scenarios,
                g.mean_energy_saving_pct,
                g.mean_delay_overhead_pct,
                g.mean_energy_j,
                g.mean_low_power_frac,
            ));
        }
    }
    out
}

/// Serializes the summary (and optionally every per-scenario result) as
/// pretty JSON — the byte-stable archive format used by the determinism
/// tests.
///
/// # Errors
///
/// Propagates serializer errors (none in the in-tree shim).
pub fn campaign_json(
    summary: &CampaignSummary,
    results: Option<&CampaignResult>,
) -> Result<String, serde_json::Error> {
    // the in-tree serde derive doesn't support generic (lifetime-bearing)
    // types, so assemble the archive object by hand
    let mut archive = vec![("summary".to_string(), serde::Serialize::to_value(summary))];
    archive.push((
        "results".to_string(),
        match results {
            Some(r) => serde::Serialize::to_value(r),
            None => serde_json::Value::Null,
        },
    ));
    serde_json::to_string_pretty(&serde_json::Value::Object(archive))
}

/// Renders a search report as ASCII: objective, budget accounting, the
/// winning cell with its headline metrics, and the improvement
/// trajectory.
pub fn search_ascii(report: &SearchReport) -> String {
    let mut out = format!(
        "search '{}' ({}): {}\n  {} of {} grid cells evaluated in {} rounds (budget {}, {:.1}% of the grid)\n",
        report.name,
        report.strategy,
        report.objective,
        report.evaluated,
        report.grid_cells,
        report.rounds,
        report.budget,
        100.0 * report.evaluated as f64 / report.grid_cells.max(1) as f64,
    );
    // non-fine searches say so up front; fine reports keep the
    // historical shape byte-for-byte
    if report.fidelity != "fine" {
        out.push_str(&format!("  fidelity: {}", report.fidelity));
        if report.screened > 0 {
            out.push_str(&format!(
                " ({} cells coarse-screened before promotion)",
                report.screened
            ));
        }
        out.push('\n');
    }
    match &report.best {
        Some(best) => {
            out.push_str(&format!(
                "\nbest cell: #{:04} {}\n  objective = {:.4}{}\n  saving {:.2}% | delay {:.2}% | energy {:.4} J | temp -{:.2}% | low-power {:.3} | final soc {:.3}\n",
                best.index,
                best.label,
                best.value,
                if best.feasible { "" } else { "  (INFEASIBLE — no evaluated cell met the constraint)" },
                best.metrics.energy_saving_pct,
                best.metrics.delay_overhead_pct,
                best.metrics.energy_j,
                best.metrics.temp_reduction_pct,
                best.metrics.low_power_frac,
                best.metrics.final_soc,
            ));
        }
        None => out.push_str("\nbest cell: none (every evaluated cell failed)\n"),
    }
    out.push_str("\ntrajectory (improvements only):\n");
    for e in report.trajectory.iter().filter(|e| e.improved) {
        out.push_str(&format!(
            "  round {:>3}: #{:04} {} = {:.4}{}\n",
            e.round,
            e.index,
            e.label,
            e.value.unwrap_or(f64::NAN),
            if e.feasible { "" } else { "  (infeasible)" },
        ));
    }
    out
}

/// Renders a search report as Markdown, mirroring [`search_ascii`]'s
/// content: budget accounting, the winning cell, and the improvement
/// trajectory.
pub fn search_markdown(report: &SearchReport) -> String {
    let mut out = format!(
        "## Search `{}` ({}) — {}\n\n{} of {} grid cells evaluated in {} rounds \
         (budget {}, {:.1}% of the grid)\n",
        report.name,
        report.strategy,
        report.objective,
        report.evaluated,
        report.grid_cells,
        report.rounds,
        report.budget,
        100.0 * report.evaluated as f64 / report.grid_cells.max(1) as f64,
    );
    match &report.best {
        Some(best) => {
            out.push_str(&format!(
                "\n### Best cell\n\n`#{:04} {}`{}\n\n\
                 | objective | saving % | delay % | energy J | temp red % | low-power | final soc |\n\
                 |-----------|----------|---------|----------|------------|-----------|----------|\n\
                 | {:.4} | {:.2} | {:.2} | {:.4} | {:.2} | {:.3} | {:.3} |\n",
                best.index,
                best.label,
                if best.feasible {
                    ""
                } else {
                    " — **INFEASIBLE** (no evaluated cell met the constraint)"
                },
                best.value,
                best.metrics.energy_saving_pct,
                best.metrics.delay_overhead_pct,
                best.metrics.energy_j,
                best.metrics.temp_reduction_pct,
                best.metrics.low_power_frac,
                best.metrics.final_soc,
            ));
        }
        None => out.push_str("\n### Best cell\n\nnone (every evaluated cell failed)\n"),
    }
    out.push_str(
        "\n### Trajectory (improvements only)\n\n\
         | round | cell | value |\n|-------|------|-------|\n",
    );
    for e in report.trajectory.iter().filter(|e| e.improved) {
        out.push_str(&format!(
            "| {} | `#{:04} {}` | {:.4}{} |\n",
            e.round,
            e.index,
            e.label,
            e.value.unwrap_or(f64::NAN),
            if e.feasible { "" } else { " (infeasible)" },
        ));
    }
    out
}

/// Serializes a search report as pretty JSON. Byte-identical across
/// thread counts and archived/fresh mixes (work accounting is kept out
/// of the report for exactly this reason).
///
/// # Errors
///
/// Propagates serializer errors (none in the in-tree shim).
pub fn search_json(report: &SearchReport) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(report)
}

/// Renders a Pareto report as ASCII: the joint objectives, budget
/// accounting, every front cell with its objective values, and the
/// round-by-round dominated-count trajectory.
pub fn pareto_ascii(report: &ParetoReport) -> String {
    let mut out = format!(
        "pareto search '{}': {}\n  {} of {} grid cells evaluated in {} rounds (budget {}, {:.1}% of the grid)\n",
        report.name,
        report.objectives,
        report.evaluated,
        report.grid_cells,
        report.rounds,
        report.budget,
        100.0 * report.evaluated as f64 / report.grid_cells.max(1) as f64,
    );
    if report.front.is_empty() {
        out.push_str("\nfront: empty (every evaluated cell failed)\n");
    } else {
        out.push_str(&format!(
            "\nfront ({} non-dominated cells):\n",
            report.front.len()
        ));
        for p in &report.front {
            let values: Vec<String> = report
                .objective_labels
                .iter()
                .zip(&p.values)
                .map(|(label, v)| format!("{label} = {v:.4}"))
                .collect();
            out.push_str(&format!(
                "  #{:04} {}\n        {}{}\n",
                p.index,
                p.label,
                values.join(" | "),
                if p.feasible { "" } else { "  (infeasible)" },
            ));
        }
    }
    out.push_str("\ntrajectory (evaluated / front / dominated):\n");
    for r in &report.trajectory {
        out.push_str(&format!(
            "  round {:>3}: {:>4} evaluated, {:>4} on the front, {:>4} dominated\n",
            r.round, r.evaluated, r.front, r.dominated,
        ));
    }
    out
}

/// Renders a Pareto report as Markdown, mirroring [`pareto_ascii`]'s
/// content: budget accounting, the front table, and the dominated-count
/// trajectory.
pub fn pareto_markdown(report: &ParetoReport) -> String {
    let mut out = format!(
        "## Pareto search `{}` — {}\n\n{} of {} grid cells evaluated in {} rounds \
         (budget {}, {:.1}% of the grid)\n",
        report.name,
        report.objectives,
        report.evaluated,
        report.grid_cells,
        report.rounds,
        report.budget,
        100.0 * report.evaluated as f64 / report.grid_cells.max(1) as f64,
    );
    if report.front.is_empty() {
        out.push_str("\n### Front\n\nempty (every evaluated cell failed)\n");
    } else {
        out.push_str(&format!(
            "\n### Front ({} non-dominated cells)\n\n| cell | {} | feasible |\n|------|{}----------|\n",
            report.front.len(),
            report.objective_labels.join(" | "),
            "------|".repeat(report.objective_labels.len()),
        ));
        for p in &report.front {
            let values: Vec<String> = p.values.iter().map(|v| format!("{v:.4}")).collect();
            out.push_str(&format!(
                "| `#{:04} {}` | {} | {} |\n",
                p.index,
                p.label,
                values.join(" | "),
                if p.feasible { "yes" } else { "no" },
            ));
        }
    }
    out.push_str(
        "\n### Trajectory\n\n| round | evaluated | front | dominated |\n\
         |-------|-----------|-------|-----------|\n",
    );
    for r in &report.trajectory {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            r.round, r.evaluated, r.front, r.dominated,
        ));
    }
    out
}

/// Serializes a Pareto report as pretty JSON — byte-identical across
/// thread counts and archived/fresh mixes, like [`search_json`].
///
/// # Errors
///
/// Propagates serializer errors (none in the in-tree shim).
pub fn pareto_json(report: &ParetoReport) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::summarize;
    use crate::runner::{run_campaign, RunnerConfig};
    use crate::spec::CampaignSpec;

    fn small_result() -> CampaignResult {
        let mut spec = CampaignSpec::default_sweep();
        spec.horizon_ms = 5;
        spec.seeds = vec![1];
        spec.ip_counts = vec![1];
        run_campaign(&spec, &RunnerConfig::default())
    }

    #[test]
    fn renders_all_formats() {
        let result = small_result();
        let summary = summarize(&result);
        let ascii = campaign_ascii(&summary);
        assert!(ascii.contains("energy_saving_pct"));
        assert!(ascii.contains("winners"));
        assert!(ascii.contains("ctrl=dpm"));
        let md = campaign_markdown(&summary);
        assert!(md.contains("| metric | mean |"));
        assert!(md.contains("`ctrl=dpm`"));
        let json = campaign_json(&summary, Some(&result)).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["summary"]["name"], "default_sweep");
        assert!(v["results"]["results"].get_index(0).is_some());
    }

    #[test]
    fn search_report_renders_and_round_trips() {
        use crate::aggregate::Metric;
        use crate::objective::Objective;
        use crate::search::{search_campaign, SearchSpec};
        use crate::spec::CampaignSpec;

        let mut spec = CampaignSpec::default_sweep();
        spec.horizon_ms = 5;
        spec.seeds = vec![1];
        spec.ip_counts = vec![1];
        let search = SearchSpec::new(Objective::for_metric(Metric::EnergySavingPct), 4);
        let out = search_campaign(&spec, &search, &RunnerConfig::serial(), None).unwrap();
        let ascii = search_ascii(&out.report);
        assert!(ascii.contains("maximize energy_saving_pct"), "{ascii}");
        assert!(ascii.contains("best cell: #"), "{ascii}");
        assert!(ascii.contains("trajectory"), "{ascii}");
        let md = search_markdown(&out.report);
        assert!(md.contains("## Search"), "{md}");
        assert!(md.contains("### Best cell"), "{md}");
        assert!(md.contains("| round | cell | value |"), "{md}");
        let json = search_json(&out.report).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["grid_cells"].as_u64(), Some(8));
        assert!(v["best"]["label"].as_str().is_some());
        assert!(
            v.get("stats").is_none(),
            "work accounting stays out of the report"
        );
    }

    #[test]
    fn pareto_report_renders_and_round_trips() {
        use crate::objective::MultiObjective;
        use crate::search::{pareto_campaign, ParetoSpec};
        use crate::spec::CampaignSpec;

        let mut spec = CampaignSpec::default_sweep();
        spec.horizon_ms = 5;
        spec.seeds = vec![1];
        spec.ip_counts = vec![1];
        let objectives = MultiObjective::parse("energy_saving,min:delay").unwrap();
        let out = pareto_campaign(
            &spec,
            &ParetoSpec::new(objectives, 4),
            &RunnerConfig::serial(),
            None,
        )
        .unwrap();
        let ascii = pareto_ascii(&out.report);
        assert!(ascii.contains("pareto search"), "{ascii}");
        assert!(ascii.contains("non-dominated cells"), "{ascii}");
        assert!(ascii.contains("energy_saving_pct ="), "{ascii}");
        assert!(ascii.contains("dominated"), "{ascii}");
        let md = pareto_markdown(&out.report);
        assert!(md.contains("## Pareto search"), "{md}");
        assert!(md.contains("### Front"), "{md}");
        assert!(
            md.contains("| round | evaluated | front | dominated |"),
            "{md}"
        );
        let json = pareto_json(&out.report).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["strategy"].as_str(), Some("pareto"));
        assert_eq!(v["grid_cells"].as_u64(), Some(8));
        assert!(v["front"].get_index(0).is_some());
        assert!(
            v.get("stats").is_none(),
            "work accounting stays out of the report"
        );
    }

    #[test]
    fn stats_line_counts_everything() {
        let line = run_stats_line(&crate::runner::RunStats {
            total_cells: 32,
            archived_cells: 20,
            executed_cells: 12,
            simulations: 18,
            baseline_groups: 4,
            reused_runs: 2,
            coarse_simulations: 0,
            speculative_cells: 0,
            speculative_simulations: 0,
            speculative_coarse: 0,
        });
        for needle in ["32 cells", "20 archived", "12 executed", "18 simulations"] {
            assert!(line.contains(needle), "{line}");
        }
        assert!(
            !line.contains("coarse"),
            "fine-only runs keep the historical line: {line}"
        );
        assert!(
            !line.contains("speculative"),
            "prefetch-free runs keep the historical line: {line}"
        );
    }

    #[test]
    fn stats_line_names_speculative_work_without_the_word_simulations() {
        let line = run_stats_line(&crate::runner::RunStats {
            total_cells: 16,
            archived_cells: 4,
            executed_cells: 12,
            simulations: 14,
            baseline_groups: 3,
            reused_runs: 1,
            coarse_simulations: 0,
            speculative_cells: 5,
            speculative_simulations: 6,
            speculative_coarse: 2,
        });
        assert!(
            line.contains("5 speculative cells (6 fine, 2 coarse evals)"),
            "{line}"
        );
        // CI greps resumed runs for " 0 simulations"; the speculative
        // clause must never be able to satisfy or defeat that grep
        assert_eq!(line.matches("simulations").count(), 1, "{line}");
    }

    #[test]
    fn stats_line_names_coarse_work_when_present() {
        let line = run_stats_line(&crate::runner::RunStats {
            total_cells: 64,
            archived_cells: 0,
            executed_cells: 64,
            simulations: 7,
            baseline_groups: 2,
            reused_runs: 5,
            coarse_simulations: 70,
            speculative_cells: 0,
            speculative_simulations: 0,
            speculative_coarse: 0,
        });
        assert!(line.contains("70 coarse evaluations"), "{line}");
    }
}
