//! Golden-report regression corpus: the text / markdown / json
//! renderings of `SearchReport` (climb + anneal) and
//! `ParetoReport` on `specs/quick.toml`, and the per-scenario JSON
//! `campaign run` report of a 40-cell grid at the full 200 ms horizon,
//! are checked in under `tests/golden/` and diffed
//! byte-for-byte here, so report-format changes are always deliberate.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! DPM_UPDATE_GOLDEN=1 cargo test -p dpm-campaign --test golden
//! ```
//!
//! then review the diff like any other code change. The corpus also
//! pins simulation determinism end-to-end: a golden mismatch with no
//! renderer change means the *metrics* moved.

use std::path::{Path, PathBuf};

use dpm_campaign::{
    campaign_json, pareto_ascii, pareto_campaign, pareto_json, pareto_markdown,
    parse_campaign_toml, run_campaign_with, search_ascii, search_campaign, search_json,
    search_markdown, summarize, CampaignSpec, MultiObjective, ParetoSpec, RunnerConfig, SearchSpec,
    StrategyKind,
};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn quick_spec() -> (CampaignSpec, SearchSpec) {
    let text = std::fs::read_to_string(repo_path("specs/quick.toml")).expect("read quick.toml");
    let (spec, defaults) = parse_campaign_toml(&text).expect("parse quick.toml");
    let search = SearchSpec::new(
        defaults.objective.expect("quick.toml sets an objective"),
        defaults.budget.expect("quick.toml sets a budget"),
    );
    (spec, search)
}

/// Compares `rendered` against the checked-in golden file, or rewrites
/// it when `DPM_UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("DPM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with DPM_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == rendered,
        "{name} drifted from its golden rendering.\n\
         If the change is deliberate, regenerate with\n\
         DPM_UPDATE_GOLDEN=1 cargo test -p dpm-campaign --test golden\n\
         and review the diff.\n\
         ---- expected ----\n{expected}\n---- got ----\n{rendered}\n",
    );
}

#[test]
fn climb_search_report_matches_the_golden_corpus() {
    let (spec, search) = quick_spec();
    let outcome =
        search_campaign(&spec, &search, &RunnerConfig::default(), None).expect("climb search");
    assert_golden("search-quick.txt", &search_ascii(&outcome.report));
    assert_golden("search-quick.md", &search_markdown(&outcome.report));
    assert_golden("search-quick.json", &search_json(&outcome.report).unwrap());
}

#[test]
fn anneal_search_report_matches_the_golden_corpus() {
    let (spec, search) = quick_spec();
    let search = search.with_strategy(StrategyKind::Anneal);
    let outcome =
        search_campaign(&spec, &search, &RunnerConfig::default(), None).expect("anneal search");
    assert_golden("anneal-quick.txt", &search_ascii(&outcome.report));
    assert_golden("anneal-quick.md", &search_markdown(&outcome.report));
    assert_golden("anneal-quick.json", &search_json(&outcome.report).unwrap());
}

#[test]
fn pareto_report_matches_the_golden_corpus() {
    let (spec, search) = quick_spec();
    let pareto = ParetoSpec::new(
        MultiObjective::parse("energy_saving,min:delay").expect("objectives"),
        search.budget,
    );
    let outcome =
        pareto_campaign(&spec, &pareto, &RunnerConfig::default(), None).expect("pareto search");
    assert_golden("pareto-quick.txt", &pareto_ascii(&outcome.report));
    assert_golden("pareto-quick.md", &pareto_markdown(&outcome.report));
    assert_golden("pareto-quick.json", &pareto_json(&outcome.report).unwrap());
}

/// Every controller on both workloads, both SoC sizes and both thermal
/// scenarios, one seed, at the sweep's 200 ms horizon. The quick goldens
/// stop at 15 ms with three controllers and a cool package, so they pin
/// neither the timeout controllers, nor a hot start, nor a long run.
const FULL_HORIZON_TOML: &str = "\
name = \"full-horizon\"
horizon_ms = 200
master_seed = 2005
initial_soc = 0.95

[axes]
controllers = [\"dpm\", \"always_on\", \"timeout_500us\", \"timeout_2ms\", \"oracle\"]
tunings = [\"paper\"]
workloads = [\"low\", \"high\"]
seeds = [1]
batteries = [\"linear\"]
thermals = [\"cool\", \"hot\"]
ip_counts = [1, 4]
";

#[test]
fn full_horizon_campaign_report_matches_the_golden_corpus() {
    let (spec, _) = parse_campaign_toml(FULL_HORIZON_TOML).expect("parse the full-horizon grid");
    let run = run_campaign_with(&spec, &RunnerConfig::default(), None).expect("campaign run");
    let json = campaign_json(&summarize(&run.result), Some(&run.result)).unwrap();
    assert_golden("campaign-full-horizon.json", &json);
}
