//! The campaign **store**: a service API over one or more campaign
//! directories.
//!
//! This module makes the campaign directory a *serving* medium. A
//! [`CampaignStore`] owns a root directory holding any number of
//! campaign directories, one per submitted spec, keyed by the spec's
//! fingerprint:
//!
//! ```text
//! <root>/
//!   c-2f9a63b41c70de85/      # one campaign directory per spec
//!     campaign.toml          # (exactly the layout crate::archive owns)
//!     segments/ segments-coarse/
//!   c-88d1c02b94a6f7e1/
//! ```
//!
//! Submitting the same spec twice — concurrently, from different
//! clients, or across daemon restarts — resolves to the **same**
//! directory: the id is a pure function of the spec, and the archive's
//! own fingerprint check refuses grid collisions. Work already archived
//! is never redone; a completed campaign answers every query with zero
//! fresh simulations.
//!
//! Both the `dpm` CLI and the [`crate::server`] daemon route through
//! this module, so listing, status, report and best/front queries cannot
//! drift between the two front ends.

use std::path::{Path, PathBuf};

use crate::aggregate::summarize;
use crate::archive::{CampaignArchive, CellState};
use crate::objective::{MultiObjective, Objective};
use crate::report::campaign_json;
use crate::runner::{CampaignResult, RunStats, ScenarioResult};
use crate::search::{ParetoPoint, SearchBest};
use crate::spec::CampaignSpec;
use crate::toml_spec::{parse_campaign_toml, SearchDefaults};

/// A root directory of campaign directories, addressed by campaign id.
#[derive(Debug, Clone)]
pub struct CampaignStore {
    root: PathBuf,
}

/// The outcome of submitting a spec to the store.
#[derive(Debug)]
pub struct Submission {
    /// The campaign id (stable across resubmissions of the same spec).
    pub id: String,
    /// `true` when the campaign directory already existed — the submit
    /// deduplicated into it instead of creating a new campaign.
    pub existed: bool,
    /// The parsed spec.
    pub spec: CampaignSpec,
    /// The spec's `[search]` defaults (not persisted in the archive).
    pub defaults: SearchDefaults,
    /// The campaign directory, opened for the spec.
    pub archive: CampaignArchive,
}

/// One campaign's headline status, as listed by `GET /campaigns` and
/// `dpm campaign list` over a store root.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignStatus {
    /// The campaign id (its directory name under the store root).
    pub id: String,
    /// The campaign name from its spec.
    pub name: String,
    /// Grid size.
    pub cells: usize,
    /// Cells with a valid archived record.
    pub archived: usize,
    /// Cells without one.
    pub pending: usize,
    /// `"complete"` when every cell is archived, else `"incomplete"`.
    pub state: String,
}

impl CampaignStatus {
    /// `true` when every cell has an archived record.
    pub fn complete(&self) -> bool {
        self.archived == self.cells
    }
}

impl CampaignStore {
    /// Opens (creating if necessary) a store root.
    ///
    /// # Errors
    ///
    /// Returns a description when the root directory cannot be created.
    pub fn open(root: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(root)
            .map_err(|e| format!("cannot create store root {}: {e}", root.display()))?;
        Ok(Self {
            root: root.to_path_buf(),
        })
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The id a spec resolves to: a pure function of the spec (its
    /// archive fingerprint), so resubmissions — concurrent ones included
    /// — dedup into one campaign directory.
    pub fn campaign_id(spec: &CampaignSpec) -> String {
        format!("c-{:016x}", crate::archive::spec_fingerprint(spec))
    }

    /// The directory a campaign id maps to.
    ///
    /// # Errors
    ///
    /// Returns a description when the id could escape the store root
    /// (path separators, traversal) — ids come straight off the wire.
    pub fn dir_of(&self, id: &str) -> Result<PathBuf, String> {
        if id.is_empty() || id == "." || id == ".." || id.contains(['/', '\\']) || id.contains('\0')
        {
            return Err(format!("invalid campaign id '{id}'"));
        }
        Ok(self.root.join(id))
    }

    /// Submits a TOML spec: parse, validate, and open (or dedup into)
    /// its campaign directory. Purely a storage operation — *executing*
    /// the campaign is the caller's business (the daemon enqueues a job;
    /// the CLI runs it in place).
    ///
    /// # Errors
    ///
    /// Returns a description when the spec does not parse or validate,
    /// or the campaign directory cannot be opened.
    pub fn submit_toml(&self, text: &str) -> Result<Submission, String> {
        let (spec, defaults) = parse_campaign_toml(text)?;
        self.submit_spec(spec, defaults)
    }

    /// Submits an already-parsed spec (see [`CampaignStore::submit_toml`]).
    ///
    /// # Errors
    ///
    /// Returns a description when the spec is invalid or the campaign
    /// directory cannot be opened.
    pub fn submit_spec(
        &self,
        spec: CampaignSpec,
        defaults: SearchDefaults,
    ) -> Result<Submission, String> {
        spec.validate()?;
        let id = Self::campaign_id(&spec);
        let dir = self.root.join(&id);
        let existed = dir.join("campaign.toml").is_file();
        let archive = CampaignArchive::open(&dir, &spec)?;
        Ok(Submission {
            id,
            existed,
            spec,
            defaults,
            archive,
        })
    }

    /// Opens one campaign by id, recovering its spec from the directory.
    ///
    /// # Errors
    ///
    /// Returns a description when the id is malformed or no campaign
    /// directory of that id exists under the root.
    pub fn open_campaign(&self, id: &str) -> Result<(CampaignArchive, CampaignSpec), String> {
        let dir = self.dir_of(id)?;
        if !dir.join("campaign.toml").is_file() {
            return Err(format!("no campaign '{id}' in this store"));
        }
        CampaignArchive::open_existing(&dir)
    }

    /// Every campaign under the root, sorted by id (directories without
    /// a readable `campaign.toml` are skipped — they may be mid-create).
    ///
    /// # Errors
    ///
    /// Returns a description when the root cannot be listed.
    pub fn list(&self) -> Result<Vec<CampaignStatus>, String> {
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| format!("cannot list store root {}: {e}", self.root.display()))?;
        let mut ids: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().join("campaign.toml").is_file())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        ids.sort();
        let mut out = Vec::new();
        for id in ids {
            let Ok((archive, spec)) = CampaignArchive::open_existing(&self.root.join(&id)) else {
                continue;
            };
            out.push(status_of(&id, &archive, &spec));
        }
        Ok(out)
    }

    /// Runs archive hygiene on one campaign: unloadable records and
    /// orphaned temp files go (see [`CampaignArchive::gc`]).
    ///
    /// # Errors
    ///
    /// Returns a description when the campaign does not exist or a
    /// listing/removal fails.
    pub fn gc(&self, id: &str) -> Result<crate::archive::GcReport, String> {
        let (archive, spec) = self.open_campaign(id)?;
        archive.gc(&spec)
    }

    /// Compacts one campaign's archive: every live record is rewritten
    /// into a single fresh segment file per store (see
    /// [`CampaignArchive::compact`]).
    ///
    /// # Errors
    ///
    /// Returns a description when the campaign does not exist or the
    /// rewrite fails.
    pub fn compact(&self, id: &str) -> Result<crate::archive::CompactReport, String> {
        let (archive, spec) = self.open_campaign(id)?;
        archive.compact(&spec)
    }
}

/// One campaign's status, derived from its archived records.
pub fn status_of(id: &str, archive: &CampaignArchive, spec: &CampaignSpec) -> CampaignStatus {
    let states = archive.cell_states(spec);
    let archived = states.iter().filter(|s| **s == CellState::Archived).count();
    CampaignStatus {
        id: id.to_string(),
        name: spec.name.clone(),
        cells: states.len(),
        archived,
        pending: states.len() - archived,
        state: if archived == states.len() {
            "complete"
        } else {
            "incomplete"
        }
        .to_string(),
    }
}

/// Loads a **complete** campaign straight from its archive: every cell's
/// record, zero fresh simulations, by construction. Returns `None` (with
/// the archived count) while any cell is missing — serving a partial
/// grid would silently change report bytes.
///
/// The returned [`RunStats`] is the honest accounting of the load: all
/// cells archived, nothing executed, no simulations.
pub fn completed_run(
    archive: &CampaignArchive,
    spec: &CampaignSpec,
) -> Result<(CampaignResult, RunStats), usize> {
    let cells = spec.expand();
    let load = archive.load(spec, &cells);
    if load.loaded < cells.len() {
        return Err(load.loaded);
    }
    let results: Vec<ScenarioResult> = load
        .slots
        .into_iter()
        .map(|slot| slot.expect("complete archive has every slot"))
        .collect();
    let stats = RunStats {
        total_cells: results.len(),
        archived_cells: results.len(),
        ..RunStats::default()
    };
    Ok((
        CampaignResult {
            name: spec.name.clone(),
            horizon_ms: spec.horizon_ms,
            master_seed: spec.master_seed,
            results,
        },
        stats,
    ))
}

/// The campaign report for a completed archive, **byte-identical** to
/// `dpm campaign run --format json` on the same spec (both funnel
/// through [`summarize`] + [`campaign_json`] over grid-ordered results).
///
/// # Errors
///
/// Propagates serializer errors (none in the in-tree shim).
pub fn report_json(
    result: &CampaignResult,
    per_scenario: bool,
) -> Result<String, serde_json::Error> {
    campaign_json(&summarize(result), per_scenario.then_some(result))
}

/// The best cell of a finished campaign under an objective — exactly the
/// cell a full-budget `dpm search` would report ([`Objective::argbest`]
/// is the search's own reference). `None` when every cell failed.
pub fn best_of(result: &CampaignResult, objective: &Objective) -> Option<SearchBest> {
    objective.argbest(&result.results).map(|r| {
        let score = objective
            .score(r)
            .expect("argbest only returns scored cells");
        SearchBest {
            index: r.scenario.index,
            label: r.scenario.label(),
            value: score.value,
            feasible: score.feasible,
            metrics: r.metrics.clone().expect("scored cells have metrics"),
        }
    })
}

/// The non-dominated front of a finished campaign — exactly the front a
/// full-budget `dpm search --strategy pareto` reports
/// ([`MultiObjective::front`] is the strategy's brute-force reference).
pub fn front_of(result: &CampaignResult, objectives: &MultiObjective) -> Vec<ParetoPoint> {
    objectives
        .front(&result.results)
        .into_iter()
        .map(|r| {
            let score = objectives
                .score(r)
                .expect("front only returns scored cells");
            ParetoPoint {
                index: r.scenario.index,
                label: r.scenario.label(),
                values: score.values,
                feasible: score.feasible,
                metrics: r.metrics.clone().expect("scored cells have metrics"),
            }
        })
        .collect()
}

/// Machine-readable grid description: scalars, per-axis sizes and the
/// expanded cells — shared verbatim by `dpm campaign list --format json`
/// and `GET /campaigns/{id}`, so CI can assert grid shapes against
/// either front end. When `states` is given (listing a campaign
/// *directory*), each cell also carries its lifecycle `state`.
pub fn grid_json(spec: &CampaignSpec, states: Option<&[CellState]>) -> String {
    use serde_json::Value;
    let axes = Value::Object(vec![
        (
            "controllers".into(),
            serde::Serialize::to_value(&spec.controllers.len()),
        ),
        (
            "tunings".into(),
            serde::Serialize::to_value(&spec.tunings.len()),
        ),
        (
            "workloads".into(),
            serde::Serialize::to_value(&spec.workloads.len()),
        ),
        (
            "seeds".into(),
            serde::Serialize::to_value(&spec.seeds.len()),
        ),
        (
            "batteries".into(),
            serde::Serialize::to_value(&spec.batteries.len()),
        ),
        (
            "thermals".into(),
            serde::Serialize::to_value(&spec.thermals.len()),
        ),
        (
            "ip_counts".into(),
            serde::Serialize::to_value(&spec.ip_counts.len()),
        ),
    ]);
    let cells: Vec<Value> = spec
        .expand()
        .iter()
        .map(|cell| {
            let mut fields = vec![
                ("index".into(), serde::Serialize::to_value(&cell.index)),
                ("label".into(), Value::String(cell.label())),
            ];
            if let Some(states) = states {
                fields.push((
                    "state".into(),
                    Value::String(states[cell.index].label().to_string()),
                ));
            }
            Value::Object(fields)
        })
        .collect();
    let doc = Value::Object(vec![
        ("name".into(), Value::String(spec.name.clone())),
        (
            "scenarios".into(),
            serde::Serialize::to_value(&spec.scenario_count()),
        ),
        (
            "horizon_ms".into(),
            serde::Serialize::to_value(&spec.horizon_ms),
        ),
        (
            "master_seed".into(),
            serde::Serialize::to_value(&spec.master_seed),
        ),
        ("axes".into(), axes),
        ("cells".into(), Value::Array(cells)),
    ]);
    doc.to_json_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_campaign, run_campaign_with, RunnerConfig};
    use crate::spec::{BatteryAxis, ControllerAxis, ThermalAxis, TuningAxis, WorkloadAxis};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dpm-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "store_tiny".into(),
            horizon_ms: 5,
            master_seed: 31,
            initial_soc: 0.9,
            controllers: vec![ControllerAxis::Dpm, ControllerAxis::AlwaysOn],
            tunings: vec![TuningAxis::Paper],
            workloads: vec![WorkloadAxis::Low],
            seeds: vec![1, 2],
            batteries: vec![BatteryAxis::Linear],
            thermals: vec![ThermalAxis::Cool],
            ip_counts: vec![1],
        }
    }

    #[test]
    fn ids_are_stable_and_spec_sensitive() {
        let spec = tiny_spec();
        assert_eq!(
            CampaignStore::campaign_id(&spec),
            CampaignStore::campaign_id(&spec.clone())
        );
        let mut other = spec.clone();
        other.master_seed += 1;
        assert_ne!(
            CampaignStore::campaign_id(&spec),
            CampaignStore::campaign_id(&other)
        );
    }

    #[test]
    fn resubmission_dedups_into_one_directory() {
        let root = tmp_root("dedup");
        let store = CampaignStore::open(&root).unwrap();
        let first = store
            .submit_spec(tiny_spec(), SearchDefaults::default())
            .unwrap();
        assert!(!first.existed);
        let second = store
            .submit_spec(tiny_spec(), SearchDefaults::default())
            .unwrap();
        assert!(second.existed);
        assert_eq!(first.id, second.id);
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].id, first.id);
        assert_eq!(listed[0].state, "incomplete");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn hostile_ids_cannot_escape_the_root() {
        let root = tmp_root("hostile");
        let store = CampaignStore::open(&root).unwrap();
        for id in ["", ".", "..", "a/b", "a\\b", "x\0y"] {
            assert!(store.dir_of(id).is_err(), "{id:?} must be rejected");
        }
        assert!(store.open_campaign("c-absent").is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn completed_run_serves_without_simulating_and_matches_a_fresh_run() {
        let root = tmp_root("complete");
        let store = CampaignStore::open(&root).unwrap();
        let sub = store
            .submit_spec(tiny_spec(), SearchDefaults::default())
            .unwrap();
        // incomplete: refused with the archived count
        assert_eq!(completed_run(&sub.archive, &sub.spec), Err(0));
        let run =
            run_campaign_with(&sub.spec, &RunnerConfig::serial(), Some(&sub.archive)).unwrap();
        let (served, stats) = completed_run(&sub.archive, &sub.spec).unwrap();
        assert_eq!(served, run.result);
        assert_eq!(stats.simulations, 0);
        assert_eq!(stats.archived_cells, stats.total_cells);
        // report bytes match the CLI's aggregation path exactly
        assert_eq!(
            report_json(&served, false).unwrap(),
            report_json(&run.result, false).unwrap()
        );
        let status = status_of(&sub.id, &sub.archive, &sub.spec);
        assert!(status.complete());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn best_and_front_match_the_search_references() {
        let spec = tiny_spec();
        let result = run_campaign(&spec, &RunnerConfig::serial());
        let objective = Objective::parse("energy_saving").unwrap();
        let best = best_of(&result, &objective).expect("some cell succeeded");
        let reference = objective.argbest(&result.results).unwrap();
        assert_eq!(best.index, reference.scenario.index);

        let objectives = MultiObjective::parse("energy_saving,min:delay").unwrap();
        let front = front_of(&result, &objectives);
        let reference: Vec<usize> = objectives
            .front(&result.results)
            .iter()
            .map(|r| r.scenario.index)
            .collect();
        assert_eq!(front.iter().map(|p| p.index).collect::<Vec<_>>(), reference);
        assert!(!front.is_empty());
    }
}
