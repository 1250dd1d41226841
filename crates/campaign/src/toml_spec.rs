//! Campaign specs as TOML, via a minimal in-crate parser.
//!
//! No TOML crate is available in this environment, so this module parses
//! the subset campaign specs need: `key = value` pairs, `[section]`
//! headers, strings, integers, floats, booleans, and (possibly
//! multi-line) arrays of scalars. Comments (`#`) and blank lines are
//! ignored. Unknown keys are rejected — a typo'd axis name should fail
//! loudly, not silently shrink a sweep.
//!
//! # Example
//!
//! ```toml
//! name = "policy_exploration"
//! horizon_ms = 40
//! master_seed = 42
//! initial_soc = 0.95
//!
//! [axes]
//! controllers = ["dpm", "always_on", "timeout_500us", "oracle"]
//! tunings = ["paper", "energy_optimal"]
//! workloads = ["low", "high"]
//! seeds = [1, 2, 3]
//! batteries = ["linear", "kibam"]
//! thermals = ["cool", "hot"]
//! ip_counts = [1, 4]
//!
//! [search]                          # optional: defaults for `dpm search`
//! strategy = "climb"                # climb | anneal | pareto
//! objective = "energy_saving"       # metric label/alias, opt. min:/max: prefix
//! objectives = ["max:energy_saving", "min:delay"]   # pareto fronts
//! constraint = "delay_overhead_pct<=5"
//! budget = 40                       # cells to evaluate
//! initial_temp = 5.0                # annealing schedule (anneal)
//! cooling = 0.9
//! anneal_seed = 7
//! prefetch = true                   # speculative neighbor prefetch
//! ```
//!
//! The `[search]` section never reaches [`CampaignSpec`] (or its archive
//! fingerprint): editing the objective or budget keeps a campaign
//! directory's cached cells valid.

use std::collections::HashSet;

use crate::objective::{Constraint, Objective};
use crate::search::{SearchFidelity, StrategyKind};
use crate::spec::{
    BatteryAxis, CampaignSpec, ControllerAxis, ThermalAxis, TuningAxis, WorkloadAxis,
};

/// A parsed TOML scalar or array.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A quoted string.
    String(String),
    /// An integer.
    Integer(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<TomlValue>),
}

impl TomlValue {
    fn type_name(&self) -> &'static str {
        match self {
            TomlValue::String(_) => "string",
            TomlValue::Integer(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Array(_) => "array",
        }
    }
}

/// A flat `section.key -> value` document (top-level keys have no dot).
#[derive(Debug, Clone, Default)]
pub struct TomlDoc {
    pairs: Vec<(String, TomlValue)>,
}

impl TomlDoc {
    /// Parses TOML text (the supported subset).
    ///
    /// # Errors
    ///
    /// Returns `line N: message` on the first syntax error.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut doc = TomlDoc::default();
        // beside `pairs`, so a duplicate check costs O(1), not a scan of
        // every earlier key
        let mut seen: HashSet<String> = HashSet::new();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((lineno, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
            if let Some(inner) = line.strip_prefix('[') {
                let name = inner
                    .strip_suffix(']')
                    .ok_or_else(|| err("unterminated section header"))?
                    .trim();
                if name.is_empty() {
                    return Err(err("empty section name"));
                }
                section = name.to_string();
                continue;
            }
            let (key, mut rest) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or_else(|| err("expected `key = value`"))?;
            if key.is_empty() {
                return Err(err("empty key"));
            }
            // multi-line arrays: keep consuming lines until brackets
            // close, scanning only each appended line (the depth and the
            // in-string flag carry over), so an array that never closes
            // costs linear time
            if rest.starts_with('[') {
                let mut brackets = Brackets::default();
                brackets.scan(&rest);
                while !brackets.closed() {
                    let (_, next) = lines.next().ok_or_else(|| err("unterminated array"))?;
                    let next = strip_comment(next).trim();
                    rest.push(' ');
                    rest.push_str(next);
                    brackets.scan(next);
                }
            }
            let value = parse_value(rest.trim()).map_err(|m| err(&m))?;
            let full_key = if section.is_empty() {
                key
            } else {
                format!("{section}.{key}")
            };
            if !seen.insert(full_key.clone()) {
                return Err(err(&format!("duplicate key '{full_key}'")));
            }
            doc.pairs.push((full_key, value));
        }
        Ok(doc)
    }

    /// Looks up a key (`section.key` or a bare top-level key).
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// All keys, in document order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.pairs.iter().map(|(k, _)| k.as_str())
    }
}

fn strip_comment(line: &str) -> &str {
    // '#' inside a quoted string must survive
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Bracket depth and in-string state of an array value read so far.
/// Scanning a value in pieces ends in the same state as scanning it
/// whole, so a multi-line array is scanned one appended line at a time.
#[derive(Debug, Default)]
struct Brackets {
    depth: i32,
    in_string: bool,
}

impl Brackets {
    fn scan(&mut self, s: &str) {
        for c in s.chars() {
            match c {
                '"' => self.in_string = !self.in_string,
                '[' if !self.in_string => self.depth += 1,
                ']' if !self.in_string => self.depth -= 1,
                _ => {}
            }
        }
    }

    fn closed(&self) -> bool {
        self.depth <= 0
    }
}

fn parse_value(s: &str) -> Result<TomlValue, String> {
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            // no spec key takes one, and refusing them keeps the
            // recursion one level deep whatever the input nests
            if part.starts_with('[') {
                return Err("nested arrays are not supported".into());
            }
            items.push(parse_value(part)?);
        }
        return Ok(TomlValue::Array(items));
    }
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        if inner.contains('"') {
            return Err("unsupported embedded quote".into());
        }
        return Ok(TomlValue::String(inner.to_string()));
    }
    match s {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    let cleaned = s.replace('_', "");
    if let Some(hex) = cleaned.strip_prefix("0x") {
        return i64::from_str_radix(hex, 16)
            .map(TomlValue::Integer)
            .map_err(|_| format!("bad hex integer '{s}'"));
    }
    if !s.contains(['.', 'e', 'E']) {
        if let Ok(n) = cleaned.parse::<i64>() {
            return Ok(TomlValue::Integer(n));
        }
    }
    cleaned
        .parse::<f64>()
        .map(TomlValue::Float)
        .map_err(|_| format!("unrecognized value '{s}'"))
}

fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

// ---- spec binding ----------------------------------------------------

const KNOWN_KEYS: &[&str] = &[
    "name",
    "horizon_ms",
    "master_seed",
    "initial_soc",
    "axes.controllers",
    "axes.tunings",
    "axes.workloads",
    "axes.seeds",
    "axes.batteries",
    "axes.thermals",
    "axes.ip_counts",
    "search.strategy",
    "search.fidelity",
    "search.objective",
    "search.objectives",
    "search.constraint",
    "search.budget",
    "search.start_points",
    "search.initial_temp",
    "search.cooling",
    "search.anneal_seed",
    "search.prefetch",
];

/// The optional `[search]` section of a spec file: per-spec defaults for
/// `dpm search`, each overridable from the command line.
///
/// Deliberately **not** part of [`CampaignSpec`]: the grid fingerprint
/// ([`crate::archive::spec_fingerprint`]) covers only the grid, so
/// changing the objective or budget of a spec keeps its campaign
/// archive — and the cached cell results — valid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchDefaults {
    /// `search.strategy`: `climb`, `anneal` or `pareto`.
    pub strategy: Option<StrategyKind>,
    /// `search.fidelity`: `fine`, `coarse` or `multi`.
    pub fidelity: Option<SearchFidelity>,
    /// `search.objective`, e.g. `"energy_saving"` or `"min:energy_j"`.
    pub objective: Option<Objective>,
    /// `search.objectives`: the Pareto objective list (each entry as in
    /// [`Objective::parse`]; at least two).
    pub objectives: Option<Vec<Objective>>,
    /// `search.constraint`, e.g. `"delay_overhead_pct<=5"`.
    pub constraint: Option<Constraint>,
    /// `search.budget` (cells to evaluate).
    pub budget: Option<usize>,
    /// `search.start_points` (start-frontier size).
    pub start_points: Option<usize>,
    /// `search.initial_temp` (annealing schedule).
    pub initial_temp: Option<f64>,
    /// `search.cooling` (annealing schedule).
    pub cooling: Option<f64>,
    /// `search.anneal_seed` (the annealer's random stream).
    pub anneal_seed: Option<u64>,
    /// `search.prefetch` (speculative neighbor prefetch; see
    /// [`crate::search::SearchSpec::prefetch`]).
    pub prefetch: Option<bool>,
}

/// Parses a spec file into the campaign grid plus its `[search]`
/// defaults (empty when the section is absent).
///
/// # Errors
///
/// Returns a description of the first syntax error, unknown key, type
/// mismatch or invalid axis/search value.
pub fn parse_campaign_toml(text: &str) -> Result<(CampaignSpec, SearchDefaults), String> {
    let doc = TomlDoc::parse(text)?;
    for key in doc.keys() {
        if !KNOWN_KEYS.contains(&key) {
            return Err(format!(
                "unknown key '{key}' (expected one of: {})",
                KNOWN_KEYS.join(", ")
            ));
        }
    }
    let spec = spec_from_doc(&doc)?;
    let mut search = SearchDefaults::default();
    if let Some(v) = doc.get("search.strategy") {
        let TomlValue::String(s) = v else {
            return Err(format!(
                "'search.strategy' must be a string, got {}",
                v.type_name()
            ));
        };
        search.strategy =
            Some(StrategyKind::parse(s).map_err(|e| format!("search.strategy: {e}"))?);
    }
    if let Some(v) = doc.get("search.fidelity") {
        let TomlValue::String(s) = v else {
            return Err(format!(
                "'search.fidelity' must be a string, got {}",
                v.type_name()
            ));
        };
        search.fidelity =
            Some(SearchFidelity::parse(s).map_err(|e| format!("search.fidelity: {e}"))?);
    }
    if let Some(v) = doc.get("search.objectives") {
        let TomlValue::Array(items) = v else {
            return Err(format!(
                "'search.objectives' must be an array, got {}",
                v.type_name()
            ));
        };
        let objectives: Vec<Objective> = items
            .iter()
            .map(|item| match item {
                TomlValue::String(s) => {
                    Objective::parse(s).map_err(|e| format!("search.objectives: {e}"))
                }
                other => Err(format!(
                    "'search.objectives' entries must be strings, got {}",
                    other.type_name()
                )),
            })
            .collect::<Result<_, _>>()?;
        if objectives.len() < 2 {
            return Err("'search.objectives' needs at least two entries \
                 (a single objective belongs in 'search.objective')"
                .into());
        }
        search.objectives = Some(objectives);
    }
    if let Some(v) = doc.get("search.objective") {
        let TomlValue::String(s) = v else {
            return Err(format!(
                "'search.objective' must be a string, got {}",
                v.type_name()
            ));
        };
        search.objective = Some(Objective::parse(s).map_err(|e| format!("search.objective: {e}"))?);
    }
    if let Some(v) = doc.get("search.constraint") {
        let TomlValue::String(s) = v else {
            return Err(format!(
                "'search.constraint' must be a string, got {}",
                v.type_name()
            ));
        };
        search.constraint =
            Some(Constraint::parse(s).map_err(|e| format!("search.constraint: {e}"))?);
    }
    if let Some(v) = doc.get("search.budget") {
        let budget = as_u64("search.budget", v)? as usize;
        if budget == 0 {
            return Err("'search.budget' must be positive".into());
        }
        search.budget = Some(budget);
    }
    if let Some(v) = doc.get("search.start_points") {
        let points = as_u64("search.start_points", v)? as usize;
        if points == 0 {
            return Err("'search.start_points' must be positive".into());
        }
        search.start_points = Some(points);
    }
    if let Some(v) = doc.get("search.initial_temp") {
        let temp = as_f64("search.initial_temp", v)?;
        if !(temp > 0.0 && temp.is_finite()) {
            return Err("'search.initial_temp' must be positive and finite".into());
        }
        search.initial_temp = Some(temp);
    }
    if let Some(v) = doc.get("search.cooling") {
        let cooling = as_f64("search.cooling", v)?;
        if !(cooling > 0.0 && cooling < 1.0) {
            return Err("'search.cooling' must lie strictly between 0 and 1".into());
        }
        search.cooling = Some(cooling);
    }
    if let Some(v) = doc.get("search.anneal_seed") {
        search.anneal_seed = Some(as_u64("search.anneal_seed", v)?);
    }
    if let Some(v) = doc.get("search.prefetch") {
        let TomlValue::Bool(b) = v else {
            return Err(format!(
                "'search.prefetch' must be a boolean, got {}",
                v.type_name()
            ));
        };
        search.prefetch = Some(*b);
    }
    Ok((spec, search))
}

impl CampaignSpec {
    /// Loads a spec from TOML text. Missing axes fall back to the
    /// `default_sweep` values; unknown keys are an error. A `[search]`
    /// section, if present, is validated and dropped (use
    /// [`parse_campaign_toml`] to keep it).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, unknown key,
    /// type mismatch or invalid axis value.
    pub fn from_toml(text: &str) -> Result<Self, String> {
        parse_campaign_toml(text).map(|(spec, _)| spec)
    }
}

fn spec_from_doc(doc: &TomlDoc) -> Result<CampaignSpec, String> {
    let mut spec = CampaignSpec::default_sweep();
    spec.name = match doc.get("name") {
        Some(TomlValue::String(s)) => s.clone(),
        Some(v) => return Err(format!("'name' must be a string, got {}", v.type_name())),
        None => "campaign".to_string(),
    };
    if let Some(v) = doc.get("horizon_ms") {
        spec.horizon_ms = as_u64("horizon_ms", v)?;
    }
    if let Some(v) = doc.get("master_seed") {
        spec.master_seed = as_u64("master_seed", v)?;
    }
    if let Some(v) = doc.get("initial_soc") {
        spec.initial_soc = match v {
            TomlValue::Float(x) => *x,
            TomlValue::Integer(n) => *n as f64,
            other => {
                return Err(format!(
                    "'initial_soc' must be a number, got {}",
                    other.type_name()
                ))
            }
        };
    }
    if let Some(v) = doc.get("axes.controllers") {
        spec.controllers = string_axis(v, "axes.controllers", ControllerAxis::parse)?;
    }
    if let Some(v) = doc.get("axes.tunings") {
        spec.tunings = string_axis(v, "axes.tunings", TuningAxis::parse)?;
    }
    if let Some(v) = doc.get("axes.workloads") {
        spec.workloads = string_axis(v, "axes.workloads", WorkloadAxis::parse)?;
    }
    if let Some(v) = doc.get("axes.batteries") {
        spec.batteries = string_axis(v, "axes.batteries", BatteryAxis::parse)?;
    }
    if let Some(v) = doc.get("axes.thermals") {
        spec.thermals = string_axis(v, "axes.thermals", ThermalAxis::parse)?;
    }
    if let Some(v) = doc.get("axes.seeds") {
        spec.seeds = int_axis(v, "axes.seeds")?;
    }
    if let Some(v) = doc.get("axes.ip_counts") {
        spec.ip_counts = int_axis(v, "axes.ip_counts")?
            .into_iter()
            .map(|n| n as usize)
            .collect();
    }
    spec.validate()?;
    Ok(spec)
}

impl CampaignSpec {
    /// Renders the spec back as TOML (parseable by [`Self::from_toml`]).
    pub fn to_toml(&self) -> String {
        fn quote_list<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
            let parts: Vec<String> = items.iter().map(f).collect();
            format!("[{}]", parts.join(", "))
        }
        format!(
            "name = \"{}\"\nhorizon_ms = {}\nmaster_seed = {}\ninitial_soc = {}\n\n\
             [axes]\ncontrollers = {}\ntunings = {}\nworkloads = {}\nseeds = {}\n\
             batteries = {}\nthermals = {}\nip_counts = {}\n",
            self.name,
            self.horizon_ms,
            self.master_seed,
            self.initial_soc,
            quote_list(&self.controllers, |c| format!("\"{}\"", c.label())),
            quote_list(&self.tunings, |t| format!("\"{}\"", t.label())),
            quote_list(&self.workloads, |w| format!("\"{}\"", w.label())),
            quote_list(&self.seeds, |s| s.to_string()),
            quote_list(&self.batteries, |b| format!("\"{}\"", b.label())),
            quote_list(&self.thermals, |t| format!("\"{}\"", t.label())),
            quote_list(&self.ip_counts, |n| n.to_string()),
        )
    }
}

fn as_f64(key: &str, v: &TomlValue) -> Result<f64, String> {
    match v {
        TomlValue::Float(x) => Ok(*x),
        TomlValue::Integer(n) => Ok(*n as f64),
        other => Err(format!(
            "'{key}' must be a number, got {}",
            other.type_name()
        )),
    }
}

fn as_u64(key: &str, v: &TomlValue) -> Result<u64, String> {
    match v {
        TomlValue::Integer(n) if *n >= 0 => Ok(*n as u64),
        other => Err(format!(
            "'{key}' must be a non-negative integer, got {}",
            other.type_name()
        )),
    }
}

fn string_axis<T>(
    v: &TomlValue,
    key: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let TomlValue::Array(items) = v else {
        return Err(format!("'{key}' must be an array, got {}", v.type_name()));
    };
    items
        .iter()
        .map(|item| match item {
            TomlValue::String(s) => parse(s),
            other => Err(format!(
                "'{key}' entries must be strings, got {}",
                other.type_name()
            )),
        })
        .collect()
}

fn int_axis(v: &TomlValue, key: &str) -> Result<Vec<u64>, String> {
    let TomlValue::Array(items) = v else {
        return Err(format!("'{key}' must be an array, got {}", v.type_name()));
    };
    items.iter().map(|item| as_u64(key, item)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# a comment
name = "exploration"   # trailing comment
horizon_ms = 25
master_seed = 0xDA7E
initial_soc = 0.8

[axes]
controllers = ["dpm", "oracle"]
tunings = ["paper"]
workloads = ["low"]
seeds = [
    1,
    2,   # multi-line array
    3,
]
batteries = ["linear"]
thermals = ["cool"]
ip_counts = [1]
"#;

    #[test]
    fn parses_the_example() {
        let spec = CampaignSpec::from_toml(EXAMPLE).unwrap();
        assert_eq!(spec.name, "exploration");
        assert_eq!(spec.horizon_ms, 25);
        assert_eq!(spec.master_seed, 0xDA7E);
        assert_eq!(spec.initial_soc, 0.8);
        assert_eq!(
            spec.controllers,
            vec![ControllerAxis::Dpm, ControllerAxis::Oracle]
        );
        assert_eq!(spec.seeds, vec![1, 2, 3]);
        assert_eq!(spec.scenario_count(), 2 * 3);
    }

    #[test]
    fn toml_round_trips_the_spec() {
        let spec = CampaignSpec::default_sweep();
        let text = spec.to_toml();
        let back = CampaignSpec::from_toml(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_key_is_rejected() {
        let err = CampaignSpec::from_toml("nmae = \"typo\"\n").unwrap_err();
        assert!(err.contains("unknown key 'nmae'"), "{err}");
    }

    #[test]
    fn unknown_axis_value_is_rejected() {
        let err = CampaignSpec::from_toml("[axes]\ncontrollers = [\"warp_drive\"]\n").unwrap_err();
        assert!(err.contains("unknown controller 'warp_drive'"), "{err}");
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let err = CampaignSpec::from_toml("horizon_ms = \"fast\"\n").unwrap_err();
        assert!(err.contains("horizon_ms"), "{err}");
        let err = CampaignSpec::from_toml("[axes]\nseeds = [\"one\"]\n").unwrap_err();
        assert!(err.contains("seeds"), "{err}");
    }

    #[test]
    fn empty_axis_fails_validation() {
        let err = CampaignSpec::from_toml("[axes]\nseeds = []\n").unwrap_err();
        assert!(err.contains("axis 'seeds' is empty"), "{err}");
    }

    #[test]
    fn horizon_past_the_picosecond_clock_fails_validation() {
        let longest = CampaignSpec::from_toml("horizon_ms = 18446744073\n").unwrap();
        assert_eq!(longest.horizon_ms, 18_446_744_073);
        let err = CampaignSpec::from_toml("horizon_ms = 18446744074\n").unwrap_err();
        assert!(err.contains("horizon_ms"), "{err}");
    }

    #[test]
    fn nested_arrays_are_an_error_not_a_stack_overflow() {
        // a spawned thread has a small stack; one frame per `[` used to
        // overflow it and abort the process
        let deep = format!(
            "[axes]\nip_counts = {}1{}\n",
            "[".repeat(100_000),
            "]".repeat(100_000)
        );
        let parsed = std::thread::spawn(move || parse_campaign_toml(&deep).map(|_| ()))
            .join()
            .expect("the parser must not overflow its stack");
        let err = parsed.unwrap_err();
        assert!(err.contains("nested arrays are not supported"), "{err}");
        // shallow nesting gets the same message, not "unterminated array"
        let err = TomlDoc::parse("[axes]\nseeds = [[1, 2], [3]]\n").unwrap_err();
        assert_eq!(err, "line 2: nested arrays are not supported");
    }

    #[test]
    fn search_section_parses_and_stays_out_of_the_spec() {
        use crate::aggregate::Metric;
        use crate::objective::{ConstraintOp, Direction};

        let text = format!(
            "{EXAMPLE}\n[search]\nobjective = \"min:energy_j\"\n\
             constraint = \"delay_overhead_pct<=5\"\nbudget = 4\nstart_points = 2\n"
        );
        let (spec, search) = parse_campaign_toml(&text).unwrap();
        let objective = search.objective.unwrap();
        assert_eq!(objective.metric, Metric::EnergyJ);
        assert_eq!(objective.direction, Direction::Minimize);
        let constraint = search.constraint.unwrap();
        assert_eq!(constraint.metric, Metric::DelayOverheadPct);
        assert_eq!(constraint.op, ConstraintOp::Le);
        assert_eq!(search.budget, Some(4));
        assert_eq!(search.start_points, Some(2));
        // the grid (and thus the archive fingerprint) ignores [search]
        assert_eq!(spec, CampaignSpec::from_toml(EXAMPLE).unwrap());
        assert_eq!(
            spec.to_toml(),
            CampaignSpec::from_toml(EXAMPLE).unwrap().to_toml()
        );
        // absent section -> all defaults empty
        let (_, empty) = parse_campaign_toml(EXAMPLE).unwrap();
        assert_eq!(empty, SearchDefaults::default());
    }

    #[test]
    fn search_strategy_and_anneal_keys_parse() {
        use crate::search::StrategyKind;

        let text = format!(
            "{EXAMPLE}\n[search]\nstrategy = \"anneal\"\nobjective = \"energy_saving\"\n\
             budget = 4\ninitial_temp = 2.5\ncooling = 0.85\nanneal_seed = 99\n"
        );
        let (_, search) = parse_campaign_toml(&text).unwrap();
        assert_eq!(search.strategy, Some(StrategyKind::Anneal));
        assert_eq!(search.initial_temp, Some(2.5));
        assert_eq!(search.cooling, Some(0.85));
        assert_eq!(search.anneal_seed, Some(99));
    }

    #[test]
    fn search_prefetch_parses_as_a_boolean_or_fails_loudly() {
        use crate::search::StrategyKind;

        let text = format!(
            "{EXAMPLE}\n[search]\nstrategy = \"anneal\"\nobjective = \"energy_saving\"\n\
             budget = 4\nprefetch = true\n"
        );
        let (_, search) = parse_campaign_toml(&text).unwrap();
        assert_eq!(search.strategy, Some(StrategyKind::Anneal));
        assert_eq!(search.prefetch, Some(true));
        // absent -> None (the CLI default of "off" applies)
        let (_, bare) = parse_campaign_toml(EXAMPLE).unwrap();
        assert_eq!(bare.prefetch, None);

        let err = parse_campaign_toml("[search]\nprefetch = \"yes\"\n").unwrap_err();
        assert!(err.contains("'search.prefetch' must be a boolean"), "{err}");
    }

    #[test]
    fn search_objectives_parse_for_pareto() {
        use crate::objective::Direction;

        let text = format!(
            "{EXAMPLE}\n[search]\nstrategy = \"pareto\"\n\
             objectives = [\"max:energy_saving\", \"min:delay\"]\nbudget = 4\n"
        );
        let (_, search) = parse_campaign_toml(&text).unwrap();
        let objectives = search.objectives.unwrap();
        assert_eq!(objectives.len(), 2);
        assert_eq!(objectives[1].direction, Direction::Minimize);

        let err = parse_campaign_toml("[search]\nobjectives = [\"energy_saving\"]\n").unwrap_err();
        assert!(err.contains("at least two"), "{err}");
        let err =
            parse_campaign_toml("[search]\nobjectives = [\"energy_saving\", 2]\n").unwrap_err();
        assert!(err.contains("entries must be strings"), "{err}");
    }

    #[test]
    fn bad_strategy_and_anneal_values_fail_loudly() {
        for strategy in ["warp", "portfolio"] {
            let err =
                parse_campaign_toml(&format!("[search]\nstrategy = \"{strategy}\"\n")).unwrap_err();
            assert!(err.contains("unknown strategy"), "{err}");
        }
        let err = parse_campaign_toml("[search]\nstrategy = 3\n").unwrap_err();
        assert!(err.contains("must be a string"), "{err}");
        let err = parse_campaign_toml("[search]\ninitial_temp = 0\n").unwrap_err();
        assert!(err.contains("initial_temp"), "{err}");
        let err = parse_campaign_toml("[search]\ncooling = 1.0\n").unwrap_err();
        assert!(err.contains("cooling"), "{err}");
        let err = parse_campaign_toml("[search]\ncooling = \"slow\"\n").unwrap_err();
        assert!(err.contains("must be a number"), "{err}");
        let err = parse_campaign_toml("[search]\nanneal_seed = -4\n").unwrap_err();
        assert!(err.contains("anneal_seed"), "{err}");
    }

    #[test]
    fn search_section_mistakes_fail_loudly() {
        let err = parse_campaign_toml("[search]\nobjectiv = \"energy\"\n").unwrap_err();
        assert!(err.contains("unknown key 'search.objectiv'"), "{err}");
        let err = parse_campaign_toml("[search]\nobjective = \"warp\"\n").unwrap_err();
        assert!(err.contains("unknown metric"), "{err}");
        let err = parse_campaign_toml("[search]\nbudget = 0\n").unwrap_err();
        assert!(err.contains("must be positive"), "{err}");
        let err = parse_campaign_toml("[search]\nconstraint = \"energy_j=5\"\n").unwrap_err();
        assert!(err.contains("must look like"), "{err}");
        let err = parse_campaign_toml("[search]\nbudget = \"lots\"\n").unwrap_err();
        assert!(err.contains("search.budget"), "{err}");
    }

    #[test]
    fn an_unclosed_multiline_array_fails_in_linear_time() {
        let text = format!("ip_counts = [\n{}", "[\n".repeat(200_000));
        let started = std::time::Instant::now();
        let err = TomlDoc::parse(&text).unwrap_err();
        let took = started.elapsed();
        assert!(err.contains("unterminated array"), "{err}");
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn a_multiline_array_parses_like_its_one_line_form() {
        let multi = "names = [\n  \"a]b\",   # a trailing comment\n  \"c#d\",\n  \"e\"\n]\n";
        let single = "names = [\"a]b\", \"c#d\", \"e\"]\n";
        let multi = TomlDoc::parse(multi).unwrap();
        let single = TomlDoc::parse(single).unwrap();
        assert_eq!(multi.get("names"), single.get("names"));
        assert_eq!(
            multi.get("names"),
            Some(&TomlValue::Array(
                ["a]b", "c#d", "e"]
                    .map(|s| TomlValue::String(s.into()))
                    .to_vec()
            ))
        );
    }

    #[test]
    fn scanning_brackets_line_by_line_matches_a_whole_value_scan() {
        // reference: the whole-value scan the parser used to re-run
        // after every appended line
        fn brackets_close(s: &str) -> bool {
            let mut depth = 0i32;
            let mut in_string = false;
            for c in s.chars() {
                match c {
                    '"' => in_string = !in_string,
                    '[' if !in_string => depth += 1,
                    ']' if !in_string => depth -= 1,
                    _ => {}
                }
            }
            depth <= 0
        }
        for value in [
            "[1, [2]",
            "[\"]\", 1]",
            "[\"[\"]",
            "[[]]]",
            "[ \"a\"\"b\" ]",
        ] {
            for cut in 0..=value.len() {
                let mut pieces = Brackets::default();
                pieces.scan(&value[..cut]);
                pieces.scan(&value[cut..]);
                assert_eq!(
                    pieces.closed(),
                    brackets_close(value),
                    "{value:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn many_distinct_keys_parse_in_linear_time() {
        let text: String = (0..100_000).map(|i| format!("k{i} = 1\n")).collect();
        let started = std::time::Instant::now();
        let doc = TomlDoc::parse(&text).unwrap();
        let took = started.elapsed();
        assert_eq!(doc.keys().count(), 100_000);
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn a_repeated_key_is_a_duplicate_at_top_level_and_in_a_section() {
        let err = TomlDoc::parse("name = \"a\"\nname = \"b\"\n").unwrap_err();
        assert_eq!(err, "line 2: duplicate key 'name'");
        let err = TomlDoc::parse("[axes]\nseeds = [1]\n\nseeds = [2]\n").unwrap_err();
        assert_eq!(err, "line 4: duplicate key 'axes.seeds'");
        // the same key in two sections is two keys
        let doc = TomlDoc::parse("seeds = 1\n[axes]\nseeds = [1]\n").unwrap();
        assert_eq!(doc.keys().collect::<Vec<_>>(), ["seeds", "axes.seeds"]);
    }

    #[test]
    fn comments_inside_strings_survive() {
        let doc = TomlDoc::parse("name = \"a # not a comment\"\n").unwrap();
        assert_eq!(
            doc.get("name"),
            Some(&TomlValue::String("a # not a comment".into()))
        );
    }
}
