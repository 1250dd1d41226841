//! The LEM's power-state selection policy (paper Table 1).
//!
//! The paper presents the selection algorithm as a table of wildcard rows
//! over *(task priority, battery status, chip temperature)* plus a
//! power-supply row, and notes the rules *"can be seen as expressions of
//! the natural language, as in the fuzzy rules"*. The LEM applies them
//! to crisp battery and temperature classes. This module implements:
//!
//! * [`RuleSet`] — ordered wildcard rules with **first-match** semantics,
//!   a documented fallback (demote temperature Medium to Low and retry)
//!   for the combinations the paper's table does not cover, and static
//!   analyses: [`RuleSet::uncovered`] (which inputs use the fallback) and
//!   [`RuleSet::shadowed`] (which rows can never fire — the paper's row 6
//!   is genuinely shadowed by rows 1 and 3).
//! * [`table1`] — the paper's table as data.
//! * [`dsl`] — a parser for the natural-language rule form
//!   (`if priority is high and battery is empty then SL1`).

pub mod dsl;
mod sets;
mod table;

pub use dsl::{parse_rule, parse_rules, ParseRuleError, TABLE1_TEXT};
pub use sets::{BatterySet, PrioritySet, SourceCond, TempSet};
pub use table::table1;

use core::fmt;

use dpm_battery::{BatteryClass, PowerSource};
use dpm_power::PowerState;
use dpm_thermal::ThermalClass;
use dpm_workload::Priority;

/// The classified inputs a selection is made from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyInputs {
    /// Priority of the task about to run.
    pub priority: Priority,
    /// Battery status class (possibly the *estimated end-of-task* class).
    pub battery: BatteryClass,
    /// Chip temperature class (possibly estimated).
    pub temperature: ThermalClass,
    /// Whether the SoC runs from battery or mains.
    pub source: PowerSource,
}

impl fmt::Display for PolicyInputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pri={} batt={} temp={} src={}",
            self.priority.code(),
            self.battery.code(),
            self.temperature.code(),
            self.source
        )
    }
}

/// One row of the policy table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Matching task priorities.
    pub priorities: PrioritySet,
    /// Matching battery classes.
    pub batteries: BatterySet,
    /// Matching temperature classes.
    pub temperatures: TempSet,
    /// Power-source condition.
    pub source: SourceCond,
    /// Selected state when the rule fires.
    pub then: PowerState,
}

impl Rule {
    /// `true` when the rule matches `inputs`.
    pub fn matches(&self, inputs: PolicyInputs) -> bool {
        self.source.matches(inputs.source)
            && self.priorities.contains(inputs.priority)
            && self.batteries.contains(inputs.battery)
            && self.temperatures.contains(inputs.temperature)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} -> {}",
            self.priorities, self.batteries, self.temperatures, self.source, self.then
        )
    }
}

/// How a selection was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The selected power state.
    pub state: PowerState,
    /// Index of the rule that fired, if any.
    pub rule_index: Option<usize>,
    /// `true` when the temperature-demotion fallback was needed.
    pub used_fallback: bool,
}

/// An ordered, first-match rule table.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    rules: Vec<Rule>,
    /// State used if even the fallback pass matches nothing.
    default_state: PowerState,
}

impl RuleSet {
    /// A rule set with the given rows (first match wins) and an ultimate
    /// default of `ON1`.
    pub fn new(rules: Vec<Rule>) -> Self {
        Self {
            rules,
            default_state: PowerState::On1,
        }
    }

    /// Overrides the ultimate default state.
    #[must_use]
    pub fn with_default(mut self, state: PowerState) -> Self {
        self.default_state = state;
        self
    }

    /// The rows.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    fn first_match(&self, inputs: PolicyInputs) -> Option<(usize, &Rule)> {
        self.rules
            .iter()
            .enumerate()
            .find(|(_, r)| r.matches(inputs))
    }

    /// Selects a power state for `inputs`.
    ///
    /// When no row matches, the documented fallback demotes a `Medium`
    /// temperature to `Low` and retries (the paper's table leaves e.g.
    /// *battery Full, temperature Medium* uncovered); if that still fails,
    /// the default state is returned.
    pub fn select(&self, inputs: PolicyInputs) -> Selection {
        if let Some((i, r)) = self.first_match(inputs) {
            return Selection {
                state: r.then,
                rule_index: Some(i),
                used_fallback: false,
            };
        }
        if inputs.temperature == ThermalClass::Medium {
            let demoted = PolicyInputs {
                temperature: ThermalClass::Low,
                ..inputs
            };
            if let Some((i, r)) = self.first_match(demoted) {
                return Selection {
                    state: r.then,
                    rule_index: Some(i),
                    used_fallback: true,
                };
            }
        }
        Selection {
            state: self.default_state,
            rule_index: None,
            used_fallback: true,
        }
    }

    /// Iterates the full input space (both power sources).
    pub fn input_space() -> impl Iterator<Item = PolicyInputs> {
        Priority::ALL.into_iter().flat_map(|priority| {
            BatteryClass::ALL.into_iter().flat_map(move |battery| {
                ThermalClass::ALL.into_iter().flat_map(move |temperature| {
                    [PowerSource::Battery, PowerSource::Mains]
                        .into_iter()
                        .map(move |source| PolicyInputs {
                            priority,
                            battery,
                            temperature,
                            source,
                        })
                })
            })
        })
    }

    /// Every input combination that needs the fallback (i.e. no row
    /// matches directly). Use it to audit the table's coverage.
    pub fn uncovered(&self) -> Vec<PolicyInputs> {
        Self::input_space()
            .filter(|i| self.first_match(*i).is_none())
            .collect()
    }

    /// Indices of rows that can never fire because earlier rows match
    /// every input they would (the paper's row 6 is an example).
    pub fn shadowed(&self) -> Vec<usize> {
        let mut reachable = vec![false; self.rules.len()];
        for inputs in Self::input_space() {
            if let Some((i, _)) = self.first_match(inputs) {
                reachable[i] = true;
            }
        }
        reachable
            .iter()
            .enumerate()
            .filter_map(|(i, r)| (!r).then_some(i))
            .collect()
    }
}

/// A dense precomputation of [`RuleSet::select`] over the full input
/// space (4 priorities × 5 battery classes × 3 thermal classes × 2
/// sources = 120 entries).
///
/// The LEM consults the policy on every task request and on every
/// deferred-task re-evaluation, which makes the linear first-match scan
/// (plus its fallback retry) a hot-loop cost. The table trades a one-time
/// 120-call precomputation at elaboration for an O(1) array lookup at
/// selection time, preserving `rule_index` and `used_fallback` exactly —
/// its results are byte-for-byte those of the [`RuleSet`] it was built
/// from.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyTable {
    entries: Vec<Selection>,
}

impl PolicyTable {
    fn slot(inputs: PolicyInputs) -> usize {
        (((inputs.priority as usize) * 5 + inputs.battery as usize) * 3
            + inputs.temperature as usize)
            * 2
            + inputs.source as usize
    }

    /// Precomputes every selection of `rules`.
    pub fn new(rules: &RuleSet) -> Self {
        let mut entries = vec![
            Selection {
                state: PowerState::On1,
                rule_index: None,
                used_fallback: true,
            };
            4 * 5 * 3 * 2
        ];
        for inputs in RuleSet::input_space() {
            entries[Self::slot(inputs)] = rules.select(inputs);
        }
        Self { entries }
    }

    /// The selection for `inputs` — identical to the source rule set's
    /// [`RuleSet::select`].
    pub fn select(&self, inputs: PolicyInputs) -> Selection {
        self.entries[Self::slot(inputs)]
    }
}

impl fmt::Display for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "priority battery temperature source -> state")?;
        for (i, r) in self.rules.iter().enumerate() {
            writeln!(f, "{i:2}: {r}")?;
        }
        write!(f, "default: {}", self.default_state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(p: PrioritySet, b: BatterySet, t: TempSet, then: PowerState) -> Rule {
        Rule {
            priorities: p,
            batteries: b,
            temperatures: t,
            source: SourceCond::BatteryOnly,
            then,
        }
    }

    #[test]
    fn first_match_wins() {
        let rs = RuleSet::new(vec![
            rule(
                PrioritySet::only(Priority::VeryHigh),
                BatterySet::any(),
                TempSet::any(),
                PowerState::On4,
            ),
            rule(
                PrioritySet::any(),
                BatterySet::any(),
                TempSet::any(),
                PowerState::Sl1,
            ),
        ]);
        let sel = rs.select(PolicyInputs {
            priority: Priority::VeryHigh,
            battery: BatteryClass::Full,
            temperature: ThermalClass::Low,
            source: PowerSource::Battery,
        });
        assert_eq!(sel.state, PowerState::On4);
        assert_eq!(sel.rule_index, Some(0));
        assert!(!sel.used_fallback);
    }

    #[test]
    fn fallback_demotes_medium_temperature() {
        let rs = RuleSet::new(vec![rule(
            PrioritySet::any(),
            BatterySet::any(),
            TempSet::only(ThermalClass::Low),
            PowerState::On2,
        )]);
        let sel = rs.select(PolicyInputs {
            priority: Priority::Low,
            battery: BatteryClass::Full,
            temperature: ThermalClass::Medium,
            source: PowerSource::Battery,
        });
        assert_eq!(sel.state, PowerState::On2);
        assert!(sel.used_fallback);
        assert_eq!(sel.rule_index, Some(0));
    }

    #[test]
    fn ultimate_default_applies() {
        let rs = RuleSet::new(vec![]).with_default(PowerState::On3);
        let sel = rs.select(PolicyInputs {
            priority: Priority::Low,
            battery: BatteryClass::Full,
            temperature: ThermalClass::High,
            source: PowerSource::Battery,
        });
        assert_eq!(sel.state, PowerState::On3);
        assert_eq!(sel.rule_index, None);
        assert!(sel.used_fallback);
    }

    #[test]
    fn shadowing_detection() {
        let rs = RuleSet::new(vec![
            rule(
                PrioritySet::any(),
                BatterySet::any(),
                TempSet::any(),
                PowerState::On1,
            ),
            rule(
                PrioritySet::only(Priority::Low),
                BatterySet::any(),
                TempSet::any(),
                PowerState::On4,
            ),
        ]);
        assert_eq!(rs.shadowed(), vec![1]);
    }

    #[test]
    fn input_space_is_complete() {
        assert_eq!(RuleSet::input_space().count(), 4 * 5 * 3 * 2);
    }

    #[test]
    fn dense_table_matches_rule_set_everywhere() {
        for rules in [
            table1(),
            RuleSet::new(vec![]).with_default(PowerState::On3),
            RuleSet::new(vec![rule(
                PrioritySet::any(),
                BatterySet::any(),
                TempSet::only(ThermalClass::Low),
                PowerState::On2,
            )]),
        ] {
            let table = PolicyTable::new(&rules);
            for inputs in RuleSet::input_space() {
                assert_eq!(table.select(inputs), rules.select(inputs), "{inputs}");
            }
        }
    }
}
