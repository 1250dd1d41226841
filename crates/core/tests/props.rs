//! Property-based tests of the policy engine, predictors and estimator.

use dpm_battery::{BatteryClass, PowerSource};
use dpm_core::policy::{
    parse_rule, table1, BatterySet, PolicyInputs, PrioritySet, Rule, RuleSet, SourceCond, TempSet,
};
use dpm_core::predictor::PredictorKind;
use dpm_core::EndOfTaskEstimator;
use dpm_power::PowerState;
use dpm_thermal::ThermalClass;
use dpm_units::{Celsius, Energy, SimDuration, SimTime};
use dpm_workload::Priority;
use proptest::prelude::*;

fn priority_strategy() -> impl Strategy<Value = Priority> {
    prop::sample::select(Priority::ALL.to_vec())
}
fn battery_strategy() -> impl Strategy<Value = BatteryClass> {
    prop::sample::select(BatteryClass::ALL.to_vec())
}
fn temp_strategy() -> impl Strategy<Value = ThermalClass> {
    prop::sample::select(ThermalClass::ALL.to_vec())
}
fn source_strategy() -> impl Strategy<Value = PowerSource> {
    prop::sample::select(vec![PowerSource::Battery, PowerSource::Mains])
}
fn inputs_strategy() -> impl Strategy<Value = PolicyInputs> {
    (
        priority_strategy(),
        battery_strategy(),
        temp_strategy(),
        source_strategy(),
    )
        .prop_map(|(priority, battery, temperature, source)| PolicyInputs {
            priority,
            battery,
            temperature,
            source,
        })
}

fn state_strategy() -> impl Strategy<Value = PowerState> {
    prop::sample::select(PowerState::ALL.to_vec())
}

/// Random rule: random subsets (non-empty via union with a singleton).
fn rule_strategy() -> impl Strategy<Value = Rule> {
    (
        prop::bits::u8::masked(0b1111),
        priority_strategy(),
        prop::bits::u8::masked(0b11111),
        battery_strategy(),
        prop::bits::u8::masked(0b111),
        temp_strategy(),
        prop::sample::select(vec![
            SourceCond::Any,
            SourceCond::BatteryOnly,
            SourceCond::MainsOnly,
        ]),
        state_strategy(),
    )
        .prop_map(|(pbits, p1, bbits, b1, tbits, t1, source, then)| {
            // build sets from random bits, guaranteeing non-emptiness
            let mut priorities = PrioritySet::only(p1);
            for p in Priority::ALL {
                if pbits & (1 << p.index()) != 0 {
                    priorities = priorities.union(PrioritySet::only(p));
                }
            }
            let mut batteries = BatterySet::only(b1);
            for b in BatteryClass::ALL {
                if bbits & (1 << b.index()) != 0 {
                    batteries = batteries.union(BatterySet::only(b));
                }
            }
            let mut temperatures = TempSet::only(t1);
            for t in ThermalClass::ALL {
                if tbits & (1 << t.index()) != 0 {
                    temperatures = temperatures.union(TempSet::only(t));
                }
            }
            Rule {
                priorities,
                batteries,
                temperatures,
                source,
                then,
            }
        })
}

proptest! {
    #[test]
    fn table1_always_selects_a_state(inputs in inputs_strategy()) {
        let sel = table1().select(inputs);
        // Table 1 only ever produces execution states or SL1
        prop_assert!(sel.state.is_execution() || sel.state == PowerState::Sl1, "{inputs}");
    }

    #[test]
    fn selection_is_deterministic(inputs in inputs_strategy()) {
        let rules = table1();
        prop_assert_eq!(rules.select(inputs), rules.select(inputs));
    }

    #[test]
    fn first_match_respects_rule_order(rules in prop::collection::vec(rule_strategy(), 1..20), inputs in inputs_strategy()) {
        let rs = RuleSet::new(rules.clone());
        let sel = rs.select(inputs);
        if let (Some(idx), false) = (sel.rule_index, sel.used_fallback) {
            // the winning rule matches...
            prop_assert!(rules[idx].matches(inputs));
            // ...and no earlier rule does
            for earlier in &rules[..idx] {
                prop_assert!(!earlier.matches(inputs));
            }
        }
    }

    #[test]
    fn shadowed_rules_never_win(rules in prop::collection::vec(rule_strategy(), 1..15)) {
        let rs = RuleSet::new(rules);
        let shadowed = rs.shadowed();
        for inputs in RuleSet::input_space() {
            let sel = rs.select(inputs);
            if let Some(idx) = sel.rule_index {
                prop_assert!(!shadowed.contains(&idx), "shadowed rule {idx} fired for {inputs}");
            }
        }
    }

    #[test]
    fn rendered_rules_reparse(rule in rule_strategy()) {
        // Print a rule in sentence form and re-parse it: a round-trip that
        // exercises both the Display notation and the DSL.
        let mut sentence = String::from("if ");
        let mut conds = Vec::new();
        if !rule.priorities.is_any() {
            let vals: Vec<&str> = Priority::ALL
                .iter()
                .filter(|p| rule.priorities.contains(**p))
                .map(|p| match p {
                    Priority::Low => "low",
                    Priority::Medium => "medium",
                    Priority::High => "high",
                    Priority::VeryHigh => "very high",
                })
                .collect();
            conds.push(format!("priority is {}", vals.join(" or ")));
        }
        if !rule.batteries.is_any() {
            let vals: Vec<&str> = BatteryClass::ALL
                .iter()
                .filter(|b| rule.batteries.contains(**b))
                .map(|b| match b {
                    BatteryClass::Empty => "empty",
                    BatteryClass::Low => "low",
                    BatteryClass::Medium => "medium",
                    BatteryClass::High => "high",
                    BatteryClass::Full => "full",
                })
                .collect();
            conds.push(format!("battery is {}", vals.join(" or ")));
        }
        if !rule.temperatures.is_any() {
            let vals: Vec<&str> = ThermalClass::ALL
                .iter()
                .filter(|t| rule.temperatures.contains(**t))
                .map(|t| match t {
                    ThermalClass::Low => "low",
                    ThermalClass::Medium => "medium",
                    ThermalClass::High => "high",
                })
                .collect();
            conds.push(format!("temperature is {}", vals.join(" or ")));
        }
        match rule.source {
            SourceCond::MainsOnly => conds.push("power is supply".into()),
            SourceCond::BatteryOnly => conds.push("power is battery".into()),
            SourceCond::Any => {}
        }
        prop_assume!(!conds.is_empty()); // the DSL needs at least one condition
        sentence.push_str(&conds.join(" and "));
        sentence.push_str(&format!(" then {}", rule.then.short_name()));
        let reparsed = parse_rule(&sentence).expect("rendered rule must parse");
        prop_assert_eq!(reparsed.priorities, rule.priorities, "{}", sentence);
        prop_assert_eq!(reparsed.batteries, rule.batteries);
        prop_assert_eq!(reparsed.temperatures, rule.temperatures);
        prop_assert_eq!(reparsed.then, rule.then);
        // DSL convention: a battery-testing rule without an explicit power
        // condition is implicitly battery-only (matching Table 1's
        // interpretation), so `Any` is not expressible for such rules.
        let expected_source = if rule.source == SourceCond::Any && !rule.batteries.is_any() {
            SourceCond::BatteryOnly
        } else {
            rule.source
        };
        prop_assert_eq!(reparsed.source, expected_source, "{}", sentence);
    }

    #[test]
    fn predictors_never_panic_and_stay_nonnegative(
        kind_idx in 0usize..4,
        gaps in prop::collection::vec(0u64..10_000_000u64, 0..60),
    ) {
        let kinds = [
            PredictorKind::LastIdle,
            PredictorKind::ExpAverage { alpha: 0.5 },
            PredictorKind::Fixed { value_us: 100 },
            PredictorKind::Window { k: 4 },
        ];
        let mut p = kinds[kind_idx].build(SimDuration::from_micros(200));
        let mut t = SimTime::ZERO;
        for g in gaps {
            p.idle_started(t);
            t += SimDuration::from_micros(g);
            p.idle_ended(t);
            t += SimDuration::from_micros(10);
            let _ = p.predict();
        }
        // a prediction is always available
        let _ = p.predict();
    }

    #[test]
    fn exp_average_prediction_is_bounded_by_history(
        gaps in prop::collection::vec(1u64..1_000_000u64, 1..50),
    ) {
        let mut p = PredictorKind::ExpAverage { alpha: 0.5 }
            .build(SimDuration::from_micros(gaps[0]));
        let mut t = SimTime::ZERO;
        for g in &gaps {
            p.idle_started(t);
            t += SimDuration::from_micros(*g);
            p.idle_ended(t);
            t += SimDuration::from_micros(5);
        }
        let lo = *gaps.iter().min().unwrap();
        let hi = *gaps.iter().max().unwrap();
        let predicted_us = p.predict().as_secs_f64() * 1e6;
        prop_assert!(predicted_us >= lo as f64 - 1.0, "{predicted_us} < {lo}");
        prop_assert!(predicted_us <= hi as f64 + 1.0, "{predicted_us} > {hi}");
    }

    #[test]
    fn estimator_battery_class_is_monotone_in_drain(
        soc in 0.0..1.0f64,
        e1 in 0.0..10.0f64,
        e2 in 0.0..10.0f64,
    ) {
        let est = EndOfTaskEstimator::new(Energy::from_joules(50.0));
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        let light = est.battery_at_end(soc, Energy::from_joules(lo), Energy::ZERO);
        let heavy = est.battery_at_end(soc, Energy::from_joules(hi), Energy::ZERO);
        prop_assert!(heavy <= light, "more drain cannot raise the class");
    }

    #[test]
    fn estimator_temperature_saturates_between_now_and_steady_state(
        t_now in 20.0..95.0f64,
        p_w in 0.0..2.0f64,
        dt_us in 1u64..10_000_000u64,
    ) {
        let est = EndOfTaskEstimator::new(Energy::from_joules(50.0));
        let t_ss = 25.0 + 40.0 * p_w;
        let class = est.temperature_at_end(
            Celsius::new(t_now),
            dpm_units::Power::from_watts(p_w),
            SimDuration::from_micros(dt_us),
        );
        let (lo, hi) = if t_now <= t_ss { (t_now, t_ss) } else { (t_ss, t_now) };
        // the class of the projection lies between the classes of the
        // endpoints (first-order responses cannot overshoot)
        let lo_c = est.classify_temperature(Celsius::new(lo));
        let hi_c = est.classify_temperature(Celsius::new(hi));
        prop_assert!(class >= lo_c && class <= hi_c);
    }
}
