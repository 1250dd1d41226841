//! Explore the paper's Table 1 policy: print the table, audit its
//! coverage, parse the natural-language form and print the full
//! decision matrix.
//!
//! ```sh
//! cargo run --example policy_explorer
//! ```

use dpmsim::battery::{BatteryClass, PowerSource};
use dpmsim::core::policy::{parse_rules, table1, PolicyInputs, RuleSet, TABLE1_TEXT};
use dpmsim::thermal::ThermalClass;
use dpmsim::workload::Priority;

fn main() {
    let rules = table1();
    println!("== Table 1 (as implemented) ==\n{rules}\n");

    // Static analyses the paper never ran.
    let shadowed = rules.shadowed();
    println!("shadowed rows (can never fire): {shadowed:?}");
    println!("  -> row 5 is the paper's '- E M -> ON4', pre-empted by rows 0 and 2\n");

    let gaps = rules.uncovered();
    println!(
        "inputs with no direct row ({} total, resolved by the documented fallback):",
        gaps.len()
    );
    for g in &gaps {
        println!("  {g}");
    }

    // The natural-language form parses to the identical table.
    let parsed = parse_rules(TABLE1_TEXT).expect("the paper's rules parse");
    assert_eq!(parsed.rules(), rules.rules());
    println!(
        "\nnatural-language form parses to the identical {} rows ✓",
        parsed.rules().len()
    );

    // Full decision matrix for battery power.
    println!("\n== decision matrix (battery power) ==");
    println!("priority | battery | temp -> state");
    for p in Priority::ALL {
        for b in BatteryClass::ALL {
            for t in ThermalClass::ALL {
                let sel = rules.select(PolicyInputs {
                    priority: p,
                    battery: b,
                    temperature: t,
                    source: PowerSource::Battery,
                });
                let marker = if sel.used_fallback { "*" } else { " " };
                print!(
                    "{}{}{}:{}{} ",
                    p.code(),
                    b.code(),
                    t.code(),
                    sel.state,
                    marker
                );
            }
        }
        println!();
    }
    println!("(* = resolved through the temperature-demotion fallback)");

    let _ = demo_custom_policy();
}

/// A custom policy in the sentence DSL: latency-biased variant.
fn demo_custom_policy() -> RuleSet {
    let text = "\
# custom: never sleep-defer, always run, but crawl when resources are low
if temperature is high then ON4
if battery is empty or low then ON4
if priority is very high or high then ON1
if priority is low or medium then ON2
";
    match parse_rules(text) {
        Ok(rules) => {
            println!(
                "\n== custom DSL policy parsed: {} rows ==",
                rules.rules().len()
            );
            rules
        }
        Err(e) => {
            println!("\ncustom policy rejected: {e}");
            table1()
        }
    }
}
