//! Regenerates the paper's **Table 1** and measures the selection cost of
//! every policy representation: the crisp first-match table (direct hit
//! and fallback path) and parsing the natural-language form.
//!
//! ```sh
//! cargo bench -p dpm-bench --bench policy_lookup
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dpm_battery::{BatteryClass, PowerSource};
use dpm_core::policy::{parse_rules, table1, PolicyInputs, RuleSet, TABLE1_TEXT};
use dpm_thermal::ThermalClass;
use dpm_workload::Priority;

fn print_table_once() {
    println!("\n== Table 1 (regenerated) ==\n{}", table1());
    println!(
        "shadowed rows: {:?} (the paper's '- E M -> ON4')",
        table1().shadowed()
    );
    println!(
        "uncovered inputs: {} (temperature-Medium gap)",
        table1().uncovered().len()
    );
}

fn bench_policy(c: &mut Criterion) {
    print_table_once();
    let rules = table1();
    let all_inputs: Vec<PolicyInputs> = RuleSet::input_space().collect();

    let mut group = c.benchmark_group("policy");
    group.throughput(Throughput::Elements(all_inputs.len() as u64));
    group.bench_function("crisp_full_input_space", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in &all_inputs {
                acc += rules.select(*i).state.index();
            }
            std::hint::black_box(acc)
        });
    });
    group.finish();

    let direct = PolicyInputs {
        priority: Priority::High,
        battery: BatteryClass::Medium,
        temperature: ThermalClass::Low,
        source: PowerSource::Battery,
    };
    let fallback = PolicyInputs {
        temperature: ThermalClass::Medium,
        battery: BatteryClass::Full,
        ..direct
    };
    c.bench_function("policy/crisp_direct_hit", |b| {
        b.iter(|| std::hint::black_box(rules.select(std::hint::black_box(direct))));
    });
    c.bench_function("policy/crisp_fallback_path", |b| {
        b.iter(|| std::hint::black_box(rules.select(std::hint::black_box(fallback))));
    });

    c.bench_function("policy/parse_table1_dsl", |b| {
        b.iter(|| std::hint::black_box(parse_rules(std::hint::black_box(TABLE1_TEXT)).unwrap()));
    });
}

criterion_group!(benches, bench_policy);
criterion_main!(benches);
