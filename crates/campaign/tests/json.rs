//! The JSON layer under the archive and the HTTP API: arbitrary archive
//! records and campaign specs round-trip bit-exactly through
//! `to_string`/`from_str`; the same document with its keys shuffled,
//! whitespace added and unknown fields inserted decodes to an equal
//! value; and hostile text (every truncation and every single-byte
//! change of a record) returns an error, never a panic.

use dpm_campaign::{
    BatteryAxis, CampaignSpec, CellRecord, ControllerAxis, Fidelity, ScenarioMetrics, ScenarioSpec,
    ThermalAxis, TuningAxis, WorkloadAxis, ARCHIVE_VERSION,
};
use proptest::prelude::*;
use serde_json::Value;

/// Any `u64`, with the top of the range (which a half-open range
/// strategy never draws) and small values both well represented.
fn any_u64() -> impl Strategy<Value = u64> {
    (0u8..3, 0u64..u64::MAX).prop_map(|(pick, v)| match pick {
        0 => v,
        1 => u64::MAX - v % 4,
        _ => v % 1000,
    })
}

/// Finite floats of every magnitude: raw bit patterns (subnormals
/// included) plus the edge values a uniform draw would rarely hit.
fn any_f64() -> impl Strategy<Value = f64> {
    const EDGES: [f64; 10] = [
        0.0,
        -0.0,
        f64::MAX,
        -f64::MAX,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        1.0,
        -1.5e300,
    ];
    (0u8..3, 0u64..u64::MAX).prop_map(|(pick, bits)| {
        let raw = f64::from_bits(bits);
        match pick {
            0 => EDGES[(bits % EDGES.len() as u64) as usize],
            1 if raw.is_finite() => raw,
            _ => (bits % 2_000_001) as f64 / 1000.0 - 1000.0,
        }
    })
}

/// Names drawn from characters the writer escapes, multibyte text and
/// characters outside the Basic Multilingual Plane.
fn any_name() -> impl Strategy<Value = String> {
    let palette = "aZ \"\\/\n\t\u{0}\u{1f}\u{7f}é中🙂\u{ffff}\u{10ffff}"
        .chars()
        .collect();
    prop::collection::vec(prop::sample::select(palette), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

fn any_scenario() -> impl Strategy<Value = ScenarioSpec> {
    (
        any_u64(),
        prop::sample::select(ControllerAxis::ALL.to_vec()),
        prop::sample::select(TuningAxis::ALL.to_vec()),
        prop::sample::select(WorkloadAxis::ALL.to_vec()),
        any_u64(),
        prop::sample::select(BatteryAxis::ALL.to_vec()),
        prop::sample::select(ThermalAxis::ALL.to_vec()),
        any_u64(),
    )
        .prop_map(
            |(index, controller, tuning, workload, seed, battery, thermal, ip_count)| {
                ScenarioSpec {
                    index: index as usize,
                    controller,
                    tuning,
                    workload,
                    seed,
                    battery,
                    thermal,
                    ip_count: ip_count as usize,
                }
            },
        )
}

fn any_record() -> impl Strategy<Value = CellRecord> {
    (
        0u32..u32::MAX,
        any_u64(),
        any_u64(),
        any_u64(),
        any_scenario(),
        prop::collection::vec(any_u64(), 3..4),
        prop::collection::vec(any_f64(), 9..10),
        prop::sample::select(vec![Fidelity::Fine, Fidelity::Coarse]),
    )
        .prop_map(
            |(
                archive_version,
                spec_fingerprint,
                master_seed,
                horizon_ms,
                scenario,
                n,
                f,
                fidelity,
            )| {
                CellRecord {
                    archive_version,
                    spec_fingerprint,
                    master_seed,
                    horizon_ms,
                    scenario,
                    metrics: ScenarioMetrics {
                        completed: n[0] as usize,
                        total_tasks: n[1] as usize,
                        deferred: n[2] as usize,
                        energy_j: f[0],
                        baseline_energy_j: f[1],
                        energy_saving_pct: f[2],
                        temp_reduction_pct: f[3],
                        delay_overhead_pct: f[4],
                        mean_latency_us: f[5],
                        max_temp_c: f[6],
                        final_soc: f[7],
                        low_power_frac: f[8],
                    },
                    fidelity,
                }
            },
        )
}

fn any_spec() -> impl Strategy<Value = CampaignSpec> {
    (
        any_name(),
        any_u64(),
        any_u64(),
        any_f64(),
        (
            prop::collection::vec(prop::sample::select(ControllerAxis::ALL.to_vec()), 0..4),
            prop::collection::vec(prop::sample::select(TuningAxis::ALL.to_vec()), 0..4),
            prop::collection::vec(prop::sample::select(WorkloadAxis::ALL.to_vec()), 0..4),
        ),
        prop::collection::vec(any_u64(), 0..4),
        (
            prop::collection::vec(prop::sample::select(BatteryAxis::ALL.to_vec()), 0..4),
            prop::collection::vec(prop::sample::select(ThermalAxis::ALL.to_vec()), 0..4),
        ),
        prop::collection::vec(any_u64(), 0..4),
    )
        .prop_map(
            |(name, horizon_ms, master_seed, initial_soc, axes, seeds, models, ip_counts)| {
                let (controllers, tunings, workloads) = axes;
                let (batteries, thermals) = models;
                CampaignSpec {
                    name,
                    horizon_ms,
                    master_seed,
                    initial_soc,
                    controllers,
                    tunings,
                    workloads,
                    seeds,
                    batteries,
                    thermals,
                    ip_counts: ip_counts.into_iter().map(|n| n as usize).collect(),
                }
            },
        )
}

/// A small xorshift stream for the scrambler's choices.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn whitespace(state: &mut u64, out: &mut String) {
    for _ in 0..next(state) % 3 {
        out.push([' ', '\n', '\t', '\r'][(next(state) % 4) as usize]);
    }
}

/// Writes `v` with every object's keys shuffled, an unknown field added
/// to every object and whitespace around every token.
fn scramble(v: &Value, state: &mut u64, out: &mut String) {
    whitespace(state, out);
    match v {
        Value::Object(pairs) => {
            // `None` stands for the unknown field, written verbatim
            let mut fields: Vec<(&str, Option<&Value>)> =
                pairs.iter().map(|(k, v)| (k.as_str(), Some(v))).collect();
            fields.push(("unknown", None));
            for i in (1..fields.len()).rev() {
                fields.swap(i, (next(state) % (i as u64 + 1)) as usize);
            }
            out.push('{');
            for (i, (key, value)) in fields.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                whitespace(state, out);
                out.push_str(&Value::String(key.into()).to_json());
                whitespace(state, out);
                out.push(':');
                match value {
                    Some(value) => scramble(value, state, out),
                    None => out.push_str(
                        r#"{"a":[1,-2.5e-3,"\"\\é🙂\u0041",null,true,{}],"b":{"c":[[]]}}"#,
                    ),
                }
            }
            out.push('}');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                scramble(item, state, out);
            }
            whitespace(state, out);
            out.push(']');
        }
        scalar => out.push_str(&scalar.to_json()),
    }
    whitespace(state, out);
}

fn scrambled<T: serde::Serialize>(value: &T, seed: u64) -> String {
    let mut out = String::new();
    scramble(&value.to_value(), &mut (seed | 1), &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Equal values, and byte-identical re-serialization: shortest float
    // text is unique per bit pattern, so this also pins every float
    // (signed zeros and subnormals included) bit-exactly.
    #[test]
    fn records_round_trip_bit_exactly(record in any_record()) {
        let text = serde_json::to_string(&record).unwrap();
        let back: CellRecord = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&back, &record);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn specs_round_trip_bit_exactly(spec in any_spec()) {
        let text = serde_json::to_string(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn scrambled_records_decode_equal(record in any_record(), seed in any_u64()) {
        let text = scrambled(&record, seed);
        let back: CellRecord = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&record).unwrap()
        );
    }

    #[test]
    fn scrambled_specs_decode_equal(spec in any_spec(), seed in any_u64()) {
        let text = scrambled(&spec, seed);
        let back: CampaignSpec = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&spec).unwrap()
        );
    }
}

/// A record shaped like the ones a coarse screen archives.
fn sample_record() -> CellRecord {
    CellRecord {
        archive_version: ARCHIVE_VERSION,
        spec_fingerprint: 0x9E37_79B9_7F4A_7C15,
        master_seed: 42,
        horizon_ms: 200,
        scenario: ScenarioSpec {
            index: 1234,
            controller: ControllerAxis::Timeout500us,
            tuning: TuningAxis::EnergyOptimal,
            workload: WorkloadAxis::PaperBusy,
            seed: 7,
            battery: BatteryAxis::RateCapacity,
            thermal: ThermalAxis::Hot,
            ip_count: 4,
        },
        metrics: ScenarioMetrics {
            completed: 97,
            total_tasks: 100,
            deferred: 3,
            energy_j: 0.012_345_678_901_234_5,
            baseline_energy_j: 0.023_456_789_012_345_6,
            energy_saving_pct: 47.368_421_052_631_58,
            temp_reduction_pct: -0.0,
            delay_overhead_pct: 1.234e-5,
            mean_latency_us: 5e-324,
            max_temp_c: 41.25,
            final_soc: 0.949_999_999_999_999_9,
            low_power_frac: 0.631_578_947_368_421,
        },
        fidelity: Fidelity::Coarse,
    }
}

#[test]
fn truncated_records_are_errors() {
    let text = serde_json::to_string(&sample_record()).unwrap();
    for end in 0..text.len() {
        if text.is_char_boundary(end) {
            let cut = &text[..end];
            assert!(serde_json::from_str::<CellRecord>(cut).is_err(), "{cut}");
        }
    }
}

#[test]
fn single_byte_changes_never_panic() {
    let text = serde_json::to_string(&sample_record()).unwrap();
    let mut decoded = 0;
    for at in 0..text.len() {
        for byte in 0..=u8::MAX {
            let mut bytes = text.clone().into_bytes();
            bytes[at] = byte;
            // the archive hands the decoder only valid UTF-8
            if let Ok(changed) = std::str::from_utf8(&bytes) {
                let _ = serde_json::from_str::<CellRecord>(changed);
                decoded += 1;
            }
        }
    }
    assert!(decoded >= 128 * text.len(), "{decoded}");
}
