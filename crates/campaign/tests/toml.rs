//! The TOML spec parser under hostile input: every truncation of a real
//! spec, and every substitution of a structural byte at every offset,
//! parses (and, when it parses, validates) to `Ok` or `Err` — never a
//! panic, which would take down a `dpm serve` handler thread.

use dpm_campaign::parse_campaign_toml;

const SPEC: &str = include_str!("../../../specs/exploration.toml");

/// Bytes that open, close or separate TOML structure, plus a few that
/// turn one value type into another.
const SUBSTITUTIONS: &[u8] = b"\"[]=#,.-0\n\\{ x9e+_'";

/// Parses `text`, then validates the spec if it parsed.
fn parse(text: &str) {
    if let Ok((spec, _)) = parse_campaign_toml(text) {
        let _ = spec.validate();
    }
}

#[test]
fn truncated_and_mutated_specs_never_panic() {
    let (spec, _) = parse_campaign_toml(SPEC).expect("the spec itself parses");
    spec.validate().expect("the spec itself validates");

    let mut inputs = 0;
    for end in (0..=SPEC.len()).filter(|&end| SPEC.is_char_boundary(end)) {
        parse(&SPEC[..end]);
        inputs += 1;
    }
    for at in 0..SPEC.len() {
        for &byte in SUBSTITUTIONS {
            let mut bytes = SPEC.as_bytes().to_vec();
            bytes[at] = byte;
            // the CLI and the daemon hand the parser only valid UTF-8
            if let Ok(text) = std::str::from_utf8(&bytes) {
                parse(text);
                inputs += 1;
            }
        }
    }
    // all but the substitutions inside multi-byte characters
    assert!(inputs > SUBSTITUTIONS.len() * (SPEC.len() - 8), "{inputs}");
}
