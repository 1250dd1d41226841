//! Workload inputs generated from the benchmark seed.
//!
//! The seed picks every master seed and logical workload seed; the grid
//! *shape* (axes, horizon, budget) is fixed per workload and size, so the
//! work per operation stays comparable across seeds. The program only
//! ever sees the generated TOML text.

use crate::measure::Rng;

/// Input scale: `Full` for measurement, `Tiny` for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured workload.
    Full,
    /// A few cells, for tests that must run in seconds.
    Tiny,
}

/// Salts separating the seeded streams of the three workloads.
pub const SWEEP_SALT: u64 = 1;
/// See [`SWEEP_SALT`].
pub const SEARCH_SALT: u64 = 2;
/// See [`SWEEP_SALT`].
pub const SERVE_SALT: u64 = 3;

/// A master seed (kept below 2^62: the TOML parser reads `i64`) and
/// `n` distinct, increasing logical seeds.
fn seeds(rng: &mut Rng, n: usize) -> (u64, Vec<u64>) {
    let master = rng.next_u64() >> 2;
    let mut next = rng.below(1_000_000);
    let logical = (0..n)
        .map(|_| {
            next += 1 + rng.below(1_000);
            next
        })
        .collect();
    (master, logical)
}

fn quoted(values: &[&str]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("\"{v}\"")).collect();
    format!("[{}]", items.join(", "))
}

/// One spec document.
struct Grid<'a> {
    name: &'a str,
    horizon_ms: u64,
    controllers: &'a [&'a str],
    tunings: &'a [&'a str],
    workloads: &'a [&'a str],
    batteries: &'a [&'a str],
    thermals: &'a [&'a str],
    ip_counts: &'a [usize],
    seeds: usize,
}

impl Grid<'_> {
    fn toml(&self, rng: &mut Rng) -> String {
        let (master, logical) = seeds(rng, self.seeds);
        let logical: Vec<String> = logical.iter().map(u64::to_string).collect();
        let logical = format!("[{}]", logical.join(", "));
        let ips: Vec<String> = self.ip_counts.iter().map(usize::to_string).collect();
        format!(
            "name = \"{}\"\nhorizon_ms = {}\nmaster_seed = {master}\ninitial_soc = 0.95\n\n\
             [axes]\ncontrollers = {}\ntunings = {}\nworkloads = {}\nseeds = {logical}\n\
             batteries = {}\nthermals = {}\nip_counts = [{}]\n",
            self.name,
            self.horizon_ms,
            quoted(self.controllers),
            quoted(self.tunings),
            quoted(self.workloads),
            quoted(self.batteries),
            quoted(self.thermals),
            ips.join(", "),
        )
    }
}

const ALL_CONTROLLERS: &[&str] = &["dpm", "always_on", "timeout_500us", "timeout_2ms", "oracle"];

/// The seeded stream of variant `k` of a workload's spec.
fn variant(seed: u64, k: u64, salt: u64) -> Rng {
    Rng::new(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407), salt)
}

/// Variant `k` of the `sweep` spec: every controller, 1 and 4 IPs (the
/// paper's A and B/C shapes), the paper's 200 ms horizon.
pub fn sweep_toml(seed: u64, k: u64, size: Size) -> String {
    let mut rng = variant(seed, k, SWEEP_SALT);
    match size {
        Size::Full => Grid {
            name: "bench_sweep",
            horizon_ms: 200,
            controllers: ALL_CONTROLLERS,
            tunings: &["paper"],
            workloads: &["low", "high"],
            batteries: &["linear"],
            thermals: &["cool", "hot"],
            ip_counts: &[1, 4],
            seeds: 2,
        },
        Size::Tiny => Grid {
            name: "bench_sweep_tiny",
            horizon_ms: 5,
            controllers: &["dpm", "always_on"],
            tunings: &["paper"],
            workloads: &["low"],
            batteries: &["linear"],
            thermals: &["cool"],
            ip_counts: &[1, 2],
            seeds: 1,
        },
    }
    .toml(&mut rng)
}

/// Variant `k` of the `search` spec: a grid at least ten times the
/// budget, searched by a multi-fidelity climb under the
/// `specs/exploration.toml` objective and constraint.
pub fn search_toml(seed: u64, k: u64, size: Size) -> String {
    let mut rng = variant(seed, k, SEARCH_SALT);
    let (grid, budget) = match size {
        Size::Full => (
            Grid {
                name: "bench_search",
                horizon_ms: 15,
                controllers: ALL_CONTROLLERS,
                tunings: &["paper", "default", "eager", "energy_optimal", "no_sleep"],
                workloads: &["low", "high", "paper_a", "paper_busy"],
                batteries: &["linear", "rate_capacity", "kibam"],
                thermals: &["cool", "hot"],
                ip_counts: &[1, 4],
                seeds: 2,
            },
            SEARCH_BUDGET,
        ),
        Size::Tiny => (
            Grid {
                name: "bench_search_tiny",
                horizon_ms: 5,
                controllers: &["dpm", "always_on", "oracle"],
                tunings: &["paper", "default"],
                workloads: &["low"],
                batteries: &["linear"],
                thermals: &["cool"],
                ip_counts: &[1, 2],
                seeds: 1,
            },
            1,
        ),
    };
    format!(
        "{}\n[search]\nstrategy = \"climb\"\nfidelity = \"multi\"\n\
         objective = \"energy_saving\"\nconstraint = \"delay_overhead_pct<=10\"\nbudget = {budget}\n",
        grid.toml(&mut rng)
    )
}

/// Fine-equivalent budget of the full `search` workload.
pub const SEARCH_BUDGET: usize = 200;

/// The `serve` spec of iteration `i`: the 24-cell shape of
/// `specs/quick.toml` with a fresh master seed per iteration.
pub fn serve_toml(seed: u64, i: u64, size: Size) -> String {
    let mut rng = variant(seed, i, SERVE_SALT);
    match size {
        Size::Full => Grid {
            name: "bench_serve",
            horizon_ms: 15,
            controllers: &["dpm", "always_on", "oracle"],
            tunings: &["paper"],
            workloads: &["low", "high"],
            batteries: &["linear"],
            thermals: &["cool"],
            ip_counts: &[1, 4],
            seeds: 2,
        },
        Size::Tiny => Grid {
            name: "bench_serve_tiny",
            horizon_ms: 5,
            controllers: &["dpm", "always_on"],
            tunings: &["paper"],
            workloads: &["low"],
            batteries: &["linear"],
            thermals: &["cool"],
            ip_counts: &[1],
            seeds: 1,
        },
    }
    .toml(&mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_campaign::parse_campaign_toml;

    #[test]
    fn generated_specs_parse_and_have_the_documented_shapes() {
        let (sweep, _) = parse_campaign_toml(&sweep_toml(1, 0, Size::Full)).unwrap();
        assert_eq!(sweep.horizon_ms, 200);
        assert_eq!(sweep.controllers.len(), 5);
        assert_eq!(sweep.ip_counts, vec![1, 4]);
        let (search, defaults) = parse_campaign_toml(&search_toml(1, 0, Size::Full)).unwrap();
        assert!(search.scenario_count() >= 10 * SEARCH_BUDGET);
        assert_eq!(defaults.budget, Some(SEARCH_BUDGET));
        let (serve, _) = parse_campaign_toml(&serve_toml(1, 0, Size::Full)).unwrap();
        assert_eq!(serve.scenario_count(), 24);
    }

    #[test]
    fn the_seed_changes_seeds_but_not_shapes() {
        let a = parse_campaign_toml(&sweep_toml(1, 0, Size::Full))
            .unwrap()
            .0;
        let b = parse_campaign_toml(&sweep_toml(2, 0, Size::Full))
            .unwrap()
            .0;
        assert_eq!(a.scenario_count(), b.scenario_count());
        assert_ne!(a.master_seed, b.master_seed);
        assert_eq!(sweep_toml(3, 0, Size::Full), sweep_toml(3, 0, Size::Full));
        assert_ne!(serve_toml(3, 0, Size::Full), serve_toml(3, 1, Size::Full));
    }
}
