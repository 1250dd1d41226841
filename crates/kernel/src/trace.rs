//! Waveform tracing: a VCD writer (the `sc_trace` equivalent) and a
//! periodic CSV sampler for analog quantities.

use std::collections::HashMap;

use dpm_units::{SimDuration, SimTime};

use crate::ids::EventId;
use crate::process::{Ctx, Process};
use crate::signal::{AnySignal, Signal, SignalRecord, SignalValue};

/// A value rendered into a VCD change record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VcdValue {
    /// A bit vector of the trace's declared width.
    Bits(u64),
    /// An analog value (`real` in VCD).
    Real(f64),
}

/// Types that can be dumped into a VCD waveform.
///
/// Implemented for the primitive types; domain enums (power states, battery
/// classes, ...) implement it by encoding their discriminant.
pub trait Traceable: SignalValue {
    /// Bit width of the VCD variable; `0` declares a `real`.
    const WIDTH: u32;
    /// The current value as bits/real.
    fn vcd_value(&self) -> VcdValue;
}

impl Traceable for bool {
    const WIDTH: u32 = 1;
    fn vcd_value(&self) -> VcdValue {
        VcdValue::Bits(u64::from(*self))
    }
}

macro_rules! traceable_int {
    ($($t:ty => $w:expr),* $(,)?) => {$(
        impl Traceable for $t {
            const WIDTH: u32 = $w;
            fn vcd_value(&self) -> VcdValue {
                VcdValue::Bits(*self as u64)
            }
        }
    )*};
}

traceable_int!(u8 => 8, u16 => 16, u32 => 32, u64 => 64, usize => 64);

impl Traceable for f64 {
    const WIDTH: u32 = 0;
    fn vcd_value(&self) -> VcdValue {
        VcdValue::Real(*self)
    }
}

struct TraceVar {
    name: String,
    code: String,
    width: u32,
    initial: VcdValue,
    getter: fn(&dyn AnySignal) -> VcdValue,
}

/// Collects VCD variables and change records during a run.
pub(crate) struct TraceSet {
    vars: Vec<TraceVar>,
    by_signal: HashMap<u32, usize>,
    body: String,
    last_emitted_time: Option<u64>,
}

fn getter_for<T: Traceable>(signal: &dyn AnySignal) -> VcdValue {
    let any: &dyn std::any::Any = signal;
    any.downcast_ref::<SignalRecord<T>>()
        .expect("traced signal type mismatch")
        .current
        .vcd_value()
}

/// VCD identifier codes: printable ASCII `!`..`~`, shortest-first.
fn code_for(index: usize) -> String {
    const FIRST: u8 = b'!';
    const COUNT: usize = 94;
    let mut n = index;
    let mut code = Vec::new();
    loop {
        code.push(FIRST + (n % COUNT) as u8);
        n /= COUNT;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    String::from_utf8(code).expect("ASCII by construction")
}

impl TraceSet {
    pub(crate) fn new() -> Self {
        Self {
            vars: Vec::new(),
            by_signal: HashMap::new(),
            body: String::new(),
            last_emitted_time: None,
        }
    }

    pub(crate) fn register<T: Traceable>(&mut self, sig: Signal<T>, record: &dyn AnySignal) {
        if self.by_signal.contains_key(&sig.idx) {
            return; // idempotent
        }
        let code = code_for(self.vars.len());
        self.by_signal.insert(sig.idx, self.vars.len());
        self.vars.push(TraceVar {
            name: record.name().to_owned(),
            code,
            width: T::WIDTH,
            initial: getter_for::<T>(record),
            getter: getter_for::<T>,
        });
    }

    pub(crate) fn record_change(&mut self, now: SimTime, sig_idx: u32, record: &dyn AnySignal) {
        let Some(&var_idx) = self.by_signal.get(&sig_idx) else {
            return;
        };
        let ps = now.as_ps();
        if self.last_emitted_time != Some(ps) {
            self.body.push('#');
            self.body.push_str(&ps.to_string());
            self.body.push('\n');
            self.last_emitted_time = Some(ps);
        }
        let var = &self.vars[var_idx];
        let value = (var.getter)(record);
        Self::push_value(&mut self.body, var, value);
    }

    fn push_value(out: &mut String, var: &TraceVar, value: VcdValue) {
        match (var.width, value) {
            (1, VcdValue::Bits(b)) => {
                out.push(if b == 0 { '0' } else { '1' });
                out.push_str(&var.code);
                out.push('\n');
            }
            (_, VcdValue::Bits(b)) => {
                out.push('b');
                out.push_str(&format!("{b:b}"));
                out.push(' ');
                out.push_str(&var.code);
                out.push('\n');
            }
            (_, VcdValue::Real(r)) => {
                out.push('r');
                out.push_str(&format!("{r}"));
                out.push(' ');
                out.push_str(&var.code);
                out.push('\n');
            }
        }
    }

    /// Renders the complete VCD document.
    pub(crate) fn render(&self, end: SimTime) -> String {
        let mut out = String::new();
        out.push_str("$comment dpmsim waveform $end\n");
        out.push_str("$timescale 1ps $end\n");
        out.push_str("$scope module soc $end\n");
        for var in &self.vars {
            let kind = if var.width == 0 { "real" } else { "wire" };
            let width = if var.width == 0 { 64 } else { var.width };
            // VCD identifiers must not contain spaces; dots are fine.
            out.push_str(&format!(
                "$var {kind} {width} {} {} $end\n",
                var.code, var.name
            ));
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        out.push_str("$dumpvars\n");
        for var in &self.vars {
            Self::push_value(&mut out, var, var.initial);
        }
        out.push_str("$end\n");
        out.push_str(&self.body);
        out.push('#');
        out.push_str(&end.as_ps().to_string());
        out.push('\n');
        out
    }
}

/// A process that samples `f64` signals on a fixed period and collects the
/// rows for CSV export — the moral equivalent of probing analog nets
/// (battery charge, chip temperature, instantaneous power).
///
/// Spawn it with [`Simulation::add_process`](crate::Simulation::add_process)
/// and make it sensitive to its tick event; retrieve rows after the run via
/// [`Simulation::with_process`](crate::Simulation::with_process).
///
/// # Examples
///
/// See `examples/waveform_trace.rs` in the workspace root.
pub struct CsvSampler {
    tick: EventId,
    period: SimDuration,
    columns: Vec<(String, Signal<f64>)>,
    rows: Vec<(SimTime, Vec<f64>)>,
}

impl CsvSampler {
    /// A sampler firing every `period`, activated by `tick` (create the
    /// event with [`Simulation::event`](crate::Simulation::event) and put
    /// the sampler on its sensitivity list).
    pub fn new(tick: EventId, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sampling period must be non-zero");
        Self {
            tick,
            period,
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Adds a named column probing `sig`. Returns `self` for chaining.
    #[must_use]
    pub fn with_column(mut self, name: impl Into<String>, sig: Signal<f64>) -> Self {
        self.columns.push((name.into(), sig));
        self
    }

    /// The collected samples.
    pub fn rows(&self) -> &[(SimTime, Vec<f64>)] {
        &self.rows
    }

    /// Renders a CSV document: `time_s,<col>,...` with one row per sample.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s");
        for (name, _) in &self.columns {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (t, values) in &self.rows {
            out.push_str(&format!("{:.9}", t.as_secs_f64()));
            for v in values {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }

    fn sample(&mut self, ctx: &mut Ctx<'_>) {
        let values = self.columns.iter().map(|(_, s)| ctx.read(*s)).collect();
        self.rows.push((ctx.now(), values));
    }
}

impl Process for CsvSampler {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.sample(ctx);
        ctx.notify(self.tick, self.period);
    }

    fn react(&mut self, ctx: &mut Ctx<'_>) {
        self.sample(ctx);
        ctx.notify(self.tick, self.period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcd_codes_are_unique_and_compact() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            assert!(seen.insert(code_for(i)), "duplicate code at {i}");
        }
        assert_eq!(code_for(0), "!");
        assert_eq!(code_for(93), "~");
        assert_eq!(code_for(94), "!!");
    }

    #[test]
    fn traceable_primitives() {
        assert_eq!(true.vcd_value(), VcdValue::Bits(1));
        assert_eq!(42u8.vcd_value(), VcdValue::Bits(42));
        assert_eq!(1.5f64.vcd_value(), VcdValue::Real(1.5));
        assert_eq!(<bool as Traceable>::WIDTH, 1);
        assert_eq!(<f64 as Traceable>::WIDTH, 0);
    }

    #[test]
    fn csv_render_shape() {
        let sampler = CsvSampler::new(EventId(0), SimDuration::from_micros(1));
        let csv = sampler.to_csv();
        assert!(csv.starts_with("time_s"));
    }
}
