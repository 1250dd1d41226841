//! `serve`: a closed loop with one client connection to an in-process
//! `dpm serve` daemon (one executor slot, two simulation threads).
//!
//! Each iteration POSTs a fresh 24-cell campaign shaped like
//! `specs/quick.toml`, waits on `/events` for `complete`, GETs its
//! `/report`, then GETs the `/report` of an earlier completed campaign.
//! HTTP, the store, leases, segment appends and event delivery dominate;
//! the kernel does little.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use dpm_campaign::{
    campaign_json, parse_campaign_toml, run_campaign_with, spawn_server, summarize, Fidelity,
    RunStats, RunnerConfig, RunningServer, ServeOptions,
};

use crate::http::{self, json_string};
use crate::layers;
use crate::measure::{digest, median, ms, peak_rss_mb, reset_peak_rss, timed, Rng};
use crate::sweep::{record_archive_reads, record_archive_writes, record_runner};
use crate::trace::Tracer;
use crate::{gen, setup_due, Ctx, Outcome, DAEMON_THREADS};

/// At least this many iterations, however short the window.
const MIN_OPS: usize = 4;

/// Interleaved iteration groups of the latency statistic (see
/// [`crate::grouped_best`]).
const GROUPS: usize = 8;

/// Campaigns whose report bytes are re-derived in-process: the warm-up
/// and the first `MIN_OPS` iterations, which every run completes, so the
/// fingerprint repeats for a seed.
const VERIFY_SAMPLE: usize = MIN_OPS + 1;

/// One completed campaign.
#[derive(Debug, Clone)]
pub struct Completed {
    /// Campaign id.
    pub id: String,
    /// The submitted spec.
    pub text: String,
    /// `/report` bytes.
    pub report: Vec<u8>,
    /// Submit → `complete` on `/events`, ms.
    pub complete_ms: f64,
}

/// Per-iteration timings.
#[derive(Debug, Default)]
struct Timings {
    post_ms: Vec<f64>,
    first_event_ms: Vec<f64>,
}

/// Request accounting: every request is attempted; a non-2xx answer, a
/// timeout or a broken connection is a failure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Requests {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
}

impl Requests {
    /// Counts one request; returns the response only when it succeeded.
    pub fn count(&mut self, res: std::io::Result<http::Response>) -> Option<http::Response> {
        self.attempted += 1;
        match res {
            Ok(r) if r.ok() => Some(r),
            _ => {
                self.failed += 1;
                None
            }
        }
    }
}

/// One closed-loop iteration: submit → `complete` → `/report`.
fn submit(
    addr: SocketAddr,
    text: &str,
    req: &mut Requests,
    tr: &mut Tracer,
    timings: &mut Timings,
) -> Option<Completed> {
    let t0 = Instant::now();
    let post = tr.time("http.post", || {
        http::request(addr, "POST", "/campaigns", text.as_bytes())
    });
    let post = req.count(post)?;
    timings.post_ms.push(ms(t0.elapsed()));
    let id = json_string(&post.text(), "id")?;
    let events = tr.time("http.events", || {
        http::follow_events(addr, &format!("/campaigns/{id}/events?since=0"), t0)
    });
    req.attempted += 1;
    let events = match events {
        Ok(e) if e.status == 200 && e.complete.is_some() => e,
        _ => {
            req.failed += 1;
            return None;
        }
    };
    if let Some(first) = events.first_cell {
        timings.first_event_ms.push(ms(first));
    }
    let report = tr.time("http.report", || {
        http::request(addr, "GET", &format!("/campaigns/{id}/report"), b"")
    });
    let report = req.count(report)?;
    Some(Completed {
        id,
        text: text.to_string(),
        report: report.body,
        complete_ms: events.complete.map_or(0.0, ms),
    })
}

fn start(root: &Path) -> Result<RunningServer, String> {
    let server = spawn_server(
        root,
        ServeOptions {
            job_slots: 1,
            threads: DAEMON_THREADS,
            ..ServeOptions::default()
        },
    )?;
    let health = http::request(server.addr(), "GET", "/healthz", b"").map_err(|e| e.to_string())?;
    if !health.ok() {
        return Err(format!("/healthz answered {}", health.status));
    }
    Ok(server)
}

/// Re-derives a served report in-process (`run_campaign_with` +
/// `campaign_json` on the same spec); returns the bytes, the wall time
/// of the run, and its work accounting.
pub fn in_process(text: &str, threads: usize) -> Result<(String, Duration, RunStats), String> {
    let (spec, _) = parse_campaign_toml(text)?;
    let config = RunnerConfig {
        threads,
        ..RunnerConfig::default()
    };
    let (run, t) = timed(|| run_campaign_with(&spec, &config, None));
    let run = run?;
    let bytes = campaign_json(&summarize(&run.result), None).map_err(|e| e.to_string())?;
    Ok((bytes, t, run.stats))
}

/// The serve check: HTTP report bytes equal the in-process report.
pub fn check_report(o: &mut Outcome, done: &Completed, in_process: &str) {
    o.check(done.report == in_process.as_bytes(), || {
        format!(
            "serve: /report bytes of {} differ from in-process campaign_json",
            done.id
        )
    });
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut req = Requests::default();
    // set-up: store root, daemon, health probe, one warm-up campaign
    let setup = |k: usize, req: &mut Requests| -> Result<(f64, RunningServer, Completed), String> {
        let root = ctx.work.join(format!("store-{k}"));
        let (res, t) = timed(|| -> Result<_, String> {
            let server = start(&root)?;
            let text = gen::serve_toml(ctx.seed, 0, ctx.size);
            let warm = submit(
                server.addr(),
                &text,
                req,
                &mut Tracer::new(false),
                &mut Timings::default(),
            )
            .ok_or("the warm-up campaign did not complete")?;
            Ok((server, warm))
        });
        let (server, warm) = res?;
        Ok((t.as_secs_f64(), server, warm))
    };
    let (t, server, warm) = setup(0, &mut req)?;
    o.setup_s.push(t);
    let root = ctx.work.join("store-0");
    let addr = server.addr();
    let mut done = vec![warm];

    let mut tr = Tracer::new(false);
    let mut timings = Timings::default();
    // primary-operation latencies of untraced [0] and traced [1] operations
    let mut by_trace: [Vec<f64>; 2] = Default::default();
    let mut rng = Rng::new(ctx.seed, gen::SERVE_SALT << 8);
    let start_at = Instant::now();
    let deadline = start_at + Duration::from_secs_f64(ctx.seconds);
    let mut i = 1u64;
    while (i as usize) <= MIN_OPS || Instant::now() < deadline {
        if setup_due(o.setup_s.len(), start_at.elapsed(), ctx.seconds) {
            let k = o.setup_s.len();
            let (t, extra, _) = setup(k, &mut req)?;
            o.setup_s.push(t);
            extra.shutdown();
            let _ = std::fs::remove_dir_all(ctx.work.join(format!("store-{k}")));
        }
        let traced = ctx.traced && i.is_multiple_of(2);
        tr.set_enabled(traced);
        let text = gen::serve_toml(ctx.seed, i, ctx.size);
        reset_peak_rss();
        tr.begin("serve.iteration");
        let (fresh, t) = timed(|| submit(addr, &text, &mut req, &mut tr, &mut timings));
        // the read path: a completed campaign from earlier in the loop
        let earlier = &done[rng.below(done.len() as u64) as usize];
        let path = format!("/campaigns/{}/report", earlier.id);
        let (got, read_t) =
            timed(|| tr.time("http.report_get", || http::request(addr, "GET", &path, b"")));
        tr.end();
        o.peak_rss_mb.push(peak_rss_mb());
        let group = i as usize % GROUPS;
        if let Some(got) = req.count(got) {
            o.read_ms.push((group, ms(read_t)));
            o.check(got.body == earlier.report, || {
                format!(
                    "serve: a second /report of {} returned different bytes",
                    earlier.id
                )
            });
        }
        if let Some(fresh) = fresh {
            o.op_ms.push((group, ms(t)));
            by_trace[usize::from(traced)].push(ms(t));
            done.push(fresh);
        }
        i += 1;
    }
    server.shutdown();
    o.attempted = req.attempted;
    o.failed = req.failed;
    let first = done.first().ok_or("no campaign completed")?;
    let (spec, _) = parse_campaign_toml(&first.text)?;
    o.cells_per_op = spec.scenario_count();

    // untimed: re-derive a sample of the served reports in-process
    let mut inproc_ms = Vec::new();
    let mut complete_ms = Vec::new();
    let mut fingerprint = 0u64;
    let mut first_stats = None;
    for d in done.iter().take(VERIFY_SAMPLE) {
        let (bytes, t, stats) = in_process(&d.text, DAEMON_THREADS)?;
        check_report(&mut o, d, &bytes);
        fingerprint = fingerprint.rotate_left(5) ^ digest(bytes.as_bytes());
        inproc_ms.push(ms(t));
        complete_ms.push(d.complete_ms);
        first_stats.get_or_insert(stats);
    }
    let stats = first_stats.unwrap_or_default();
    let (costs, same) = layers::common_probes(&mut o.layers, &mut o.rows, &spec, &spec.expand());
    o.check(same, || {
        "serve: kernel/core counts differ between two probe passes".into()
    });
    o.rows
        .push(crate::fingerprint_row(fingerprint, &costs.counts, &stats));
    if ctx.traced {
        record_runner(&mut o, &stats, 1);
        let l = &mut o.layers;
        l.insert("http.post_ms", median(&timings.post_ms));
        l.insert("serve.first_event_ms", median(&timings.first_event_ms));
        l.insert(
            "serve.overhead_ms",
            median(&complete_ms) - median(&inproc_ms),
        );
        l.insert(
            "trace.overhead_frac",
            median(&by_trace[1]) / median(&by_trace[0]) - 1.0,
        );
        traced_layers(ctx, &mut o, first, &root, &costs)?;
        tr.write(&crate::trace_path(ctx), &ctx.workload, ctx.seed)
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(o)
}

fn traced_layers(
    ctx: &Ctx,
    o: &mut Outcome,
    first: &Completed,
    root: &Path,
    costs: &layers::CellCosts,
) -> Result<(), String> {
    let (spec, _) = parse_campaign_toml(&first.text)?;
    record_archive_reads(
        o,
        &spec,
        &root.join(&first.id),
        &spec.expand(),
        Fidelity::Fine,
    )?;
    let config = RunnerConfig {
        threads: 1,
        ..RunnerConfig::default()
    };
    // runner self time: the fastest of three serial runs minus the
    // replayed layer time beneath it
    let mut fastest = Duration::MAX;
    let mut last = None;
    for _ in 0..3 {
        let (run, t) = timed(|| run_campaign_with(&spec, &config, None));
        fastest = fastest.min(t);
        last = Some(run?);
    }
    let run = last.ok_or("no serial run")?;
    o.layers.insert(
        "runner.self_s",
        fastest.as_secs_f64() - costs.fine_eval_us() * run.stats.simulations as f64 / 1e6,
    );
    let (mut summarize_s, mut render_s) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (summary, t) = timed(|| summarize(&run.result));
        summarize_s.push(t.as_secs_f64());
        let (_, t) = timed(|| campaign_json(&summary, None));
        render_s.push(t.as_secs_f64());
    }
    o.layers
        .insert("aggregate.summarize_s", median(&summarize_s));
    o.layers.insert("report.render_s", median(&render_s));
    record_archive_writes(o, &spec, &run.result, &ctx.work.join("probe-archive"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Size;

    #[test]
    fn tiny_serve_is_correct_in_both_modes() {
        for traced in [false, true] {
            let o = crate::run_workload(&crate::tiny_ctx("serve", 9, traced)).unwrap();
            assert!(o.failures.is_empty(), "{:?}", o.failures);
            assert_eq!(o.failed, 0);
            assert!(o.op_ms.len() >= MIN_OPS);
            if traced {
                assert!(o.layers["http.post_ms"] > 0.0);
            }
        }
    }

    #[test]
    fn refused_requests_count_as_failed_and_wrong_bytes_trip() {
        let ctx = crate::tiny_ctx("serve-wrong", 9, false);
        let server = start(&ctx.work).unwrap();
        let addr = server.addr();
        let mut req = Requests::default();
        let refused = http::request(addr, "POST", "/campaigns", b"name = ");
        assert!(req.count(refused).is_none());
        let missing = http::request(addr, "GET", "/campaigns/c-0000000000000000/report", b"");
        assert!(req.count(missing).is_none());
        assert_eq!((req.attempted, req.failed), (2, 2));

        let text = gen::serve_toml(9, 1, Size::Tiny);
        let done = submit(
            addr,
            &text,
            &mut req,
            &mut Tracer::new(false),
            &mut Timings::default(),
        )
        .unwrap();
        assert_eq!(req.failed, 2, "a good submit adds no failures");
        server.shutdown();
        let (bytes, _, _) = in_process(&text, 1).unwrap();
        let mut o = Outcome::default();
        check_report(&mut o, &done, &bytes);
        assert!(o.failures.is_empty(), "{:?}", o.failures);
        check_report(&mut o, &done, &format!("{bytes} "));
        assert_eq!(o.failures.len(), 1);
        let _ = std::fs::remove_dir_all(&ctx.work);
    }
}
