//! End-to-end contract of the `dpm serve` daemon: submit over HTTP,
//! follow the event stream to completion, and read back the **exact**
//! report bytes `dpm campaign run` would print — plus the edges: idempotent
//! concurrent submission, JSON errors for malformed specs and unknown
//! routes, the 409 completeness gate that guarantees a `GET` never
//! simulates, gc and compaction refused while the daemon runs the
//! campaign, and
//! a shutdown that stops a campaign between baseline groups.
//!
//! The suite speaks raw HTTP/1.1 over `TcpStream` — the same protocol
//! surface `curl` sees in the CI `serve-smoke` job — including chunked
//! transfer decoding for the NDJSON event stream.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dpm_campaign::{
    campaign_json, completed_run, parse_campaign_toml, run_campaign_with, spawn_server, summarize,
    CampaignStore, CellState, RunnerConfig, ServeOptions,
};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory under the cargo-managed tmp dir.
fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "serve-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A four-cell grid quick enough for an in-test daemon run.
const SPEC_TOML: &str = r#"
name = "serve-e2e"
horizon_ms = 5
master_seed = 42
initial_soc = 0.9

[axes]
controllers = ["dpm", "always_on"]
tunings = ["paper"]
workloads = ["low"]
seeds = [1, 2]
batteries = ["linear"]
thermals = ["cool"]
ip_counts = [1]
"#;

/// 24 baseline groups of two cells at a 200 ms horizon on the busiest
/// workload: slow enough that a request made once the first group is
/// archived lands while most groups are still to run, in optimized and
/// unoptimized builds alike.
const SLOW_SPEC_TOML: &str = r#"
name = "serve-slow"
horizon_ms = 200
master_seed = 7
initial_soc = 0.9

[axes]
controllers = ["dpm", "always_on"]
tunings = ["paper"]
workloads = ["high"]
seeds = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24]
batteries = ["linear"]
thermals = ["cool"]
ip_counts = [1]
"#;

/// The full (`per_scenario`) report `dpm campaign run --format json`
/// prints for a TOML spec.
fn cli_report(toml: &str) -> String {
    let (spec, _) = parse_campaign_toml(toml).expect("parse spec");
    let cli = run_campaign_with(&spec, &RunnerConfig::serial(), None).expect("reference run");
    campaign_json(&summarize(&cli.result), Some(&cli.result)).expect("render")
}

/// Per baseline group of campaign `id`: (archived cells, cells). Each
/// call opens its own handle, since a handle sees only the records on
/// disk when it opened and its own appends.
fn archived_per_group(store: &CampaignStore, id: &str) -> Vec<(usize, usize)> {
    let (archive, spec) = store.open_campaign(id).expect("open campaign");
    let mut groups = vec![(0, 0); spec.group_count()];
    for (i, state) in archive.cell_states(&spec).into_iter().enumerate() {
        let group = &mut groups[spec.group_of(i)];
        group.0 += usize::from(state == CellState::Archived);
        group.1 += 1;
    }
    groups
}

/// A ~900 KB spec, under the 1 MiB body cap, whose grid holds
/// 300 000 × 150 000 cells: far past `MAX_GRID_CELLS`.
fn oversized_spec_toml() -> String {
    let ones = |n: usize| vec!["1"; n].join(",");
    format!(
        "name = \"oversized\"\n\n[axes]\ncontrollers = [\"dpm\"]\ntunings = [\"paper\"]\n\
         workloads = [\"low\"]\nbatteries = [\"linear\"]\nthermals = [\"cool\"]\n\
         seeds = [{}]\nip_counts = [{}]\n",
        ones(300_000),
        ones(150_000)
    )
}

fn serve_options(job_slots: usize) -> ServeOptions {
    ServeOptions {
        job_slots,
        threads: 1,
        ..ServeOptions::default()
    }
}

/// Creates SPEC_TOML's campaign in the store at `root` without
/// submitting it to any daemon: a daemon runs only what is POSTed to it,
/// so this campaign stays incomplete and nothing simulates. Returns its
/// id.
fn unsubmitted_campaign(root: &std::path::Path) -> String {
    CampaignStore::open(root)
        .expect("open store")
        .submit_toml(SPEC_TOML)
        .expect("create campaign")
        .id
}

/// One parsed HTTP response (chunked bodies already decoded).
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the response to EOF (the server speaks
/// `Connection: close`), decoding chunked transfer when announced.
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line '{status_line}'"));
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
        .collect();
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked");
    let body = if chunked {
        decode_chunked(payload)
    } else {
        payload.to_string()
    };
    Response {
        status,
        headers,
        body,
    }
}

/// Decodes a chunked transfer body: `{hex-size}\r\n{data}\r\n` frames
/// until the zero-length terminator.
fn decode_chunked(payload: &str) -> String {
    let mut rest = payload;
    let mut out = String::new();
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk size '{size_line}'"));
        if size == 0 {
            return out;
        }
        out.push_str(&tail[..size]);
        rest = tail[size..].strip_prefix("\r\n").expect("chunk terminator");
    }
}

/// Pulls `"key": "value"` or `"key":"value"` out of a JSON response —
/// enough for assertions without a parser dependency in the test.
fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split_once('"').map(|(v, _)| v)
}

/// The tentpole contract end to end: POST a spec, watch the NDJSON
/// event stream to the terminal `complete` event, then read the report
/// back byte-identical to `dpm campaign run --format json` — and verify
/// via the store that serving it performed **zero** simulations.
#[test]
fn submit_stream_and_report_match_the_cli_byte_for_byte() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();

    // submit: a fresh spec is 201 Created and queued for the executor
    let created = http(addr, "POST", "/campaigns", Some(SPEC_TOML));
    assert_eq!(created.status, 201, "{}", created.body);
    assert_eq!(created.header("content-type"), Some("application/json"));
    let id = json_str(&created.body, "id")
        .expect("submission has an id")
        .to_string();
    assert!(id.starts_with("c-"), "fingerprint-keyed id, got '{id}'");
    assert!(
        created.body.contains("\"existed\": false"),
        "{}",
        created.body
    );

    // events: the chunked NDJSON long-poll replays one `cell` line per
    // archived cell in seq order and closes with the terminal line
    let events = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/events?wait_ms=60000"),
        None,
    );
    assert_eq!(events.status, 200, "{}", events.body);
    assert_eq!(events.header("content-type"), Some("application/x-ndjson"));
    let lines: Vec<&str> = events.body.lines().collect();
    assert_eq!(lines.len(), 5, "4 cells + terminal: {:?}", lines);
    for (seq, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"seq\":{seq},")), "{line}");
    }
    assert!(lines[4].contains("\"event\":\"complete\""), "{}", lines[4]);
    assert!(lines[4].contains("\"cells\":4"), "{}", lines[4]);

    // the drained campaign directory holds the spec and the records:
    // the slot claims no lease
    let mut entries: Vec<String> = std::fs::read_dir(root.join(&id))
        .expect("list campaign dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    entries.sort();
    assert_eq!(entries, ["campaign.toml", "segments"]);

    // replay: a cursor past the archived prefix returns only the tail
    let tail = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/events?since=4&wait_ms=60000"),
        None,
    );
    assert_eq!(tail.body.lines().count(), 1, "{}", tail.body);

    // report: byte-identical to the CLI on the same spec, both shapes
    let (spec, _) = dpm_campaign::parse_campaign_toml(SPEC_TOML).expect("parse spec");
    let config = RunnerConfig {
        threads: 1,
        ..RunnerConfig::default()
    };
    let cli = run_campaign_with(&spec, &config, None).expect("reference run");
    let summary = summarize(&cli.result);
    let report = http(addr, "GET", &format!("/campaigns/{id}/report"), None);
    assert_eq!(report.status, 200);
    assert_eq!(report.body, campaign_json(&summary, None).expect("render"));
    let full = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/report?per_scenario=1"),
        None,
    );
    assert_eq!(
        full.body,
        campaign_json(&summary, Some(&cli.result)).expect("render")
    );

    // the zero-simulation guarantee, asserted at the serving layer: the
    // complete campaign loads entirely from the archive
    let store = CampaignStore::open(&root).expect("open store");
    let (archive, stored_spec) = store.open_campaign(&id).expect("open campaign");
    let (_, stats) = completed_run(&archive, &stored_spec).expect("campaign is complete");
    assert_eq!(stats.simulations, 0);
    assert_eq!(stats.archived_cells, spec.scenario_count());

    // best and pareto answer from the same archive
    let best = http(addr, "GET", &format!("/campaigns/{id}/best"), None);
    assert_eq!(best.status, 200, "{}", best.body);
    assert!(best.body.contains("\"objective\""), "{}", best.body);
    assert!(best.body.contains("\"best\""), "{}", best.body);
    let pareto = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/pareto?objectives=energy_saving,min:delay"),
        None,
    );
    assert_eq!(pareto.status, 200, "{}", pareto.body);
    assert!(pareto.body.contains("\"front\""), "{}", pareto.body);

    // the store list shows one complete campaign with a complete job
    let list = http(addr, "GET", "/campaigns", None);
    assert!(list.body.contains("\"count\": 1"), "{}", list.body);
    assert!(list.body.contains(&id), "{}", list.body);
    assert!(
        list.body.contains("\"state\": \"complete\""),
        "{}",
        list.body
    );

    // resubmission dedups: 200 (not 201), existed, nothing re-queued
    let again = http(addr, "POST", "/campaigns", Some(SPEC_TOML));
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(json_str(&again.body, "id"), Some(id.as_str()));
    assert!(again.body.contains("\"existed\": true"), "{}", again.body);
    assert_eq!(json_str(&again.body, "job"), Some("complete"));

    // compaction over the API rewrites the archive into one segment —
    // and the report the daemon serves afterwards is byte-identical
    let compacted = http(addr, "POST", &format!("/campaigns/{id}/compact"), None);
    assert_eq!(compacted.status, 200, "{}", compacted.body);
    assert!(
        compacted.body.contains("\"records\": 4"),
        "{}",
        compacted.body
    );
    let after = http(addr, "GET", &format!("/campaigns/{id}/report"), None);
    assert_eq!(after.body, report.body, "compaction changed the report");

    // graceful shutdown over the API; join() returns once drained
    let bye = http(addr, "POST", "/shutdown", None);
    assert_eq!(bye.status, 200);
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// A JSON spec as Python's `json.dumps` writes it by default, with a
/// character outside the Basic Multilingual Plane escaped as a
/// surrogate pair, is accepted and keeps its name.
#[test]
fn json_specs_decode_surrogate_pair_escapes() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();
    let (mut spec, _) = dpm_campaign::parse_campaign_toml(SPEC_TOML).expect("parse spec");
    spec.name = "quick 🙂".into();
    let body = serde_json::to_string(&spec)
        .expect("render spec")
        .replace('🙂', "\\ud83d\\ude42");
    assert!(body.is_ascii() && body.contains("\\ud83d\\ude42"), "{body}");

    let created = http(addr, "POST", "/campaigns", Some(&body));
    assert_eq!(created.status, 201, "{}", created.body);
    assert_eq!(json_str(&created.body, "name"), Some("quick 🙂"));
    let id = json_str(&created.body, "id").expect("submission has an id");

    // let the campaign finish so shutdown finds an idle daemon
    let events = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/events?wait_ms=60000"),
        None,
    );
    assert!(
        events.body.contains("\"event\":\"complete\""),
        "{}",
        events.body
    );
    let bye = http(addr, "POST", "/shutdown", None);
    assert_eq!(bye.status, 200);
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// Submission is idempotent under concurrency: N clients racing the
/// same new spec all land on one campaign id, exactly one directory is
/// created, and exactly one response is `201 Created`.
#[test]
fn concurrent_submissions_dedup_into_one_campaign() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();

    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(move || http(addr, "POST", "/campaigns", Some(SPEC_TOML))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    let ids: Vec<&str> = responses
        .iter()
        .map(|r| json_str(&r.body, "id").expect("id"))
        .collect();
    assert!(
        ids.windows(2).all(|w| w[0] == w[1]),
        "ids diverged: {ids:?}"
    );
    let created = responses.iter().filter(|r| r.status == 201).count();
    assert_eq!(created, 1, "exactly one submission creates the campaign");
    assert!(responses.iter().all(|r| matches!(r.status, 200 | 201)));
    // every response names the one job: the first submission queues it
    // and later ones find it queued, running or already complete
    assert!(
        responses.iter().all(|r| matches!(
            json_str(&r.body, "job"),
            Some("queued" | "running" | "complete")
        )),
        "{:?}",
        responses.iter().map(|r| &r.body).collect::<Vec<_>>()
    );

    let campaign_dirs = std::fs::read_dir(&root)
        .expect("list root")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("campaign.toml").is_file())
        .count();
    assert_eq!(campaign_dirs, 1);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Every failure mode answers structured JSON: malformed TOML and JSON
/// specs (hostile nesting in either included) and horizons past the
/// simulation clock are 400s carrying the parser's message and leave
/// the daemon up, unknown campaigns are 404s, wrong
/// methods are 405s, and reading an **incomplete** campaign is the 409
/// completeness gate (the response carries progress, and no simulation
/// ever starts on a `GET`).
#[test]
fn errors_are_structured_json_and_reads_never_simulate() {
    let root = scratch_dir();
    let id = unsubmitted_campaign(&root);
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();

    // malformed TOML spec
    let bad_toml = http(addr, "POST", "/campaigns", Some("horizon_ms = ]["));
    assert_eq!(bad_toml.status, 400, "{}", bad_toml.body);
    assert!(bad_toml.body.contains("\"error\""), "{}", bad_toml.body);
    assert!(
        bad_toml.body.contains("\"status\":400"),
        "{}",
        bad_toml.body
    );

    // malformed JSON spec (a `{` body routes to the JSON parser)
    let bad_json = http(addr, "POST", "/campaigns", Some("{\"name\": 12"));
    assert_eq!(bad_json.status, 400, "{}", bad_json.body);
    assert!(bad_json.body.contains("\"error\""), "{}", bad_json.body);

    // hostile nesting (~200 KB, under the body limit) is a 400 too, not
    // a stack overflow that takes the daemon down
    let nested = format!("{{\"name\":{}", "[".repeat(200_000));
    let deep = http(addr, "POST", "/campaigns", Some(&nested));
    assert_eq!(deep.status, 400, "{}", deep.body);
    assert!(deep.body.contains("nesting deeper"), "{}", deep.body);
    let health = http(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200, "{}", health.body);

    // ... and so is the TOML twin: arrays nested 20 000 deep (~40 KB)
    let nested = format!(
        "name = \"x\"\n[axes]\nip_counts = {}1{}\n",
        "[".repeat(20_000),
        "]".repeat(20_000)
    );
    let deep = http(addr, "POST", "/campaigns", Some(&nested));
    assert_eq!(deep.status, 400, "{}", deep.body);
    assert!(deep.body.contains("nested arrays"), "{}", deep.body);
    let health = http(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200, "{}", health.body);

    // a grid past the cell cap is refused before anything expands it
    let huge = http(addr, "POST", "/campaigns", Some(&oversized_spec_toml()));
    assert_eq!(huge.status, 400, "{}", huge.body);
    assert!(huge.body.contains("at most 1048576 cells"), "{}", huge.body);
    let health = http(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200, "{}", health.body);

    // a horizon whose picoseconds overflow the clock is refused, not
    // wrapped into a run a fraction of a millisecond long
    let endless = http(
        addr,
        "POST",
        "/campaigns",
        Some(&SPEC_TOML.replace("horizon_ms = 5", "horizon_ms = 18446744074")),
    );
    assert_eq!(endless.status, 400, "{}", endless.body);
    assert!(endless.body.contains("horizon_ms"), "{}", endless.body);

    // a spec that parses but fails validation is also a 400
    let empty_axis = http(
        addr,
        "POST",
        "/campaigns",
        Some(&SPEC_TOML.replace("controllers = [\"dpm\", \"always_on\"]", "controllers = []")),
    );
    assert_eq!(empty_axis.status, 400, "{}", empty_axis.body);

    // unknown campaign and unknown route are 404s; wrong method is 405
    for path in [
        "/campaigns/c-cafecafecafecafe",
        "/campaigns/nope/report",
        "/nowhere",
    ] {
        let missing = http(addr, "GET", path, None);
        assert_eq!(missing.status, 404, "{path}: {}", missing.body);
        assert!(missing.body.contains("\"error\""), "{}", missing.body);
    }
    let wrong = http(addr, "DELETE", "/campaigns", None);
    assert_eq!(wrong.status, 405, "{}", wrong.body);

    // a hostile id must not escape the store root
    let hostile = http(addr, "GET", "/campaigns/%2e%2e/report", None);
    assert_eq!(hostile.status, 404, "{}", hostile.body);

    // a campaign the daemon was never asked to run stays incomplete, so
    // every result read hits the 409 completeness gate with progress
    for endpoint in ["report", "best", "pareto"] {
        let gated = http(addr, "GET", &format!("/campaigns/{id}/{endpoint}"), None);
        assert_eq!(gated.status, 409, "{endpoint}: {}", gated.body);
        assert!(gated.body.contains("\"archived\":0"), "{}", gated.body);
        assert!(gated.body.contains("\"cells\":4"), "{}", gated.body);
    }
    // ... and indeed nothing has simulated: every cell is still pending
    let grid = http(addr, "GET", &format!("/campaigns/{id}"), None);
    assert_eq!(grid.status, 200);
    assert!(
        !grid.body.contains("\"archived\""),
        "no cell may be archived: {}",
        grid.body
    );

    // gc over HTTP on the fresh campaign is a clean no-op report
    let gc = http(addr, "POST", &format!("/campaigns/{id}/gc"), None);
    assert_eq!(gc.status, 200, "{}", gc.body);
    assert!(gc.body.contains("\"records_removed\": 0"), "{}", gc.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A campaign directory whose spec is past the grid cap (written by an
/// older daemon that accepted it) is left out of `GET /campaigns`
/// instead of being expanded.
#[test]
fn an_oversized_campaign_in_the_store_is_left_out_of_the_listing() {
    let root = scratch_dir();
    let id = unsubmitted_campaign(&root);
    let bogus = root.join("c-0000000000000000");
    std::fs::create_dir_all(&bogus).expect("create campaign dir");
    std::fs::write(bogus.join("campaign.toml"), oversized_spec_toml()).expect("write spec");
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();

    let listed = http(addr, "GET", "/campaigns", None);
    assert_eq!(listed.status, 200, "{}", listed.body);
    assert!(listed.body.contains("\"count\": 1"), "{}", listed.body);
    assert!(listed.body.contains(&id), "{}", listed.body);
    assert!(
        !listed.body.contains("c-0000000000000000"),
        "{}",
        listed.body
    );
    let health = http(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200, "{}", health.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The `?since=` cursor's edges: a non-numeric cursor is a 400 with a
/// structured JSON error (not a silent replay from zero), and a cursor
/// beyond the log tail long-polls cleanly — an empty 200 stream, never
/// an error.
#[test]
fn event_cursor_rejects_garbage_and_longpolls_past_the_tail() {
    let root = scratch_dir();
    let id = unsubmitted_campaign(&root);
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();

    // non-numeric cursors and waits are client bugs and must fail
    // loudly, not replay from zero or wait the default 30 s
    let garbage = ["abc", "-1", "1.5", "0x10", ""].map(|bad| ("since", bad));
    for (param, bad) in garbage
        .into_iter()
        .chain([("wait_ms", "abc"), ("wait_ms", "-1")])
    {
        let rejected = http(
            addr,
            "GET",
            &format!("/campaigns/{id}/events?{param}={bad}"),
            None,
        );
        assert_eq!(rejected.status, 400, "{param}={bad}: {}", rejected.body);
        assert_eq!(rejected.header("content-type"), Some("application/json"));
        assert!(
            rejected.body.contains("\"error\"") && rejected.body.contains(param),
            "{param}={bad}: {}",
            rejected.body
        );
    }

    // a cursor past the tail of an incomplete campaign is *not* an
    // error: the stream long-polls for wait_ms and closes empty
    let start = std::time::Instant::now();
    let tail = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/events?since=999&wait_ms=120"),
        None,
    );
    assert_eq!(tail.status, 200, "{}", tail.body);
    assert_eq!(tail.header("content-type"), Some("application/x-ndjson"));
    assert_eq!(tail.body, "", "no events past the tail: {}", tail.body);
    assert!(
        start.elapsed() >= std::time::Duration::from_millis(100),
        "beyond-tail cursor must long-poll, not return instantly"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A parked `/events` long-poll must not hold the daemon open: the wait
/// loop checks the shutdown flag between sleep slices, so `POST
/// /shutdown` drains in milliseconds even with a 60-second poller in
/// flight (before the fix, `join()` blocked for the full `wait_ms`).
#[test]
fn events_longpoll_releases_promptly_on_shutdown() {
    let root = scratch_dir();
    let id = unsubmitted_campaign(&root);
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();

    // park a poller far past the tail with a long deadline, give it a
    // moment to reach the wait loop, then shut the daemon down
    let poller = std::thread::spawn(move || {
        http(
            addr,
            "GET",
            &format!("/campaigns/{id}/events?since=999&wait_ms=60000"),
            None,
        )
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    let bye = http(addr, "POST", "/shutdown", None);
    assert_eq!(bye.status, 200);

    let start = std::time::Instant::now();
    server.join();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "shutdown blocked on the parked long-poll for {:?}",
        start.elapsed()
    );
    // the poller's stream closed cleanly: an empty 200, not an error
    let streamed = poller.join().expect("join poller");
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    assert_eq!(streamed.body, "", "{}", streamed.body);
    let _ = std::fs::remove_dir_all(&root);
}

/// A 65,536-cell grid (2^6 axis combinations × 1,024 seeds) whose
/// `GET /campaigns/{id}` body is ~9.6 MB: more than the socket buffers
/// of a client that never reads can take.
fn large_spec_toml() -> String {
    let seeds: Vec<String> = (1..=1024).map(|s| s.to_string()).collect();
    format!(
        "name = \"large\"\n\n[axes]\ncontrollers = [\"dpm\", \"always_on\"]\n\
         tunings = [\"paper\", \"default\"]\nworkloads = [\"low\", \"high\"]\n\
         batteries = [\"linear\", \"kibam\"]\nthermals = [\"cool\", \"hot\"]\n\
         ip_counts = [1, 4]\nseeds = [{}]\n",
        seeds.join(", ")
    )
}

/// A client that asks for a large body and never reads it cannot hold
/// up the drain: each write to it times out, so `POST /shutdown` stops
/// the daemon while that client keeps its connection open. Without the
/// write timeout the handler blocks until the client closes, so the
/// join is watched from a channel and the test fails instead of hanging.
#[test]
fn a_client_that_never_reads_cannot_hold_up_the_shutdown() {
    let root = scratch_dir();
    let id = CampaignStore::open(&root)
        .expect("open store")
        .submit_toml(&large_spec_toml())
        .expect("create campaign")
        .id;
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();

    let mut stalled = TcpStream::connect(addr).expect("connect to daemon");
    write!(stalled, "GET /campaigns/{id} HTTP/1.1\r\nHost: e2e\r\n\r\n").expect("send request");
    // the status line shows a handler is writing the body, so the
    // shutdown below cannot drop the connection before it is handled
    let mut status = [0u8; 12];
    stalled
        .read_exact(&mut status)
        .expect("read the status line");
    assert_eq!(&status, b"HTTP/1.1 200");
    let bye = http(addr, "POST", "/shutdown", None);
    assert_eq!(bye.status, 200);

    let (joined, watchdog) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = joined.send(());
    });
    let start = std::time::Instant::now();
    assert!(
        watchdog
            .recv_timeout(std::time::Duration::from_secs(120))
            .is_ok(),
        "the non-reading client held the drain for {:?}",
        start.elapsed()
    );
    // the client read nothing more until the daemon stopped
    drop(stalled);
    let _ = std::fs::remove_dir_all(&root);
}

/// A terminal event log is final: `/events` replays it from memory and
/// opens nothing, so with the campaign's `campaign.toml` deleted after
/// `complete`, a replay from 0 still streams every cell line and
/// `complete`, byte for byte as the first stream did.
#[test]
fn a_complete_event_log_replays_without_reopening_the_campaign() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();
    let created = http(addr, "POST", "/campaigns", Some(SPEC_TOML));
    assert_eq!(created.status, 201, "{}", created.body);
    let id = json_str(&created.body, "id").expect("id").to_string();
    let first = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/events?wait_ms=60000"),
        None,
    );
    assert!(
        first.body.contains("\"event\":\"complete\""),
        "{}",
        first.body
    );

    std::fs::remove_file(root.join(&id).join("campaign.toml")).expect("delete the spec");
    let replay = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/events?since=0&wait_ms=0"),
        None,
    );
    assert_eq!(replay.status, 200, "{}", replay.body);
    assert_eq!(replay.body.matches("\"event\":\"cell\"").count(), 4);
    assert_eq!(replay.body, first.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `POST /campaigns/{id}/compact` and `POST /campaigns/{id}/gc` answer
/// 409 while this daemon has the campaign queued or running: both delete
/// segment files, compaction every old one and gc one the slot has
/// created but not yet appended to, so the slot's later records would be
/// lost. Once `/events` reports `complete` both proceed, and the report
/// still matches the CLI's.
#[test]
fn compact_conflicts_while_the_daemon_has_the_campaign_queued_or_running() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();
    let submit = |toml: &str| {
        let created = http(addr, "POST", "/campaigns", Some(toml));
        assert_eq!(created.status, 201, "{}", created.body);
        json_str(&created.body, "id").expect("id").to_string()
    };

    // the slow campaign takes the one slot, so the quick one waits queued
    let slow = submit(SLOW_SPEC_TOML);
    let quick = submit(SPEC_TOML);
    for endpoint in ["compact", "gc"] {
        let refused = http(
            addr,
            "POST",
            &format!("/campaigns/{quick}/{endpoint}"),
            None,
        );
        assert_eq!(refused.status, 409, "{endpoint}: {}", refused.body);
        assert!(
            refused.body.contains("is queued"),
            "{endpoint}: {}",
            refused.body
        );
        let refused = http(addr, "POST", &format!("/campaigns/{slow}/{endpoint}"), None);
        assert_eq!(refused.status, 409, "{endpoint}: {}", refused.body);
        assert!(
            refused.body.contains("is running") || refused.body.contains("is queued"),
            "{endpoint}: {}",
            refused.body
        );
    }

    // `complete` is announced once the slot is done with the campaign,
    // so compaction and gc then go through
    let events = http(
        addr,
        "GET",
        &format!("/campaigns/{quick}/events?wait_ms=60000"),
        None,
    );
    assert!(
        events.body.contains("\"event\":\"complete\""),
        "{}",
        events.body
    );
    for (endpoint, kept) in [("compact", "\"records\": 4"), ("gc", "\"records_kept\": 4")] {
        let done = http(
            addr,
            "POST",
            &format!("/campaigns/{quick}/{endpoint}"),
            None,
        );
        assert_eq!(done.status, 200, "{endpoint}: {}", done.body);
        assert!(done.body.contains(kept), "{endpoint}: {}", done.body);
    }
    let report = http(
        addr,
        "GET",
        &format!("/campaigns/{quick}/report?per_scenario=1"),
        None,
    );
    assert_eq!(report.status, 200, "{}", report.body);
    assert_eq!(report.body, cli_report(SPEC_TOML));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `POST /shutdown` in the middle of a campaign stops its slot between
/// baseline groups: each group is either fully archived or untouched,
/// and no lease is left behind. Resubmitting the campaign to a new
/// daemon on the same store completes it with the CLI's report bytes.
#[test]
fn a_shutdown_mid_campaign_keeps_whole_groups_and_a_new_daemon_completes_it() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();
    let created = http(addr, "POST", "/campaigns", Some(SLOW_SPEC_TOML));
    assert_eq!(created.status, 201, "{}", created.body);
    let id = json_str(&created.body, "id").expect("id").to_string();

    // shut down as soon as the first group is archived
    let store = CampaignStore::open(&root).expect("open store");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while archived_per_group(&store, &id)
        .iter()
        .all(|&(done, _)| done == 0)
    {
        assert!(std::time::Instant::now() < deadline, "no group archived");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let bye = http(addr, "POST", "/shutdown", None);
    assert_eq!(bye.status, 200);
    server.join();

    let groups = archived_per_group(&store, &id);
    assert!(
        groups
            .iter()
            .all(|&(done, cells)| done == 0 || done == cells),
        "a group was left half archived: {groups:?}"
    );
    assert!(
        groups.iter().any(|&(done, _)| done == 0),
        "the shutdown landed after the last group: {groups:?}"
    );
    assert!(!root.join(&id).join("leases").exists());

    // a new daemon on the same store resumes what is left
    let server = spawn_server(&root, serve_options(1)).expect("respawn daemon");
    let addr = server.addr();
    let again = http(addr, "POST", "/campaigns", Some(SLOW_SPEC_TOML));
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(json_str(&again.body, "job"), Some("queued"));
    let events = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/events?wait_ms=60000"),
        None,
    );
    assert!(
        events.body.contains("\"event\":\"complete\""),
        "{}",
        events.body
    );
    let report = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/report?per_scenario=1"),
        None,
    );
    assert_eq!(report.status, 200, "{}", report.body);
    assert_eq!(report.body, cli_report(SLOW_SPEC_TOML));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `POST /shutdown` drains and actually stops: `join()` returns and the
/// listening socket closes.
#[test]
fn shutdown_drains_and_closes_the_listener() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();

    let bye = http(addr, "POST", "/shutdown", None);
    assert_eq!(bye.status, 200);
    server.join();

    // the socket is gone once the daemon drains
    assert!(TcpStream::connect(addr).is_err(), "daemon still listening");
    let _ = std::fs::remove_dir_all(&root);
}

/// A daemon with no executor slot could run nothing: `spawn` refuses it.
#[test]
fn a_daemon_without_executor_slots_is_refused() {
    let root = scratch_dir();
    let err = spawn_server(&root, serve_options(0)).expect_err("zero slots must be refused");
    assert!(err.contains("at least one executor slot"), "{err}");
}
