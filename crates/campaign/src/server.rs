//! The `dpm serve` daemon: a long-running campaign service with an
//! HTTP/JSON job API over the archive layer.
//!
//! The daemon owns a [`CampaignStore`] root and exposes it over the
//! [`crate::http`] core:
//!
//! | Method | Path | Meaning |
//! |---|---|---|
//! | `POST` | `/campaigns` | submit a TOML (or JSON) spec; dedups by spec fingerprint |
//! | `GET`  | `/campaigns` | list campaigns with archived/pending counts |
//! | `GET`  | `/campaigns/{id}` | the grid with per-cell lifecycle states |
//! | `GET`  | `/campaigns/{id}/report` | the campaign report (`?per_scenario=1` for full results) |
//! | `GET`  | `/campaigns/{id}/best` | best cell under `?objective=` (default `energy_saving`) |
//! | `GET`  | `/campaigns/{id}/pareto` | non-dominated front under `?objectives=a,b` |
//! | `GET`  | `/campaigns/{id}/events` | chunked NDJSON long-poll of cell completions |
//! | `POST` | `/campaigns/{id}/gc` | archive hygiene, returns the [`crate::archive::GcReport`]; `409` while the campaign is queued or running |
//! | `POST` | `/campaigns/{id}/compact` | rewrite the archive into one segment, returns the [`crate::archive::CompactReport`]; `409` while the campaign is queued or running |
//! | `GET`  | `/healthz` | liveness probe |
//! | `POST` | `/shutdown` | graceful shutdown (each slot finishes its current baseline group) |
//!
//! Three invariants carry over from the batch layers unchanged:
//!
//! * **Submission is idempotent.** A campaign's id is its spec
//!   fingerprint, so resubmitting — from any number of clients,
//!   concurrently — resolves to the same campaign directory and never
//!   duplicates work.
//! * **Completed campaigns are served, never re-run.** `/report`,
//!   `/best` and `/pareto` answer straight from the archive with zero
//!   fresh simulations — a `GET` cannot start a simulation — and the
//!   report bytes are identical to `dpm campaign run` on the same spec.
//! * **A campaign runs on one slot at a time.** `enqueue` refuses a
//!   campaign that is already queued or running, and the slot runs it
//!   one baseline group at a time through [`run_cells_with`], checking
//!   for shutdown between groups, so a drained daemon leaves each group
//!   fully archived or untouched. The slot takes no lease; the daemon's
//!   own job board keeps gc and compaction off a campaign it has queued
//!   or running. The daemon runs only campaigns POSTed to it; a campaign
//!   left in the store by anyone else stays as it is until submitted.
//!   Two daemons sharing one store each run what is POSTed to them: they
//!   duplicate work but write identical records.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::archive::CampaignArchive;
use crate::http::{
    error_body, read_request, write_error, write_json, BoundedPool, ChunkedWriter, HttpError,
    Request,
};
use crate::objective::{Constraint, MultiObjective, Objective};
use crate::report::run_stats_line;
use crate::runner::{run_cells_with, RunStats, RunnerConfig};
use crate::spec::{CampaignSpec, ScenarioSpec};
use crate::store::{completed_run, grid_json, report_json, status_of, CampaignStore};
use crate::toml_spec::SearchDefaults;

/// Connection-handler threads; each long-poll `/events` stream occupies
/// one for its duration, so the pool is sized above the expected number
/// of concurrent watchers plus control requests.
const HTTP_THREADS: usize = 8;

/// Default `/events` long-poll budget, and its ceiling.
const EVENT_WAIT_DEFAULT_MS: u64 = 30_000;
const EVENT_WAIT_MAX_MS: u64 = 120_000;

/// Poll interval while an `/events` stream waits for archive progress.
const EVENT_POLL_MS: u64 = 100;

/// Options for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, `HOST:PORT` (`:0` picks a free port; the bound
    /// address is printed and returned).
    pub addr: String,
    /// Campaign executor slots: how many submitted campaigns run
    /// concurrently inside the daemon (at least 1). The daemon runs only
    /// campaigns POSTed to it, and resubmitting an incomplete campaign
    /// resumes it from its archive.
    pub job_slots: usize,
    /// Simulation threads per executor slot; `0` = machine parallelism.
    pub threads: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            job_slots: 1,
            threads: 0,
        }
    }
}

/// Lifecycle of one submitted campaign inside the daemon's queue.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobStatus {
    /// Waiting for an executor slot.
    Queued,
    /// An executor slot is running it, group by group.
    Running,
    /// Every cell archived.
    Complete,
    /// Stopped by graceful shutdown; resubmission resumes from the
    /// archive.
    Cancelled,
    /// The run returned an error.
    Failed(String),
}

impl JobStatus {
    /// Queued or running: a slot has the campaign or will take it.
    fn is_active(&self) -> bool {
        matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Complete => "complete",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// The daemon's job queue: pending campaign ids plus the status of every
/// campaign this daemon has touched.
#[derive(Debug, Default)]
struct JobBoard {
    queue: VecDeque<String>,
    status: HashMap<String, JobStatus>,
}

/// Per-campaign event history: NDJSON lines appended as cells are
/// discovered archived, closed by one terminal `complete` event. Streams
/// replay from any cursor, so late or reconnecting clients miss nothing.
#[derive(Debug, Default)]
struct EventLog {
    lines: Vec<String>,
    announced: Vec<bool>,
    terminal: bool,
}

/// Shared daemon state.
#[derive(Debug)]
struct ServerState {
    store: CampaignStore,
    options: ServeOptions,
    addr: SocketAddr,
    /// Accept no new work; flips once, never back.
    shutdown: AtomicBool,
    /// Cooperative cancel for in-flight runs, checked between baseline
    /// groups.
    cancel: AtomicBool,
    jobs: Mutex<JobBoard>,
    jobs_ready: Condvar,
    events: Mutex<HashMap<String, EventLog>>,
    /// Serializes submissions: two concurrent submits of the *same* new
    /// spec would otherwise race their `campaign.toml` tmp+rename.
    submit_lock: Mutex<()>,
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Initiates graceful shutdown: stop accepting, cancel in-flight
    /// runs after their current group, wake every sleeper, and unblock
    /// the accept loop with a self-connection.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.cancel.store(true, Ordering::Relaxed);
        self.jobs_ready.notify_all();
        let _ = TcpStream::connect(self.addr);
    }

    /// Queues a campaign for the executor slots unless it is already
    /// queued or running. Returns the status label after the attempt.
    fn enqueue(&self, id: &str) -> &'static str {
        let mut jobs = self.jobs.lock().expect("job board poisoned");
        if let Some(job) = jobs.status.get(id).filter(|job| job.is_active()) {
            return job.label();
        }
        jobs.status.insert(id.to_string(), JobStatus::Queued);
        jobs.queue.push_back(id.to_string());
        self.jobs_ready.notify_one();
        JobStatus::Queued.label()
    }

    fn job_label(&self, id: &str) -> &'static str {
        let jobs = self.jobs.lock().expect("job board poisoned");
        jobs.status.get(id).map_or("none", JobStatus::label)
    }

    fn job_active(&self, id: &str) -> bool {
        let jobs = self.jobs.lock().expect("job board poisoned");
        jobs.status.get(id).is_some_and(JobStatus::is_active)
    }

    fn set_status(&self, id: &str, status: JobStatus) {
        let mut jobs = self.jobs.lock().expect("job board poisoned");
        jobs.status.insert(id.to_string(), status);
    }

    /// Opens the campaign afresh, so its scan sees every record on disk
    /// (a handle sees no record appended after it opened), and appends
    /// an event line for every newly archived cell, plus the terminal
    /// `complete` line once the grid drains and no slot of this daemon
    /// has the campaign, so a client that saw `complete` may compact it.
    /// Safe to call from any thread, any number of times.
    fn update_events(&self, id: &str) -> Result<(), String> {
        let (archive, spec) = self.store.open_campaign(id)?;
        let states = archive.cell_states(&spec);
        let active = self.job_active(id);
        let mut logs = self.events.lock().expect("event log poisoned");
        let log = logs.entry(id.to_string()).or_default();
        if log.terminal {
            return Ok(());
        }
        log.announced.resize(states.len(), false);
        let mut archived = 0usize;
        for (i, state) in states.iter().enumerate() {
            if *state != crate::archive::CellState::Archived {
                continue;
            }
            archived += 1;
            if !log.announced[i] {
                log.announced[i] = true;
                let seq = log.lines.len();
                log.lines.push(event_line(&[
                    ("seq", serde::Serialize::to_value(&seq)),
                    ("event", serde_json::Value::String("cell".into())),
                    ("index", serde::Serialize::to_value(&i)),
                    ("label", serde_json::Value::String(spec.cell_at(i).label())),
                ]));
            }
        }
        if archived == states.len() && !active {
            let seq = log.lines.len();
            log.lines.push(event_line(&[
                ("seq", serde::Serialize::to_value(&seq)),
                ("event", serde_json::Value::String("complete".into())),
                ("cells", serde::Serialize::to_value(&archived)),
            ]));
            log.terminal = true;
        }
        Ok(())
    }
}

/// One compact JSON object as an NDJSON line.
fn event_line(fields: &[(&str, serde_json::Value)]) -> String {
    serde_json::Value::Object(
        fields
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
    )
    .to_json()
}

/// A running daemon: its bound address plus the handle that joins it.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: std::thread::JoinHandle<()>,
}

impl RunningServer {
    /// The actually-bound address (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon shuts down (via `POST /shutdown`).
    pub fn join(self) {
        let _ = self.accept.join();
    }

    /// Initiates graceful shutdown from the owning process and waits for
    /// the drain: in-flight groups finish, handler and executor threads
    /// join.
    pub fn shutdown(self) {
        self.state.request_shutdown();
        let _ = self.accept.join();
    }
}

/// Binds the address and spawns the daemon: an accept loop feeding a
/// bounded handler pool, plus `job_slots` campaign executor threads.
/// Returns once the socket is listening; the daemon runs until
/// `POST /shutdown` (or [`RunningServer::shutdown`]).
///
/// # Errors
///
/// Returns a description when `job_slots` is 0, the store root cannot be
/// opened or the address cannot be bound.
pub fn spawn(root: &Path, options: ServeOptions) -> Result<RunningServer, String> {
    if options.job_slots == 0 {
        return Err("a daemon needs at least one executor slot".into());
    }
    let store = CampaignStore::open(root)?;
    let listener = TcpListener::bind(&options.addr)
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let state = Arc::new(ServerState {
        store,
        options: options.clone(),
        addr,
        shutdown: AtomicBool::new(false),
        cancel: AtomicBool::new(false),
        jobs: Mutex::new(JobBoard::default()),
        jobs_ready: Condvar::new(),
        events: Mutex::new(HashMap::new()),
        submit_lock: Mutex::new(()),
    });

    let executors: Vec<_> = (0..options.job_slots)
        .map(|slot| {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("dpm-serve-exec-{slot}"))
                .spawn(move || executor_loop(&state))
                .expect("spawn executor thread")
        })
        .collect();

    let pool = {
        let state = Arc::clone(&state);
        BoundedPool::new(HTTP_THREADS, move |stream| {
            handle_connection(&state, stream);
        })
    };

    let accept = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("dpm-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if state.shutting_down() {
                        break;
                    }
                    match conn {
                        Ok(stream) => pool.submit(stream),
                        Err(_) => {
                            if state.shutting_down() {
                                break;
                            }
                        }
                    }
                }
                // drain: finish queued connections, then the executors
                pool.shutdown();
                for handle in executors {
                    let _ = handle.join();
                }
            })
            .expect("spawn accept thread")
    };

    Ok(RunningServer {
        addr,
        state,
        accept,
    })
}

/// One executor slot: wait for a queued campaign, run it, record the
/// outcome.
fn executor_loop(state: &ServerState) {
    loop {
        let id = {
            let mut jobs = state.jobs.lock().expect("job board poisoned");
            loop {
                if state.shutting_down() {
                    return;
                }
                if let Some(id) = jobs.queue.pop_front() {
                    jobs.status.insert(id.clone(), JobStatus::Running);
                    break id;
                }
                jobs = state.jobs_ready.wait(jobs).expect("job board poisoned");
            }
        };
        let status = run_one(state, &id);
        state.set_status(&id, status);
        let _ = state.update_events(&id);
    }
}

/// Runs one campaign on this slot and says how it ended.
fn run_one(state: &ServerState, id: &str) -> JobStatus {
    let config = RunnerConfig {
        threads: state.options.threads,
        ..RunnerConfig::default()
    };
    let run = state
        .store
        .open_campaign(id)
        .and_then(|(archive, spec)| run_by_group(&spec, &config, &archive, &state.cancel));
    match run {
        Ok(Some(stats)) => {
            println!(
                "dpm serve: campaign {id} complete; {}",
                run_stats_line(&stats)
            );
            JobStatus::Complete
        }
        Ok(None) => JobStatus::Cancelled,
        Err(e) => {
            eprintln!("dpm serve: campaign {id} failed: {e}");
            JobStatus::Failed(e)
        }
    }
}

/// Runs `spec` one baseline group at a time ([`CampaignSpec::group_of`])
/// through [`run_cells_with`], each group a cache-less call: a group
/// lies inside one trace key and holds every run its cells share, so the
/// call drops its one skeleton and baseline once the group's runs are
/// done and the next group loses nothing.
/// `cancel` is checked before each group, so a cancelled run leaves
/// every group it reached fully archived and the rest untouched.
/// Returns the summed work, or `None` once `cancel` is seen.
///
/// # Errors
///
/// Returns a description when the spec is invalid or a record cannot be
/// stored.
fn run_by_group(
    spec: &CampaignSpec,
    config: &RunnerConfig,
    archive: &CampaignArchive,
    cancel: &AtomicBool,
) -> Result<Option<RunStats>, String> {
    spec.validate()?;
    let mut groups: Vec<Vec<ScenarioSpec>> = vec![Vec::new(); spec.group_count()];
    for cell in spec.expand() {
        groups[spec.group_of(cell.index)].push(cell);
    }
    let mut stats = RunStats::default();
    for cells in &groups {
        if cancel.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let run = run_cells_with(spec, cells, config, Some(archive), None)?;
        if let Some(e) = run.archive_errors.into_iter().next() {
            return Err(e);
        }
        stats.absorb(&run.stats);
    }
    Ok(Some(stats))
}

/// Reads one request and routes it; every protocol failure becomes a
/// JSON error response, every handler panic a 500.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    // a stalled or silent client must not pin a handler thread forever
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(10)));
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
        Err(HttpError::TooLarge(n)) => {
            let _ = write_error(
                &mut stream,
                413,
                &format!("request body of {n} bytes exceeds the limit"),
            );
            return;
        }
        Err(HttpError::Malformed(m)) => {
            let _ = write_error(&mut stream, 400, &format!("malformed request: {m}"));
            return;
        }
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        route(state, &request, &mut stream)
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(_)) => {} // client hung up mid-response; nothing to salvage
        Err(_) => {
            let _ = write_error(&mut stream, 500, "internal error (handler panicked)");
        }
    }
}

/// Maps `(method, path)` to a handler.
fn route(state: &ServerState, request: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let segments = request.segments();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", []) | ("GET", ["healthz"]) => write_json(
            stream,
            200,
            &serde_json::Value::Object(vec![
                ("ok".into(), serde_json::Value::Bool(true)),
                (
                    "service".into(),
                    serde_json::Value::String("dpm serve".into()),
                ),
                (
                    "draining".into(),
                    serde_json::Value::Bool(state.shutting_down()),
                ),
            ])
            .to_json(),
        ),
        ("POST", ["shutdown"]) => {
            let reply = write_json(stream, 200, "{\"ok\": true, \"draining\": true}");
            state.request_shutdown();
            reply
        }
        ("POST", ["campaigns"]) => submit(state, request, stream),
        ("GET", ["campaigns"]) => list(state, stream),
        ("GET", ["campaigns", id]) => campaign_grid(state, id, stream),
        ("GET", ["campaigns", id, "report"]) => report(state, id, request, stream),
        ("GET", ["campaigns", id, "best"]) => best(state, id, request, stream),
        ("GET", ["campaigns", id, "pareto"]) => pareto(state, id, request, stream),
        ("GET", ["campaigns", id, "events"]) => events(state, id, request, stream),
        ("POST", ["campaigns", id, "gc"]) => maintain(state, id, stream, "gc", CampaignStore::gc),
        ("POST", ["campaigns", id, "compact"]) => {
            maintain(state, id, stream, "compact", CampaignStore::compact)
        }
        (_, [] | ["healthz"] | ["shutdown"] | ["campaigns", ..]) => write_error(
            stream,
            405,
            &format!("method {} not allowed here", request.method),
        ),
        _ => write_error(stream, 404, &format!("no route for {}", request.path)),
    }
}

/// `POST /campaigns`: parse the spec (TOML, or JSON when the body leads
/// with `{`), dedup into the store, queue execution if incomplete.
fn submit(state: &ServerState, request: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    if state.shutting_down() {
        return write_error(stream, 503, "shutting down; not accepting campaigns");
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return write_error(stream, 400, "spec must be UTF-8 text"),
    };
    let submission = {
        let _guard = state.submit_lock.lock().expect("submit lock poisoned");
        if body.trim_start().starts_with('{') {
            serde_json::from_str::<crate::spec::CampaignSpec>(body)
                .map_err(|e| format!("invalid JSON spec: {e}"))
                .and_then(|spec| state.store.submit_spec(spec, SearchDefaults::default()))
        } else {
            state.store.submit_toml(body)
        }
    };
    let submission = match submission {
        Ok(s) => s,
        Err(e) => return write_error(stream, 400, &e),
    };
    let status = status_of(&submission.id, &submission.archive, &submission.spec);
    let job = if status.complete() {
        state.set_status(&submission.id, JobStatus::Complete);
        JobStatus::Complete.label()
    } else {
        state.enqueue(&submission.id)
    };
    let _ = state.update_events(&submission.id);
    let mut doc = match serde::Serialize::to_value(&status) {
        serde_json::Value::Object(fields) => fields,
        _ => unreachable!("a struct serializes to an object"),
    };
    doc.push((
        "existed".into(),
        serde_json::Value::Bool(submission.existed),
    ));
    doc.push(("job".into(), serde_json::Value::String(job.into())));
    let code = if submission.existed { 200 } else { 201 };
    write_json(
        stream,
        code,
        &serde_json::Value::Object(doc).to_json_pretty(),
    )
}

/// `GET /campaigns`: every campaign in the store, with job status.
fn list(state: &ServerState, stream: &mut TcpStream) -> std::io::Result<()> {
    let statuses = match state.store.list() {
        Ok(s) => s,
        Err(e) => return write_error(stream, 500, &e),
    };
    let campaigns: Vec<serde_json::Value> = statuses
        .iter()
        .map(|status| {
            let mut fields = match serde::Serialize::to_value(status) {
                serde_json::Value::Object(fields) => fields,
                _ => unreachable!("a struct serializes to an object"),
            };
            fields.push((
                "job".into(),
                serde_json::Value::String(state.job_label(&status.id).into()),
            ));
            serde_json::Value::Object(fields)
        })
        .collect();
    let doc = serde_json::Value::Object(vec![
        ("count".into(), serde::Serialize::to_value(&campaigns.len())),
        ("campaigns".into(), serde_json::Value::Array(campaigns)),
    ]);
    write_json(stream, 200, &doc.to_json_pretty())
}

/// `GET /campaigns/{id}`: the grid with per-cell lifecycle states —
/// exactly the `dpm campaign list --format json` document.
fn campaign_grid(state: &ServerState, id: &str, stream: &mut TcpStream) -> std::io::Result<()> {
    let (archive, spec) = match state.store.open_campaign(id) {
        Ok(pair) => pair,
        Err(e) => return write_error(stream, 404, &e),
    };
    let states = archive.cell_states(&spec);
    write_json(stream, 200, &grid_json(&spec, Some(&states)))
}

/// Loads a campaign only if complete; otherwise answers 409 with
/// progress. The completeness gate is what guarantees a `GET` performs
/// **zero** simulations: either every cell is served from the archive,
/// or nothing is.
fn complete_or_conflict(
    state: &ServerState,
    id: &str,
    stream: &mut TcpStream,
) -> std::io::Result<Option<(crate::runner::CampaignResult, crate::runner::RunStats)>> {
    let (archive, spec) = match state.store.open_campaign(id) {
        Ok(pair) => pair,
        Err(e) => {
            write_error(stream, 404, &e)?;
            return Ok(None);
        }
    };
    match completed_run(&archive, &spec) {
        Ok(pair) => Ok(Some(pair)),
        Err(archived) => {
            let body = serde_json::Value::Object(vec![
                (
                    "error".into(),
                    serde_json::Value::String("campaign incomplete".into()),
                ),
                ("status".into(), serde::Serialize::to_value(&409u16)),
                ("archived".into(), serde::Serialize::to_value(&archived)),
                (
                    "cells".into(),
                    serde::Serialize::to_value(&spec.scenario_count()),
                ),
                (
                    "job".into(),
                    serde_json::Value::String(state.job_label(id).into()),
                ),
            ]);
            write_json(stream, 409, &body.to_json())?;
            Ok(None)
        }
    }
}

/// `GET /campaigns/{id}/report`: the campaign report, byte-identical to
/// `dpm campaign run --format json` on the same spec.
fn report(
    state: &ServerState,
    id: &str,
    request: &Request,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let Some((result, stats)) = complete_or_conflict(state, id, stream)? else {
        return Ok(());
    };
    let per_scenario = matches!(request.query_param("per_scenario"), Some("1" | "true"));
    let body = report_json(&result, per_scenario).expect("shim serializer never fails");
    // the service's honest accounting: a served report simulates nothing
    println!(
        "dpm serve: report {id} from archive; {}",
        run_stats_line(&stats)
    );
    write_json(stream, 200, &body)
}

/// Parses `?objective=`/`?constraint=` into an [`Objective`].
fn objective_from(request: &Request) -> Result<Objective, String> {
    let objective = Objective::parse(request.query_param("objective").unwrap_or("energy_saving"))?;
    match request.query_param("constraint") {
        Some(c) => Ok(objective.with_constraint(Constraint::parse(c)?)),
        None => Ok(objective),
    }
}

/// `GET /campaigns/{id}/best`: the best cell under the objective —
/// the cell a full-budget `dpm search` would report.
fn best(
    state: &ServerState,
    id: &str,
    request: &Request,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let objective = match objective_from(request) {
        Ok(o) => o,
        Err(e) => return write_error(stream, 400, &e),
    };
    let Some((result, stats)) = complete_or_conflict(state, id, stream)? else {
        return Ok(());
    };
    let best = crate::store::best_of(&result, &objective);
    println!(
        "dpm serve: best {id} from archive; {}",
        run_stats_line(&stats)
    );
    let doc = serde_json::Value::Object(vec![
        (
            "objective".into(),
            serde_json::Value::String(objective.describe()),
        ),
        (
            "best".into(),
            best.map_or(serde_json::Value::Null, |b| serde::Serialize::to_value(&b)),
        ),
    ]);
    write_json(stream, 200, &doc.to_json_pretty())
}

/// `GET /campaigns/{id}/pareto`: the non-dominated front under
/// `?objectives=a,b` (default `energy_saving,min:delay`).
fn pareto(
    state: &ServerState,
    id: &str,
    request: &Request,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let objectives = request
        .query_param("objectives")
        .unwrap_or("energy_saving,min:delay");
    let objectives = match MultiObjective::parse(objectives).and_then(|m| {
        match request.query_param("constraint") {
            Some(c) => Ok(m.with_constraint(Constraint::parse(c)?)),
            None => Ok(m),
        }
    }) {
        Ok(m) => m,
        Err(e) => return write_error(stream, 400, &e),
    };
    let Some((result, stats)) = complete_or_conflict(state, id, stream)? else {
        return Ok(());
    };
    let front = crate::store::front_of(&result, &objectives);
    println!(
        "dpm serve: pareto {id} from archive; {}",
        run_stats_line(&stats)
    );
    let doc = serde_json::Value::Object(vec![
        (
            "objectives".into(),
            serde_json::Value::String(objectives.describe()),
        ),
        ("size".into(), serde::Serialize::to_value(&front.len())),
        ("front".into(), serde::Serialize::to_value(&front)),
    ]);
    write_json(stream, 200, &doc.to_json_pretty())
}

/// The non-negative integer query parameter `name`, or `default` when
/// it is absent.
fn query_number<T: std::str::FromStr>(
    request: &Request,
    name: &str,
    default: T,
) -> Result<T, String> {
    request.query_param(name).map_or(Ok(default), |raw| {
        raw.parse()
            .map_err(|_| format!("invalid ?{name}= {raw:?}: expected a non-negative integer"))
    })
}

/// `GET /campaigns/{id}/events`: chunked NDJSON long-poll. Replays the
/// event log from `?since=N`, then follows archive progress until the
/// campaign completes, the `?wait_ms=` budget runs out, or the daemon
/// shuts down. Each line is one event with a `seq` cursor; resume by
/// passing the last seen `seq + 1` as `since`.
fn events(
    state: &ServerState,
    id: &str,
    request: &Request,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    if let Err(e) = state.store.open_campaign(id) {
        return write_error(stream, 404, &e);
    }
    // an unparseable cursor or wait is a client bug: reject it loudly
    // instead of silently replaying from 0 or waiting the default
    let since = query_number(request, "since", 0usize);
    let wait_ms = query_number(request, "wait_ms", EVENT_WAIT_DEFAULT_MS);
    let (since, wait_ms) = match (since, wait_ms) {
        (Ok(since), Ok(wait_ms)) => (since, wait_ms.min(EVENT_WAIT_MAX_MS)),
        (Err(e), _) | (_, Err(e)) => return write_error(stream, 400, &e),
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(wait_ms);
    let mut writer = ChunkedWriter::begin(&mut *stream, 200, "application/x-ndjson")?;
    let mut cursor = since;
    loop {
        if let Err(e) = state.update_events(id) {
            writer.chunk(format!("{}\n", error_body(500, &e)).as_bytes())?;
            break;
        }
        let (fresh, terminal) = {
            let logs = state.events.lock().expect("event log poisoned");
            let log = logs.get(id).expect("update_events created the log");
            let fresh: Vec<String> = log.lines.get(cursor..).unwrap_or(&[]).to_vec();
            (fresh, log.terminal)
        };
        for line in &fresh {
            cursor += 1;
            writer.chunk(format!("{line}\n").as_bytes())?;
        }
        if terminal || state.shutting_down() || std::time::Instant::now() >= deadline {
            break;
        }
        // sleep in short slices, re-checking the shutdown flag: a
        // long-polling client must never make POST /shutdown wait out
        // the remainder of a full poll tick before the drain completes
        let mut remaining = EVENT_POLL_MS;
        while remaining > 0 && !state.shutting_down() {
            let slice = remaining.min(5);
            std::thread::sleep(std::time::Duration::from_millis(slice));
            remaining -= slice;
        }
    }
    writer.finish()
}

/// `POST /campaigns/{id}/gc` and `POST /campaigns/{id}/compact`: archive
/// maintenance by `op`, reported as JSON. Both delete segment files: gc
/// deletes a segment holding no complete frame, which includes the one a
/// running slot has just created and not yet appended to, and compaction
/// deletes every old segment. So a campaign this daemon has queued or
/// running refuses with 409 naming its job state; the client retries
/// once the campaign's events report complete. The job board stays
/// locked while `op` runs, so no slot can start the campaign meanwhile.
fn maintain<R: serde::Serialize>(
    state: &ServerState,
    id: &str,
    stream: &mut TcpStream,
    verb: &str,
    op: impl FnOnce(&CampaignStore, &str) -> Result<R, String>,
) -> std::io::Result<()> {
    let jobs = state.jobs.lock().expect("job board poisoned");
    if let Some(job) = jobs.status.get(id).filter(|job| job.is_active()) {
        let busy = format!(
            "cannot {verb}: campaign {id} is {} on this daemon; retry once its events \
             report complete",
            job.label()
        );
        drop(jobs);
        return write_error(stream, 409, &busy);
    }
    let outcome = op(&state.store, id);
    drop(jobs);
    match outcome {
        Ok(report) => {
            let body = serde_json::to_string_pretty(&report).expect("shim serializer never fails");
            write_json(stream, 200, &body)
        }
        Err(e) => write_error(stream, 404, &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_campaign_with;
    use crate::spec::{BatteryAxis, ControllerAxis, ThermalAxis, TuningAxis, WorkloadAxis};

    /// Two baseline groups; the timeout cells' tuning siblings share runs.
    fn two_group_spec() -> CampaignSpec {
        CampaignSpec {
            name: "slot".into(),
            horizon_ms: 5,
            master_seed: 3,
            initial_soc: 0.9,
            controllers: vec![
                ControllerAxis::Dpm,
                ControllerAxis::AlwaysOn,
                ControllerAxis::Timeout500us,
            ],
            tunings: vec![TuningAxis::Paper, TuningAxis::Eager],
            workloads: vec![WorkloadAxis::Low],
            seeds: vec![1, 2],
            batteries: vec![BatteryAxis::Linear],
            thermals: vec![ThermalAxis::Cool],
            ip_counts: vec![1],
        }
    }

    #[test]
    fn the_group_loop_stops_before_any_group_once_cancelled() {
        let spec = two_group_spec();
        assert_eq!(spec.group_count(), 2);
        let dir = std::env::temp_dir().join(format!("dpm-server-test-{}-slot", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let serial = RunnerConfig::serial();

        // a raised flag: cancelled, and nothing stored or claimed
        let cancel = AtomicBool::new(true);
        let run = run_by_group(&spec, &serial, &archive, &cancel).unwrap();
        assert!(run.is_none(), "a cancelled loop reports cancelled");
        assert_eq!(archive.load(&spec, &spec.expand()).loaded, 0);
        let entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries, ["campaign.toml"]);

        // lowered: the loop runs the grid with a sweep's work and results
        cancel.store(false, Ordering::Relaxed);
        let stats = run_by_group(&spec, &serial, &archive, &cancel)
            .unwrap()
            .expect("an uncancelled loop completes");
        let sweep = run_campaign_with(&spec, &serial, None).unwrap();
        assert_eq!(stats, sweep.stats);
        let load = archive.load(&spec, &spec.expand());
        let stored: Vec<_> = load.slots.into_iter().map(Option::unwrap).collect();
        assert_eq!(stored, sweep.result.results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_status_labels_are_stable_api() {
        assert_eq!(JobStatus::Queued.label(), "queued");
        assert_eq!(JobStatus::Running.label(), "running");
        assert_eq!(JobStatus::Complete.label(), "complete");
        assert_eq!(JobStatus::Cancelled.label(), "cancelled");
        assert_eq!(JobStatus::Failed("x".into()).label(), "failed");
    }

    #[test]
    fn serve_options_default_to_one_slot_on_an_ephemeral_port() {
        let o = ServeOptions::default();
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.job_slots, 1);
    }

    #[test]
    fn event_lines_are_compact_json() {
        let line = event_line(&[
            ("seq", serde::Serialize::to_value(&3usize)),
            ("event", serde_json::Value::String("cell".into())),
        ]);
        assert_eq!(line, "{\"seq\":3,\"event\":\"cell\"}");
    }
}
