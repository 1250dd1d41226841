//! Per-scenario campaign archives: resumable sweeps.
//!
//! A campaign directory holds the spec that produced it and one
//! versioned record per completed grid cell, appended as a checksummed
//! `DPS1` frame to a segment file:
//!
//! ```text
//! <dir>/
//!   campaign.toml          # the spec, as written by CampaignSpec::to_toml
//!   segments/
//!     seg-0000.log         # append-only CellRecord frames (see segment.rs)
//!     seg-0001.log
//!   segments-coarse/       # the same, for coarse (screening) records
//! ```
//!
//! Records are **appended to segment files** — length-prefixed,
//! checksummed frames in `segments/seg-NNNN.log`, one private segment
//! per writing process — and located through an in-memory index (see
//! `segment.rs`). A handle's index is one scan of the directory at open
//! plus the records the handle appends itself, so a handle never sees
//! records another handle appends after it opened: an observer that
//! wants them opens a new handle, as every `dpm serve` query does. A
//! segment directory exists once a record has been stored in it.
//! [`CampaignArchive::compact`] rewrites each store's live records into
//! a single fresh segment via an atomic tmp+rename, dropping torn tails
//! and duplicates.
//!
//! Records carry the archive format version, a fingerprint of the spec,
//! and the full seed derivation (`master_seed` + the cell's
//! [`ScenarioSpec`]), so a resume can prove each record it reads belongs
//! to the grid being run: anything stale — different spec, different
//! format version, index out of range, a mismatched cell — is skipped
//! and silently re-run. A resume reads one record per configuration
//! (see [`crate::runner`]); for the other cells of a configuration it
//! trusts the index, whose scan checked each frame's checksum,
//! fingerprint and version. Failed (panicked) cells are never archived;
//! a resume retries them.
//!
//! Because the JSON layer round-trips `f64` bit-identically (shortest
//! representation, see the serde shim), a campaign resumed from any mix
//! of archived and fresh cells aggregates to the **byte-identical**
//! report a cold run produces.
//!
//! Results are never corrupted: a process killed mid-append leaves a
//! torn tail that every scan skips (that cell simply re-runs), so no
//! reader ever loads a truncated record. Two processes appending to one
//! directory stay correct, because each writes its own segment and the
//! index keeps the first frame of a cell; they only duplicate work.
//! [`CampaignArchive::gc`] and [`CampaignArchive::compact`] are the
//! exception: each deletes segment files, so neither may run beside
//! another writer of the directory.
//!
//! # The claim/release pair
//!
//! No run path claims work. [`CampaignArchive::try_claim`] and
//! [`CampaignArchive::release`] remain for one caller, the benchmark's
//! `archive.try_claim_us` probe, and go when the benchmark drops that
//! probe (ROADMAP.md, item 1). A claim creates
//! `leases/group-NNNNN.lease` with `create_new`, so exactly one claimant
//! wins, and writes a [`LeaseRecord`] into it; release removes the file.
//! Nothing else in the archive reads `leases/`.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::runner::{Fidelity, ScenarioMetrics, ScenarioResult};
use crate::segment::{self, SegmentIndex, SegmentWriter};
use crate::spec::{CampaignSpec, ScenarioSpec};

/// Archive format version; bump when [`CellRecord`]'s layout changes.
/// Records with any other version are ignored on load (and re-run).
pub const ARCHIVE_VERSION: u32 = 1;

/// Lease record version, written into every [`LeaseRecord`]. Like the
/// rest of the claim/release pair, it serves only the benchmark's
/// `archive.try_claim_us` probe (see the module docs).
pub const LEASE_VERSION: u32 = 1;

/// Milliseconds since the Unix epoch (the lease heartbeat clock).
fn epoch_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Stable fingerprint of a campaign spec (FNV-1a over its canonical TOML
/// form), used to tie archived cells to the grid that produced them.
pub fn spec_fingerprint(spec: &CampaignSpec) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in spec.to_toml().bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// One archived cell: enough context to prove it belongs to a spec, plus
/// the metrics themselves.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellRecord {
    /// Archive format version ([`ARCHIVE_VERSION`] at write time).
    pub archive_version: u32,
    /// Fingerprint of the producing spec ([`spec_fingerprint`]).
    pub spec_fingerprint: u64,
    /// The spec's master seed (root of every trace-seed derivation).
    pub master_seed: u64,
    /// The spec's horizon in milliseconds.
    pub horizon_ms: u64,
    /// The grid cell, including its index and logical workload seed.
    pub scenario: ScenarioSpec,
    /// The cell's metrics.
    pub metrics: ScenarioMetrics,
    /// The fidelity the metrics were evaluated at. Absent in records
    /// written before multi-fidelity search existed, which were all
    /// full-kernel runs — so a missing tag deserializes as
    /// [`Fidelity::Fine`] and those records read back unchanged.
    /// This is a *tag*, not a layout change: [`ARCHIVE_VERSION`] stays
    /// the same, and a read only accepts records whose tag matches the
    /// requested fidelity (a coarse screen must never be resumed as a
    /// completed fine cell, nor the reverse).
    pub fidelity: Fidelity,
}

/// One claim on disk: the record [`CampaignArchive::try_claim`] writes
/// into the claim file it creates. Only the benchmark's
/// `archive.try_claim_us` probe claims (see the module docs).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LeaseRecord {
    /// Lease format version ([`LEASE_VERSION`] at write time).
    pub lease_version: u32,
    /// Fingerprint of the campaign being worked ([`spec_fingerprint`]).
    pub spec_fingerprint: u64,
    /// The claimed baseline group ([`CampaignSpec::group_of`]).
    pub group: usize,
    /// Unique id of the claimant.
    pub holder: String,
    /// Milliseconds since the Unix epoch at claim time.
    pub heartbeat_ms: u64,
}

/// The claimant of [`CampaignArchive::try_claim`]; the benchmark's
/// `archive.try_claim_us` probe is the only one (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseConfig {
    /// Unique id of this claimant (holder of its leases).
    pub holder: String,
}

impl LeaseConfig {
    /// A claimant with a process-unique holder id.
    pub fn for_process() -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        Self {
            holder: format!(
                "pid{}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed),
                epoch_ms(),
            ),
        }
    }
}

/// A held claim on one baseline group, removed by
/// [`CampaignArchive::release`], not on drop. Only the benchmark's
/// `archive.try_claim_us` probe holds one (see the module docs).
#[derive(Debug)]
pub struct WorkLease {
    path: PathBuf,
}

/// Lifecycle state of one grid cell, derived from its records
/// (`dpm campaign list --format json` over a directory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// A valid *fine* (full-kernel) record exists.
    Archived,
    /// A valid record exists, but it is a coarse screening result — the
    /// cell still needs a fine run before it can back a report.
    Screened,
    /// No record.
    Pending,
}

impl CellState {
    /// The JSON/report name of this state.
    pub fn label(self) -> &'static str {
        match self {
            CellState::Archived => "archived",
            CellState::Screened => "screened",
            CellState::Pending => "pending",
        }
    }
}

/// What `gc` found and removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct GcReport {
    /// Valid cell records kept.
    pub records_kept: usize,
    /// Stale/foreign/corrupt cell records removed.
    pub records_removed: usize,
    /// Orphaned temporary files removed: interrupted compaction and
    /// spec writes (`*.tmp`), and empty or recordless segment files.
    pub tmp_removed: usize,
}

/// What [`CampaignArchive::compact`] rewrote, summed over both stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CompactReport {
    /// Live records written into the fresh segments.
    pub records: usize,
    /// Old segment files removed after the rewrite.
    pub segments_removed: usize,
    /// Total segment bytes before compaction.
    pub bytes_before: u64,
    /// Segment bytes after compaction (the fresh segments alone).
    pub bytes_after: u64,
}

/// Outcome of loading an archive against an expanded grid.
#[derive(Debug)]
pub struct ArchiveLoad {
    /// One slot per grid cell; `Some` where a valid record was found.
    pub slots: Vec<Option<ScenarioResult>>,
    /// Records accepted.
    pub loaded: usize,
    /// Indexed records that did not load (stale version, foreign spec,
    /// mismatched cell, unparseable JSON, or a segment that another
    /// handle's gc or compaction deleted); those cells re-run.
    pub skipped: usize,
}

/// One batch's reads of one fidelity's segment store through the
/// handle's index, from [`CampaignArchive::records`].
pub(crate) struct RecordReader<'a> {
    archive: &'a CampaignArchive,
    spec: &'a CampaignSpec,
    fidelity: Fidelity,
    state: MutexGuard<'a, SegmentState>,
    /// The segment the last read opened (see [`SegmentIndex::read`]).
    open: Option<(u64, std::fs::File)>,
}

impl RecordReader<'_> {
    /// Whether `cell` has a record in the index. The scan that indexed
    /// its frame checked the frame's checksum, spec fingerprint and
    /// record version; the payload has not been read.
    pub(crate) fn contains(&self, cell: &ScenarioSpec) -> bool {
        self.state.index.contains(cell.index)
    }

    /// Reads `cell`'s record and validates it against the cell, the
    /// spec and the reader's fidelity: its metrics, or `None` when the
    /// record is invalid or cannot be read.
    pub(crate) fn read(&mut self, cell: &ScenarioSpec) -> Option<ScenarioMetrics> {
        let payload = self.state.index.read(cell.index, &mut self.open)?;
        let text = std::str::from_utf8(&payload).ok()?;
        self.archive
            .valid_record(self.spec, cell, text, Some(self.fidelity))
            .map(|rec| rec.metrics)
    }
}

/// The segment-store half of an archive handle: the in-memory index
/// plus this handle's private append handle, behind one lock so that
/// the worker threads storing cells and a batch reading them share one
/// index.
#[derive(Debug)]
struct SegmentState {
    index: SegmentIndex,
    writer: SegmentWriter,
}

/// A campaign directory opened against a specific spec.
///
/// Fine and coarse records live in **separate segment stores**
/// (`segments/` and `segments-coarse/`): the segment layer's
/// first-frame-wins index is only sound while every frame for a cell
/// is byte-identical, which holds within one fidelity but not across
/// two. Keeping the stores apart preserves that invariant and lets a
/// cell hold a coarse screen *and* a fine result at once — each read
/// fidelity hits its own cache.
///
/// Each store's index is the scan made at open plus this handle's own
/// appends; only this handle's [`gc`](Self::gc) and
/// [`compact`](Self::compact) rescan it.
#[derive(Debug)]
pub struct CampaignArchive {
    dir: PathBuf,
    fingerprint: u64,
    fine: Mutex<SegmentState>,
    coarse: Mutex<SegmentState>,
}

/// The segment directory of one fidelity's store under `dir`.
fn segments_dir(dir: &Path, fidelity: Fidelity) -> PathBuf {
    dir.join(match fidelity {
        Fidelity::Fine => "segments",
        Fidelity::Coarse => "segments-coarse",
    })
}

impl CampaignArchive {
    /// Opens (creating if necessary) a campaign directory for `spec`.
    ///
    /// A fresh directory gets `campaign.toml` written; an existing one
    /// must have been created for the *same* spec — resuming a different
    /// grid into it is refused.
    ///
    /// # Errors
    ///
    /// Returns a description when the spec is invalid, the directory
    /// cannot be created or written, or it already holds a different
    /// campaign.
    pub fn open(dir: &Path, spec: &CampaignSpec) -> Result<Self, String> {
        // refuse to create (and fingerprint-lock) a directory for a spec
        // that can never run
        spec.validate()?;
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create campaign directory {}: {e}", dir.display()))?;
        let spec_path = dir.join("campaign.toml");
        let fingerprint = spec_fingerprint(spec);
        match std::fs::read_to_string(&spec_path) {
            Ok(existing) => {
                let archived = CampaignSpec::from_toml(&existing)
                    .map_err(|e| format!("{} is not a campaign spec: {e}", spec_path.display()))?;
                if spec_fingerprint(&archived) != fingerprint {
                    return Err(format!(
                        "archive {} holds campaign '{}' with a different grid; \
                         refusing to resume '{}' into it",
                        dir.display(),
                        archived.name,
                        spec.name,
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // tmp + rename, like cell records: a kill mid-write must
                // not leave a truncated campaign.toml that blocks resume
                let tmp = dir.join("campaign.toml.tmp");
                std::fs::write(&tmp, spec.to_toml())
                    .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
                std::fs::rename(&tmp, &spec_path)
                    .map_err(|e| format!("cannot finalize {}: {e}", spec_path.display()))?;
            }
            Err(e) => return Err(format!("cannot read {}: {e}", spec_path.display())),
        }
        Self::scan(dir, fingerprint)
    }

    /// Opens a campaign directory that already exists, recovering the
    /// spec from its `campaign.toml` — the entry point for `campaign
    /// list`, `gc` and `compact` and for the daemon's store, which
    /// receive only the directory.
    ///
    /// # Errors
    ///
    /// Returns a description when the directory or its `campaign.toml`
    /// cannot be read, or the stored spec does not parse.
    pub fn open_existing(dir: &Path) -> Result<(Self, CampaignSpec), String> {
        let spec_path = dir.join("campaign.toml");
        let text = std::fs::read_to_string(&spec_path).map_err(|e| {
            format!(
                "{} is not a campaign directory (cannot read {}: {e})",
                dir.display(),
                spec_path.display(),
            )
        })?;
        let spec = CampaignSpec::from_toml(&text)
            .map_err(|e| format!("{} is not a campaign spec: {e}", spec_path.display()))?;
        let archive = Self::scan(dir, spec_fingerprint(&spec))?;
        Ok((archive, spec))
    }

    /// The handle on the campaign directory `dir` of the spec with
    /// `fingerprint`: each store's index is built up front by one
    /// sequential scan of its segment files, with no JSON parsing —
    /// sub-second even at 10^5 cells.
    fn scan(dir: &Path, fingerprint: u64) -> Result<Self, String> {
        let store = |fidelity| -> Result<Mutex<SegmentState>, String> {
            Ok(Mutex::new(SegmentState {
                index: SegmentIndex::scan(
                    segments_dir(dir, fidelity),
                    fingerprint,
                    ARCHIVE_VERSION,
                )?,
                writer: SegmentWriter::default(),
            }))
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            fingerprint,
            fine: store(Fidelity::Fine)?,
            coarse: store(Fidelity::Coarse)?,
        })
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fingerprint of the spec this archive was opened for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// This handle's state of one fidelity's segment store
    /// (poison-recovering: a worker thread panicking mid-store must not
    /// wedge every later archive access). Code touching both stores
    /// must take the fine lock before the coarse one.
    fn lock(&self, fidelity: Fidelity) -> MutexGuard<'_, SegmentState> {
        match fidelity {
            Fidelity::Fine => &self.fine,
            Fidelity::Coarse => &self.coarse,
        }
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The claim file of one baseline group.
    fn lease_path(&self, group: usize) -> PathBuf {
        self.dir
            .join("leases")
            .join(format!("group-{group:05}.lease"))
    }

    /// Parses and validates one record's text against the cell it
    /// should hold, returning the full record. With `fidelity` set, a
    /// record of any other fidelity is rejected **in both directions**
    /// — a fine record must not satisfy a coarse read either, or a
    /// resumed coarse screen would silently change its numbers. `None`
    /// accepts any fidelity (hygiene passes: gc, compaction, status).
    fn valid_record(
        &self,
        spec: &CampaignSpec,
        cell: &ScenarioSpec,
        text: &str,
        fidelity: Option<Fidelity>,
    ) -> Option<CellRecord> {
        match serde_json::from_str::<CellRecord>(text) {
            Ok(rec)
                if rec.archive_version == ARCHIVE_VERSION
                    && rec.spec_fingerprint == self.fingerprint
                    && rec.master_seed == spec.master_seed
                    && rec.horizon_ms == spec.horizon_ms
                    && rec.scenario == *cell
                    && fidelity.is_none_or(|f| rec.fidelity == f) =>
            {
                Some(rec)
            }
            _ => None,
        }
    }

    /// A batch's reader of `fidelity`'s segment store: it answers which
    /// cells have a record in this handle's index, and reads and
    /// validates records through one open segment handle. The reader
    /// holds the store's lock, and its segment handle, until it is
    /// dropped.
    pub(crate) fn records<'a>(
        &'a self,
        spec: &'a CampaignSpec,
        fidelity: Fidelity,
    ) -> RecordReader<'a> {
        RecordReader {
            archive: self,
            spec,
            fidelity,
            state: self.lock(fidelity),
            open: None,
        }
    }

    /// Loads every valid archived record against the given cells (the
    /// full expanded grid, or any subset of it — records live under their
    /// **grid** index, so a search evaluating scattered cells hits the
    /// same cache an exhaustive sweep fills). Slot `i` of the result
    /// corresponds to `cells[i]`. Invalid or foreign records count as
    /// `skipped` and their cells run fresh. Loads *fine* records only.
    pub fn load(&self, spec: &CampaignSpec, cells: &[ScenarioSpec]) -> ArchiveLoad {
        self.load_as(spec, cells, Fidelity::Fine)
    }

    /// [`load`](Self::load) at an explicit fidelity: reads that
    /// fidelity's segment store; a record of the wrong fidelity that
    /// somehow ended up there counts as `skipped` (its cell runs fresh
    /// at the requested fidelity — never served across the boundary).
    ///
    /// The batch's reads reuse one open handle per segment; no handle
    /// outlives the call.
    pub fn load_as(
        &self,
        spec: &CampaignSpec,
        cells: &[ScenarioSpec],
        fidelity: Fidelity,
    ) -> ArchiveLoad {
        let mut slots: Vec<Option<ScenarioResult>> = vec![None; cells.len()];
        let mut loaded = 0;
        let mut skipped = 0;
        let mut records = self.records(spec, fidelity);
        for (slot, cell) in slots.iter_mut().zip(cells) {
            if !records.contains(cell) {
                continue;
            }
            match records.read(cell) {
                Some(metrics) => {
                    *slot = Some(ScenarioResult {
                        scenario: *cell,
                        metrics: Some(metrics),
                        error: None,
                    });
                    loaded += 1;
                }
                None => skipped += 1,
            }
        }
        ArchiveLoad {
            slots,
            loaded,
            skipped,
        }
    }

    /// Persists one finished cell. Failed cells are not archived (a
    /// resume retries them); storing them is a silent no-op.
    ///
    /// The record is framed (length prefix + checksum) and appended to
    /// this process's segment file; a kill mid-append leaves a torn
    /// tail that every scan detects and skips, never a record that
    /// loads corrupt.
    ///
    /// # Errors
    ///
    /// Returns a description when the record cannot be written.
    pub fn store(&self, spec: &CampaignSpec, result: &ScenarioResult) -> Result<(), String> {
        self.store_as(spec, result, Fidelity::Fine)
    }

    /// [`store`](Self::store) at an explicit fidelity: the record is
    /// appended to that fidelity's segment store. A cell may hold a
    /// coarse screen and a fine result at once — each lives in its own
    /// store, so neither ever shadows the other.
    ///
    /// # Errors
    ///
    /// Returns a description when the record cannot be written.
    pub fn store_as(
        &self,
        spec: &CampaignSpec,
        result: &ScenarioResult,
        fidelity: Fidelity,
    ) -> Result<(), String> {
        let Some(json) = self.encode_record(spec, result, fidelity)? else {
            return Ok(());
        };
        self.append_record(result.scenario.index, fidelity, &json)
    }

    /// Appends one record's text to `fidelity`'s segment store under
    /// grid `index`, and indexes it.
    fn append_record(&self, index: usize, fidelity: Fidelity, json: &str) -> Result<(), String> {
        let dir = segments_dir(&self.dir, fidelity);
        let mut state = self.lock(fidelity);
        let entry = state.writer.append(
            &dir,
            index,
            self.fingerprint,
            ARCHIVE_VERSION,
            json.as_bytes(),
        )?;
        state.index.insert(index, entry);
        Ok(())
    }

    /// The canonical (compact-JSON) record text of one successful
    /// result; `None` for failed cells.
    fn encode_record(
        &self,
        spec: &CampaignSpec,
        result: &ScenarioResult,
        fidelity: Fidelity,
    ) -> Result<Option<String>, String> {
        let Some(metrics) = result.metrics.as_ref() else {
            return Ok(None);
        };
        let record = CellRecord {
            archive_version: ARCHIVE_VERSION,
            spec_fingerprint: self.fingerprint,
            master_seed: spec.master_seed,
            horizon_ms: spec.horizon_ms,
            scenario: result.scenario,
            metrics: metrics.clone(),
            fidelity,
        };
        serde_json::to_string(&record)
            .map(Some)
            .map_err(|e| e.to_string())
    }

    /// Rewrites every live record of each segment store into a single
    /// fresh segment file, dropping torn tails, duplicate frames and
    /// foreign/corrupt records. The new segment is written to a
    /// temporary file and renamed into place, so a kill mid-compaction
    /// never loses a record: the old files are only removed after the
    /// rename lands.
    ///
    /// Records another writer appends during the rewrite are deleted
    /// with the old segments, so compaction must not run beside another
    /// writer of the directory. `dpm serve` refuses
    /// `POST /campaigns/{id}/compact` while it has the campaign queued or
    /// running.
    ///
    /// The report totals cover the fine and the coarse store combined.
    ///
    /// # Errors
    ///
    /// Returns a description when a directory cannot be listed, scanned
    /// or written.
    pub fn compact(&self, spec: &CampaignSpec) -> Result<CompactReport, String> {
        let mut report = CompactReport::default();
        for fidelity in [Fidelity::Fine, Fidelity::Coarse] {
            self.compact_store(spec, fidelity, &mut report)?;
        }
        Ok(report)
    }

    /// Compacts one fidelity's segment store in place.
    fn compact_store(
        &self,
        spec: &CampaignSpec,
        fidelity: Fidelity,
        report: &mut CompactReport,
    ) -> Result<(), String> {
        use std::io::Write as _;
        let n = spec.scenario_count();
        let dir = &segments_dir(&self.dir, fidelity);
        let mut state = self.lock(fidelity);
        // our own open segment is rewritten like any other, and so is
        // every record other handles appended since this one opened
        state.writer.close();
        state.index.rescan()?;
        let old_segments = segment::list_segments(dir)?;
        for path in old_segments.values() {
            report.bytes_before += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        }
        // full-validation pass: canonical record text per live cell;
        // consecutive reads from one segment share one open handle,
        // dropped before any old segment is removed
        let mut records: std::collections::BTreeMap<usize, String> =
            std::collections::BTreeMap::new();
        let mut indices: Vec<usize> = state.index.indices().collect();
        indices.sort_unstable();
        let mut open = None;
        for index in indices {
            if index >= n {
                continue;
            }
            let cell = spec.cell_at(index);
            let Some(payload) = state.index.read(index, &mut open) else {
                continue;
            };
            if let Some(rec) = std::str::from_utf8(&payload)
                .ok()
                .and_then(|text| self.valid_record(spec, &cell, text, None))
            {
                let text = serde_json::to_string(&rec).map_err(|e| e.to_string())?;
                records.insert(index, text);
            }
        }
        drop(open);
        if !records.is_empty() {
            // reserve the target number (concurrent writers allocate
            // past it), build the segment in a temp file, then
            // atomically rename over the reservation
            let (number, target, _) = segment::create_segment(dir)?;
            let tmp = dir.join(format!("seg-{number:04}.log.tmp"));
            let write_all = || -> std::io::Result<()> {
                let file = std::fs::File::create(&tmp)?;
                let mut out = std::io::BufWriter::new(file);
                for (index, text) in &records {
                    out.write_all(&segment::encode_frame(
                        *index as u64,
                        self.fingerprint,
                        ARCHIVE_VERSION,
                        text.as_bytes(),
                    ))?;
                }
                out.flush()
            };
            write_all().map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
            std::fs::rename(&tmp, &target)
                .map_err(|e| format!("cannot finalize {}: {e}", target.display()))?;
            report.bytes_after += std::fs::metadata(&target).map(|m| m.len()).unwrap_or(0);
            report.records += records.len();
        }
        // only now drop the old files: every live record is durable in
        // the fresh segment
        for path in old_segments.values() {
            if std::fs::remove_file(path).is_ok() {
                report.segments_removed += 1;
            }
        }
        state.index.rescan()?;
        Ok(())
    }

    // ---- the benchmark's claim/release pair --------------------------

    /// Tries to claim `group`: creates its claim file with `create_new`
    /// (so exactly one claimant wins) and writes a [`LeaseRecord`] into
    /// it. Returns `None` when the file already exists. The benchmark's
    /// `archive.try_claim_us` probe is the only caller (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// Returns a description when the leases directory cannot be created
    /// or the claim cannot be written.
    pub fn try_claim(
        &self,
        group: usize,
        config: &LeaseConfig,
    ) -> Result<Option<WorkLease>, String> {
        use std::io::Write as _;
        let path = self.lease_path(group);
        let leases = self.dir.join("leases");
        std::fs::create_dir_all(&leases)
            .map_err(|e| format!("cannot create {}: {e}", leases.display()))?;
        let mut file = match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => return Ok(None),
            Err(e) => return Err(format!("cannot claim {}: {e}", path.display())),
        };
        let record = LeaseRecord {
            lease_version: LEASE_VERSION,
            spec_fingerprint: self.fingerprint,
            group,
            holder: config.holder.clone(),
            heartbeat_ms: epoch_ms(),
        };
        let json = serde_json::to_string(&record).map_err(|e| e.to_string())?;
        file.write_all(json.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(Some(WorkLease { path }))
    }

    /// Releases a held claim by removing its file (best-effort). The
    /// benchmark's `archive.try_claim_us` probe is the only caller (see
    /// the module docs).
    pub fn release(&self, lease: WorkLease) {
        let _ = std::fs::remove_file(&lease.path);
    }

    /// The lifecycle state of every grid cell, as this handle's index
    /// knows it (see [`CampaignArchive`]).
    ///
    /// Cells are judged by index membership alone: a cell in the
    /// `segments/` index is archived, and one only in the separate
    /// `segments-coarse/` index is a coarse screen
    /// ([`CellState::Screened`]). Every indexed frame already passed the
    /// checksum, fingerprint and version checks during the scan, so no
    /// segment payload is read or parsed here, which keeps a full-status
    /// sweep sub-second at 10^5 cells.
    pub fn cell_states(&self, spec: &CampaignSpec) -> Vec<CellState> {
        let n = spec.scenario_count();
        let indexed = |fidelity| -> Vec<bool> {
            let state = self.lock(fidelity);
            (0..n).map(|i| state.index.contains(i)).collect()
        };
        let archived = indexed(Fidelity::Fine);
        // a cell with only a coarse record is *screened*: ranked by the
        // fast path, but still pending as far as fine results go
        let screened = indexed(Fidelity::Coarse);
        (0..n)
            .map(|i| {
                if archived[i] {
                    CellState::Archived
                } else if screened[i] {
                    CellState::Screened
                } else {
                    CellState::Pending
                }
            })
            .collect()
    }

    /// Archive hygiene: removes cell records that can never be loaded
    /// for `spec` (foreign fingerprint, stale version, corrupt JSON,
    /// out-of-range index), segment files holding no live record, and
    /// orphaned temporary files. Valid records and the segment files
    /// holding them are left untouched — invalid frames *inside* a
    /// segment that also holds live records are
    /// [`compact`](Self::compact)'s job, since removing them means
    /// rewriting the file.
    ///
    /// A writer creates its segment empty and then appends to it, so gc
    /// would delete a segment another writer has just created, and that
    /// writer's later records with it: gc must not run beside another
    /// writer of the directory. `dpm serve` refuses
    /// `POST /campaigns/{id}/gc` while it has the campaign queued or
    /// running.
    ///
    /// # Errors
    ///
    /// Returns a description when a directory listing or a removal
    /// fails (a missing segment directory is fine).
    pub fn gc(&self, spec: &CampaignSpec) -> Result<GcReport, String> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut report = GcReport::default();
        let remove = |path: &Path| -> Result<(), String> {
            std::fs::remove_file(path).map_err(|e| format!("cannot remove {}: {e}", path.display()))
        };
        let n = spec.scenario_count();
        for fidelity in [Fidelity::Fine, Fidelity::Coarse] {
            for entry in read_dir_or_empty(&segments_dir(&self.dir, fidelity))? {
                let path = entry?;
                let name = path.file_name().and_then(|f| f.to_str()).unwrap_or("");
                if name.ends_with(".tmp") {
                    remove(&path)?;
                    report.tmp_removed += 1;
                    continue;
                }
                if segment::parse_segment_name(name).is_none() {
                    continue; // not ours; leave unknown files alone
                }
                let frames = segment::scan_segment(&path)
                    .map_err(|e| format!("cannot scan {}: {e}", path.display()))?;
                let mut valid = 0;
                let mut invalid = 0;
                if !frames.is_empty() {
                    let mut file = std::fs::File::open(&path)
                        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
                    for frame in &frames {
                        let ok = frame.fingerprint == self.fingerprint
                            && frame.version == ARCHIVE_VERSION
                            && usize::try_from(frame.index).is_ok_and(|index| {
                                index < n && {
                                    let mut payload = vec![0u8; frame.payload_len as usize];
                                    file.seek(SeekFrom::Start(frame.payload_offset)).is_ok()
                                        && file.read_exact(&mut payload).is_ok()
                                        && std::str::from_utf8(&payload).is_ok_and(|text| {
                                            self.valid_record(
                                                spec,
                                                &spec.cell_at(index),
                                                text,
                                                None,
                                            )
                                            .is_some()
                                        })
                                }
                            });
                        if ok {
                            valid += 1;
                        } else {
                            invalid += 1;
                        }
                    }
                }
                if valid > 0 {
                    report.records_kept += valid;
                } else if invalid > 0 {
                    remove(&path)?;
                    report.records_removed += invalid;
                } else {
                    // empty or pure-garbage segment (a writer killed
                    // between allocation and its first append)
                    remove(&path)?;
                    report.tmp_removed += 1;
                }
            }
        }
        // removing dead segments invalidates any index entries into
        // them: rebuild both indexes
        if report.records_removed > 0 || report.tmp_removed > 0 {
            for fidelity in [Fidelity::Fine, Fidelity::Coarse] {
                self.lock(fidelity).index.rescan()?;
            }
        }
        // a kill between `campaign.toml.tmp` write and its rename leaves
        // the temp spec at the directory root
        let spec_tmp = self.dir.join("campaign.toml.tmp");
        if spec_tmp.is_file() {
            remove(&spec_tmp)?;
            report.tmp_removed += 1;
        }
        Ok(report)
    }
}

/// Directory entries as paths; a missing directory yields nothing.
fn read_dir_or_empty(dir: &Path) -> Result<Vec<Result<PathBuf, String>>, String> {
    match std::fs::read_dir(dir) {
        Ok(entries) => Ok(entries
            .map(|e| {
                e.map(|e| e.path())
                    .map_err(|e| format!("cannot list {}: {e}", dir.display()))
            })
            .collect()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("cannot list {}: {e}", dir.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_campaign, RunnerConfig};
    use crate::spec::{BatteryAxis, ControllerAxis, ThermalAxis, TuningAxis, WorkloadAxis};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpm-archive-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "archive_tiny".into(),
            horizon_ms: 5,
            master_seed: 11,
            initial_soc: 0.9,
            controllers: vec![ControllerAxis::Dpm],
            tunings: vec![TuningAxis::Paper],
            workloads: vec![WorkloadAxis::Low],
            seeds: vec![1, 2],
            batteries: vec![BatteryAxis::Linear],
            thermals: vec![ThermalAxis::Cool],
            ip_counts: vec![1],
        }
    }

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let spec = tiny_spec();
        assert_eq!(spec_fingerprint(&spec), spec_fingerprint(&spec.clone()));
        let mut other = spec.clone();
        other.master_seed += 1;
        assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&other));
    }

    #[test]
    fn records_round_trip_through_the_store() {
        let spec = tiny_spec();
        let dir = tmp_dir("roundtrip");
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let result = run_campaign(&spec, &RunnerConfig::serial());
        for r in &result.results {
            archive.store(&spec, r).unwrap();
        }
        let load = archive.load(&spec, &spec.expand());
        assert_eq!(load.loaded, spec.scenario_count());
        assert_eq!(load.skipped, 0);
        for (slot, fresh) in load.slots.iter().zip(&result.results) {
            assert_eq!(slot.as_ref().unwrap(), fresh);
        }
        // the spec plus the one store written to, nothing else
        let mut entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        entries.sort();
        assert_eq!(entries, ["campaign.toml", "segments"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_spec_records_are_skipped_and_foreign_dirs_refused() {
        let spec = tiny_spec();
        let dir = tmp_dir("foreign");
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let result = run_campaign(&spec, &RunnerConfig::serial());

        // same directory, different grid: open refuses outright
        let mut other = spec.clone();
        other.seeds = vec![7, 8, 9];
        let err = CampaignArchive::open(&dir, &other).unwrap_err();
        assert!(err.contains("different grid"), "{err}");

        // a record written with a stale version (in an intact frame) is
        // skipped, not loaded
        let stale = archive
            .encode_record(&spec, &result.results[0], Fidelity::Fine)
            .unwrap()
            .unwrap()
            .replace("\"archive_version\":1", "\"archive_version\":0");
        archive.append_record(0, Fidelity::Fine, &stale).unwrap();
        let load = archive.load(&spec, &spec.expand());
        assert_eq!(load.loaded, 0);
        assert_eq!(load.skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_records_are_skipped() {
        let spec = tiny_spec();
        let dir = tmp_dir("corrupt");
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        archive
            .append_record(1, Fidelity::Fine, "{ not json")
            .unwrap();
        let load = archive.load(&spec, &spec.expand());
        assert_eq!(load.loaded, 0);
        assert_eq!(load.skipped, 1);
        assert!(load.slots.iter().all(Option::is_none));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_existing_recovers_the_spec_from_the_directory() {
        let spec = tiny_spec();
        let dir = tmp_dir("open-existing");
        let _ = CampaignArchive::open(&dir, &spec).unwrap();
        let (archive, recovered) = CampaignArchive::open_existing(&dir).unwrap();
        assert_eq!(recovered, spec);
        assert_eq!(archive.fingerprint(), spec_fingerprint(&spec));
        let err = CampaignArchive::open_existing(&dir.join("nope")).unwrap_err();
        assert!(err.contains("not a campaign directory"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claims_are_exclusive_until_released() {
        let spec = tiny_spec();
        let dir = tmp_dir("claims");
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let cfg = LeaseConfig::for_process();
        let lease = archive
            .try_claim(0, &cfg)
            .unwrap()
            .expect("first claim wins");
        // the claim file holds this claimant's record
        let text = std::fs::read_to_string(archive.lease_path(0)).unwrap();
        let record: LeaseRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(record.lease_version, LEASE_VERSION);
        assert_eq!(record.spec_fingerprint, archive.fingerprint());
        assert_eq!(record.group, 0);
        assert_eq!(record.holder, cfg.holder);
        // a second claimant is refused while the file exists
        let other = LeaseConfig::for_process();
        assert!(archive.try_claim(0, &other).unwrap().is_none());
        // other groups are independent
        assert!(archive.try_claim(1, &other).unwrap().is_some());
        archive.release(lease);
        assert!(!archive.lease_path(0).exists());
        assert!(archive.try_claim(0, &other).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_valid_state_and_removes_garbage() {
        let spec = tiny_spec();
        let dir = tmp_dir("gc");
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let result = run_campaign(&spec, &RunnerConfig::serial());
        for r in &result.results {
            archive.store(&spec, r).unwrap();
        }
        // garbage: a corrupt record (in a second handle's segment), an
        // orphan compaction tmp, and an interrupted spec write at the root
        CampaignArchive::open(&dir, &spec)
            .unwrap()
            .append_record(1, Fidelity::Fine, "{ corrupt")
            .unwrap();
        std::fs::write(dir.join("segments").join("seg-0009.log.tmp"), "x").unwrap();
        std::fs::write(dir.join("campaign.toml.tmp"), "name = ").unwrap();

        let report = archive.gc(&spec).unwrap();
        // every stored cell is a live segment frame; the corrupt record,
        // alone in its segment, is the one record removed
        assert_eq!(report.records_kept, spec.scenario_count());
        assert_eq!(report.records_removed, 1);
        assert_eq!(
            report.tmp_removed, 2,
            "the compaction tmp + the interrupted spec write"
        );
        assert!(!dir.join("campaign.toml.tmp").exists());
        // sweeping hygiene never touches the spec itself
        assert!(dir.join("campaign.toml").is_file());
        // the valid records survived
        let load = archive.load(&spec, &spec.expand());
        assert_eq!(load.loaded, spec.scenario_count());
        assert_eq!(load.skipped, 0, "gc removed everything unloadable");
        // and a second pass finds nothing left to do
        let again = archive.gc(&spec).unwrap();
        assert_eq!((again.records_removed, again.tmp_removed), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_states_reflect_records() {
        let spec = tiny_spec();
        let dir = tmp_dir("cell-states");
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let result = run_campaign(&spec, &RunnerConfig::serial());
        archive.store(&spec, &result.results[0]).unwrap();
        let states = archive.cell_states(&spec);
        assert_eq!(states, [CellState::Archived, CellState::Pending]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coarse_and_fine_records_live_in_separate_stores() {
        let spec = tiny_spec();
        let dir = tmp_dir("fidelity-coexist");
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let fine = run_campaign(&spec, &RunnerConfig::serial());
        let coarse = run_campaign(
            &spec,
            &RunnerConfig::serial().with_fidelity(Fidelity::Coarse),
        );
        // a full coarse screen ...
        for r in &coarse.results {
            archive.store_as(&spec, r, Fidelity::Coarse).unwrap();
        }
        // ... never satisfies a fine read
        let load = archive.load(&spec, &spec.expand());
        assert_eq!(load.loaded, 0, "screens must not stand in for fine cells");
        // cell 0 then completes at fine fidelity
        archive.store(&spec, &fine.results[0]).unwrap();
        let cell = [spec.cell_at(0)];
        let got = archive.load(&spec, &cell).slots.pop().flatten();
        assert_eq!(got.as_ref(), Some(&fine.results[0]));
        // the coarse record coexists, unshadowed — a resumed screen
        // replays byte-identically from its own store
        let got = archive
            .load_as(&spec, &cell, Fidelity::Coarse)
            .slots
            .pop()
            .flatten();
        assert_eq!(got.as_ref(), Some(&coarse.results[0]));
        // and the fine record never leaks into coarse reads
        let screen = archive.load_as(&spec, &spec.expand(), Fidelity::Coarse);
        assert_eq!(screen.loaded, spec.scenario_count());
        for (slot, want) in screen.slots.iter().zip(&coarse.results) {
            assert_eq!(slot.as_ref().unwrap(), want);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_without_a_fidelity_tag_read_as_fine() {
        // records written before the fidelity tag existed carry no
        // "fidelity" key; a missing tag decodes as fine, so such a record
        // satisfies a fine read and is skipped by a coarse one
        let spec = tiny_spec();
        let dir = tmp_dir("fidelity-untagged");
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let coarse = run_campaign(
            &spec,
            &RunnerConfig::serial().with_fidelity(Fidelity::Coarse),
        );
        let result = &coarse.results[0];
        let tagged = archive
            .encode_record(&spec, result, Fidelity::Coarse)
            .unwrap()
            .unwrap();
        let untagged = tagged.replace(",\"fidelity\":\"coarse\"", "");
        assert!(!untagged.contains("fidelity"), "{untagged}");
        for fidelity in [Fidelity::Fine, Fidelity::Coarse] {
            archive
                .append_record(result.scenario.index, fidelity, &untagged)
                .unwrap();
        }
        let cells = [spec.cell_at(0)];
        // the appending handle, and a reopened one whose index comes from
        // the segment scan alone, answer alike
        for handle in [archive, CampaignArchive::open(&dir, &spec).unwrap()] {
            let fine = handle.load(&spec, &cells);
            assert_eq!((fine.loaded, fine.skipped), (1, 0));
            assert_eq!(fine.slots[0].as_ref(), Some(result));
            let screen = handle.load_as(&spec, &cells, Fidelity::Coarse);
            assert_eq!((screen.loaded, screen.skipped), (0, 1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coarse_only_cells_report_screened() {
        let spec = tiny_spec();
        let dir = tmp_dir("fidelity-states");
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let coarse = run_campaign(
            &spec,
            &RunnerConfig::serial().with_fidelity(Fidelity::Coarse),
        );
        for r in &coarse.results {
            archive.store_as(&spec, r, Fidelity::Coarse).unwrap();
        }
        let states = archive.cell_states(&spec);
        assert!(
            states.iter().all(|&s| s == CellState::Screened),
            "{states:?}"
        );
        // a fine completion promotes the cell past "screened"
        let fine = run_campaign(&spec, &RunnerConfig::serial());
        archive.store(&spec, &fine.results[0]).unwrap();
        let states = archive.cell_states(&spec);
        assert_eq!(states[0], CellState::Archived);
        assert_eq!(states[1], CellState::Screened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_and_gc_preserve_both_fidelity_stores() {
        let spec = tiny_spec();
        let dir = tmp_dir("fidelity-compact");
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let fine = run_campaign(&spec, &RunnerConfig::serial());
        let coarse = run_campaign(
            &spec,
            &RunnerConfig::serial().with_fidelity(Fidelity::Coarse),
        );
        for r in &coarse.results {
            archive.store_as(&spec, r, Fidelity::Coarse).unwrap();
        }
        for r in &fine.results {
            archive.store(&spec, r).unwrap();
        }
        let report = archive.compact(&spec).unwrap();
        assert_eq!(report.records, 2 * spec.scenario_count());
        let gc = archive.gc(&spec).unwrap();
        assert_eq!(gc.records_kept, 2 * spec.scenario_count());
        assert_eq!(gc.records_removed, 0);
        let fine_load = archive.load(&spec, &spec.expand());
        assert_eq!(fine_load.loaded, spec.scenario_count());
        let coarse_load = archive.load_as(&spec, &spec.expand(), Fidelity::Coarse);
        assert_eq!(coarse_load.loaded, spec.scenario_count());
        for (slot, want) in coarse_load.slots.iter().zip(&coarse.results) {
            assert_eq!(slot.as_ref().unwrap(), want);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rewrites_two_segments_into_one() {
        let spec = tiny_spec();
        let dir = tmp_dir("compact");
        let result = run_campaign(&spec, &RunnerConfig::serial());
        // two writer handles → two segment files
        let a = CampaignArchive::open(&dir, &spec).unwrap();
        let b = CampaignArchive::open(&dir, &spec).unwrap();
        a.store(&spec, &result.results[0]).unwrap();
        b.store(&spec, &result.results[1]).unwrap();
        // a handle opened after both stores indexes both segments
        let before = archive_reference(&CampaignArchive::open(&dir, &spec).unwrap(), &spec);

        let report = a.compact(&spec).unwrap();
        assert_eq!(report.records, spec.scenario_count());
        assert_eq!(report.segments_removed, 2);
        assert!(report.bytes_after > 0);
        let segments = std::fs::read_dir(dir.join("segments"))
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".log"))
            .count();
        assert_eq!(segments, 1, "one fresh segment holds everything");

        // same handle and a fresh one both load identically
        assert_eq!(archive_reference(&a, &spec), before);
        let reopened = CampaignArchive::open(&dir, &spec).unwrap();
        assert_eq!(archive_reference(&reopened, &spec), before);

        // compaction is idempotent
        let again = reopened.compact(&spec).unwrap();
        assert_eq!(again.records, spec.scenario_count());
        assert_eq!(archive_reference(&reopened, &spec), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The loaded results of every cell, for before/after comparisons.
    fn archive_reference(
        archive: &CampaignArchive,
        spec: &CampaignSpec,
    ) -> Vec<Option<ScenarioResult>> {
        archive.load(spec, &spec.expand()).slots
    }

    #[test]
    fn gc_removes_segments_without_live_records() {
        let spec = tiny_spec();
        let dir = tmp_dir("gc-dead-segment");
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        let segdir = dir.join("segments");
        std::fs::create_dir_all(&segdir).unwrap();
        // a segment of foreign frames only, an empty one, and an
        // orphaned compaction temp
        let frame = crate::segment::encode_frame(0, 0xDEAD_BEEF, ARCHIVE_VERSION, b"{}");
        std::fs::write(segdir.join("seg-0007.log"), &frame).unwrap();
        std::fs::write(segdir.join("seg-0008.log"), b"").unwrap();
        std::fs::write(segdir.join("seg-0009.log.tmp"), b"half a rewrite").unwrap();
        let report = archive.gc(&spec).unwrap();
        assert_eq!(report.records_removed, 1, "the foreign frame");
        assert_eq!(report.tmp_removed, 2, "empty segment + compaction temp");
        assert!(!segdir.join("seg-0007.log").exists());
        assert!(!segdir.join("seg-0008.log").exists());
        assert!(!segdir.join("seg-0009.log.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_location_is_a_clear_error() {
        let file = std::env::temp_dir().join(format!("dpm-archive-file-{}", std::process::id()));
        std::fs::write(&file, "x").unwrap();
        // a path *under* a regular file can never become a directory
        let err = CampaignArchive::open(&file.join("sub"), &tiny_spec()).unwrap_err();
        assert!(err.contains("cannot create campaign directory"), "{err}");
        let _ = std::fs::remove_file(&file);
    }
}
