//! Append-only segment files: the cell store that scales to 10^5–10^6
//! cell grids where one-JSON-file-per-cell falls over (file-count
//! limits, directory-scan latency, gc cost).
//!
//! A campaign directory holds a `segments/` subdirectory of numbered
//! log files for fine records, and a `segments-coarse/` one laid out
//! the same for coarse records:
//!
//! ```text
//! <dir>/segments/
//!   seg-0000.log         # length-prefixed, checksummed cell frames
//!   seg-0001.log
//! ```
//!
//! The frame header carries no fidelity, so the directory is what
//! tells a fine record from a coarse one.
//!
//! Each frame is a fixed 36-byte little-endian header followed by the
//! payload (the cell's compact-JSON [`CellRecord`]):
//!
//! ```text
//! magic       [u8;4]  b"DPS1" — segment frame format, version 1
//! version     u32     record layout version (ARCHIVE_VERSION at write)
//! len         u32     payload length in bytes
//! index       u64     grid cell index
//! fingerprint u64     spec fingerprint (ties the frame to its grid)
//! checksum    u64     FNV-1a 64 of the payload bytes
//! payload     [len]
//! ```
//!
//! [`CellRecord`]: crate::archive::CellRecord
//!
//! # Concurrency model
//!
//! Every writing process appends to its **own** segment file, allocated
//! with `create_new` semantics — segment files written by other
//! processes are read-only, so no two writers ever interleave within a
//! file. A scan reads each file sequentially and stops at the first
//! incomplete or corrupt frame (torn tail: a writer killed mid-append,
//! or an append still in flight while the scan ran). A permanently-torn
//! tail simply hides the final record — that cell re-runs, and
//! determinism makes the re-run byte-identical; an in-flight one is
//! whole for any later scan.
//!
//! The in-memory [`SegmentIndex`] maps grid index → (segment, offset,
//! length). It is one scan of the directory plus the records its owner
//! appends, and only its owner's gc and compaction rebuild it: records
//! another handle appends later are seen by a handle opened afterwards.
//! Duplicate records for one cell (two writers of one directory running
//! the same cell) are byte-identical by construction, so
//! first-frame-wins is safe.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame magic; encodes the segment frame layout version. A layout
/// change gets a new magic, and old frames are simply not scanned.
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"DPS1";

/// Fixed frame header length in bytes.
pub(crate) const FRAME_HEADER_LEN: usize = 36;

/// Sanity bound on one frame's payload; anything larger is treated as
/// a corrupt length field (and therefore a torn tail).
pub(crate) const MAX_FRAME_PAYLOAD: u32 = 1 << 26;

/// FNV-1a 64-bit over `bytes` (same function the spec fingerprint
/// uses; no dependency beyond wrapping arithmetic).
pub(crate) fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// One decoded frame header, located within its segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frame {
    /// Grid cell index.
    pub index: u64,
    /// Spec fingerprint the frame was written under.
    pub fingerprint: u64,
    /// Record layout version ([`crate::archive::ARCHIVE_VERSION`]).
    pub version: u32,
    /// Byte offset of the payload within the segment file.
    pub payload_offset: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// Encodes one frame (header + payload) ready to append.
pub(crate) fn encode_frame(index: u64, fingerprint: u64, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&SEGMENT_MAGIC);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&index.to_le_bytes());
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Scans a segment file, returning every valid frame. The scan stops at
/// the first incomplete or corrupt frame (bad magic, absurd length,
/// checksum mismatch, truncated read): everything past it is a torn
/// tail.
pub(crate) fn scan_segment(path: &Path) -> std::io::Result<Vec<Frame>> {
    let mut reader = std::io::BufReader::new(File::open(path)?);
    let mut frames = Vec::new();
    let mut pos = 0;
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut payload = Vec::new();
    loop {
        if read_exact_or_eof(&mut reader, &mut header)?.is_none() {
            break;
        }
        if header[..4] != SEGMENT_MAGIC {
            break;
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if len > MAX_FRAME_PAYLOAD {
            break;
        }
        let index = u64::from_le_bytes(header[12..20].try_into().unwrap());
        let fingerprint = u64::from_le_bytes(header[20..28].try_into().unwrap());
        let checksum = u64::from_le_bytes(header[28..36].try_into().unwrap());
        payload.resize(len as usize, 0);
        if read_exact_or_eof(&mut reader, &mut payload)?.is_none() {
            break;
        }
        if fnv1a_64(&payload) != checksum {
            break;
        }
        frames.push(Frame {
            index,
            fingerprint,
            version,
            payload_offset: pos + FRAME_HEADER_LEN as u64,
            payload_len: len,
        });
        pos += (FRAME_HEADER_LEN + len as usize) as u64;
    }
    Ok(frames)
}

/// `read_exact` that maps a short read (including zero bytes) to
/// `None` instead of an error — a torn tail, not an I/O failure.
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<Option<()>> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Ok(None),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(()))
}

/// The numbered path of one segment file.
pub(crate) fn segment_path(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("seg-{number:04}.log"))
}

/// Parses a segment file name (`seg-NNNN.log`) numerically; width is
/// irrelevant, so numbering never breaks past 4 digits.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")
        .and_then(|rest| rest.strip_suffix(".log"))
        .and_then(|digits| digits.parse::<u64>().ok())
}

/// Lists the segment files present in `dir`, sorted numerically. A
/// missing directory is an empty archive, not an error.
pub(crate) fn list_segments(dir: &Path) -> Result<BTreeMap<u64, PathBuf>, String> {
    let mut found = BTreeMap::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(format!("cannot list {}: {e}", dir.display())),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(number) = parse_segment_name(name) {
            found.insert(number, path);
        }
    }
    Ok(found)
}

/// Where one indexed record lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexEntry {
    /// Segment number (`seg-NNNN.log`).
    pub segment: u64,
    /// Byte offset of the payload within the segment file.
    pub payload_offset: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// In-memory map of grid index → segment record: one scan of the
/// segment directory plus the records its owner appends.
///
/// Only frames carrying the expected fingerprint and record version are
/// indexed; foreign frames are skipped (their cells read as missing).
/// First frame wins: duplicates are byte-identical by construction.
#[derive(Debug)]
pub(crate) struct SegmentIndex {
    dir: PathBuf,
    fingerprint: u64,
    version: u32,
    /// Every segment the index knows, by number.
    segments: BTreeMap<u64, PathBuf>,
    entries: HashMap<usize, IndexEntry>,
}

impl SegmentIndex {
    /// Indexes every segment file in `dir` (the `segments/` directory
    /// itself; a missing one is empty) in one pass.
    pub(crate) fn scan(dir: PathBuf, fingerprint: u64, version: u32) -> Result<Self, String> {
        let segments = list_segments(&dir)?;
        let mut entries = HashMap::new();
        for (&segment, path) in &segments {
            let frames = match scan_segment(path) {
                Ok(frames) => frames,
                // deleted since the listing by a gc or compaction of
                // another handle: absent
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(format!("cannot scan {}: {e}", path.display())),
            };
            for frame in frames {
                if frame.fingerprint != fingerprint || frame.version != version {
                    continue;
                }
                let Ok(index) = usize::try_from(frame.index) else {
                    continue;
                };
                entries.entry(index).or_insert(IndexEntry {
                    segment,
                    payload_offset: frame.payload_offset,
                    payload_len: frame.payload_len,
                });
            }
        }
        Ok(Self {
            dir,
            fingerprint,
            version,
            segments,
            entries,
        })
    }

    /// Replaces the index with a fresh [`scan`](Self::scan) of its
    /// directory (after gc or compaction rewrote the segment set). On
    /// an error the index stays as it was.
    pub(crate) fn rescan(&mut self) -> Result<(), String> {
        *self = Self::scan(self.dir.clone(), self.fingerprint, self.version)?;
        Ok(())
    }

    /// Number of indexed records.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether `index` has an indexed record.
    pub(crate) fn contains(&self, index: usize) -> bool {
        self.entries.contains_key(&index)
    }

    /// The indexed grid indices (unordered).
    pub(crate) fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.keys().copied()
    }

    /// Registers a record its owner just appended to its segment in
    /// this index's directory, so the owner's reads of it are hits.
    pub(crate) fn insert(&mut self, index: usize, entry: IndexEntry) {
        self.segments
            .entry(entry.segment)
            .or_insert_with(|| segment_path(&self.dir, entry.segment));
        self.entries.entry(index).or_insert(entry);
    }

    /// Reads one indexed payload through `open`, the caller's handle on
    /// the segment it read last: a read from the same segment reuses
    /// it, one from another segment replaces it. Callers start a batch
    /// (one archive load, one compaction pass) with `None` and drop the
    /// handle when the batch ends, so no handle outlives it to pin a
    /// segment that compaction deleted. `None` when the cell is not
    /// indexed or its record cannot be read (a gc or compaction of
    /// another handle deleted its segment) — the caller treats that as
    /// a miss.
    pub(crate) fn read(&self, index: usize, open: &mut Option<(u64, File)>) -> Option<Vec<u8>> {
        let entry = self.entries.get(&index)?;
        if !matches!(open, Some((segment, _)) if *segment == entry.segment) {
            let path = self.segments.get(&entry.segment)?;
            *open = Some((entry.segment, File::open(path).ok()?));
        }
        let (_, file) = open.as_mut()?;
        file.seek(SeekFrom::Start(entry.payload_offset)).ok()?;
        let mut payload = vec![0u8; entry.payload_len as usize];
        file.read_exact(&mut payload).ok()?;
        Some(payload)
    }
}

/// This process's private append handle. Each writer owns the segment
/// file it created (`create_new`); no two processes ever append to the
/// same file. A failed append poisons the open segment — the next
/// append starts a fresh one, so a torn tail is never appended past.
#[derive(Debug, Default)]
pub(crate) struct SegmentWriter {
    open: Option<OpenSegment>,
}

#[derive(Debug)]
struct OpenSegment {
    number: u64,
    path: PathBuf,
    file: File,
    /// Bytes written so far (== file length; this writer is the only
    /// appender).
    end: u64,
}

impl SegmentWriter {
    /// Appends one frame to this process's segment under `dir`,
    /// creating the directory and allocating a fresh segment file on
    /// first use (or after a failed append). Returns where it landed.
    pub(crate) fn append(
        &mut self,
        dir: &Path,
        index: usize,
        fingerprint: u64,
        version: u32,
        payload: &[u8],
    ) -> Result<IndexEntry, String> {
        if self.open.is_none() {
            let (number, path, file) = create_segment(dir)?;
            self.open = Some(OpenSegment {
                number,
                path,
                file,
                end: 0,
            });
        }
        let seg = self.open.as_mut().expect("segment allocated above");
        let frame = encode_frame(index as u64, fingerprint, version, payload);
        if let Err(e) = seg.file.write_all(&frame).and_then(|()| seg.file.flush()) {
            let path = seg.path.clone();
            // poison: never append after a possibly-torn tail
            self.open = None;
            return Err(format!("cannot append to {}: {e}", path.display()));
        }
        let payload_offset = seg.end + FRAME_HEADER_LEN as u64;
        seg.end += frame.len() as u64;
        Ok(IndexEntry {
            segment: seg.number,
            payload_offset,
            payload_len: payload.len() as u32,
        })
    }

    /// Closes the open segment (e.g. after compaction deleted it); the
    /// next append allocates a fresh one.
    pub(crate) fn close(&mut self) {
        self.open = None;
    }
}

/// Creates `dir` if needed and claims the next free segment number with
/// `create_new`, so concurrent writers always get distinct files. Returns
/// the number, its path and the new empty file.
pub(crate) fn create_segment(dir: &Path) -> Result<(u64, PathBuf, File), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut number = list_segments(dir)?.keys().next_back().map_or(0, |n| n + 1);
    loop {
        let path = segment_path(dir, number);
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(file) => return Ok((number, path, file)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => number += 1,
            Err(e) => return Err(format!("cannot create {}: {e}", path.display())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpm-segment-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frames_round_trip_through_a_scan() {
        let dir = tmp_dir("roundtrip");
        let mut writer = SegmentWriter::default();
        let payloads: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![], vec![0xFF; 300]];
        for (i, p) in payloads.iter().enumerate() {
            writer.append(&dir, i, 0xFEED, 1, p).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1, "one writer, one segment");
        let path = segs.values().next().unwrap();
        let frames = scan_segment(path).unwrap();
        assert_eq!(frames.len(), payloads.len());
        let last = frames.last().unwrap();
        assert_eq!(
            last.payload_offset + u64::from(last.payload_len),
            std::fs::metadata(path).unwrap().len()
        );
        for (i, (frame, p)) in frames.iter().zip(&payloads).enumerate() {
            assert_eq!(frame.index, i as u64);
            assert_eq!(frame.fingerprint, 0xFEED);
            assert_eq!(frame.version, 1);
            assert_eq!(frame.payload_len, p.len() as u32);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scans_stop_at_torn_tails_and_heal_on_completion() {
        let dir = tmp_dir("torn");
        let mut writer = SegmentWriter::default();
        writer.append(&dir, 0, 7, 1, b"whole").unwrap();
        let a = writer.append(&dir, 1, 7, 1, b"torn-away").unwrap();
        let path = segment_path(&dir, a.segment);
        let full = std::fs::metadata(&path).unwrap().len();
        // tear the final record mid-payload
        let torn_len = full - 4;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(torn_len).unwrap();
        drop(f);
        let frames = scan_segment(&path).unwrap();
        assert_eq!(frames.len(), 1, "torn frame is skipped");
        assert_eq!(frames[0].index, 0);
        let torn_start = frames[0].payload_offset + u64::from(frames[0].payload_len);
        assert!(torn_start < torn_len);
        // the append completes (simulated): restore the missing bytes
        let mut restored = std::fs::read(&path).unwrap();
        let replay = encode_frame(1, 7, 1, b"torn-away");
        restored.truncate(torn_start as usize);
        restored.extend_from_slice(&replay);
        std::fs::write(&path, &restored).unwrap();
        let frames = scan_segment(&path).unwrap();
        assert_eq!(frames.len(), 2, "a later scan sees the completed frame");
        assert_eq!(frames[1].index, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_skips_foreign_frames_and_first_frame_wins() {
        let dir = tmp_dir("index");
        let mut writer = SegmentWriter::default();
        writer.append(&dir, 0, 42, 1, b"ours").unwrap();
        writer.append(&dir, 1, 99, 1, b"foreign fp").unwrap();
        writer.append(&dir, 2, 42, 2, b"foreign version").unwrap();
        writer.append(&dir, 0, 42, 1, b"duplicate").unwrap();
        let index = SegmentIndex::scan(dir.clone(), 42, 1).unwrap();
        assert_eq!(index.len(), 1);
        assert_eq!(index.read(0, &mut None).unwrap(), b"ours");
        assert!(!index.contains(1));
        assert!(!index.contains(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rescan_drops_vanished_segments_and_indexes_new_ones() {
        let dir = tmp_dir("rescan");
        let mut writer = SegmentWriter::default();
        let doomed = writer.append(&dir, 3, 5, 1, b"doomed").unwrap();
        let mut index = SegmentIndex::scan(dir.clone(), 5, 1).unwrap();
        assert!(index.contains(3));
        std::fs::remove_file(segment_path(&dir, doomed.segment)).unwrap();
        SegmentWriter::default()
            .append(&dir, 4, 5, 1, b"later")
            .unwrap();
        assert!(!index.contains(4), "a scan does not follow other writers");
        index.rescan().unwrap();
        assert!(!index.contains(3), "entry dropped with its segment");
        assert_eq!(index.read(4, &mut None).unwrap(), b"later");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writers_allocate_distinct_segments() {
        let dir = tmp_dir("distinct");
        let mut a = SegmentWriter::default();
        let mut b = SegmentWriter::default();
        let wa = a.append(&dir, 0, 1, 1, b"a").unwrap();
        let wb = b.append(&dir, 1, 1, 1, b"b").unwrap();
        assert_ne!(wa.segment, wb.segment);
        let index = SegmentIndex::scan(dir.clone(), 1, 1).unwrap();
        assert_eq!(index.read(0, &mut None).unwrap(), b"a");
        assert_eq!(index.read(1, &mut None).unwrap(), b"b");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_handle_follows_a_batch_across_segments() {
        let dir = tmp_dir("handle");
        let mut a = SegmentWriter::default();
        let mut b = SegmentWriter::default();
        for i in 0..6 {
            let writer = if i % 2 == 0 { &mut a } else { &mut b };
            writer
                .append(&dir, i, 1, 1, format!("cell {i}").as_bytes())
                .unwrap();
        }
        let index = SegmentIndex::scan(dir.clone(), 1, 1).unwrap();
        let mut open = None;
        for i in [0, 2, 4, 1, 3, 5, 0, 1, 2, 3] {
            let payload = index.read(i, &mut open).unwrap();
            assert_eq!(payload, format!("cell {i}").as_bytes());
            let expected = if i % 2 == 0 { 0 } else { 1 };
            assert_eq!(open.as_ref().map(|(segment, _)| *segment), Some(expected));
        }
        // a miss leaves the handle as it was
        assert!(index.read(99, &mut open).is_none());
        assert_eq!(open.as_ref().map(|(segment, _)| *segment), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
