//! Write-ahead log: logical redo records in checksummed binary frames.
//!
//! The file starts with a 12-byte header (magic `UDBMSWAL`, format
//! version); each commit then appends one frame — `[len u32][crc32
//! u32][payload]` — listing every write (collection name, key, new value
//! or tombstone). The layout and the value codec are `codec.rs`; the
//! commit path encodes its frame straight from the transaction's own
//! values. Recovery replays frames in order into a fresh engine. A
//! checkpoint rewrites the log as the current live state at a snapshot
//! plus every later commit, bounding replay time.
//!
//! ## Crash tolerance
//!
//! A crash mid-append leaves a *torn tail*: a final frame that is short,
//! fails its checksum, or is zeros. [`Wal::scan`] tolerates exactly
//! that — it returns every record of the longest valid prefix and
//! reports how many trailing bytes it ignored. A damaged frame with an
//! intact frame after it is a different animal (bit rot, a bug) and
//! fails recovery with the record index and byte offset, as does an
//! intact frame whose commit timestamp does not follow its
//! predecessor's, and a file without the header, which is never
//! modified. [`Wal::recover`] additionally truncates the file to the
//! valid prefix so subsequent appends start at a frame boundary.
//!
//! Appends go through one `BufWriter`: [`Wal::flush`] is one `write()`
//! syscall per batch, [`Wal::sync_data`] an `fdatasync`.
//!
//! ## Locking
//!
//! A [`Wal`] is deliberately lock-free itself: `group.rs` owns the one
//! instance behind its rank-tracked file mutex
//! (`parking_lot::LockRank::WalFile`, last of the engine's I/O locks),
//! so every method here may assume exclusive access and never blocks on
//! another engine lock.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use udbms_core::{Error, Key, Result, Ts, TxnId, Value};

pub(crate) mod codec;
pub mod fault;

use fault::{Action, FaultPlan};

/// One logged commit.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Commit timestamp.
    pub commit_ts: Ts,
    /// Writing transaction.
    pub txn: TxnId,
    /// Writes in apply order: `(collection, key, value-or-tombstone)`.
    pub writes: Vec<(String, Key, Option<Value>)>,
}

impl WalRecord {
    /// Append this record's frame to `out`.
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        let writes = self.writes.iter();
        let entries = writes.map(|(c, k, v)| (c.as_str(), k, v.as_ref()));
        codec::push_frame(out, self.commit_ts, self.txn, entries)
    }
}

/// Every record's frame, in order.
fn encode_all(records: &[WalRecord]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    for rec in records {
        rec.encode(&mut out)?;
    }
    Ok(out)
}

/// What a tolerant WAL read found: the complete records plus the shape
/// of the file they came from.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecovery {
    /// Every intact record, in log order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix holding those records (and
    /// the file header).
    pub valid_bytes: u64,
    /// Torn-tail bytes past the valid prefix (0 = the log ended cleanly).
    pub truncated_bytes: u64,
}

impl WalRecovery {
    /// Whether the log carried a torn tail (crash mid-append).
    pub fn was_torn(&self) -> bool {
        self.truncated_bytes > 0
    }
}

/// A checkpoint rewrite's temp file between [`Wal::prepare_rewrite`]
/// (header and bulk frames written + fsync'd, no lock held) and
/// [`Wal::finish_rewrite`] (tail appended, atomically installed).
#[derive(Debug)]
pub struct PreparedRewrite {
    tmp: PathBuf,
    writer: BufWriter<File>,
}

/// An append-only write-ahead log backed by a file.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    faults: Arc<FaultPlan>,
    /// Reused by [`Wal::append`] to encode one record.
    scratch: Vec<u8>,
}

impl Wal {
    /// Open (creating or appending to) a WAL file.
    pub fn open(path: impl AsRef<Path>) -> Result<Wal> {
        Wal::open_with_faults(path, Arc::new(FaultPlan::none()))
    }

    /// [`Wal::open`] with a fault-injection plan threaded under every
    /// I/O site (see [`fault::SITES`]). A [`FaultPlan::none`] plan costs
    /// one relaxed load per site.
    pub fn open_with_faults(path: impl AsRef<Path>, faults: Arc<FaultPlan>) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        Wal::clean_orphan_tmp(&path)?;
        let writer = BufWriter::new(Wal::with_header(&path)?);
        Ok(Wal {
            path,
            writer,
            faults,
            scratch: Vec::new(),
        })
    }

    /// Make sure the file at `path` starts with the header, writing it
    /// into an empty or missing file; returns the file, open for
    /// appending. A file holding anything else is refused: recovery,
    /// which runs first, either truncated a torn header away or rejected
    /// the file.
    fn with_header(path: &Path) -> Result<File> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(&codec::HEADER)?;
            return Ok(file);
        }
        let mut head = [0; codec::HEADER.len()];
        if file.read_exact(&mut head).is_err() || head != codec::HEADER {
            return Err(Error::Invalid(format!(
                "{} does not start with a write-ahead log header; recover it first",
                path.display()
            )));
        }
        Ok(file)
    }

    /// Remove a stale `<log>.tmp` sibling left by a rewrite that died
    /// between `prepare_rewrite` and the rename. The temp file was
    /// never installed, so its contents are not part of the log; left
    /// behind it would leak disk and confuse the *next* rewrite's
    /// prepare phase.
    fn clean_orphan_tmp(path: &Path) -> Result<()> {
        match std::fs::remove_file(path.with_extension("tmp")) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fault-injection plan threaded under this log's I/O sites.
    pub fn faults(&self) -> &Arc<FaultPlan> {
        &self.faults
    }

    /// Evaluate the fault plan at a non-write site: proceed, snapshot a
    /// crash image and fail, or fail outright.
    fn gate(&self, site: &str) -> Result<()> {
        gate_at(&self.faults, &self.path, site)
    }

    /// Append one commit record. Durability is the caller's business:
    /// call [`Wal::flush`] (and [`Wal::sync_data`]) per batch — the
    /// group-commit drain does exactly that.
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        let mut frame = std::mem::take(&mut self.scratch);
        frame.clear();
        let appended = rec
            .encode(&mut frame)
            .and_then(|()| self.append_frame(&frame));
        self.scratch = frame;
        appended
    }

    /// Append one sealed frame (the commit path encodes its own).
    pub(crate) fn append_frame(&mut self, frame: &[u8]) -> Result<()> {
        match self.faults.on_write("append.write", frame.len()) {
            Action::Proceed => {}
            Action::Short(keep) => {
                // a torn write: exactly `keep` bytes reach the log (and
                // are made OS-visible, so recovery tests see the tear),
                // then the device "fails"
                self.writer.write_all(&frame[..keep])?;
                self.writer.flush()?;
                return Err(injected("append.write", "short write"));
            }
            Action::Crash => return self.crash("append.write"),
            Action::Fail(e) => return Err(e),
        }
        self.writer.write_all(frame)?;
        Ok(())
    }

    /// Make appended records OS-owned (survives process crash): one
    /// `write` syscall for everything appended since the last flush.
    pub fn flush(&mut self) -> Result<()> {
        self.gate("flush")?;
        self.writer.flush()?;
        Ok(())
    }

    /// `fdatasync` the log file (survives power loss). Call after
    /// [`Wal::flush`] — only flushed bytes can be synced.
    pub fn sync_data(&mut self) -> Result<()> {
        self.gate("sync")?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// Read every record of a WAL file in order, tolerating a torn tail
    /// (see [`Wal::scan`] for the full recovery shape). Interior damage
    /// still errors.
    pub fn read_all(path: impl AsRef<Path>) -> Result<Vec<WalRecord>> {
        Ok(Wal::scan(path)?.records)
    }

    /// The log's bytes; a missing file reads as empty.
    fn bytes(path: &Path) -> Result<Vec<u8>> {
        match std::fs::read(path) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    /// Tolerant read of a WAL file: returns every record of the longest
    /// valid prefix. A short, zero or checksum-failing **final** frame is
    /// the signature of a crash mid-append and is reported as truncated
    /// bytes rather than an error; a damaged frame with an intact frame
    /// after it, a malformed payload, a commit timestamp that does not
    /// follow the one before it, or a file without the header is an
    /// error. Does not modify the file — [`Wal::recover`] does.
    pub fn scan(path: impl AsRef<Path>) -> Result<WalRecovery> {
        let bytes = Wal::bytes(path.as_ref())?;
        let mut records = Vec::new();
        let valid = codec::walk(&bytes, |frame, _| {
            records.push(codec::decode(frame)?);
            Ok(())
        })?;
        Ok(WalRecovery {
            records,
            valid_bytes: valid as u64,
            truncated_bytes: (bytes.len() - valid) as u64,
        })
    }

    /// Crash recovery: [`Wal::scan`], then truncate the file to the
    /// valid prefix when a torn tail was found, so the next append
    /// starts at a frame boundary instead of splicing into garbage.
    pub fn recover(path: impl AsRef<Path>) -> Result<WalRecovery> {
        let recovery = Wal::scan(path.as_ref())?;
        if recovery.was_torn() {
            let file = OpenOptions::new().write(true).open(path.as_ref())?;
            file.set_len(recovery.valid_bytes)?;
            file.sync_data()?;
        }
        Ok(recovery)
    }

    /// The raw frames of this log whose commit timestamp is past
    /// `snapshot`, concatenated — checksummed and copied, not decoded.
    pub(crate) fn frames_after(&self, snapshot: Ts) -> Result<Vec<u8>> {
        let bytes = Wal::bytes(&self.path)?;
        let mut tail = Vec::new();
        codec::walk(&bytes, |frame, commit_ts| {
            if commit_ts > snapshot {
                tail.extend_from_slice(frame);
            }
            Ok(())
        })?;
        Ok(tail)
    }

    /// Replace the log's contents with the given records (checkpointing).
    /// Writes to a sibling temp file, fsyncs it, renames it over the
    /// original, then fsyncs the parent directory — without the syncs a
    /// crash just after the rename could surface an empty or missing log
    /// even though `rewrite` returned Ok.
    pub fn rewrite(&mut self, records: &[WalRecord]) -> Result<()> {
        let prepared = Wal::prepare_rewrite(&self.path, &encode_all(records)?, &self.faults)?;
        self.finish_rewrite(prepared, &[])
    }

    /// First phase of a two-phase rewrite: write the header and `frames`
    /// (encoded records) to a sibling temp file and fsync them. Takes no
    /// engine lock and does not touch the live log — the engine's
    /// checkpoint writes the whole-database synthetic frames here,
    /// *outside* the group-commit queue lock, so commits only stall for
    /// [`Wal::finish_rewrite`]'s tail work.
    pub fn prepare_rewrite(
        path: &Path,
        frames: &[u8],
        faults: &FaultPlan,
    ) -> Result<PreparedRewrite> {
        let tmp = path.with_extension("tmp");
        gate_at(faults, path, "rewrite.prepare.create")?;
        let mut writer = BufWriter::new(File::create(&tmp)?);
        gate_at(faults, path, "rewrite.prepare.write")?;
        writer.write_all(&codec::HEADER)?;
        writer.write_all(frames)?;
        writer.flush()?;
        gate_at(faults, path, "rewrite.prepare.sync")?;
        // the bulk of the data syncs here; finish_rewrite's second sync
        // only has the tail pages left to flush
        writer.get_ref().sync_all()?;
        Ok(PreparedRewrite { tmp, writer })
    }

    /// Second phase: append `tail` (encoded records) to the prepared
    /// temp file, fsync, and atomically install it over the log (rename
    /// + parent-dir fsync), then reopen it for appending.
    pub fn finish_rewrite(&mut self, prepared: PreparedRewrite, tail: &[u8]) -> Result<()> {
        let PreparedRewrite { tmp, mut writer } = prepared;
        self.gate("rewrite.finish.write")?;
        writer.write_all(tail)?;
        writer.flush()?;
        self.gate("rewrite.finish.sync")?;
        // data must be on disk before the rename makes it reachable
        writer.get_ref().sync_all()?;
        drop(writer);
        self.gate("rewrite.rename")?;
        std::fs::rename(&tmp, &self.path)?;
        self.gate("rewrite.dirsync")?;
        // persist the rename itself (the directory entry)
        if let Some(parent) = self.path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            File::open(dir)?.sync_all()?;
        }
        self.gate("rewrite.reopen")?;
        // the old handle points at the now-orphaned inode
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        Ok(())
    }

    /// Snapshot the crash image for `site`, then fail the operation.
    fn crash(&self, site: &str) -> Result<()> {
        fault::snapshot_crash_image(&self.faults, &self.path)?;
        Err(injected(site, "crash"))
    }
}

/// The error every injected (non-ENOSPC) fault surfaces as.
fn injected(site: &str, what: &str) -> Error {
    Error::Io(std::io::Error::other(format!(
        "injected {what} at `{site}`"
    )))
}

/// Evaluate `faults` at a non-write site for the log at `path`.
fn gate_at(faults: &FaultPlan, path: &Path, site: &str) -> Result<()> {
    match faults.on_op(site) {
        Action::Proceed => Ok(()),
        Action::Crash => {
            fault::snapshot_crash_image(faults, path)?;
            Err(injected(site, "crash"))
        }
        Action::Fail(e) => Err(e),
        // on_op degrades Short to Fail; keep the match total anyway
        Action::Short(_) => Err(injected(site, "fault")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::obj;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("udbms-wal-test-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample(ts: u64) -> WalRecord {
        WalRecord {
            commit_ts: Ts(ts),
            txn: TxnId(ts * 10),
            writes: vec![
                ("orders".into(), Key::str("o1"), Some(obj! {"total" => 5.0})),
                ("feedback".into(), Key::int(7), None),
            ],
        }
    }

    /// `sample(ts)`'s frame.
    fn frame(ts: u64) -> Vec<u8> {
        encode_all(&[sample(ts)]).unwrap()
    }

    /// A log file holding the header and then `body`.
    fn write_log(path: &Path, body: &[u8]) {
        std::fs::write(path, [&codec::HEADER[..], body].concat()).unwrap();
    }

    #[test]
    fn record_frame_roundtrip() {
        let rec = sample(42);
        let bytes = frame(42);
        assert_eq!(codec::decode(&bytes).unwrap(), rec);
        assert_eq!(codec::frame_stamp(&bytes).unwrap(), (Ts(42), TxnId(420)));
    }

    #[test]
    fn commit_timestamps_must_advance() {
        let path = temp_path("order");
        let synthetic = |ts: u64| {
            let mut rec = sample(ts);
            rec.txn = TxnId(0);
            encode_all(&[rec]).unwrap()
        };
        // a checkpoint's synthetic run shares one timestamp; the tail
        // after it moves on
        let ok = [synthetic(5), synthetic(5), frame(6), frame(7)].concat();
        write_log(&path, &ok);
        assert_eq!(Wal::scan(&path).unwrap().records.len(), 4);
        // each pair goes wrong at its second frame
        let located = format!("record index 1, byte offset {}", 12 + frame(5).len());
        for body in [
            [frame(5), frame(5)].concat(),
            [frame(6), frame(5)].concat(),
            [synthetic(5), frame(5)].concat(),
            [frame(5), synthetic(5)].concat(),
        ] {
            write_log(&path, &body);
            let err = Wal::recover(&path).unwrap_err().to_string();
            assert!(err.contains(&located), "{err}");
            let on_disk = std::fs::read(&path).unwrap();
            assert_eq!(on_disk, [&codec::HEADER[..], &body].concat());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tombstones_and_null_values_stay_distinct() {
        let mut rec = sample(1);
        rec.writes
            .push(("feedback".into(), Key::int(8), Some(Value::Null)));
        let mut bytes = Vec::new();
        rec.encode(&mut bytes).unwrap();
        let back = codec::decode(&bytes).unwrap();
        assert_eq!(back.writes[1].2, None);
        assert_eq!(back.writes[2].2, Some(Value::Null));
    }

    #[test]
    fn append_and_read_back() {
        let path = temp_path("append");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&sample(1)).unwrap();
            wal.append(&sample(2)).unwrap();
            wal.flush().unwrap();
        }
        let recs = Wal::read_all(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].commit_ts, Ts(1));
        assert_eq!(recs[1].commit_ts, Ts(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reading_missing_file_is_empty() {
        assert!(Wal::read_all("/nonexistent/udbms.wal").unwrap().is_empty());
    }

    #[test]
    fn interior_corruption_errors() {
        let path = temp_path("interior");
        let mut body = frame(1);
        body[12] ^= 0x40; // inside the first frame's payload
        body.extend(frame(2));
        write_log(&path, &body);
        assert!(Wal::read_all(&path).is_err());
        assert!(Wal::scan(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_frame_is_tolerated() {
        let path = temp_path("torn");
        let good = frame(1);
        let next = frame(2);
        let mut flipped = next.clone();
        flipped[20] ^= 1;
        for tail in [
            &next[..5],              // a short frame header
            &next[..next.len() / 2], // cut mid-payload
            &next[..next.len() - 1], // one byte short
            &flipped[..],            // complete, but fails its checksum
            &[0u8; 300][..],         // zeros: the size reached the disk, the data did not
        ] {
            write_log(&path, &[&good[..], tail].concat());
            let recovery = Wal::scan(&path).unwrap();
            assert_eq!(recovery.records.len(), 1, "tail {tail:?}");
            let valid = (codec::HEADER.len() + good.len()) as u64;
            assert_eq!(recovery.valid_bytes, valid);
            assert!(recovery.was_torn());
            assert_eq!(recovery.truncated_bytes, tail.len() as u64);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writeback_hole_truncates_instead_of_failing() {
        // power-loss shape: an unflushed page (zeros)
        // followed by a later page that did reach the disk — only
        // unacked data is involved, so recovery truncates at the hole,
        // whether it starts at a frame boundary or inside a frame
        let path = temp_path("hole");
        let good = frame(1);
        let valid = (codec::HEADER.len() + good.len()) as u64;
        let at_boundary = [&good[..], &[0; 4096], &frame(9)].concat();
        let mut mid_frame = [&good[..], &vec![7; 3 * 4096], &frame(9)].concat();
        // zero the second page of the file, inside the second "frame"
        mid_frame[4096 - codec::HEADER.len()..8192 - codec::HEADER.len()].fill(0);
        for body in [at_boundary, mid_frame] {
            write_log(&path, &body);
            let recovery = Wal::recover(&path).unwrap();
            assert_eq!(recovery.records.len(), 1);
            assert_eq!(recovery.records[0].commit_ts, Ts(1));
            assert!(recovery.was_torn());
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                valid,
                "truncated at the hole"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_with_invalid_utf8_is_tolerated() {
        let path = temp_path("torn-utf8");
        write_log(&path, &[&frame(1)[..], &[0xFF, 0xFE, 0x80]].concat());
        let recovery = Wal::scan(&path).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.truncated_bytes, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_truncates_torn_tail_for_clean_appends() {
        let path = temp_path("recover");
        let torn = frame(9);
        write_log(&path, &[&frame(1)[..], &torn[..torn.len() - 4]].concat());
        let recovery = Wal::recover(&path).unwrap();
        assert!(recovery.was_torn());
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            recovery.valid_bytes,
            "file cut back to the last complete record"
        );
        // appending after recovery lands on a frame boundary
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample(2)).unwrap();
        wal.flush().unwrap();
        drop(wal);
        let recs = Wal::read_all(&path).unwrap();
        let tss: Vec<u64> = recs.iter().map(|r| r.commit_ts.0).collect();
        assert_eq!(tss, vec![1, 2]);
        // recovery is idempotent: nothing left to truncate
        let again = Wal::recover(&path).unwrap();
        assert!(!again.was_torn());
        assert_eq!(again.records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unterminated_final_record_is_dropped_not_replayed() {
        // a final frame missing only its last byte holds every write but
        // one byte of the last value; replaying it — or leaving it for
        // the next append to splice into — would both be wrong
        let path = temp_path("unterminated");
        let b = frame(2);
        write_log(&path, &[&frame(1)[..], &b[..b.len() - 1]].concat());
        let recovery = Wal::recover(&path).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.records[0].commit_ts, Ts(1));
        let valid = (codec::HEADER.len() + frame(1).len()) as u64;
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_files_are_refused_untouched() {
        let path = temp_path("foreign");
        let line = r#"{"ts": 1, "txn": 1, "writes": []}"#;
        for content in [format!("{line}\n"), "UDBMSWAL\x02\0\0\0".into()] {
            std::fs::write(&path, &content).unwrap();
            assert!(Wal::recover(&path).is_err(), "{content:?}");
            assert!(Wal::open(&path).is_err(), "{content:?}");
            assert_eq!(std::fs::read(&path).unwrap(), content.as_bytes());
        }
        // a torn header holds nothing yet: it recovers empty
        std::fs::write(&path, &codec::HEADER[..5]).unwrap();
        let recovery = Wal::recover(&path).unwrap();
        assert!(recovery.records.is_empty() && recovery.truncated_bytes == 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_truncates_history() {
        let path = temp_path("rewrite");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.append(&sample(2)).unwrap();
        wal.flush().unwrap();
        wal.rewrite(&[sample(9)]).unwrap();
        wal.append(&sample(10)).unwrap();
        wal.flush().unwrap();
        let recs = Wal::read_all(&path).unwrap();
        let tss: Vec<u64> = recs.iter().map(|r| r.commit_ts.0).collect();
        assert_eq!(tss, vec![9, 10]);
        assert_eq!(wal.frames_after(Ts(9)).unwrap(), frame(10));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_cleans_orphaned_rewrite_tmp() {
        // a rewrite that died between prepare and rename leaves a .tmp
        // sibling that was never part of the log; open must remove it
        let path = temp_path("orphan");
        let tmp = path.with_extension("tmp");
        write_log(&path, &frame(1));
        std::fs::write(&tmp, "half-written checkpoint").unwrap();
        let wal = Wal::open(&path).unwrap();
        assert!(!tmp.exists(), "orphan tmp removed on open");
        drop(wal);
        // the log itself is untouched
        assert_eq!(Wal::read_all(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_write_fault_leaves_recoverable_torn_prefix() {
        let path = temp_path("short");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.flush().unwrap();
        wal.faults().short_write("append.write", 7);
        assert!(wal.append(&sample(2)).is_err());
        drop(wal);
        let recovery = Wal::recover(&path).unwrap();
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.records[0].commit_ts, Ts(1));
        assert!(recovery.was_torn());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_point_snapshots_an_image_and_fails() {
        let path = temp_path("crashpoint");
        let image = temp_path("crashpoint-img");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.flush().unwrap();
        wal.faults().crash_at("flush", &image);
        wal.append(&sample(2)).unwrap();
        assert!(wal.flush().is_err());
        // the image holds the pre-fault on-disk state: record 2 was
        // still in the BufWriter, exactly like a process crash
        let recs = Wal::read_all(&image).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].commit_ts, Ts(1));
        drop(wal);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&image).unwrap();
    }

    #[test]
    fn sticky_sync_fault_fails_every_attempt() {
        let path = temp_path("sticky-sync");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample(1)).unwrap();
        wal.flush().unwrap();
        wal.faults().fail_sticky("sync");
        assert!(wal.sync_data().is_err());
        assert!(wal.sync_data().is_err(), "sticky faults never clear");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_error_names_offset_and_index() {
        let path = temp_path("interior-diag");
        let a = frame(1);
        let mut b = frame(2);
        // a length flipped longer than the file: a truncation if it
        // were the last frame, an error with an intact frame after it
        b[2] ^= 0x10;
        write_log(&path, &[&a[..], &b, &frame(3)].concat());
        let err = Wal::scan(&path).unwrap_err().to_string();
        assert!(err.contains("record index 1"), "{err}");
        let offset = codec::HEADER.len() + a.len();
        assert!(err.contains(&format!("byte offset {offset}")), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_survives_reopen() {
        // the satellite case: rewrite + reopen must see exactly the
        // compacted records (fsyncs around the rename keep a crash here
        // from surfacing an empty log)
        let path = temp_path("rewrite-reopen");
        {
            let mut wal = Wal::open(&path).unwrap();
            for ts in 1..=20 {
                wal.append(&sample(ts)).unwrap();
            }
            wal.flush().unwrap();
            wal.rewrite(&[sample(99)]).unwrap();
        }
        let recovery = Wal::recover(&path).unwrap();
        assert!(!recovery.was_torn());
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.records[0].commit_ts, Ts(99));
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file consumed by the rename"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
