//! The append-only campaign checkpoint journal.
//!
//! Every completed (or terminally failed) cell is appended as one
//! CRC-framed, fsync'd record, so a campaign killed at any instant —
//! including mid-write — resumes by replaying the journal and executing
//! only the cells without a valid record. The format is deliberately
//! dumb: a fixed header, then `len | crc32(payload) | payload` frames.
//! On reload, the first frame that fails its length or CRC check ends the
//! journal (torn-tail tolerance); reopening for append truncates the torn
//! bytes away so the file never accumulates garbage between valid
//! records.

use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use vcad_obs::json::{self, JsonValue};

/// Journal file magic: identifies the format before any version check.
const MAGIC: &[u8; 8] = b"VCAMPJNL";
/// Bumped on incompatible frame-format changes.
const FORMAT_VERSION: u32 = 1;
/// Header: magic + version + spec digest.
const HEADER_LEN: u64 = 8 + 4 + 16;
/// Refuse absurd frame lengths (a corrupt length prefix would otherwise
/// ask for gigabytes).
const MAX_FRAME: u32 = 1 << 20;

/// Journal I/O and framing failures.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem-level failure, wrapped with the path.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A record serialized larger than the frame bound.
    RecordTooLarge(usize),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal {}: {source}", path.display())
            }
            JournalError::RecordTooLarge(n) => {
                write!(f, "journal record of {n} bytes exceeds the frame bound")
            }
        }
    }
}

impl Error for JournalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            JournalError::RecordTooLarge(_) => None,
        }
    }
}

/// How a cell ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellOutcome {
    /// The run completed and produced coverage numbers.
    Completed,
    /// Every attempt in the budget died (breaker open, timeout budget
    /// exhausted, transport reset, malformed reply…). The message is the
    /// last attempt's typed error rendered to text.
    Failed {
        /// The last attempt's failure, rendered.
        error: String,
    },
}

/// The journalled result of one cell — everything the final report needs,
/// so a resumed campaign never has to re-execute a completed cell.
///
/// All numeric fields are exact (counts, or an `f64` stored by bit
/// pattern), which is what makes resumed reports *byte*-identical to
/// uninterrupted ones.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// The cell's content address.
    pub key: u128,
    /// Terminal outcome.
    pub outcome: CellOutcome,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Patterns simulated.
    pub patterns: u64,
    /// Faults targeted by the cell.
    pub total_faults: u64,
    /// Faults detected.
    pub detected: u64,
    /// Injection runs performed.
    pub injections: u64,
    /// Detection tables requested from the provider.
    pub tables_requested: u64,
    /// Provider fees accrued, in cents (bit-exact).
    pub fee_cents: f64,
    /// Transport-level retries the resilience layer performed.
    pub retries: u64,
    /// Faults the chaos layer injected into the link.
    pub chaos_injected: u64,
}

impl CellRecord {
    fn to_json(&self) -> String {
        let n = |v: u64| JsonValue::Number(v as f64);
        let text = |s: String| JsonValue::String(s);
        // `key` and `fee_bits` are hex text, not JSON numbers: they
        // exceed the 2^53 integer range JSON numbers round-trip exactly.
        let mut members = vec![
            ("key", text(format!("{:032x}", self.key))),
            ("attempts", n(u64::from(self.attempts))),
            ("patterns", n(self.patterns)),
            ("total_faults", n(self.total_faults)),
            ("detected", n(self.detected)),
            ("injections", n(self.injections)),
            ("tables_requested", n(self.tables_requested)),
            (
                "fee_bits",
                text(format!("{:016x}", self.fee_cents.to_bits())),
            ),
            ("retries", n(self.retries)),
            ("chaos_injected", n(self.chaos_injected)),
        ];
        match &self.outcome {
            CellOutcome::Completed => members.push(("outcome", text("completed".to_owned()))),
            CellOutcome::Failed { error } => {
                members.push(("outcome", text("failed".to_owned())));
                members.push(("error", text(error.clone())));
            }
        }
        json::render(&JsonValue::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        ))
    }

    fn from_json(doc: &JsonValue) -> Option<CellRecord> {
        let key = u128::from_str_radix(doc.get("key")?.as_str()?, 16).ok()?;
        let outcome = match doc.get("outcome")?.as_str()? {
            "completed" => CellOutcome::Completed,
            "failed" => CellOutcome::Failed {
                error: doc.get("error")?.as_str()?.to_owned(),
            },
            _ => return None,
        };
        Some(CellRecord {
            key,
            outcome,
            attempts: u32::try_from(doc.get("attempts")?.as_u64()?).ok()?,
            patterns: doc.get("patterns")?.as_u64()?,
            total_faults: doc.get("total_faults")?.as_u64()?,
            detected: doc.get("detected")?.as_u64()?,
            injections: doc.get("injections")?.as_u64()?,
            tables_requested: doc.get("tables_requested")?.as_u64()?,
            fee_cents: f64::from_bits(
                u64::from_str_radix(doc.get("fee_bits")?.as_str()?, 16).ok()?,
            ),
            retries: doc.get("retries")?.as_u64()?,
            chaos_injected: doc.get("chaos_injected")?.as_u64()?,
        })
    }
}

/// CRC-32 (IEEE 802.3, reflected), bytewise. Fast enough for journal
/// frames and dependency-free.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// What loading an existing journal found.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Valid records, in append order (later duplicates win).
    pub records: Vec<CellRecord>,
    /// Bytes dropped from a torn tail, if any.
    pub torn_bytes: u64,
    /// Whether the header belonged to a different spec digest or format
    /// (the file was ignored and restarted).
    pub stale: bool,
}

/// An open, append-mode campaign journal.
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for the spec identified
    /// by `spec_digest`, replaying any valid records already present.
    ///
    /// A missing file, a file with a foreign/corrupt header, or one with
    /// a mismatched spec digest starts an empty journal (the old file is
    /// rewritten — its records could never match this spec's cell keys,
    /// which hash the spec digest). A valid journal with a torn tail is
    /// truncated back to its last intact record before appends resume.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on filesystem failures.
    pub fn open(path: &Path, spec_digest: u128) -> Result<(Journal, JournalReplay), JournalError> {
        let io = |source| JournalError::Io {
            path: path.to_path_buf(),
            source,
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io)?;

        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io)?;

        let mut replay = JournalReplay::default();
        let mut valid_len = HEADER_LEN;
        let header_ok = bytes.len() >= HEADER_LEN as usize
            && &bytes[..8] == MAGIC
            && u32::from_le_bytes(bytes[8..12].try_into().unwrap()) == FORMAT_VERSION
            && u128::from_le_bytes(bytes[12..28].try_into().unwrap()) == spec_digest;

        if header_ok {
            let mut at = HEADER_LEN as usize;
            loop {
                if at + 8 > bytes.len() {
                    break;
                }
                let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
                if len > MAX_FRAME || at + 8 + len as usize > bytes.len() {
                    break;
                }
                let payload = &bytes[at + 8..at + 8 + len as usize];
                if crc32(payload) != crc {
                    break;
                }
                let Some(record) = std::str::from_utf8(payload)
                    .ok()
                    .and_then(|s| json::parse(s).ok())
                    .and_then(|doc| CellRecord::from_json(&doc))
                else {
                    break;
                };
                replay.records.push(record);
                at += 8 + len as usize;
                valid_len = at as u64;
            }
            replay.torn_bytes = bytes.len() as u64 - valid_len;
        } else {
            // Fresh file, foreign format, or another spec: start over.
            replay.stale = !bytes.is_empty();
            file.set_len(0).map_err(io)?;
            file.seek(SeekFrom::Start(0)).map_err(io)?;
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            header.extend_from_slice(&spec_digest.to_le_bytes());
            file.write_all(&header).map_err(io)?;
            file.sync_data().map_err(io)?;
        }

        if header_ok {
            // Drop any torn tail so appends start on a frame boundary.
            file.set_len(valid_len).map_err(io)?;
            file.seek(SeekFrom::Start(valid_len)).map_err(io)?;
        }

        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            replay,
        ))
    }

    /// Appends one record, CRC-framed, and fsyncs before returning —
    /// once this returns, a crash cannot lose the cell.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError`] on filesystem failures or oversized
    /// records.
    pub fn append(&mut self, record: &CellRecord) -> Result<(), JournalError> {
        let payload = record.to_json();
        let payload = payload.as_bytes();
        if payload.len() > MAX_FRAME as usize {
            return Err(JournalError::RecordTooLarge(payload.len()));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let io = |source| JournalError::Io {
            path: self.path.clone(),
            source,
        };
        self.file.write_all(&frame).map_err(io)?;
        self.file.sync_data().map_err(io)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(key: u128, detected: u64) -> CellRecord {
        CellRecord {
            key,
            outcome: CellOutcome::Completed,
            attempts: 1,
            patterns: 4,
            total_faults: 10,
            detected,
            injections: 12,
            tables_requested: 4,
            fee_cents: 0.25,
            retries: 3,
            chaos_injected: 7,
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn attempts_beyond_u32_are_malformed() {
        let with_attempts = |attempts: f64| {
            let mut doc = json::parse(&record(1, 1).to_json()).unwrap();
            if let JsonValue::Object(members) = &mut doc {
                members.insert("attempts".to_owned(), JsonValue::Number(attempts));
            }
            CellRecord::from_json(&doc)
        };
        let max = with_attempts(f64::from(u32::MAX)).map(|r| r.attempts);
        assert_eq!(max, Some(u32::MAX));
        assert_eq!(with_attempts(4_294_967_296.0), None);
    }

    #[test]
    fn round_trips_records() {
        let dir = std::env::temp_dir().join(format!("vcad-journal-rt-{:x}", std::process::id()));
        let path = dir.join("j.journal");
        let (mut j, replay) = Journal::open(&path, 42).unwrap();
        assert!(replay.records.is_empty());
        j.append(&record(1, 3)).unwrap();
        j.append(&CellRecord {
            outcome: CellOutcome::Failed {
                error: "breaker open: \"p1\"\nafter 3 attempts".to_owned(),
            },
            ..record(2, 0)
        })
        .unwrap();
        drop(j);
        let (_, replay) = Journal::open(&path, 42).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0], record(1, 3));
        assert!(matches!(
            replay.records[1].outcome,
            CellOutcome::Failed { ref error } if error.contains("breaker open")
        ));
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated() {
        let dir = std::env::temp_dir().join(format!("vcad-journal-torn-{:x}", std::process::id()));
        let path = dir.join("j.journal");
        let (mut j, _) = Journal::open(&path, 9).unwrap();
        j.append(&record(1, 1)).unwrap();
        j.append(&record(2, 2)).unwrap();
        drop(j);
        // Tear the last record mid-frame.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (mut j, replay) = Journal::open(&path, 9).unwrap();
        assert_eq!(replay.records.len(), 1, "torn record must be dropped");
        assert!(replay.torn_bytes > 0);
        // Appends after the tear land on a clean frame boundary.
        j.append(&record(3, 3)).unwrap();
        drop(j);
        let (_, replay) = Journal::open(&path, 9).unwrap();
        assert_eq!(
            replay.records.iter().map(|r| r.key).collect::<Vec<_>>(),
            vec![1, 3]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_mid_file_ends_replay_at_last_good_record() {
        let dir = std::env::temp_dir().join(format!("vcad-journal-mid-{:x}", std::process::id()));
        let path = dir.join("j.journal");
        let (mut j, _) = Journal::open(&path, 5).unwrap();
        j.append(&record(1, 1)).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();
        j.append(&record(2, 2)).unwrap();
        drop(j);
        // Flip a payload byte of record 2: its CRC no longer matches.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = good_len as usize + 12;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Journal::open(&path, 5).unwrap();
        assert_eq!(replay.records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_or_mismatched_header_starts_fresh() {
        let dir = std::env::temp_dir().join(format!("vcad-journal-hdr-{:x}", std::process::id()));
        let path = dir.join("j.journal");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, b"definitely not a journal").unwrap();
        let (mut j, replay) = Journal::open(&path, 1).unwrap();
        assert!(replay.stale);
        assert!(replay.records.is_empty());
        j.append(&record(4, 4)).unwrap();
        drop(j);
        // A different spec digest also restarts the file.
        let (_, replay) = Journal::open(&path, 2).unwrap();
        assert!(replay.stale);
        assert!(replay.records.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
