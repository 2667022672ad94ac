//! The checkpoint journal: one JSONL line per durably completed cell.
//!
//! A line is appended only *after* the cell's result file has been
//! written and renamed into place, so every journaled key is backed by a
//! readable result. `resume` replays the journal, drops entries whose
//! result file is missing (a crash window, or a by-hand cleanup), and
//! re-runs only what is left. Truncating the journal mid-file — the
//! kill -9 case — simply forgets a suffix of completed cells; re-running
//! them is wasted work, never wrong output, because cells are
//! deterministic.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// One journal line: the completed cell and the attempts it took.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalEntry {
    /// The completed cell's key.
    pub key: String,
    /// Attempts the cell needed (1 unless earlier attempts panicked).
    pub attempts: u32,
    /// Wall-clock completion time, milliseconds since the Unix epoch.
    /// `None` on journals from before this field existed; the journal is
    /// never byte-compared and is reset on fresh runs, so the host
    /// timestamp cannot leak into merged artifacts. `status` derives its
    /// cells/s and ETA from the span of these stamps.
    pub wall_ms: Option<u64>,
}

impl JournalEntry {
    /// The current wall clock as a `wall_ms` stamp.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "journal stamps are never byte-compared"
    )]
    pub fn now_ms() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
    }
}

/// Append-only writer over the journal file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`.
    pub fn at(path: &Path) -> Journal {
        Journal {
            path: path.to_path_buf(),
        }
    }

    /// Records `entry` durably: the line is written and flushed before
    /// this returns.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the journal cannot be appended.
    pub fn record(&self, entry: &JournalEntry) -> io::Result<()> {
        let line = serde_json::to_string(entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()
    }

    /// Replays the journal into the set of completed cell keys. Missing
    /// file means an empty set; a trailing partial line (torn write) is
    /// skipped rather than treated as corruption.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an existing journal cannot be read.
    pub fn completed(&self) -> io::Result<BTreeSet<String>> {
        Ok(self.entries()?.into_iter().map(|e| e.key).collect())
    }

    /// Replays the journal's full entries in append order, with the same
    /// torn-tail tolerance as [`Journal::completed`]. Duplicate keys (a
    /// cell re-run after a resume) keep every line, so the wall-clock
    /// span of the returned stamps reflects real work done.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an existing journal cannot be read.
    pub fn entries(&self) -> io::Result<Vec<JournalEntry>> {
        let file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut entries = Vec::new();
        for line in BufReader::new(file).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<JournalEntry>(&line) {
                Ok(entry) => entries.push(entry),
                Err(_) => break, // torn tail: everything after is unreliable
            }
        }
        Ok(entries)
    }

    /// Removes the journal file (fresh `run`). Missing is fine.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an existing journal cannot be removed.
    pub fn reset(&self) -> io::Result<()> {
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(name: &str) -> Journal {
        let path = std::env::temp_dir().join(format!("omnc_campaign_journal_{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        Journal::at(&path)
    }

    #[test]
    fn records_replay_as_a_key_set() {
        let j = temp_journal("replay");
        assert!(j.completed().unwrap().is_empty());
        for (key, attempts) in [("a/OMNC/0000000000", 1), ("a/ETX/0000000001", 2)] {
            j.record(&JournalEntry {
                key: key.to_owned(),
                attempts,
                wall_ms: Some(JournalEntry::now_ms()),
            })
            .unwrap();
        }
        let keys = j.completed().unwrap();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains("a/ETX/0000000001"));
        let entries = j.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.wall_ms.is_some()));
        j.reset().unwrap();
        assert!(j.completed().unwrap().is_empty());
    }

    #[test]
    fn entries_without_timestamps_replay_as_none() {
        // Journals written before wall_ms existed parse unchanged.
        let j = temp_journal("legacy");
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&j.path)
            .unwrap();
        f.write_all(b"{\"key\": \"old/OMNC/0000000000\", \"attempts\": 1}\n")
            .unwrap();
        drop(f);
        let entries = j.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, "old/OMNC/0000000000");
        assert_eq!(entries[0].wall_ms, None);
    }

    #[test]
    fn torn_tail_lines_are_dropped() {
        let j = temp_journal("torn");
        j.record(&JournalEntry {
            key: "ok".to_owned(),
            attempts: 1,
            wall_ms: Some(JournalEntry::now_ms()),
        })
        .unwrap();
        // Simulate a kill mid-append: garbage with no newline.
        let mut f = OpenOptions::new().append(true).open(&j.path).unwrap();
        f.write_all(b"{\"key\": \"half").unwrap();
        drop(f);
        let keys = j.completed().unwrap();
        assert_eq!(keys.len(), 1);
        assert!(keys.contains("ok"));
    }
}
