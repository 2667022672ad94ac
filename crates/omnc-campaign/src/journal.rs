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
    /// skipped rather than treated as corruption. Fields a line carries
    /// beyond [`JournalEntry`]'s are ignored.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an existing journal cannot be read.
    pub fn completed(&self) -> io::Result<BTreeSet<String>> {
        let file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeSet::new()),
            Err(e) => return Err(e),
        };
        let mut keys = BTreeSet::new();
        for line in BufReader::new(file).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let Ok(entry) = serde_json::from_str::<JournalEntry>(&line) else {
                break; // torn tail: everything after is unreliable
            };
            keys.insert(entry.key);
        }
        Ok(keys)
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

    fn append(j: &Journal, bytes: &[u8]) {
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&j.path)
            .unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn records_replay_as_a_key_set() {
        let j = temp_journal("replay");
        assert!(j.completed().unwrap().is_empty());
        for (key, attempts) in [("a/OMNC/0000000000", 1), ("a/ETX/0000000001", 2)] {
            j.record(&JournalEntry {
                key: key.to_owned(),
                attempts,
            })
            .unwrap();
        }
        let keys = j.completed().unwrap();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains("a/ETX/0000000001"));
        j.reset().unwrap();
        assert!(j.completed().unwrap().is_empty());
    }

    #[test]
    fn journal_lines_with_wall_clock_stamps_still_replay() {
        // Journals written before the stamps were dropped carry a
        // `wall_ms` field; resuming such a directory keeps its cells.
        let j = temp_journal("stamped");
        append(
            &j,
            b"{\"key\":\"old/OMNC/0000000000\",\"attempts\":1,\"wall_ms\":1760000000000}\n\
              {\"key\":\"old/ETX/0000000000\",\"attempts\":2,\"wall_ms\":null}\n",
        );
        let keys = j.completed().unwrap();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains("old/OMNC/0000000000"));
        assert!(keys.contains("old/ETX/0000000000"));
    }

    #[test]
    fn torn_tail_lines_are_dropped() {
        let j = temp_journal("torn");
        j.record(&JournalEntry {
            key: "ok".to_owned(),
            attempts: 1,
        })
        .unwrap();
        // Simulate a kill mid-append: garbage with no newline.
        append(&j, b"{\"key\": \"half");
        let keys = j.completed().unwrap();
        assert_eq!(keys.len(), 1);
        assert!(keys.contains("ok"));
    }
}
