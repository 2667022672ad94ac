//! Per-cell result files and the deterministic merge stage.
//!
//! Every completed cell is one JSON file under `<out>/cells/`, written
//! atomically (tmp + rename) *before* its journal line, so a journaled
//! key always has a readable result. The merge stage never looks at
//! in-memory results or completion order: it re-reads the cell files in
//! sorted-key order and concatenates them. Fresh runs, `--jobs N`
//! for any N, and kill-and-resume runs therefore produce byte-identical
//! merged artifacts by construction.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use omnc::multi::MultiSessionOutcome;
use omnc::runner::SessionOutcome;

use crate::spec::Cell;

/// The merged artifacts [`merge_campaign`] writes, in the order it writes
/// them: everything `bench`, `scripts/campaign.sh` and the determinism
/// tests byte-compare.
pub const ARTIFACTS: [&str; 2] = ["outcomes.jsonl", "trace.jsonl"];

/// Everything a cell run produces, as stored in its result file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell's key (`"<variant>/<protocol>/<session:010>"`).
    pub key: String,
    /// Session index within the variant's scenario.
    pub session: u64,
    /// The measured outcome. For a multi-session cell this is the
    /// synthesized aggregate (see [`crate::run_one_cell`]); the full
    /// per-session picture rides in `multi`.
    pub outcome: SessionOutcome,
    /// The coupled multi-session outcome (`None` for classic per-session
    /// cells).
    pub multi: Option<MultiSessionOutcome>,
    /// The cell's causal trace as JSONL text
    /// (`SessionStart ..= SessionEnd`), ready for concatenation.
    pub trace: String,
}

/// One line of the merged `outcomes.jsonl`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRecord {
    /// The cell's key.
    pub key: String,
    /// Session index within the variant's scenario.
    pub session: u64,
    /// The measured outcome (aggregate for multi-session cells).
    pub outcome: SessionOutcome,
    /// The coupled multi-session outcome (`None` for classic cells).
    pub multi: Option<MultiSessionOutcome>,
}

/// The result-file path of `key` under `out_dir` (keys contain `/`, so
/// segments are joined with `__` into a flat file name).
pub fn cell_path(out_dir: &Path, key: &str) -> PathBuf {
    out_dir.join("cells").join(key.replace('/', "__") + ".json")
}

/// Writes `bytes` to `path` atomically: a unique temp file in the same
/// directory, flushed, then renamed over the target.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.flush()?;
    }
    fs::rename(&tmp, path)
}

/// Writes one cell's result file atomically.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
pub fn write_cell(out_dir: &Path, result: &CellResult) -> io::Result<()> {
    let json = serde_json::to_string(result)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_atomic(&cell_path(out_dir, &result.key), json.as_bytes())
}

/// Reads one cell's result file back.
///
/// # Errors
///
/// Fails if the file is missing or does not parse as a [`CellResult`].
pub fn read_cell(out_dir: &Path, key: &str) -> io::Result<CellResult> {
    let path = cell_path(out_dir, key);
    let text = fs::read_to_string(&path)?;
    serde_json::from_str(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Folds every cell's result file into the campaign artifacts, in
/// sorted-key order (the order of `cells`, which [`crate::spec::CampaignSpec::cells`]
/// guarantees):
///
/// * `outcomes.jsonl` — one [`CellRecord`] line per cell;
/// * `trace.jsonl` — the concatenated causal traces, `omnc-report
///   analyze`-ready.
///
/// # Errors
///
/// Fails if any cell file is missing/corrupt or an artifact cannot be
/// written.
pub fn merge_campaign(out_dir: &Path, cells: &[Cell]) -> io::Result<()> {
    let mut outcomes = String::new();
    let mut trace = String::new();
    for cell in cells {
        let result = read_cell(out_dir, &cell.key)?;
        let record = CellRecord {
            key: result.key,
            session: result.session,
            outcome: result.outcome,
            multi: result.multi,
        };
        let line = serde_json::to_string(&record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        outcomes.push_str(&line);
        outcomes.push('\n');
        trace.push_str(&result.trace);
    }
    let [outcomes_name, trace_name] = ARTIFACTS;
    write_atomic(&out_dir.join(outcomes_name), outcomes.as_bytes())?;
    write_atomic(&out_dir.join(trace_name), trace.as_bytes())
}
