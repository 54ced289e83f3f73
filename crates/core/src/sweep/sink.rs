//! Disk-spill record streaming: a JSONL sink sweep records are appended to
//! as scenarios complete.
//!
//! `SweepRunner::run_fold_tap` keeps one folded record per scenario in
//! memory — fine for thousands of scenarios, not for millions. A
//! [`JsonlSink`] spills each record to an append-only
//! [JSON Lines](https://jsonlines.org) file the moment its scenario
//! finishes on a worker, so the on-disk file is complete even if the
//! process dies mid-sweep, and downstream tooling can tail it while the
//! sweep is still running.
//!
//! Records are written in **completion order**, which under a parallel
//! runner is not scenario-id order: each line carries its scenario's
//! identity (`group`, `workload`, `config`), so consumers sort or join on
//! those. The sink is `Sync`; one instance can serve every worker of a
//! sweep (and several sweeps in sequence, as `run_sweep --out` does).

use crate::sweep::SweepRecord;
use gpreempt_types::SimError;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// An append-only JSONL file of [`SweepRecord`]s.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
    written: AtomicU64,
}

impl JsonlSink {
    /// Creates (or truncates) the sink file.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(std::io::BufWriter::new(file)),
            written: AtomicU64::new(0),
        })
    }

    /// Appends one record as a JSON line and flushes it, so the line is
    /// durable (and visible to `tail -f`) as soon as this returns.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Internal`] describing the I/O failure.
    pub fn append(&self, record: &SweepRecord) -> Result<(), SimError> {
        let line = record.to_json();
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| SimError::internal(format!("jsonl sink write failed: {e}")))?;
        self.written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Appends every record of an iterator (used to spill a finished
    /// report's records through the same file).
    ///
    /// # Errors
    ///
    /// Stops at and returns the first failing write.
    pub fn append_all<'a>(
        &self,
        records: impl IntoIterator<Item = &'a SweepRecord>,
    ) -> Result<(), SimError> {
        for record in records {
            self.append(record)?;
        }
        Ok(())
    }

    /// Number of lines written so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_appends_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("gpreempt-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.append(
            &SweepRecord::new("g", "w", "c", 2)
                .with_value("antt", 1.5)
                .with_value("inf", f64::INFINITY),
        )
        .unwrap();
        sink.append_all([&SweepRecord::new("g", "w2", "c", 4)])
            .unwrap();
        assert_eq!(sink.written(), 2);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("workload").and_then(crate::json::Value::as_str),
            Some("w")
        );
        // Non-finite values spill as null, like in full reports.
        assert!(lines[0].contains(r#""inf":null"#));
        std::fs::remove_dir_all(&dir).ok();
    }
}
