//! Per-node line logs, written so CI can attach them as artifacts.
//!
//! The simulator has a structured trace sink; the real runtime gets the
//! operational equivalent: one append-only text file per node (plus
//! stderr mirroring for interactive runs). Lines are timestamped with the
//! node clock so a node's log lines up with its metrics.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the node log: its directory and file are created at startup, before the loop \
              thread exists, and each line is appended under a lock held for one write, whose \
              failure is ignored"
)]

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::clock::NodeClock;

/// A shareable, thread-safe line logger for one node.
#[derive(Debug)]
pub struct NodeLog {
    clock: NodeClock,
    file: Mutex<Option<File>>,
    mirror_stderr: bool,
}

impl NodeLog {
    /// A logger that writes `<dir>/node-<id>.log` (creating `dir`), or
    /// only mirrors to stderr when `dir` is `None`.
    pub fn create(
        dir: Option<&Path>,
        node_id: u32,
        clock: NodeClock,
        mirror_stderr: bool,
    ) -> std::io::Result<Arc<Self>> {
        let file = match dir {
            Some(dir) => {
                fs::create_dir_all(dir)?;
                let path: PathBuf = dir.join(format!("node-{node_id}.log"));
                Some(OpenOptions::new().create(true).append(true).open(path)?)
            }
            None => None,
        };
        Ok(Arc::new(NodeLog {
            clock,
            file: Mutex::new(file),
            mirror_stderr,
        }))
    }

    /// A logger that drops everything (for tests that don't care).
    pub fn sink(clock: NodeClock) -> Arc<Self> {
        Arc::new(NodeLog {
            clock,
            file: Mutex::new(None),
            mirror_stderr: false,
        })
    }

    /// Appends one timestamped line.
    pub fn line(&self, msg: &str) {
        let t = self.clock.now().as_micros();
        let rendered = format!("[{t:>12}us] {msg}\n");
        if self.mirror_stderr {
            eprint!("{rendered}");
        }
        let mut guard = match self.file.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(file) = guard.as_mut() {
            // A failed log write must never take down the node.
            let _ = file.write_all(rendered.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_lines_to_the_node_file() {
        let dir = std::env::temp_dir().join("vd-node-log-test");
        let log = match NodeLog::create(Some(&dir), 7, NodeClock::new(), false) {
            Ok(log) => log,
            Err(e) => panic!("log create failed: {e}"),
        };
        log.line("hello");
        let contents = match fs::read_to_string(dir.join("node-7.log")) {
            Ok(c) => c,
            Err(e) => panic!("log read failed: {e}"),
        };
        assert!(contents.contains("hello"));
        let _ = fs::remove_dir_all(&dir);
    }
}
