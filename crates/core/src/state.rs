//! Application state: what gets checkpointed, transferred and replayed.
//!
//! The replicator works at *process* granularity (paper §3.1): all objects
//! in a CORBA process share in-process state and must be recovered as a
//! unit. A replicated process therefore implements one trait,
//! [`ReplicatedApplication`], combining invocation (the servant role) with
//! state capture/restore (the checkpointing role). Determinism is required:
//! identical replicas fed the identical totally-ordered request sequence
//! must produce identical replies and state.

use bytes::Bytes;

pub use vd_orb::object::{InvokeResult, UserException};

/// A process-level replicated application.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use vd_core::state::{InvokeResult, ReplicatedApplication};
///
/// /// A replicated counter: the paper-style micro-benchmark app.
/// struct Counter(u64);
///
/// impl ReplicatedApplication for Counter {
///     fn invoke(&mut self, operation: &str, _args: &Bytes) -> InvokeResult {
///         if operation == "increment" {
///             self.0 += 1;
///         }
///         Ok(Bytes::copy_from_slice(&self.0.to_le_bytes()))
///     }
///     fn capture_state(&self) -> Bytes {
///         Bytes::copy_from_slice(&self.0.to_le_bytes())
///     }
///     fn restore_state(&mut self, state: &Bytes) {
///         let mut raw = [0u8; 8];
///         raw.copy_from_slice(&state[..8]);
///         self.0 = u64::from_le_bytes(raw);
///     }
/// }
/// ```
pub trait ReplicatedApplication: Send {
    /// Executes one operation, mutating state deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`UserException`] for application-level failures; the
    /// replicator marshals these back to the client as user-exception
    /// replies.
    fn invoke(&mut self, operation: &str, args: &Bytes) -> InvokeResult;

    /// Serializes the entire process state into a checkpoint.
    fn capture_state(&self) -> Bytes;

    /// Replaces the process state with a previously captured checkpoint.
    fn restore_state(&mut self, state: &Bytes);

    /// Estimated CPU time to execute `operation`, in microseconds. The
    /// default (15 µs) matches the paper's micro-benchmark (Fig. 3).
    fn processing_micros(&self, _operation: &str) -> u64 {
        15
    }
}

/// A versioned checkpoint: the application state after `version` requests
/// have been applied, plus the replicator's own recovery metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Number of totally-ordered requests applied to produce this state.
    pub version: u64,
    /// The captured application state.
    pub state: Bytes,
}

impl Checkpoint {
    /// A checkpoint at `version` holding `state`.
    pub fn new(version: u64, state: Bytes) -> Self {
        Checkpoint { version, state }
    }

    /// Size of the captured state in bytes (drives transfer and capture
    /// cost models).
    pub fn state_size(&self) -> usize {
        self.state.len()
    }
}

// ---- delta checkpoints ------------------------------------------------------
//
// Incremental mode (paper Fig. 6/7 cost knob): the primary sends a full
// snapshot every K checkpoints and byte-level deltas in between, so
// warm-passive sync cost scales with the change rate instead of the state
// size. A delta is a run-length encoding of the byte ranges that differ
// between two snapshots of equal length, applied strictly in version order
// on top of the exact base it was diffed against (the chain rule; see
// DESIGN.md "Data-plane allocation and batching contract").

/// Error applying a state delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta's recorded base length does not match the state it is
    /// being applied to (wrong base version, or the state was resized).
    BaseMismatch {
        /// Length the delta expects the base to have.
        expected: usize,
        /// Length of the state actually supplied.
        actual: usize,
    },
    /// The delta bytes are malformed (truncated or out-of-bounds run).
    Malformed,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BaseMismatch { expected, actual } => write!(
                f,
                "delta base mismatch: expects a {expected}-byte base, got {actual}"
            ),
            DeltaError::Malformed => f.write_str("malformed state delta"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Encodes the byte runs where `new` differs from `old` into a delta that
/// [`apply_delta`] can replay on top of `old`.
///
/// Format: `new_len: u32`, then runs of `(offset: u32, len: u32, bytes)`.
/// States that changed length are encoded as one whole-state run (the diff
/// degenerates gracefully instead of failing).
///
/// Cost: one compare pass that skips equal spans 32 bytes at a time,
/// byte-wise work only around changed bytes, and a copy of the changed
/// runs alone.
pub fn diff_state(old: &Bytes, new: &Bytes) -> Bytes {
    let (old, new): (&[u8], &[u8]) = (old, new);
    let n = new.len();
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    if old.len() != n {
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(new);
        return Bytes::from(out);
    }
    let mut i = 0;
    while let Some(start) = first_difference(&old[i..], &new[i..]).map(|d| i + d) {
        // Extend the run while bytes differ, absorbing gaps of up to 8
        // equal bytes, the size of a run header (one longer run costs no
        // more than two headers).
        let mut end = start + 1;
        let mut scan = end;
        while scan < n {
            if old[scan] != new[scan] {
                end = scan + 1;
                scan = end;
            } else if scan - end < 8 {
                scan += 1;
            } else {
                break;
            }
        }
        out.extend_from_slice(&(start as u32).to_le_bytes());
        out.extend_from_slice(&((end - start) as u32).to_le_bytes());
        out.extend_from_slice(&new[start..end]);
        i = end;
    }
    Bytes::from(out)
}

/// Bytes [`diff_state`] compares at a time while skipping an equal span.
const CHUNK: usize = 32;

/// Index of the first byte where the equal-length `a` and `b` differ.
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    let (chunks_a, _) = a.as_chunks::<CHUNK>();
    let (chunks_b, _) = b.as_chunks::<CHUNK>();
    let equal = chunks_a
        .iter()
        .zip(chunks_b)
        .take_while(|(x, y)| x == y)
        .count()
        * CHUNK;
    a[equal..]
        .iter()
        .zip(&b[equal..])
        .position(|(x, y)| x != y)
        .map(|d| equal + d)
}

/// Applies a delta produced by [`diff_state`] to `base`, yielding the new
/// state in a fresh buffer; `base` is left as it is. A thin wrapper over
/// [`apply_delta_in_place`] on a second handle to `base`.
///
/// # Errors
///
/// As [`apply_delta_in_place`].
pub fn apply_delta(base: &Bytes, delta: &Bytes) -> Result<Bytes, DeltaError> {
    let mut state = base.clone();
    apply_delta_in_place(&mut state, delta)?;
    Ok(state)
}

/// Applies a delta produced by [`diff_state`] to `state`, replacing it
/// with the new state. A `state` that is its buffer's only handle is
/// patched where it lies; a shared one is copied first, and its other
/// handles keep the old bytes. Every run is checked before any byte is
/// written, so on error `state` is left exactly as it was.
///
/// # Errors
///
/// [`DeltaError::BaseMismatch`] when `state` is not the state the delta
/// was diffed against (by length), [`DeltaError::Malformed`] on corrupt
/// bytes. The chain rule — apply deltas in version order on the exact
/// base — is the caller's responsibility; version bookkeeping lives in the
/// engine.
pub fn apply_delta_in_place(state: &mut Bytes, delta: &Bytes) -> Result<(), DeltaError> {
    let header = delta.get(0..4).ok_or(DeltaError::Malformed)?;
    let new_len = le_u32(header);
    // A whole-state run replaces the state outright (length-change case).
    if let Some(run) = delta.get(4..12) {
        if le_u32(&run[..4]) == 0 && le_u32(&run[4..]) == new_len && new_len != state.len() {
            if delta.len() != 12 + new_len {
                return Err(DeltaError::Malformed);
            }
            *state = delta.slice(12..);
            return Ok(());
        }
    }
    if state.len() != new_len {
        return Err(DeltaError::BaseMismatch {
            expected: new_len,
            actual: state.len(),
        });
    }
    for run in runs(delta) {
        let (off, bytes) = run?;
        if off > new_len || bytes.len() > new_len - off {
            return Err(DeltaError::Malformed);
        }
    }
    let mut buf = std::mem::take(state)
        .try_into_vec()
        .unwrap_or_else(|shared| shared.to_vec());
    for (off, bytes) in runs(delta).flatten() {
        buf[off..off + bytes.len()].copy_from_slice(bytes);
    }
    *state = Bytes::from(buf);
    Ok(())
}

/// The `(offset, bytes)` runs after a delta's header; a truncated run
/// yields [`DeltaError::Malformed`] and ends the walk.
fn runs(delta: &[u8]) -> impl Iterator<Item = Result<(usize, &[u8]), DeltaError>> {
    let mut pos = 4;
    std::iter::from_fn(move || {
        let rest = delta.get(pos..).filter(|rest| !rest.is_empty())?;
        let run = rest.get(..8).and_then(|head| {
            let len = le_u32(&head[4..]);
            Some((le_u32(&head[..4]), rest.get(8..8 + len)?))
        });
        pos = run.map_or(delta.len(), |(_, bytes)| pos + 8 + bytes.len());
        Some(run.ok_or(DeltaError::Malformed))
    })
}

/// The little-endian `u32` at the start of `bytes` (at least 4 long).
fn le_u32(bytes: &[u8]) -> usize {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Register(Vec<u8>);
    impl ReplicatedApplication for Register {
        fn invoke(&mut self, _op: &str, args: &Bytes) -> InvokeResult {
            self.0 = args.to_vec();
            Ok(Bytes::new())
        }
        fn capture_state(&self) -> Bytes {
            Bytes::from(self.0.clone())
        }
        fn restore_state(&mut self, state: &Bytes) {
            self.0 = state.to_vec();
        }
    }

    #[test]
    fn capture_restore_round_trips() {
        let mut a = Register(vec![]);
        a.invoke("set", &Bytes::from_static(&[1, 2, 3])).unwrap();
        let snapshot = a.capture_state();
        let mut b = Register(vec![9]);
        b.restore_state(&snapshot);
        assert_eq!(b.capture_state(), snapshot);
    }

    #[test]
    fn checkpoint_reports_size_and_version() {
        let c = Checkpoint::new(17, Bytes::from_static(&[0; 128]));
        assert_eq!(c.version, 17);
        assert_eq!(c.state_size(), 128);
    }

    #[test]
    fn default_processing_cost_matches_paper_microbenchmark() {
        let r = Register(vec![]);
        assert_eq!(r.processing_micros("anything"), 15);
    }

    #[test]
    fn delta_round_trips_sparse_changes() {
        let old = Bytes::from(vec![0u8; 4096]);
        let mut new = old.to_vec();
        new[0] = 1;
        new[100] = 2;
        new[4095] = 3;
        let new = Bytes::from(new);
        let delta = diff_state(&old, &new);
        assert!(
            delta.len() < 64,
            "sparse delta should be tiny: {}",
            delta.len()
        );
        assert_eq!(apply_delta(&old, &delta).unwrap(), new);
    }

    #[test]
    fn delta_of_identical_states_is_header_only() {
        let s = Bytes::from(vec![7u8; 256]);
        let delta = diff_state(&s, &s);
        assert_eq!(delta.len(), 4);
        assert_eq!(apply_delta(&s, &delta).unwrap(), s);
    }

    #[test]
    fn delta_handles_length_changes_as_full_replacement() {
        let old = Bytes::from(vec![1u8; 16]);
        let new = Bytes::from(vec![2u8; 32]);
        let delta = diff_state(&old, &new);
        assert_eq!(apply_delta(&old, &delta).unwrap(), new);
        let empty = Bytes::new();
        let delta = diff_state(&new, &empty);
        assert_eq!(apply_delta(&new, &delta).unwrap(), empty);
    }

    #[test]
    fn delta_merges_nearby_runs() {
        let old = Bytes::from(vec![0u8; 64]);
        let mut new = old.to_vec();
        new[10] = 1;
        new[14] = 1; // 3-byte gap: cheaper to absorb than start a new run
        let new = Bytes::from(new);
        let delta = diff_state(&old, &new);
        // header + one run header + 5 bytes
        assert_eq!(delta.len(), 4 + 8 + 5);
        assert_eq!(apply_delta(&old, &delta).unwrap(), new);
    }

    #[test]
    fn delta_rejects_wrong_base() {
        let old = Bytes::from(vec![0u8; 64]);
        let mut new = old.to_vec();
        new[5] = 9;
        let delta = diff_state(&old, &Bytes::from(new));
        let wrong = Bytes::from(vec![0u8; 63]);
        assert!(matches!(
            apply_delta(&wrong, &delta),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn delta_rejects_malformed_bytes() {
        assert!(matches!(
            apply_delta(&Bytes::new(), &Bytes::from_static(&[1, 2])),
            Err(DeltaError::Malformed)
        ));
        // Run pointing past the end of the base.
        let mut bad = Vec::new();
        bad.extend_from_slice(&8u32.to_le_bytes()); // new_len 8
        bad.extend_from_slice(&6u32.to_le_bytes()); // off 6
        bad.extend_from_slice(&4u32.to_le_bytes()); // len 4 (6+4 > 8)
        bad.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            apply_delta(&Bytes::from(vec![0u8; 8]), &Bytes::from(bad)),
            Err(DeltaError::Malformed)
        ));
    }
}
