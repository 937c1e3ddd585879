//! Seeded property tests for incremental checkpoints: a receiver that
//! follows the chain rule (full snapshot every K, deltas applied in order
//! on the exact base they were diffed against) reconstructs byte-identical
//! state, and any break in the chain — a dropped, reordered or
//! wrong-base delta — is detected rather than silently corrupting state.

use bytes::Bytes;

use vd_core::messages::ReplicatorMsg;
use vd_core::state::{apply_delta, apply_delta_in_place, diff_state, DeltaError};
use vd_core::style::ReplicationStyle;
use vd_simnet::rng::DeterministicRng;

/// Mutates `state` the way a replicated application would between
/// checkpoints: a few scattered byte writes, occasionally a resize.
fn mutate(state: &mut Vec<u8>, rng: &mut DeterministicRng) {
    if !state.is_empty() {
        let writes = rng.gen_range_u64(0..=8);
        for _ in 0..writes {
            let at = rng.gen_range_u64(0..=(state.len() as u64 - 1)) as usize;
            state[at] = rng.next_u64() as u8;
        }
    }
    if rng.gen_range_u64(0..=9) == 0 {
        let new_len = rng.gen_range_u64(0..=4096) as usize;
        state.resize(new_len, 0x5A);
    }
}

/// The receiver side of incremental mode, as the replica implements it:
/// a mirror of the last reconstructed state plus its version; deltas apply
/// only when their base version matches the mirror, and patch it in place.
struct Mirror {
    version: u64,
    state: Bytes,
}

impl Mirror {
    fn apply(
        &mut self,
        version: u64,
        delta_base: Option<u64>,
        wire_state: &Bytes,
    ) -> Result<(), DeltaError> {
        match delta_base {
            None => self.state = wire_state.clone(),
            Some(base) => {
                if base != self.version {
                    // The chain rule: wrong base version, reject.
                    return Err(DeltaError::BaseMismatch {
                        expected: base as usize,
                        actual: self.version as usize,
                    });
                }
                apply_delta_in_place(&mut self.state, wire_state)?;
            }
        }
        self.version = version;
        Ok(())
    }
}

/// The delta encoding one byte at a time, as `diff_state` first
/// specified it. Checkpoint byte counts and explorer digests depend on the
/// exact delta bytes, so `diff_state` must emit these bytes however it
/// finds the changed runs.
fn reference_diff(old: &[u8], new: &[u8]) -> Vec<u8> {
    let n = new.len();
    let mut out = (n as u32).to_le_bytes().to_vec();
    if old.len() != n {
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(new);
        return out;
    }
    let mut i = 0;
    while i < n {
        if old[i] == new[i] {
            i += 1;
            continue;
        }
        let start = i;
        let mut end = i + 1;
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
    out
}

/// `diff_state(old, new)` equals the reference bytes and applies back.
fn assert_pinned(old: &[u8], new: &[u8], what: &str) {
    let (old_b, new_b) = (Bytes::copy_from_slice(old), Bytes::copy_from_slice(new));
    let delta = diff_state(&old_b, &new_b);
    assert_eq!(delta, reference_diff(old, new), "{what}");
    assert_eq!(apply_delta(&old_b, &delta).as_ref(), Ok(&new_b), "{what}");
}

#[test]
fn delta_encoding_matches_the_byte_at_a_time_reference() {
    // Every position of states that end on, before and after word (8 B)
    // and chunk (32 B) boundaries, changed alone and paired with a second
    // change across a gap of 7, 8 or 9 equal bytes, plus changed tails
    // shorter than one word.
    for len in [1usize, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100] {
        let old = vec![0x11u8; len];
        for p in 0..len {
            let mut new = old.clone();
            new[p] ^= 0xFF;
            assert_pinned(&old, &new, &format!("{len} bytes, byte {p} changed"));
            for gap in [7, 8, 9] {
                let q = p + gap + 1;
                if q < len {
                    let mut pair = new.clone();
                    pair[q] ^= 0xFF;
                    assert_pinned(&old, &pair, &format!("{len} bytes, {p} and {q} changed"));
                }
            }
        }
        for tail in 1..8.min(len) {
            let mut new = old.clone();
            new[len - tail..].fill(0x22);
            assert_pinned(&old, &new, &format!("{len} bytes, last {tail} changed"));
        }
    }

    // Gaps of 7 and 8 equal bytes join one run; a gap of 9 splits it.
    let old = vec![0u8; 64];
    for (gap, delta_len) in [(7, 4 + 8 + 9), (8, 4 + 8 + 10), (9, 4 + 2 * (8 + 1))] {
        let mut new = old.clone();
        new[20] = 1;
        new[21 + gap] = 1;
        let delta = diff_state(&Bytes::from(old.clone()), &Bytes::from(new));
        assert_eq!(delta.len(), delta_len, "gap of {gap}");
    }

    // Identical states are a header alone; length changes are one
    // whole-state run.
    let same = Bytes::from(old.clone());
    assert_eq!(diff_state(&same, &same), 64u32.to_le_bytes());
    assert_pinned(&old, &old, "identical");
    assert_pinned(&[], &[], "empty");
    assert_pinned(&old, &old[..40], "shrunk");
    assert_pinned(&old, &[old.as_slice(), &[1; 9]].concat(), "grown");
    assert_pinned(&[], &old, "grown from empty");

    // Seeded states of random lengths up to 64 KiB, with scattered
    // changes of random spans.
    let mut rng = DeterministicRng::new(0xD1FF_5EED);
    for round in 0..40 {
        let len = rng.gen_range_u64(0..=64 * 1024) as usize;
        let old: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut new = old.clone();
        if len > 0 {
            for _ in 0..rng.gen_range_u64(0..=64) {
                let at = rng.gen_range_u64(0..=(len as u64 - 1)) as usize;
                let span = rng.gen_range_u64(1..=24) as usize;
                for b in &mut new[at..(at + span).min(len)] {
                    *b = rng.next_u64() as u8;
                }
            }
        }
        assert_pinned(&old, &new, &format!("round {round}, {len} bytes"));
    }
}

#[test]
fn delta_chains_reconstruct_full_state_exactly() {
    let mut rng = DeterministicRng::new(0xDE17A);
    for round in 0..25 {
        let full_every = rng.gen_range_u64(2..=8);
        let initial_len = rng.gen_range_u64(1..=4096) as usize;
        let mut app_state = vec![0u8; initial_len];
        let mut sender_base = Bytes::from(app_state.clone());
        let mut mirror = Mirror {
            version: 0,
            state: sender_base.clone(),
        };
        for version in 1..=40u64 {
            mutate(&mut app_state, &mut rng);
            let full = Bytes::from(app_state.clone());
            let is_full = version % full_every == 0;
            let (delta_base, wire_state) = if is_full {
                (None, full.clone())
            } else {
                (Some(version - 1), diff_state(&sender_base, &full))
            };
            sender_base = full.clone();
            mirror
                .apply(version, delta_base, &wire_state)
                .unwrap_or_else(|e| {
                    panic!("round {round} version {version}: in-order chain rejected: {e}")
                });
            assert_eq!(
                mirror.state, full,
                "round {round} version {version}: delta restore diverged from full state"
            );
        }
    }
}

#[test]
fn missing_or_reordered_deltas_are_rejected() {
    let mut rng = DeterministicRng::new(0xBAD5EED);
    for _ in 0..25 {
        // Build a 3-link chain: full v1, delta v2 (on v1), delta v3 (on v2).
        let mut app_state = vec![7u8; rng.gen_range_u64(64..=1024) as usize];
        let v1 = Bytes::from(app_state.clone());
        mutate(&mut app_state, &mut rng);
        let v2 = Bytes::from(app_state.clone());
        mutate(&mut app_state, &mut rng);
        let v3 = Bytes::from(app_state.clone());
        let d2 = diff_state(&v1, &v2);
        let d3 = diff_state(&v2, &v3);

        // Skipping d2 (lost message) must not let d3 apply.
        let mut mirror = Mirror {
            version: 1,
            state: v1.clone(),
        };
        assert!(mirror.apply(3, Some(2), &d3).is_err(), "missing delta");
        // The rejection left the mirror untouched…
        assert_eq!(mirror.version, 1);
        assert_eq!(mirror.state, v1);

        // …and applying out of order (d3 before d2) fails the same way.
        let mut mirror = Mirror {
            version: 1,
            state: v1.clone(),
        };
        assert!(mirror.apply(3, Some(2), &d3).is_err(), "out of order");
        assert!(mirror.apply(2, Some(1), &d2).is_ok(), "in order is fine");
        assert_eq!(mirror.state, v2);
        assert!(mirror.apply(3, Some(2), &d3).is_ok());
        assert_eq!(mirror.state, v3);

        // A later full snapshot always resynchronizes a broken mirror.
        let mut broken = Mirror {
            version: 1,
            state: v1.clone(),
        };
        assert!(broken.apply(3, Some(2), &d3).is_err());
        assert!(broken.apply(3, None, &v3).is_ok());
        assert_eq!(broken.state, v3);
    }
}

#[test]
fn wrong_length_bases_fail_at_the_byte_layer_too() {
    // Even without version bookkeeping, a delta diffed against a state of
    // a different length cannot apply (defense in depth below the chain
    // rule).
    let mut rng = DeterministicRng::new(0x1E46);
    for _ in 0..25 {
        let a = Bytes::from(vec![1u8; rng.gen_range_u64(10..=100) as usize]);
        let mut b = a.to_vec();
        b[0] ^= 0xFF;
        let delta = diff_state(&a, &Bytes::from(b));
        let shorter = Bytes::from(vec![1u8; a.len() - 1]);
        assert!(matches!(
            apply_delta(&shorter, &delta),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }
}

/// A delta the byte layer rejects — truncated, with a run past the end of
/// the state, or diffed against a base of another length — returns its
/// error and leaves the mirror byte-identical, whether the mirror is its
/// buffer's only handle or shares it.
#[test]
fn rejected_deltas_leave_the_mirror_untouched() {
    let mut rng = DeterministicRng::new(0x0B57A1E);
    for _ in 0..50 {
        let len = rng.gen_range_u64(16..=4096) as usize;
        let base: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut next = base.clone();
        // Byte 0 stays as it is, so no delta is a single whole-state run
        // (which replaces a base of any length).
        for _ in 0..=rng.gen_range_u64(0..=8) {
            let at = rng.gen_range_u64(1..=len as u64 - 1) as usize;
            next[at] = next[at].wrapping_add(1);
        }
        let delta = diff_state(&Bytes::from(base.clone()), &Bytes::from(next)).to_vec();
        let mut past_the_end = delta.clone();
        past_the_end.extend_from_slice(&(len as u32 - 1).to_le_bytes());
        past_the_end.extend_from_slice(&2u32.to_le_bytes());
        past_the_end.extend_from_slice(&[0, 0]);
        let cases = [
            (delta[..3].to_vec(), &base[..], DeltaError::Malformed),
            (
                delta[..delta.len() - 1].to_vec(),
                &base[..],
                DeltaError::Malformed,
            ),
            (past_the_end, &base[..], DeltaError::Malformed),
            (
                delta,
                &base[1..],
                DeltaError::BaseMismatch {
                    expected: len,
                    actual: len - 1,
                },
            ),
        ];
        for (bad, state, error) in cases {
            let bad = Bytes::from(bad);
            let mut sole = Bytes::copy_from_slice(state);
            let at = sole.as_ptr();
            assert_eq!(apply_delta_in_place(&mut sole, &bad), Err(error.clone()));
            assert_eq!((sole.as_ptr(), &sole[..]), (at, state));
            let mut shared = Bytes::copy_from_slice(state);
            let other = shared.clone();
            assert_eq!(apply_delta_in_place(&mut shared, &bad), Err(error));
            assert_eq!((shared.as_ptr(), &shared[..]), (other.as_ptr(), state));
        }
    }
}

#[test]
fn checkpoint_frames_with_random_deltas_round_trip() {
    let mut rng = DeterministicRng::new(0xC0DEC);
    for i in 0..50u64 {
        let state_len = rng.gen_range_u64(0..=2048) as usize;
        let mut state = Vec::with_capacity(state_len);
        for _ in 0..state_len {
            state.push(rng.next_u64() as u8);
        }
        let delta_base = if i % 2 == 0 {
            Some(rng.next_u64())
        } else {
            None
        };
        let msg = ReplicatorMsg::Checkpoint {
            version: rng.next_u64(),
            delta_base,
            style: ReplicationStyle::WarmPassive,
            final_for_switch: i % 7 == 0,
            state: Bytes::from(state),
            replies: vec![],
        };
        let encoded = msg.encode();
        assert_eq!(encoded.len(), msg.encoded_len(), "presizing must be exact");
        assert_eq!(ReplicatorMsg::decode(encoded).unwrap(), msg);
    }
}
