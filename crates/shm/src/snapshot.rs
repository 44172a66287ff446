//! Atomic snapshot from single-writer registers by double collect.
//!
//! The standard SM model of the paper (§1) assumes snapshots; this module
//! provides the classical wait-free-in-practice implementation used to
//! justify that assumption: a scan repeatedly collects all registers until
//! two consecutive collects agree (each register carries a sequence
//! number). The simple double-collect scan is lock-free rather than
//! wait-free (a scan can retry forever under a pathological scheduler);
//! that suffices here because it is used only as a building block in
//! fair-scheduled executions. The full wait-free construction (Afek et al.)
//! embeds scans into writes; the IS object of [`crate::is_object`] — the
//! piece the paper's theory actually needs — is wait-free outright.

use gact_iis::ProcessId;

use crate::memory::RegisterArray;

/// One labelled cell of the snapshot object.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Cell<T> {
    seq: u64,
    value: T,
}

/// A snapshot object over `n` single-writer cells.
#[derive(Clone, Debug)]
pub struct SnapshotObject<T> {
    registers: RegisterArray<Cell<T>>,
}

impl<T: Clone + PartialEq> SnapshotObject<T> {
    /// Creates the object with `count` cells.
    pub fn new(count: usize) -> Self {
        SnapshotObject {
            registers: RegisterArray::new(count),
        }
    }

    /// `update(p, v)`: one write step.
    pub fn update(&mut self, p: ProcessId, value: T) {
        let seq = self.registers.read(p).map(|c| c.seq + 1).unwrap_or(0);
        self.registers.write(p, Cell { seq, value });
    }

    /// A single collect (one read per register — here compressed into one
    /// call for callers that don't need step-level interleaving).
    pub fn collect(&mut self) -> Vec<Option<(u64, T)>> {
        (0..self.registers.len())
            .map(|i| {
                self.registers
                    .read(ProcessId(i as u8))
                    .map(|c| (c.seq, c.value))
            })
            .collect()
    }

    /// Double-collect scan: retries until two consecutive collects agree.
    /// Returns `None` if `max_retries` is exhausted (interference).
    pub fn scan(&mut self, max_retries: usize) -> Option<Vec<Option<T>>> {
        let mut prev = self.collect();
        for _ in 0..max_retries {
            let cur = self.collect();
            if prev == cur {
                return Some(cur.into_iter().map(|c| c.map(|(_, v)| v)).collect());
            }
            prev = cur;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_after_quiescence_sees_all_updates() {
        let mut s = SnapshotObject::new(3);
        s.update(ProcessId(0), 10u32);
        s.update(ProcessId(2), 30u32);
        let view = s.scan(4).unwrap();
        assert_eq!(view, vec![Some(10), None, Some(30)]);
    }

    #[test]
    fn sequence_numbers_detect_overwrites() {
        let mut s = SnapshotObject::new(1);
        s.update(ProcessId(0), 1u32);
        s.update(ProcessId(0), 1u32); // same value, new seq
        let c = s.collect();
        assert_eq!(c[0].as_ref().unwrap().0, 1); // second write has seq 1
    }
}
