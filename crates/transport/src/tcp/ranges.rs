//! The byte-range store behind reassembly and the SACK scoreboard.

/// Byte ranges `[start, end)` sorted by start: the receiver's
/// out-of-order store and the sender's SACK scoreboard. Both are empty
/// outside a recovery episode and hold a handful of ranges inside one,
/// so a flat vector that keeps its capacity between episodes beats a
/// tree that allocates a node per segment.
#[derive(Default)]
pub(super) struct Ranges(Vec<(u64, u64)>);

impl Ranges {
    pub(super) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The ranges, in order of start.
    pub(super) fn as_slice(&self) -> &[(u64, u64)] {
        &self.0
    }

    /// Inserts `[start, end)`, keyed by `start`.
    ///
    /// A range that starts exactly where a held one starts *replaces*
    /// that range's end, even with a smaller one — so a duplicate of the
    /// first segment of a held run makes the store forget the rest of
    /// the run (ROADMAP item 15 has the reproduction). Taking the larger
    /// end is the fix; it moves goodput under loss, so it is kept out of
    /// a change whose gate is bit-equal behaviour.
    pub(super) fn insert(&mut self, start: u64, end: u64) {
        let at = self.0.partition_point(|&(s, _)| s < start);
        match self.0.get_mut(at) {
            Some(held) if held.0 == start => held.1 = end,
            _ => self.0.insert(at, (start, end)),
        }
    }

    /// Merges overlapping and touching ranges in place, clipping to
    /// `floor` and dropping what lies wholly below it.
    pub(super) fn coalesce(&mut self, floor: u64) {
        let mut kept = 0usize;
        for i in 0..self.0.len() {
            let (start, end) = self.0[i];
            if end <= floor {
                continue;
            }
            let start = start.max(floor);
            if kept > 0 && start <= self.0[kept - 1].1 {
                let last_end = &mut self.0[kept - 1].1;
                *last_end = (*last_end).max(end);
            } else {
                self.0[kept] = (start, end);
                kept += 1;
            }
        }
        self.0.truncate(kept);
    }

    /// Removes the leading ranges that begin at or before `pos` and
    /// returns how far they carry it.
    pub(super) fn take_prefix(&mut self, mut pos: u64) -> u64 {
        let mut taken = 0;
        for &(start, end) in &self.0 {
            if start > pos {
                break;
            }
            pos = pos.max(end);
            taken += 1;
        }
        self.0.drain(..taken);
        pos
    }

    /// Index of the first range that starts after `pos`.
    fn first_after(&self, pos: u64) -> usize {
        self.0.partition_point(|&(s, _)| s <= pos)
    }

    /// If `pos` lies inside a range, the range's end.
    pub(super) fn end_covering(&self, pos: u64) -> Option<u64> {
        let &(_, end) = self.0.get(self.first_after(pos).checked_sub(1)?)?;
        (pos < end).then_some(end)
    }

    /// Where the first range that starts after `pos` starts.
    pub(super) fn next_start_after(&self, pos: u64) -> Option<u64> {
        self.0.get(self.first_after(pos)).map(|&(s, _)| s)
    }

    /// The end of the last range.
    pub(super) fn last_end(&self) -> Option<u64> {
        self.0.last().map(|&(_, e)| e)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use cm_util::DetRng;

    use super::*;

    #[test]
    fn ranges_coalesce_clip_and_search() {
        let mut r = Ranges::default();
        for (s, e) in [(30, 40), (10, 20), (20, 25), (50, 60), (35, 45)] {
            r.insert(s, e);
        }
        // Sorted by start; touching and overlapping ranges merge.
        r.coalesce(0);
        assert_eq!(r.0, [(10, 25), (30, 45), (50, 60)]);
        assert_eq!(r.end_covering(9), None);
        assert_eq!(r.end_covering(10), Some(25));
        assert_eq!(r.end_covering(24), Some(25));
        assert_eq!(r.end_covering(25), None);
        assert_eq!(r.next_start_after(9), Some(10));
        assert_eq!(r.next_start_after(10), Some(30));
        assert_eq!(r.next_start_after(50), None);
        assert_eq!(r.last_end(), Some(60));
        // A floor drops what lies below it and clips what straddles it.
        r.coalesce(35);
        assert_eq!(r.0, [(35, 45), (50, 60)]);
        // Only ranges reachable from the position are taken.
        assert_eq!(r.take_prefix(34), 34);
        assert_eq!(r.take_prefix(40), 45);
        assert_eq!(r.0, [(50, 60)]);
        assert_eq!(r.take_prefix(50), 60);
        assert!(r.is_empty());
    }

    /// The maximal runs of consecutive bytes in `bytes`.
    fn runs(bytes: &BTreeSet<u64>) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &b in bytes {
            match runs.last_mut() {
                Some(run) if run.1 == b => run.1 += 1,
                _ => runs.push((b, b + 1)),
            }
        }
        runs
    }

    /// `Ranges` against a set of the bytes it holds, over seeded runs of
    /// `insert`, `coalesce` and `take_prefix`; after each `coalesce` the
    /// store must be exactly the set's runs, and the searches must read
    /// the set. Inserts take distinct starts only: an insert at a held
    /// start replaces the held end, so equal starts make this model red
    /// until ROADMAP item 15's fix lands and adds them.
    #[test]
    fn ranges_match_a_byte_set_model() {
        for seed in 0..256 {
            let mut rng = DetRng::seed(seed);
            let mut r = Ranges::default();
            let mut bytes = BTreeSet::new();
            for step in 0..32 {
                let ctx = format!("seed {seed} step {step}");
                match rng.next_bounded(4) {
                    0 | 1 => {
                        let start = rng.next_bounded(200);
                        let end = start + 1 + rng.next_bounded(20);
                        if r.0.iter().any(|&(s, _)| s == start) {
                            continue;
                        }
                        r.insert(start, end);
                        bytes.extend(start..end);
                    }
                    2 => {
                        let floor = rng.next_bounded(40);
                        r.coalesce(floor);
                        bytes.retain(|&b| b >= floor);
                        let runs = runs(&bytes);
                        assert_eq!(r.0, runs, "{ctx}: coalesce({floor})");
                        for pos in 0..230 {
                            let run = runs.iter().find(|&&(s, e)| s <= pos && pos < e);
                            assert_eq!(r.end_covering(pos), run.map(|r| r.1), "{ctx}: {pos}");
                            let next = runs.iter().find(|&&(s, _)| s > pos);
                            assert_eq!(r.next_start_after(pos), next.map(|r| r.0), "{ctx}");
                        }
                        assert_eq!(r.last_end(), bytes.last().map(|b| b + 1), "{ctx}");
                    }
                    _ => {
                        let pos = rng.next_bounded(200);
                        let carried = (pos..).find(|b| !bytes.contains(b)).unwrap_or(pos);
                        assert_eq!(r.take_prefix(pos), carried, "{ctx}: take_prefix({pos})");
                        bytes.retain(|&b| b >= carried);
                    }
                }
                let held: BTreeSet<u64> = r.0.iter().flat_map(|&(s, e)| s..e).collect();
                assert_eq!(held, bytes, "{ctx}");
                assert!(r.0.windows(2).all(|w| w[0].0 < w[1].0), "{ctx}: sorted");
            }
        }
    }
}
