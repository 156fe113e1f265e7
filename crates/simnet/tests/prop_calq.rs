//! Property test for the calendar queue's run lane: any interleaving of
//! `push`, `push_run`, `pop`, `pop_due`, `peek_time` and `retain` pops
//! exactly what a reference binary heap on `(time, insertion stamp)` pops.
//! Runs cover the edge shapes: empty, one entry, equal-time ties, and
//! descents that split a batch into several runs.

use aiacc_simnet::CalendarQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// SplitMix64: expands one generated word into a stream of run entries.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Time spans ahead of "now": within one bucket, across the default wheel,
/// and far past its horizon (the overflow heap).
const SPANS: [u64; 3] = [64, 1 << 24, 1 << 36];

/// The queue under test and the reference, fed the same operations. Each
/// entry's payload is its insertion stamp, so pops compare `(at, seq)`.
struct Pair {
    q: CalendarQueue<u64>,
    reference: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
    now: u64,
}

impl Pair {
    fn stamp(&mut self, at: u64) -> (u64, u64) {
        self.seq += 1;
        self.reference.push(Reverse((at, self.seq)));
        (at, self.seq)
    }

    /// A run of `len` entries from `x`: each steps forward, ties its
    /// predecessor, or descends below it.
    fn run(&mut self, mut x: u64, len: usize, span: u64) -> Vec<(u64, u64)> {
        let mut at = self.now + mix(&mut x) % span;
        (0..len)
            .map(|i| {
                if i > 0 {
                    let r = mix(&mut x);
                    at = match r % 8 {
                        0 | 1 => at,                                   // tie
                        2 => at.saturating_sub(r % span.min(1 << 20)), // descent
                        _ => at + (r >> 8) % (span / 16 + 1),          // step
                    };
                }
                self.stamp(at)
            })
            .collect()
    }

    fn expect_pop(&mut self) -> Option<(u64, u64)> {
        let want = self.reference.pop().map(|Reverse(p)| p);
        if let Some((at, _)) = want {
            self.now = self.now.max(at);
        }
        want
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn runs_pop_like_a_reference_heap(
        ops in prop::collection::vec((0u8..12, any::<u64>(), 0usize..3), 0..1200)
    ) {
        let mut p = Pair { q: CalendarQueue::new(), reference: BinaryHeap::new(), seq: 0, now: 0 };
        for (k, x, s) in ops {
            let span = SPANS[s];
            match k {
                0 | 1 => {
                    let (at, seq) = p.stamp(p.now + x % span);
                    p.q.push(at, seq);
                }
                2..=4 => {
                    // Lengths 0..=64; short runs (0, 1, 2) come up often.
                    let len = if k == 2 { (x % 3) as usize } else { (x >> 58) as usize };
                    let entries = p.run(x, len, span);
                    p.q.push_run(entries);
                }
                5..=7 => {
                    let got = p.q.pop();
                    prop_assert_eq!(got, p.expect_pop());
                }
                8 | 9 => {
                    let t = p.now + x % span;
                    let due = p.reference.peek().is_some_and(|Reverse((at, _))| *at <= t);
                    let want = if due { p.expect_pop() } else { None };
                    prop_assert_eq!(p.q.pop_due(t), want);
                }
                10 => {
                    let want = p.reference.peek().map(|Reverse((at, _))| *at);
                    prop_assert_eq!(p.q.peek_time(), want);
                }
                _ => {
                    let keep = |seq: &u64| !(seq ^ x).is_multiple_of(4);
                    p.q.retain(keep);
                    p.reference.retain(|Reverse((_, seq))| keep(seq));
                }
            }
            prop_assert_eq!(p.q.len(), p.reference.len());
        }
        while let Some(want) = p.expect_pop() {
            prop_assert_eq!(p.q.pop(), Some(want));
        }
        prop_assert!(p.q.is_empty());
        prop_assert_eq!(p.q.pop(), None);
    }
}

#[test]
fn many_long_runs_merge_with_a_busy_wheel() {
    // The training shape: one long sorted run per worker plus a steady
    // trickle of wheel timers, enough of both to force wheel rebuilds
    // while runs are live.
    let mut p = Pair { q: CalendarQueue::new(), reference: BinaryHeap::new(), seq: 0, now: 0 };
    for round in 0..4u64 {
        for w in 0..64u64 {
            let entries = p.run(round * 1000 + w, 300, 1 << 24);
            p.q.push_run(entries);
        }
        let mut x = round;
        for i in 0..20_000 {
            if i % 3 == 0 {
                let (at, seq) = p.stamp(p.now + mix(&mut x) % (1 << 22));
                p.q.push(at, seq);
            }
            let want = p.expect_pop();
            assert_eq!(p.q.pop(), want);
        }
    }
    while let Some(want) = p.expect_pop() {
        assert_eq!(p.q.pop(), Some(want));
    }
    assert!(p.q.is_empty());
}
