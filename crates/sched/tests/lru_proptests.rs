//! Differential property battery for the hashed LRU table.
//!
//! [`HashedLru`] backs both the Flow-Director steering table and the
//! hashed stream-state cache, so its behavior must be *exactly* LRU —
//! not approximately. Every test here drives the table and an oracle
//! built on a `VecDeque` (front = most recently used) through the same
//! operation sequence and compares:
//!
//! * the capacity bound is never exceeded;
//! * every eviction removes precisely the oracle's LRU entry;
//! * hit/miss/insert/evict counters balance against the op stream;
//! * a seeded replay of the same operations is bit-identical.

use std::collections::VecDeque;

use afs_sched::{HashedLru, LruStats};
use proptest::prelude::*;

/// One table operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u64),
    Peek(u64),
    Insert(u64, u32),
    Remove(u64),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    let key = 0..key_space;
    prop_oneof![
        key.clone().prop_map(Op::Get),
        key.clone().prop_map(Op::Peek),
        (key.clone(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.prop_map(Op::Remove),
    ]
}

/// Exact-LRU oracle: a recency-ordered deque of `(key, value)`.
#[derive(Debug, Default)]
struct Oracle {
    deque: VecDeque<(u64, u32)>,
    cap: usize,
    stats: LruStats,
}

impl Oracle {
    fn new(cap: usize) -> Self {
        Oracle {
            deque: VecDeque::new(),
            cap,
            stats: LruStats::default(),
        }
    }

    fn pos(&self, key: u64) -> Option<usize> {
        self.deque.iter().position(|&(k, _)| k == key)
    }

    fn get(&mut self, key: u64) -> Option<u32> {
        match self.pos(key) {
            Some(i) => {
                self.stats.hits += 1;
                let e = self.deque.remove(i).unwrap();
                self.deque.push_front(e);
                Some(e.1)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn peek(&self, key: u64) -> Option<u32> {
        self.pos(key).map(|i| self.deque[i].1)
    }

    fn insert(&mut self, key: u64, value: u32) -> Option<(u64, u32)> {
        if let Some(i) = self.pos(key) {
            self.deque.remove(i);
            self.deque.push_front((key, value));
            return None;
        }
        let mut evicted = None;
        if self.deque.len() == self.cap {
            evicted = self.deque.pop_back();
            self.stats.evictions += 1;
        }
        self.deque.push_front((key, value));
        self.stats.inserts += 1;
        evicted
    }

    fn remove(&mut self, key: u64) -> Option<u32> {
        let i = self.pos(key)?;
        self.deque.remove(i).map(|(_, v)| v)
    }

    fn keys_mru_first(&self) -> Vec<u64> {
        self.deque.iter().map(|&(k, _)| k).collect()
    }
}

fn run_ops(cap: usize, ops: &[Op]) -> (HashedLru<u32>, Vec<u64>) {
    let mut table: HashedLru<u32> = HashedLru::new(cap);
    let mut oracle = Oracle::new(cap);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Get(k) => {
                assert_eq!(table.get(k), oracle.get(k), "get({k}) at step {step}");
            }
            Op::Peek(k) => {
                assert_eq!(table.peek(k), oracle.peek(k), "peek({k}) at step {step}");
            }
            Op::Insert(k, v) => {
                assert_eq!(
                    table.insert(k, v),
                    oracle.insert(k, v),
                    "insert({k}) evicted the wrong entry at step {step}"
                );
            }
            Op::Remove(k) => {
                assert_eq!(
                    table.remove(k),
                    oracle.remove(k),
                    "remove({k}) at step {step}"
                );
            }
        }
        assert!(
            table.len() <= cap,
            "capacity bound {cap} exceeded: {} at step {step}",
            table.len()
        );
        assert_eq!(table.len(), oracle.deque.len(), "len drift at step {step}");
        assert_eq!(table.stats, oracle.stats, "counter drift at step {step}");
        assert_eq!(
            table.keys_mru_first().last(),
            oracle.deque.back().map(|(k, _)| k),
            "eviction victim drift at step {step}"
        );
    }
    let keys = table.keys_mru_first();
    assert_eq!(keys, oracle.keys_mru_first(), "recency order drift");
    (table, keys)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok().and_then(|v| v.parse().ok()).unwrap_or(256),
        ..ProptestConfig::default()
    })]

    /// The table is a bit-exact LRU against the deque oracle for any
    /// op sequence: same hits, same misses, same victims, same order.
    #[test]
    fn matches_deque_oracle(
        cap in 1usize..24,
        ops in proptest::collection::vec(op_strategy(48), 1..400),
    ) {
        run_ops(cap, &ops);
    }

    /// Tight key spaces hammer the update/touch paths.
    #[test]
    fn matches_oracle_under_heavy_reuse(
        cap in 1usize..4,
        ops in proptest::collection::vec(op_strategy(6), 1..200),
    ) {
        run_ops(cap, &ops);
    }

    /// Counter balance: every lookup is a hit or a miss, and every
    /// insert is still resident, was evicted, or was removed.
    #[test]
    fn counters_balance(
        cap in 1usize..16,
        ops in proptest::collection::vec(op_strategy(32), 1..300),
    ) {
        let lookups = ops.iter().filter(|o| matches!(o, Op::Get(_))).count() as u64;
        let removes = ops.iter().filter(|o| matches!(o, Op::Remove(_))).count() as u64;
        let (table, _) = run_ops(cap, &ops);
        prop_assert_eq!(table.stats.hits + table.stats.misses, lookups);
        // inserts = live + evicted + removed-while-live; removals of
        // absent keys don't consume an insert, hence the inequality.
        prop_assert!(table.stats.inserts >= table.stats.evictions + table.len() as u64);
        prop_assert!(
            table.stats.inserts <= table.stats.evictions + table.len() as u64 + removes
        );
    }

    /// Seeded replay: the same op sequence gives bit-identical counters
    /// and recency order every time (no hidden layout dependence).
    #[test]
    fn replay_is_bit_identical(
        cap in 1usize..16,
        ops in proptest::collection::vec(op_strategy(32), 1..300),
    ) {
        let (a, keys_a) = run_ops(cap, &ops);
        let (b, keys_b) = run_ops(cap, &ops);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(keys_a, keys_b);
    }
}

/// A full-table crash-style sweep with `for_each_value_mut` keeps the
/// recency order and counters intact (pure value mutation).
#[test]
fn value_sweep_preserves_order() {
    let mut t: HashedLru<u32> = HashedLru::new(8);
    for k in 0..12u64 {
        t.insert(k, k as u32);
    }
    let before = t.keys_mru_first();
    let stats = t.stats;
    t.for_each_value_mut(|_, v| *v = u32::MAX);
    assert_eq!(t.keys_mru_first(), before);
    assert_eq!(t.stats, stats);
    for &k in &before {
        assert_eq!(t.peek(k), Some(u32::MAX));
    }
}
