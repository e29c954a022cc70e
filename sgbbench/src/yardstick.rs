//! The yardstick: a fixed piece of work, timed before every set-up and
//! every block of the timed pass, that scales set-up times and statement
//! latencies to one reference machine speed.
//!
//! The benchmark runs on shared machines whose other tenants slow all
//! work by 10–40% for seconds to minutes at a time. On the calibration
//! machine the quartile spread of a run's `stmt_p50_ms` over ten runs of
//! one build reached 42% of the median, more than any regression bound
//! worth having. The yardstick sorts and hashes the way the engine's
//! joins and groupings do, in buffers of its own, so no engine change
//! touches it; a set-up, or a block — a round of a read-only workload, or
//! a run of `session-mix` statements — is short next to the slow spells.
//! Multiplying each time by [`REFERENCE_MS`] ÷ the yardstick time just
//! before it keeps every change the engine makes and removes most of what
//! the machine does.

use std::collections::HashMap;
use std::time::Instant;

/// About the yardstick's time on the calibration machine (see README.md):
/// times are reported as if the machine ran the yardstick in this long.
pub const REFERENCE_MS: f64 = 5.5;

/// Keys sorted and hashed per round.
const KEYS: usize = 100_000;
/// Slots of the open-addressing table: 8 MiB, past the core's caches.
const SLOTS: usize = 1 << 20;

/// The yardstick's buffers, allocated once so its rounds never touch
/// the allocator the engine uses.
pub struct Yardstick {
    keys: Vec<u64>,
    map: HashMap<u64, usize>,
    slots: Vec<u64>,
}

impl Yardstick {
    /// Allocates the buffers.
    pub fn new() -> Self {
        Self {
            keys: vec![0; KEYS],
            map: HashMap::with_capacity(KEYS / 2),
            slots: vec![0; SLOTS],
        }
    }

    /// Times one round, in milliseconds: generate and sort the keys,
    /// index every other one in a hash map and probe them all, then
    /// scatter them into the slot table and probe it.
    pub fn time_ms(&mut self) -> f64 {
        let started = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for k in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Never 0, which marks a free slot.
            *k = x | 1;
        }
        self.keys.sort_unstable();
        self.map.clear();
        self.map.extend(
            self.keys
                .iter()
                .step_by(2)
                .enumerate()
                .map(|(i, &k)| (k, i)),
        );
        let mut hits = self
            .keys
            .iter()
            .filter(|k| self.map.contains_key(k))
            .count();
        self.slots.fill(0);
        let mask = SLOTS - 1;
        let slot = |k: u64| (k.rotate_left(17) as usize) & mask;
        for &k in &self.keys {
            let mut i = slot(k);
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = k;
        }
        for &k in &self.keys {
            let mut i = slot(k);
            while self.slots[i] != 0 && self.slots[i] != k {
                i = (i + 1) & mask;
            }
            hits += usize::from(self.slots[i] == k);
        }
        std::hint::black_box(hits);
        started.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The work is fixed: every key is found in the slot table and every
    /// other one in the map, round after round.
    #[test]
    fn rounds_repeat_the_same_work() {
        let mut y = Yardstick::new();
        for _ in 0..2 {
            assert!(y.time_ms() > 0.0);
            assert_eq!(y.map.len(), KEYS / 2);
            assert_eq!(y.slots.iter().filter(|&&s| s != 0).count(), KEYS);
        }
    }
}
