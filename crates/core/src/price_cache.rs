//! Epoch-invalidated memoization of per-net route prices.
//!
//! Algorithm 3 re-prices every candidate of every critical cell each
//! iteration, and most of that work repeats: the stay candidate of every
//! cell on a net prices the same current route, neighbouring cells
//! produce identical hypothetical pin sets, and across iterations the
//! congestion around most nets has not changed at all. This cache
//! memoizes the per-net price keyed by the net and its (hypothetical)
//! pin positions, and invalidates entries **precisely** with the grid's
//! congestion epochs ([`RouteGrid::epoch`] /
//! [`RouteGrid::region_touched_since`]).
//!
//! # Correctness
//!
//! A price depends only on the grid state inside the net's *region*: the
//! planar bounding box of its pins and its current route, expanded by
//! one gcell (edge costs read via counts at both endpoints of an edge,
//! and the far endpoint of a boundary edge lies one gcell outside the
//! bbox). Every grid mutation stamps the touched gcell, and a rip-up of
//! the net's own route always stamps inside the stored region — so an
//! entry whose region is untouched since its epoch replays **exactly**
//! the price a fresh computation would produce. The cache is a pure
//! memo: hits and misses can never change a result, only its cost.
//!
//! Lookups verify the stored pin set by equality (not just by hash), so
//! a hash collision degrades to a miss, never to a wrong price.
//!
//! Keys are hashed with a fixed integer mixer rather than `std`'s
//! SipHash: the hash only spreads entries over shards and buckets, and
//! every hit is verified, so it needs no resistance to chosen inputs.

use crp_grid::{Gcell, RouteGrid};
use crp_netlist::NetId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Entries per shard before the shard is wholesale-evicted. Eviction
/// only costs future hits — values are verified on every lookup.
const SHARD_CAPACITY: usize = 8192;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Key {
    net: NetId,
    /// Whether this is the stay price (current committed route) or a
    /// hypothetical-pin-set price.
    stay: bool,
    /// Hash of the sorted pin set (0 for stay entries).
    pin_hash: u64,
}

impl Key {
    fn new(net: NetId, stay: bool, pins: &[Gcell]) -> Key {
        // Stay entries price the committed route, whatever the pins.
        let pin_hash = if stay {
            0
        } else {
            pins.iter().fold(0, |h, p| {
                mix(h ^ u64::from(p.x) ^ (u64::from(p.y) << 16) ^ (u64::from(p.layer) << 32))
            })
        };
        Key {
            net,
            stay,
            pin_hash,
        }
    }

    /// The key's hash: one mixed word.
    fn word(&self) -> u64 {
        mix(self.pin_hash ^ (u64::from(self.net.0) << 1) ^ u64::from(self.stay))
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.word());
    }
}

/// The splitmix64 finalizer: a fixed bijection of `u64` that spreads
/// every input bit over the whole word.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a [`Key`] to its [`word`](Key::word): the word is mixed
/// already, so the shard maps use it as it is.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }
}

type Shard = HashMap<Key, Entry, BuildHasherDefault<KeyHasher>>;

#[derive(Debug, Clone)]
struct Entry {
    /// The exact sorted pin set this price was computed for (empty for
    /// stay entries); compared on lookup so hash collisions miss.
    pins: Vec<Gcell>,
    /// Grid epoch at computation time.
    epoch: u64,
    /// Inclusive gcell region the price depends on (bbox + 1 margin).
    lo: (u16, u16),
    hi: (u16, u16),
    /// The memoized price. Only valid while the region is untouched —
    /// every read must sit behind a `region_touched_since` check.
    // crp-lint: epoch-protected(price)
    price: f64,
}

/// A gcell region a price depends on, accumulated from pin and route
/// coordinates and expanded by the one-gcell margin on completion.
#[derive(Debug, Clone, Copy)]
pub struct PriceRegion {
    lo: (u16, u16),
    hi: (u16, u16),
}

impl PriceRegion {
    /// An empty region (absorbs the first point).
    #[must_use]
    pub fn empty() -> PriceRegion {
        PriceRegion {
            lo: (u16::MAX, u16::MAX),
            hi: (0, 0),
        }
    }

    /// Expands the region to cover `(x, y)`.
    pub fn cover(&mut self, x: u16, y: u16) {
        self.lo.0 = self.lo.0.min(x);
        self.lo.1 = self.lo.1.min(y);
        self.hi.0 = self.hi.0.max(x);
        self.hi.1 = self.hi.1.max(y);
    }

    fn is_empty(&self) -> bool {
        self.lo.0 > self.hi.0
    }

    /// The region with the one-gcell safety margin applied (clamping is
    /// the grid's job).
    fn with_margin(&self) -> ((u16, u16), (u16, u16)) {
        (
            (self.lo.0.saturating_sub(1), self.lo.1.saturating_sub(1)),
            (self.hi.0.saturating_add(1), self.hi.1.saturating_add(1)),
        )
    }
}

/// Sharded, thread-safe price memo. See the module docs.
#[derive(Debug)]
pub struct PriceCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PriceCache {
    fn default() -> PriceCache {
        PriceCache::new()
    }
}

impl PriceCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> PriceCache {
        PriceCache {
            shards: (0..16).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The shard of `key`, chosen by bits of its hash that the shard's
    /// own table does not use for its buckets (the low bits) or its tags
    /// (the top seven).
    fn shard_of(&self, key: &Key) -> &Mutex<Shard> {
        &self.shards[((key.word() >> 32) as usize) % self.shards.len()]
    }

    /// Looks up the memoized price of `net` for the given pin set (`stay`
    /// entries pass an empty slice). Returns `Some` only when the stored
    /// pin set matches exactly and no gcell of the entry's region was
    /// touched after its epoch — i.e. only when a fresh computation would
    /// produce the identical value.
    pub fn lookup(&self, grid: &RouteGrid, net: NetId, stay: bool, pins: &[Gcell]) -> Option<f64> {
        let key = Key::new(net, stay, pins);
        // A poisoned shard means some thread panicked while holding the
        // lock; entries are still safe to read because every hit is
        // re-verified against the pins and the grid epoch below.
        let shard = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let hit = shard.get(&key).and_then(|e| {
            if e.pins != pins {
                return None;
            }
            if grid.region_touched_since(e.lo, e.hi, e.epoch) {
                return None;
            }
            Some(e.price)
        });
        drop(shard);
        match hit {
            Some(price) => {
                // atomics(stat counters): hits/misses are monotonic telemetry
                // read after the parallel phase joins; no flow decision reads
                // them concurrently, so Relaxed RMWs suffice.
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(price)
            }
            None => {
                // atomics(stat counters): same protocol as `hits` above.
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a freshly computed price with its dependency region. The
    /// epoch is taken from the grid **now**, so the entry is valid as
    /// long as the region stays untouched.
    pub fn store(
        &self,
        grid: &RouteGrid,
        net: NetId,
        stay: bool,
        pins: &[Gcell],
        region: PriceRegion,
        price: f64,
    ) {
        if region.is_empty() {
            // Nothing spatial to invalidate on (an unplaced or pinless
            // net); caching it would make the entry immortal. Skip.
            return;
        }
        let key = Key::new(net, stay, pins);
        let (lo, hi) = region.with_margin();
        let entry = Entry {
            pins: pins.to_vec(),
            epoch: grid.epoch(),
            lo,
            hi,
            price,
        };
        // Poison recovery: see `lookup` — entries are verified on read, so
        // inserting past a poisoned lock cannot surface a torn value.
        let mut shard = self
            .shard_of(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if shard.len() >= SHARD_CAPACITY {
            shard.clear();
        }
        shard.insert(key, entry);
    }

    /// Total lookup hits since construction (or the last `reset_stats`).
    #[must_use]
    pub fn hits(&self) -> u64 {
        // atomics(stat counters): read after the phase joins (see lookup).
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookup misses since construction (or the last `reset_stats`).
    #[must_use]
    pub fn misses(&self) -> u64 {
        // atomics(stat counters): read after the phase joins (see lookup).
        self.misses.load(Ordering::Relaxed)
    }

    /// Resets the hit/miss counters (entries are kept).
    pub fn reset_stats(&self) {
        // atomics(stat counters): called between phases, never concurrently
        // with lookups (see lookup).
        self.hits.store(0, Ordering::Relaxed);
        // atomics(stat counters): same protocol as the line above.
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clear();
        }
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::Point;
    use crp_grid::{Edge, GridConfig};
    use crp_netlist::{DesignBuilder, MacroCell};

    fn grid() -> RouteGrid {
        let mut b = DesignBuilder::new("pc", 1000);
        b.site(200, 2000);
        let _ = b.add_macro(MacroCell::new("M", 200, 2000));
        b.add_rows(30, 300, Point::new(0, 0)); // 20x20 gcells
        RouteGrid::new(&b.build(), GridConfig::default())
    }

    fn region(lo: (u16, u16), hi: (u16, u16)) -> PriceRegion {
        let mut r = PriceRegion::empty();
        r.cover(lo.0, lo.1);
        r.cover(hi.0, hi.1);
        r
    }

    #[test]
    fn store_then_lookup_hits_until_region_touched() {
        let mut g = grid();
        let cache = PriceCache::new();
        let net = NetId(3);
        let pins = [Gcell::new(2, 2, 0), Gcell::new(5, 4, 0)];
        assert_eq!(cache.lookup(&g, net, false, &pins), None);
        cache.store(&g, net, false, &pins, region((2, 2), (5, 4)), 42.5);
        assert_eq!(cache.lookup(&g, net, false, &pins), Some(42.5));

        // A mutation outside the region (+1 margin) keeps the entry.
        g.add_wire(Edge::planar(1, 10, 10));
        assert_eq!(cache.lookup(&g, net, false, &pins), Some(42.5));

        // A mutation in the margin ring invalidates.
        g.add_wire(Edge::planar(1, 6, 4));
        assert_eq!(cache.lookup(&g, net, false, &pins), None);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn different_pin_sets_are_distinct_entries() {
        let g = grid();
        let cache = PriceCache::new();
        let net = NetId(0);
        let a = [Gcell::new(1, 1, 0), Gcell::new(3, 3, 0)];
        let b = [Gcell::new(1, 1, 0), Gcell::new(4, 3, 0)];
        cache.store(&g, net, false, &a, region((1, 1), (3, 3)), 1.0);
        cache.store(&g, net, false, &b, region((1, 1), (4, 3)), 2.0);
        assert_eq!(cache.lookup(&g, net, false, &a), Some(1.0));
        assert_eq!(cache.lookup(&g, net, false, &b), Some(2.0));
    }

    #[test]
    fn stay_and_move_entries_do_not_collide() {
        let g = grid();
        let cache = PriceCache::new();
        let net = NetId(7);
        cache.store(&g, net, true, &[], region((0, 0), (2, 2)), 10.0);
        let pins = [Gcell::new(0, 0, 0), Gcell::new(2, 2, 0)];
        cache.store(&g, net, false, &pins, region((0, 0), (2, 2)), 20.0);
        assert_eq!(cache.lookup(&g, net, true, &[]), Some(10.0));
        assert_eq!(cache.lookup(&g, net, false, &pins), Some(20.0));
    }

    #[test]
    fn empty_region_is_never_cached() {
        let g = grid();
        let cache = PriceCache::new();
        cache.store(&g, NetId(1), false, &[], PriceRegion::empty(), 5.0);
        assert_eq!(cache.lookup(&g, NetId(1), false, &[]), None);
    }

    #[test]
    fn clear_and_reset() {
        let g = grid();
        let cache = PriceCache::new();
        let pins = [Gcell::new(1, 1, 0)];
        cache.store(&g, NetId(2), false, &pins, region((1, 1), (1, 1)), 3.0);
        assert_eq!(cache.lookup(&g, NetId(2), false, &pins), Some(3.0));
        cache.clear();
        assert_eq!(cache.lookup(&g, NetId(2), false, &pins), None);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn region_margin_covers_neighbor_gcell() {
        let mut g = grid();
        let cache = PriceCache::new();
        let pins = [Gcell::new(5, 5, 0)];
        cache.store(&g, NetId(4), false, &pins, region((5, 5), (5, 5)), 1.0);
        // Touch (6, 5): inside the +1 margin -> entry must die, because a
        // via there changes the demand of the edge (5,5)-(6,5).
        g.add_via(6, 5, 1);
        assert_eq!(cache.lookup(&g, NetId(4), false, &pins), None);
    }
}
