//! Set-associative cache model with MOESI line states.
//!
//! The study's processor cache is 1 MB, direct-mapped, 64-byte blocks
//! ([`CacheConfig::default`]). The same structure models the small NI
//! caches of the coherent network interfaces (e.g. the 32-entry,
//! fully-associative receive cache of `CNI_32Q_m`), so associativity is a
//! parameter.
//!
//! The cache tracks *tags and states only* — simulated programs have no
//! data values, the timing model only needs to know where the freshest copy
//! of each block lives.

use nisim_engine::metrics::{Component, ComponentCycles};
use nisim_engine::{Dur, Json};

use crate::addr::{Addr, BlockAddr, BlockGeometry};
use crate::moesi::MoesiState;

/// Cache geometry and policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Block (line) size in bytes; must match the bus geometry.
    pub block_bytes: u64,
    /// Associativity; 1 = direct-mapped. Use `ways == size/block` for a
    /// fully-associative cache.
    pub ways: u32,
}

impl Default for CacheConfig {
    /// The paper's processor cache: 1 MB, direct-mapped, 64 B blocks.
    fn default() -> Self {
        CacheConfig {
            size_bytes: 1 << 20,
            block_bytes: 64,
            ways: 1,
        }
    }
}

impl CacheConfig {
    /// A fully-associative cache of `entries` blocks of `block_bytes`.
    pub fn fully_associative(entries: u32, block_bytes: u64) -> CacheConfig {
        CacheConfig {
            size_bytes: entries as u64 * block_bytes,
            block_bytes,
            ways: entries,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.block_bytes / self.ways as u64
    }
}

/// A block evicted to make room for a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Eviction {
    /// The evicted block.
    pub block: BlockAddr,
    /// Its state at eviction; dirty states require a writeback.
    pub state: MoesiState,
}

/// Hit/miss/writeback counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a valid line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Evictions of dirty lines.
    pub dirty_evictions: u64,
    /// Lines invalidated by snoops.
    pub snoop_invalidations: u64,
}

/// log2 of the line slots per page of the line store.
const PAGE_SHIFT: u32 = 9;
/// Line slots per page of the line store.
const PAGE_LINES: usize = 1 << PAGE_SHIFT;
/// The low bits of a line word that hold its state code. Block
/// addresses are aligned to at least 8 bytes, so they never overlap.
const STATE_BITS: u64 = 0b111;
/// State code (a line word's low bits) to state. Code 0 is Invalid, so
/// an all-zero word is an empty slot; codes 5–7 are never written.
const DECODE: [MoesiState; 8] = [
    MoesiState::Invalid,
    MoesiState::Modified,
    MoesiState::Owned,
    MoesiState::Exclusive,
    MoesiState::Shared,
    MoesiState::Invalid,
    MoesiState::Invalid,
    MoesiState::Invalid,
];

/// The line word for `block` in `state`: 0 when Invalid, otherwise the
/// block address OR'd with the code [`DECODE`] maps back to `state`.
#[inline]
fn line_word(block: BlockAddr, state: MoesiState) -> u64 {
    let code = match state {
        MoesiState::Invalid => return 0,
        MoesiState::Modified => 1,
        MoesiState::Owned => 2,
        MoesiState::Exclusive => 3,
        MoesiState::Shared => 4,
    };
    block.raw() | code
}

/// The state a line word holds.
#[inline]
fn decode(word: u64) -> MoesiState {
    DECODE[(word & STATE_BITS) as usize]
}

/// A set-associative, MOESI-state cache (tags only).
///
/// Each line slot is one `u64` word: the block address OR'd with a state
/// code, 0 when Invalid. Slots live in pages of 512, materialised on the
/// first valid write, so building even the paper's 1 MB cache costs a
/// few small allocations and a run pays only for the pages it touches.
///
/// # Example
///
/// ```
/// use nisim_mem::{Cache, CacheConfig, MoesiState, Addr};
/// let mut c = Cache::new(CacheConfig::fully_associative(2, 64));
/// let geo = c.geometry();
/// let b0 = geo.block_of(Addr::new(0));
/// let b1 = geo.block_of(Addr::new(64));
/// let b2 = geo.block_of(Addr::new(128));
/// assert!(c.insert(b0, MoesiState::Exclusive).is_none());
/// assert!(c.insert(b1, MoesiState::Modified).is_none());
/// // Third insert into a 2-entry cache evicts the LRU block (b0).
/// let ev = c.insert(b2, MoesiState::Shared).unwrap();
/// assert_eq!(ev.block, b0);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    geo: BlockGeometry,
    /// Line slots in all (`sets * ways`).
    lines: usize,
    ways: usize,
    /// `block.raw() >> set_shift & set_mask` is the block's set.
    set_shift: u32,
    set_mask: u64,
    /// For each page of slots, the page of `words` holding it. Page 0 of
    /// `words` is shared by every untouched page and stays all-Invalid.
    dir: Vec<u32>,
    /// Line words, page after page.
    words: Vec<u64>,
    /// Last-use stamps for LRU victim selection, parallel to `words`.
    /// Empty when direct-mapped: a one-way set has no victim to choose.
    lru: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    /// Bitmap of every [`MoesiState`] a line of this cache has ever
    /// held (bit = [`MoesiState::index`]). Maintained in debug builds
    /// only; the static-vs-dynamic agreement test compares it against
    /// the model checker's reachable-state set.
    visited: u8,
    metrics: Option<Box<CacheMetrics>>,
}

/// Cycle accounting for one cache: processor stall time attributed to
/// miss fills and ownership upgrades. The cache itself only tracks tags,
/// so the *durations* are charged by the caller that computed them (the
/// node's coherent access primitives) through these typed handles;
/// collected only when [`Cache::enable_metrics`] was called.
#[derive(Clone, Debug, Default)]
pub struct CacheMetrics {
    /// Miss-fill and upgrade stall cycles.
    pub cycles: ComponentCycles,
}

impl Cache {
    /// Creates an empty cache. Costs O(1) in the capacity: line pages
    /// are materialised on first use.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two block size
    /// or one under 8 bytes, capacity not divisible into `ways` equal
    /// sets, or zero ways).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.ways > 0, "cache must have at least one way");
        let geo = BlockGeometry::new(cfg.block_bytes);
        assert!(
            cfg.block_bytes >= 8,
            "block size must be at least 8 bytes, got {}",
            cfg.block_bytes
        );
        let blocks = cfg.size_bytes / cfg.block_bytes;
        assert!(
            blocks.is_multiple_of(cfg.ways as u64) && blocks > 0,
            "cache capacity must divide into an integral number of sets"
        );
        let sets = blocks / cfg.ways as u64;
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two, got {sets}"
        );
        let ways = cfg.ways as usize;
        let lines = blocks as usize;
        let mut cache = Cache {
            cfg,
            geo,
            lines,
            ways,
            set_shift: cfg.block_bytes.trailing_zeros(),
            set_mask: sets - 1,
            dir: vec![0; lines.div_ceil(PAGE_LINES)],
            words: vec![0; PAGE_LINES],
            lru: if ways > 1 {
                vec![0; PAGE_LINES]
            } else {
                Vec::new()
            },
            clock: 0,
            stats: CacheStats::default(),
            visited: 0,
            metrics: None,
        };
        // Every line starts Invalid, so Invalid is visited by construction.
        cache.note_visit(MoesiState::Invalid);
        cache
    }

    /// Records a state a line takes on, for the debug-build visit bitmap.
    #[inline]
    fn note_visit(&mut self, state: MoesiState) {
        if cfg!(debug_assertions) {
            self.visited |= 1 << state.index();
        }
    }

    /// The set of [`MoesiState`]s lines of this cache have held, as a
    /// bitmap over [`MoesiState::index`]. Always 0 in release builds.
    pub fn visited_mask(&self) -> u8 {
        self.visited
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The block geometry shared with the bus.
    pub fn geometry(&self) -> BlockGeometry {
        self.geo
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Turns on stall-cycle accounting. Observational only.
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(Box::default());
    }

    /// The accumulated stall accounting, if enabled.
    pub fn metrics(&self) -> Option<&CacheMetrics> {
        self.metrics.as_deref()
    }

    /// Charges a miss-fill stall of `dur` (the responder time the caller
    /// computed for the fill). No-op unless metrics are enabled.
    #[inline]
    pub fn charge_miss_stall(&mut self, dur: Dur) {
        if let Some(m) = &mut self.metrics {
            m.cycles.charge(Component::CacheMissStall, dur);
        }
    }

    /// Charges an ownership-upgrade stall of `dur`. No-op unless metrics
    /// are enabled.
    #[inline]
    pub fn charge_upgrade_stall(&mut self, dur: Dur) {
        if let Some(m) = &mut self.metrics {
            m.cycles.charge(Component::CacheUpgradeStall, dur);
        }
    }

    /// The first slot of `block`'s set.
    #[inline]
    fn first_slot(&self, block: BlockAddr) -> usize {
        ((block.raw() >> self.set_shift) & self.set_mask) as usize * self.ways
    }

    /// Where `slot`'s word sits in `words` (in the shared Invalid page if
    /// the slot's page is untouched).
    #[inline]
    fn at(&self, slot: usize) -> usize {
        ((self.dir[slot >> PAGE_SHIFT] as usize) << PAGE_SHIFT) | (slot & (PAGE_LINES - 1))
    }

    /// Where `slot`'s word sits in `words`, materialising its page first.
    fn at_mut(&mut self, slot: usize) -> usize {
        let page = slot >> PAGE_SHIFT;
        if self.dir[page] == 0 {
            self.dir[page] = (self.words.len() >> PAGE_SHIFT) as u32;
            self.words.resize(self.words.len() + PAGE_LINES, 0);
            if self.ways > 1 {
                self.lru.resize(self.words.len(), 0);
            }
        }
        self.at(slot)
    }

    /// Where resident `block`'s word sits in `words`.
    #[inline]
    fn find(&self, block: BlockAddr) -> Option<usize> {
        let first = self.first_slot(block);
        (first..first + self.ways)
            .map(|slot| self.at(slot))
            .find(|&i| {
                let w = self.words[i];
                w & !STATE_BITS == block.raw() && w != block.raw()
            })
    }

    /// Stamps the line at `words[i]` as just used.
    #[inline]
    fn touch(&mut self, i: usize) {
        if self.ways > 1 {
            self.lru[i] = self.clock;
        }
    }

    /// The MOESI state of `block` (`Invalid` if not present).
    pub fn state_of(&self, block: BlockAddr) -> MoesiState {
        self.find(block)
            .map_or(MoesiState::Invalid, |i| decode(self.words[i]))
    }

    /// True if the block is present in a valid state.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Looks up `block`, recording a hit or miss and refreshing LRU on hit.
    /// Returns the state found (`Invalid` on miss).
    pub fn lookup(&mut self, block: BlockAddr) -> MoesiState {
        self.clock += 1;
        match self.find(block) {
            Some(i) => {
                self.stats.hits += 1;
                self.touch(i);
                decode(self.words[i])
            }
            None => {
                self.stats.misses += 1;
                MoesiState::Invalid
            }
        }
    }

    /// Sets the state of a resident block (e.g. after a snoop or an
    /// upgrade). Setting `Invalid` removes the line.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn set_state(&mut self, block: BlockAddr, state: MoesiState) {
        let Some(i) = self.find(block) else {
            panic!("set_state on non-resident {block:?}");
        };
        self.words[i] = line_word(block, state);
        self.note_visit(state);
    }

    /// Invalidates `block` if present, returning its prior state.
    pub fn invalidate(&mut self, block: BlockAddr) -> MoesiState {
        match self.find(block) {
            Some(i) => {
                let prior = decode(self.words[i]);
                self.words[i] = 0;
                self.stats.snoop_invalidations += 1;
                prior
            }
            None => MoesiState::Invalid,
        }
    }

    /// Inserts `block` with `state`, evicting the set's LRU valid line if
    /// the set is full. Returns the eviction, if any.
    ///
    /// Inserting a block that is already resident just updates its state.
    pub fn insert(&mut self, block: BlockAddr, state: MoesiState) -> Option<Eviction> {
        debug_assert_eq!(
            block.raw() & (self.cfg.block_bytes - 1),
            0,
            "unaligned block"
        );
        self.clock += 1;
        self.note_visit(state);
        let word = line_word(block, state);
        if let Some(i) = self.find(block) {
            self.words[i] = word;
            self.touch(i);
            return None;
        }
        // Prefer the set's first invalid slot; otherwise evict the
        // least-recently-used line.
        let first = self.first_slot(block);
        let slot = if self.ways == 1 {
            first
        } else {
            (first..first + self.ways)
                .min_by_key(|&slot| {
                    let i = self.at(slot);
                    match self.words[i] {
                        0 => (false, 0),
                        _ => (true, self.lru[i]),
                    }
                })
                .unwrap_or(first)
        };
        let victim = self.words[self.at(slot)];
        let eviction = (victim != 0).then(|| {
            let state = decode(victim);
            if state.dirty() {
                self.stats.dirty_evictions += 1;
            }
            Eviction {
                block: BlockAddr::from_raw(victim & !STATE_BITS),
                state,
            }
        });
        // Filling an empty slot with Invalid changes nothing, and must not
        // write to the shared Invalid page.
        if word != 0 || victim != 0 {
            let i = self.at_mut(slot);
            self.words[i] = word;
            self.touch(i);
        }
        eviction
    }

    /// Number of valid lines currently resident.
    pub fn valid_lines(&self) -> usize {
        self.words.iter().filter(|&&w| w != 0).count()
    }

    /// Every resident line as `(slot, word)`, in slot order.
    fn resident(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.dir
            .iter()
            .enumerate()
            .filter(|&(_, &page)| page != 0)
            .flat_map(move |(p, &page)| {
                let base = (page as usize) << PAGE_SHIFT;
                (0..PAGE_LINES).map(move |off| ((p << PAGE_SHIFT) | off, self.words[base + off]))
            })
            .filter(|&(_, w)| w != 0)
    }

    /// Iterates over all resident `(block, state)` pairs, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, MoesiState)> + '_ {
        self.resident()
            .map(|(_, w)| (BlockAddr::from_raw(w & !STATE_BITS), decode(w)))
    }

    /// The block that `addr` falls in, for convenience.
    pub fn block_of(&self, addr: Addr) -> BlockAddr {
        self.geo.block_of(addr)
    }

    /// Clears every line (used between experiment phases).
    pub fn flush_all(&mut self) {
        self.dir.fill(0);
        self.words.truncate(PAGE_LINES);
        self.lru.truncate(PAGE_LINES);
    }

    /// Serialises the dynamic state: the slot count and each resident
    /// line as `[slot, word]` (`[slot, word, lru]` when set-associative,
    /// since the public [`Cache::iter`] loses LRU order), the LRU clock,
    /// the stats, the visit bitmap and, when enabled, the stall metrics.
    /// Geometry is derived from the config and not included.
    pub fn snapshot(&self) -> Json {
        let lines = Json::Arr(
            self.resident()
                .map(|(slot, w)| {
                    let mut line = vec![Json::from(slot as u64), Json::from(w)];
                    if self.ways > 1 {
                        line.push(Json::from(self.lru[self.at(slot)]));
                    }
                    Json::Arr(line)
                })
                .collect(),
        );
        let mut v = Json::obj()
            .set("line_count", self.lines as u64)
            .set("lines", lines)
            .set("clock", self.clock)
            .set("hits", self.stats.hits)
            .set("misses", self.stats.misses)
            .set("dirty_evictions", self.stats.dirty_evictions)
            .set("snoop_invalidations", self.stats.snoop_invalidations)
            .set("visited", self.visited as u64);
        if let Some(m) = &self.metrics {
            v = v.set("metrics", m.cycles.to_json());
        }
        v
    }

    /// Restores state captured by [`Cache::snapshot`] into a cache built
    /// with the same configuration (and the same metrics enablement).
    /// Returns `false` on any shape mismatch: a different slot count,
    /// slots out of range, out of order or outside their block's set, a
    /// block resident twice, or a word that is not a block address plus
    /// a valid state code. The cache contents are unspecified afterwards
    /// and the caller must discard it.
    pub fn restore(&mut self, v: &Json) -> bool {
        let (Some(count), Some(lines)) = (
            v.get("line_count").and_then(Json::as_u64),
            v.get("lines").and_then(Json::as_arr),
        ) else {
            return false;
        };
        if count != self.lines as u64 {
            return false;
        }
        self.flush_all();
        let arity = if self.ways > 1 { 3 } else { 2 };
        let mut next_slot = 0;
        for line in lines {
            let Some(parts) = line.as_arr().filter(|p| p.len() == arity) else {
                return false;
            };
            let (Some(slot), Some(word)) = (parts[0].as_u64(), parts[1].as_u64()) else {
                return false;
            };
            let block = BlockAddr::from_raw(word & !(self.cfg.block_bytes - 1));
            let state_code = word & (self.cfg.block_bytes - 1);
            if slot < next_slot
                || slot >= self.lines as u64
                || !(1..=4).contains(&state_code)
                || self.find(block).is_some()
            {
                return false;
            }
            let slot = slot as usize;
            let first = self.first_slot(block);
            if !(first..first + self.ways).contains(&slot) {
                return false;
            }
            let i = self.at_mut(slot);
            self.words[i] = word;
            if self.ways > 1 {
                let Some(lru) = parts[2].as_u64() else {
                    return false;
                };
                self.lru[i] = lru;
            }
            next_slot = slot as u64 + 1;
        }
        let field = |key: &str| v.get(key).and_then(Json::as_u64);
        let (Some(clock), Some(hits), Some(misses), Some(dirty), Some(snoops), Some(visited)) = (
            field("clock"),
            field("hits"),
            field("misses"),
            field("dirty_evictions"),
            field("snoop_invalidations"),
            field("visited"),
        ) else {
            return false;
        };
        if visited > u8::MAX as u64 {
            return false;
        }
        self.clock = clock;
        self.stats = CacheStats {
            hits,
            misses,
            dirty_evictions: dirty,
            snoop_invalidations: snoops,
        };
        self.visited = visited as u8;
        match (&mut self.metrics, v.get("metrics")) {
            (Some(m), Some(j)) => match ComponentCycles::from_json(j) {
                Some(cycles) => m.cycles = cycles,
                None => return false,
            },
            (None, None) => {}
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 1 way x 64 B = 256 B direct-mapped.
        Cache::new(CacheConfig {
            size_bytes: 256,
            block_bytes: 64,
            ways: 1,
        })
    }

    fn block(c: &Cache, addr: u64) -> BlockAddr {
        c.geometry().block_of(Addr::new(addr))
    }

    #[test]
    fn stall_charges_require_enablement() {
        let mut c = small();
        c.charge_miss_stall(Dur::ns(120)); // silently dropped while off
        assert!(c.metrics().is_none());
        c.enable_metrics();
        c.charge_miss_stall(Dur::ns(120));
        c.charge_upgrade_stall(Dur::ns(8));
        let m = c.metrics().unwrap();
        assert_eq!(m.cycles.get(Component::CacheMissStall), Dur::ns(120));
        assert_eq!(m.cycles.get(Component::CacheUpgradeStall), Dur::ns(8));
        assert_eq!(m.cycles.total(), Dur::ns(128));
    }

    #[test]
    fn snapshot_round_trip_preserves_lru_order() {
        let mut c = Cache::new(CacheConfig::fully_associative(2, 64));
        let b0 = block(&c, 0x00);
        let b1 = block(&c, 0x40);
        let b2 = block(&c, 0x80);
        c.insert(b0, MoesiState::Modified);
        c.insert(b1, MoesiState::Shared);
        c.lookup(b0); // b1 becomes LRU
        let snap = c.snapshot();

        let mut fresh = Cache::new(CacheConfig::fully_associative(2, 64));
        assert!(fresh.restore(&snap));
        assert_eq!(fresh.stats(), c.stats());
        assert_eq!(fresh.visited_mask(), c.visited_mask());
        assert_eq!(fresh.lookup(b0), MoesiState::Modified);
        assert_eq!(fresh.lookup(b1), MoesiState::Shared);
        // LRU order survived: the next conflict insert must evict b1.
        let mut replay = Cache::new(CacheConfig::fully_associative(2, 64));
        assert!(replay.restore(&snap));
        let ev = replay.insert(b2, MoesiState::Exclusive).unwrap();
        assert_eq!(ev.block, b1);
        // Mismatched geometry and truncated snapshots are rejected.
        let mut wrong = Cache::new(CacheConfig::fully_associative(4, 64));
        assert!(!wrong.restore(&snap));
        let mut again = Cache::new(CacheConfig::fully_associative(2, 64));
        assert!(!again.restore(&Json::obj().set("clock", 1u64)));
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.size_bytes, 1 << 20);
        assert_eq!(cfg.block_bytes, 64);
        assert_eq!(cfg.ways, 1);
        assert_eq!(cfg.sets(), 16384);
    }

    #[test]
    fn insert_then_lookup_hits() {
        let mut c = small();
        let b = block(&c, 0x40);
        assert_eq!(c.lookup(b), MoesiState::Invalid);
        c.insert(b, MoesiState::Exclusive);
        assert_eq!(c.lookup(b), MoesiState::Exclusive);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = small();
        let b0 = block(&c, 0x00);
        let b_conflict = block(&c, 0x100); // same set (4 sets * 64 B = 256 B stride)
        c.insert(b0, MoesiState::Modified);
        let ev = c.insert(b_conflict, MoesiState::Exclusive).unwrap();
        assert_eq!(ev.block, b0);
        assert_eq!(ev.state, MoesiState::Modified);
        assert!(!c.contains(b0));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        c.insert(block(&c, 0x00), MoesiState::Shared);
        assert!(c.insert(block(&c, 0x40), MoesiState::Shared).is_none());
        assert_eq!(c.valid_lines(), 2);
    }

    #[test]
    fn fully_associative_lru() {
        let mut c = Cache::new(CacheConfig::fully_associative(2, 64));
        let b = |a| c.geometry().block_of(Addr::new(a));
        let (b0, b1, b2) = (b(0), b(64), b(128));
        c.insert(b0, MoesiState::Exclusive);
        c.insert(b1, MoesiState::Exclusive);
        c.lookup(b0); // refresh b0; b1 becomes LRU
        let ev = c.insert(b2, MoesiState::Exclusive).unwrap();
        assert_eq!(ev.block, b1);
        assert!(c.contains(b0) && c.contains(b2));
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = small();
        let b = block(&c, 0x80);
        c.insert(b, MoesiState::Shared);
        assert!(c.insert(b, MoesiState::Modified).is_none());
        assert_eq!(c.state_of(b), MoesiState::Modified);
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        let b = block(&c, 0x40);
        c.insert(b, MoesiState::Owned);
        assert_eq!(c.invalidate(b), MoesiState::Owned);
        assert!(!c.contains(b));
        assert_eq!(c.invalidate(b), MoesiState::Invalid);
        assert_eq!(c.stats().snoop_invalidations, 1);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = small();
        let b = block(&c, 0xC0);
        c.insert(b, MoesiState::Exclusive);
        c.set_state(b, MoesiState::Shared);
        assert_eq!(c.state_of(b), MoesiState::Shared);
        c.set_state(b, MoesiState::Invalid);
        assert!(!c.contains(b));
    }

    #[test]
    #[should_panic(expected = "set_state on non-resident")]
    fn set_state_missing_panics() {
        let mut c = small();
        let b = block(&c, 0x40);
        c.set_state(b, MoesiState::Shared);
    }

    #[test]
    fn flush_all_empties() {
        let mut c = small();
        c.insert(block(&c, 0), MoesiState::Modified);
        c.insert(block(&c, 64), MoesiState::Shared);
        c.flush_all();
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn iter_lists_resident_blocks() {
        let mut c = small();
        c.insert(block(&c, 0), MoesiState::Modified);
        c.insert(block(&c, 64), MoesiState::Shared);
        let mut blocks: Vec<u64> = c.iter().map(|(b, _)| b.raw()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 64]);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn visit_bitmap_tracks_states() {
        let mut c = small();
        let b = block(&c, 0x40);
        assert_eq!(c.visited_mask(), 1 << MoesiState::Invalid.index());
        c.insert(b, MoesiState::Exclusive);
        c.set_state(b, MoesiState::Owned);
        c.set_state(b, MoesiState::Modified);
        let want = [
            MoesiState::Invalid,
            MoesiState::Exclusive,
            MoesiState::Owned,
            MoesiState::Modified,
        ]
        .iter()
        .fold(0u8, |m, s| m | 1 << s.index());
        assert_eq!(c.visited_mask(), want);
        assert_eq!(c.visited_mask() & (1 << MoesiState::Shared.index()), 0);
    }

    /// The one-struct-per-line layout the paged word store replaced,
    /// kept as the reference the differential test drives in lockstep.
    struct RefCache {
        lines: Vec<(u64, MoesiState, u64)>,
        ways: usize,
        sets: u64,
        block_bytes: u64,
        clock: u64,
        stats: CacheStats,
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> RefCache {
            let lines = (cfg.size_bytes / cfg.block_bytes) as usize;
            RefCache {
                lines: vec![(0, MoesiState::Invalid, 0); lines],
                ways: cfg.ways as usize,
                sets: cfg.sets(),
                block_bytes: cfg.block_bytes,
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn find(&self, b: BlockAddr) -> Option<usize> {
            let start = ((b.raw() / self.block_bytes) % self.sets) as usize * self.ways;
            (start..start + self.ways).find(|&i| {
                let (tag, state, _) = self.lines[i];
                state.is_valid() && tag == b.raw()
            })
        }

        fn lookup(&mut self, b: BlockAddr) -> MoesiState {
            self.clock += 1;
            let Some(i) = self.find(b) else {
                self.stats.misses += 1;
                return MoesiState::Invalid;
            };
            self.stats.hits += 1;
            self.lines[i].2 = self.clock;
            self.lines[i].1
        }

        fn insert(&mut self, b: BlockAddr, state: MoesiState) -> Option<Eviction> {
            self.clock += 1;
            if let Some(i) = self.find(b) {
                self.lines[i] = (b.raw(), state, self.clock);
                return None;
            }
            let start = ((b.raw() / self.block_bytes) % self.sets) as usize * self.ways;
            let set = start..start + self.ways;
            let slot = set
                .clone()
                .find(|&i| !self.lines[i].1.is_valid())
                .or_else(|| set.min_by_key(|&i| self.lines[i].2))
                .unwrap();
            let (tag, old, _) = self.lines[slot];
            self.lines[slot] = (b.raw(), state, self.clock);
            self.stats.dirty_evictions += old.dirty() as u64;
            old.is_valid().then(|| Eviction {
                block: BlockAddr::from_raw(tag),
                state: old,
            })
        }

        fn resident(&self) -> Vec<(BlockAddr, MoesiState)> {
            let mut v: Vec<_> = (self.lines.iter())
                .filter(|l| l.1.is_valid())
                .map(|&(t, s, _)| (BlockAddr::from_raw(t), s))
                .collect();
            v.sort_unstable_by_key(|&(b, _)| b);
            v
        }
    }

    fn sorted(c: &Cache) -> Vec<(BlockAddr, MoesiState)> {
        let mut v: Vec<_> = c.iter().collect();
        v.sort_unstable_by_key(|&(b, _)| b);
        v
    }

    /// Seeded random lookup/insert/set_state/invalidate streams, with the
    /// occasional flush and snapshot round trip, must leave the paged
    /// word store indistinguishable from the reference layout — on
    /// direct-mapped and 2/3/4-way geometries spanning several pages (the
    /// 3-way sets straddle page boundaries).
    #[test]
    fn paged_store_matches_reference_layout() {
        use nisim_engine::SplitMix64;
        for (ways, sets) in [(1, 4096), (2, 1024), (3, 512), (4, 512), (32, 1)] {
            let cfg = CacheConfig {
                size_bytes: ways as u64 * sets * 64,
                block_bytes: 64,
                ways,
            };
            let mut rng = SplitMix64::new(0xD1FF + ways as u64);
            let mut c = Cache::new(cfg);
            let mut r = RefCache::new(cfg);
            let blocks = 3 * ways as u64 * sets;
            for step in 0..40_000 {
                let b = BlockAddr::from_raw(rng.gen_range(blocks) * 64);
                let state = MoesiState::ALL[rng.gen_range(5) as usize];
                match rng.gen_range(100) {
                    0..=39 => assert_eq!(c.lookup(b), r.lookup(b)),
                    40..=79 => assert_eq!(c.insert(b, state), r.insert(b, state)),
                    80..=89 => {
                        if let Some(i) = r.find(b) {
                            c.set_state(b, state);
                            r.lines[i].1 = state;
                        }
                    }
                    90..=98 => {
                        let want = r.find(b).map_or(MoesiState::Invalid, |i| {
                            r.stats.snoop_invalidations += 1;
                            std::mem::replace(&mut r.lines[i].1, MoesiState::Invalid)
                        });
                        assert_eq!(c.invalidate(b), want);
                    }
                    _ if step % 7 == 0 => {
                        c.flush_all();
                        r.lines.iter_mut().for_each(|l| l.1 = MoesiState::Invalid);
                    }
                    _ => {
                        let mut fresh = Cache::new(cfg);
                        assert!(fresh.restore(&c.snapshot()), "{ways}-way step {step}");
                        c = fresh;
                    }
                }
                assert_eq!(
                    c.state_of(b),
                    r.find(b).map_or(MoesiState::Invalid, |i| r.lines[i].1)
                );
            }
            assert_eq!(c.stats(), r.stats, "{ways}-way");
            assert_eq!(sorted(&c), r.resident(), "{ways}-way");
            assert_eq!(c.valid_lines(), r.resident().len());
        }
    }

    #[test]
    fn fresh_cache_snapshots_no_lines() {
        let c = Cache::new(CacheConfig::default());
        let snap = c.snapshot();
        assert_eq!(snap.get("line_count").and_then(Json::as_u64), Some(16384));
        assert_eq!(snap.get("lines"), Some(&Json::Arr(Vec::new())));
        // Untouched pages are never materialised: one shared page only.
        assert_eq!(c.words.len(), PAGE_LINES);
    }

    #[test]
    fn invalid_fill_of_an_untouched_page_materialises_nothing() {
        let mut c = Cache::new(CacheConfig::default());
        let b = block(&c, 0x8_0000);
        assert!(c.insert(b, MoesiState::Invalid).is_none());
        assert_eq!(c.words.len(), PAGE_LINES);
        assert_eq!(c.valid_lines(), 0);
        c.insert(b, MoesiState::Shared);
        assert_eq!(c.words.len(), 2 * PAGE_LINES);
        assert!(c.words[..PAGE_LINES].iter().all(|&w| w == 0));
    }

    #[test]
    fn restore_rejects_forged_lines() {
        let cfg = CacheConfig {
            size_bytes: 4 * 64 * 2,
            block_bytes: 64,
            ways: 2,
        };
        let mut c = Cache::new(cfg);
        c.insert(block(&c, 0x40), MoesiState::Modified); // set 1, slot 2
        let snap = c.snapshot();
        assert!(Cache::new(cfg).restore(&snap));
        let with = |key: &str, value: Json| {
            let Json::Obj(mut fields) = snap.clone() else {
                unreachable!()
            };
            fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
            Json::Obj(fields)
        };
        let line = |slot: u64, word: u64| {
            Json::Arr(vec![Json::Arr(vec![
                Json::from(slot),
                Json::from(word),
                Json::from(1u64),
            ])])
        };
        for (forged, what) in [
            (with("line_count", Json::from(16u64)), "wrong line count"),
            (with("lines", line(8, 0x40 | 1)), "slot out of range"),
            (with("lines", line(4, 0x40 | 1)), "slot outside its set"),
            (with("lines", line(2, 0)), "zero word"),
            (with("lines", line(2, 0x40 | 5)), "bad state code"),
            (with("lines", line(2, 0x40 | 8)), "stray low bits"),
        ] {
            assert!(!Cache::new(cfg).restore(&forged), "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 8 bytes")]
    fn blocks_too_small_for_a_state_code_panic() {
        Cache::new(CacheConfig {
            size_bytes: 256,
            block_bytes: 4,
            ways: 1,
        });
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        Cache::new(CacheConfig {
            size_bytes: 256,
            block_bytes: 64,
            ways: 0,
        });
    }
}
