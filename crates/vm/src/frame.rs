//! Physical frames and per-node frame allocators.
//!
//! Each NUMA node owns a pool of 4 kB frames. Frames carry a `content_tag`
//! so tests can verify that migration moves *contents*, not just mappings —
//! the kernel copies the tag from the old frame to the new one exactly where
//! the real kernel would call `copy_highpage`.
//!
//! A frame id is never issued twice, but the storage behind it is reused:
//! the allocator's table has one slot per *live* frame (plus free slots
//! waiting for reuse), like Linux's `mem_map`, which is bounded by
//! physical memory rather than by migration history. Each reuse gives the
//! slot a new generation, and the generation is half of the id, so a
//! stale id still fails every lookup after its slot holds another frame.
//! Free slots are chained through their own contents, like `page->lru`,
//! so freeing a million frames allocates nothing.
//!
//! A slot is one 24-byte record — generation, node, content tag, write
//! generation — like one `struct page`: a relocation's liveness check,
//! node lookup and content all sit in one record, so a random visit order
//! costs one cache miss per frame (two for the quarter of slots that
//! straddle a line), not one per array.
//!
//! A relocation moves a frame in place ([`FrameAllocator::relocate`]):
//! the page keeps its slot, which takes the destination node and a new
//! generation, so the old id goes stale as a freed one does. Allocating
//! first and freeing after would hand each move the slot the previous
//! move freed, scattering the pages of a region over the table; in place,
//! a page keeps the slot its first touch gave it, and a walk in
//! first-touch order reads the slots in the order those touches took
//! them. Short of a generation wrap, a move never grows the table.
//!
//! The table grows in chunks of [`FRAME_CHUNK`] slots. The first chunk
//! grows like a `Vec`, so a tenant machine with a dozen frames stays
//! small; every later chunk is allocated at full size once and never
//! moves. A growing table therefore never copies itself, and the peak is
//! the live slots plus at most one chunk, not twice the table.

use numa_topology::NodeId;
use serde::{Deserialize, Serialize};

/// Identifier of a physical frame (unique machine-wide): the slot's
/// generation in the high 32 bits, the slot index in the low 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FrameId(pub u64);

impl FrameId {
    fn new(slot: usize, generation: u32) -> Self {
        FrameId(u64::from(generation) << 32 | slot as u64)
    }

    fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Per-node memory-pressure level, derived from the free-frame count
/// against the node's low/min watermarks (the Linux zone-watermark
/// analogue). With watermarks unset (both zero) a node is `Normal` until
/// it is completely full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PressureLevel {
    /// Free frames above the low watermark.
    Normal,
    /// Free frames at or below the low watermark: background reclaim
    /// (`kreclaimd`) should start demoting cold pages.
    Low,
    /// Free frames at or below the min watermark: allocating threads
    /// enter direct reclaim.
    Min,
}

impl PressureLevel {
    /// Stable short name (trace events, JSON output).
    pub fn name(self) -> &'static str {
        match self {
            PressureLevel::Normal => "normal",
            PressureLevel::Low => "low",
            PressureLevel::Min => "min",
        }
    }
}

/// A live physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// The NUMA node whose memory bank holds this frame.
    pub node: NodeId,
    /// Opaque content identity; preserved across migrations.
    pub content_tag: u64,
    /// Write generation: bumped on every simulated write to the frame.
    /// The transactional tier-migration path snapshots this before
    /// copying and re-checks it at commit — a mismatch means a concurrent
    /// writer dirtied the page and the copy must be aborted (the Nomad
    /// consistency check).
    pub write_gen: u64,
}

/// Node of a slot that holds no live frame.
const DEAD: u16 = u16::MAX;

/// Log2 of the slots per chunk of the frame table.
const CHUNK_BITS: u32 = 12;

/// Slots per chunk of the frame table.
pub const FRAME_CHUNK: usize = 1 << CHUNK_BITS;

/// End of the free-slot chain.
const NO_FREE: u64 = u64::MAX;

/// A growable table stored in chunks of [`FRAME_CHUNK`] entries: chunk 0
/// grows like a `Vec` (power-of-two doubling lands exactly on
/// `FRAME_CHUNK`), and every later chunk is allocated at full size and
/// never reallocated.
#[derive(Debug)]
struct Chunks<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Chunks<T> {
    fn new() -> Self {
        Chunks { chunks: Vec::new() }
    }

    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * FRAME_CHUNK + c.len())
    }

    fn push(&mut self, v: T) {
        match self.chunks.last_mut() {
            Some(c) if c.len() < FRAME_CHUNK => c.push(v),
            Some(_) => {
                let mut c = Vec::with_capacity(FRAME_CHUNK);
                c.push(v);
                self.chunks.push(c);
            }
            None => self.chunks.push(vec![v]),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i >> CHUNK_BITS)?.get(i & (FRAME_CHUNK - 1))
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.chunks
            .get_mut(i >> CHUNK_BITS)?
            .get_mut(i & (FRAME_CHUNK - 1))
    }
}

/// The panic of every accessor handed an id that names no live frame:
/// `what` names the operation.
#[cold]
#[inline(never)]
fn dead(id: FrameId, what: &str) -> ! {
    panic!("{what} unknown frame {id:?}")
}

impl<T> std::ops::Index<usize> for Chunks<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.chunks[i >> CHUNK_BITS][i & (FRAME_CHUNK - 1)]
    }
}

impl<T> std::ops::IndexMut<usize> for Chunks<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i >> CHUNK_BITS][i & (FRAME_CHUNK - 1)]
    }
}

/// One slot of the frame table: the generation its current (or, while
/// free, next) frame carries, the frame's node (`DEAD` while free), and
/// the frame's contents (see [`Frame`]). While the slot is free,
/// `content_tag` links it to the next free slot instead ([`NO_FREE`] ends
/// the chain). One record, so the identity check and the contents a
/// relocation reads sit side by side.
#[derive(Debug, Clone, Copy)]
struct Slot {
    generation: u32,
    node: u16,
    content_tag: u64,
    write_gen: u64,
}

impl Slot {
    /// Does the slot hold the live frame `id`?
    #[inline]
    fn holds(&self, id: FrameId) -> bool {
        self.generation == id.generation() && self.node != DEAD
    }
}

/// Machine-wide frame allocator with per-node accounting.
///
/// The frame table is a generational slot table: `alloc` pops the most
/// recently freed slot (or grows the table by one slot), `free` marks the
/// slot dead, bumps its generation and pushes it onto the free chain, and
/// `relocate` bumps the generation of a live slot and changes its node.
/// Memory is therefore O(live frames), not O(frames ever allocated).
/// Every lookup checks the id's generation and the slot's liveness, so
/// use-after-free and double-free bugs in the kernel layer stay loud
/// lookup failures instead of silent aliasing, even after the slot is
/// reused. No id value is ever issued twice: a slot whose generation
/// would wrap is retired instead of reused.
#[derive(Debug, Serialize, Deserialize)]
pub struct FrameAllocator {
    slots: Chunks<Slot>,
    /// The most recently freed slot, heading the chain of dead slots
    /// ready for reuse ([`NO_FREE`] when there is none).
    free_head: u64,
    next_content: u64,
    /// Frames currently live per node.
    live_per_node: Vec<u64>,
    /// Capacity per node in frames.
    capacity_per_node: Vec<u64>,
    allocated_total: u64,
    freed_total: u64,
    /// Low watermark per node, in free frames (0 = unset).
    watermark_low: Vec<u64>,
    /// Min watermark per node, in free frames (0 = unset).
    watermark_min: Vec<u64>,
    /// Nodes marked unallocatable by hot-remove. Resident frames stay
    /// valid (reads/frees still work) — only new allocations are refused.
    offline: Vec<bool>,
    /// Last pressure level observed by [`FrameAllocator::probe_pressure`]
    /// per node, for transition detection.
    last_pressure: Vec<PressureLevel>,
    /// Any watermark configured at all? Lets the pressure paths stay one
    /// branch when the subsystem is unused.
    watermarked: bool,
}

impl FrameAllocator {
    /// An allocator for `node_count` nodes with `capacity_frames` frames
    /// each.
    pub fn new(node_count: usize, capacity_frames: u64) -> Self {
        Self::with_capacities(vec![capacity_frames; node_count])
    }

    /// An allocator with a distinct capacity per node — tiered machines
    /// have small fast banks and large slow ones.
    pub fn with_capacities(capacity_per_node: Vec<u64>) -> Self {
        let nodes = capacity_per_node.len();
        FrameAllocator {
            slots: Chunks::new(),
            free_head: NO_FREE,
            next_content: 0,
            live_per_node: vec![0; nodes],
            capacity_per_node,
            allocated_total: 0,
            freed_total: 0,
            watermark_low: vec![0; nodes],
            watermark_min: vec![0; nodes],
            offline: vec![false; nodes],
            last_pressure: vec![PressureLevel::Normal; nodes],
            watermarked: false,
        }
    }

    /// Allocate a fresh zeroed frame on `node`. Returns `None` when the
    /// node's bank is full or the node is offline (the simulated analogue
    /// of a zone with no eligible free pages — the kernel layer's
    /// zonelist/reclaim/OOM machinery decides what happens next).
    pub fn alloc(&mut self, node: NodeId) -> Option<FrameId> {
        if !self.has_room(node) {
            return None;
        }
        let n = node.index();
        let i = if self.free_head == NO_FREE {
            let i = self.slots.len();
            assert!(i < u32::MAX as usize, "frame table full");
            self.slots.push(Slot {
                generation: 0,
                node: DEAD,
                content_tag: NO_FREE,
                write_gen: 0,
            });
            i
        } else {
            let i = self.free_head as usize;
            self.free_head = self.slots[i].content_tag;
            i
        };
        let slot = &mut self.slots[i];
        slot.node = node.0;
        slot.content_tag = self.next_content;
        slot.write_gen = 0;
        let id = FrameId::new(i, slot.generation);
        self.next_content += 1;
        self.live_per_node[n] += 1;
        self.allocated_total += 1;
        Some(id)
    }

    /// Can `node` take one more frame: is its bank online and not full?
    #[inline]
    pub fn has_room(&self, node: NodeId) -> bool {
        let n = node.index();
        self.live_per_node[n] < self.capacity_per_node[n] && !self.offline[n]
    }

    /// Move the live frame `src` to `node` in place, the allocate, copy
    /// and free of a page relocation in one call: the page keeps its slot
    /// and its content tag, gets a zero write generation as a fresh frame
    /// does, and a new id. The slot's generation is bumped, so `src` is
    /// stale and every later lookup of it panics. The move counts as one
    /// allocation on `node` and one free of `src`, and advances the
    /// content-tag counter as `alloc` does, so every later frame gets the
    /// tag an alloc + copy + free would have given it.
    ///
    /// Returns `None`, changing nothing, when `node`'s bank is full or
    /// offline. Panics on an unknown `src`. A slot whose generation would
    /// wrap cannot issue a new id: that frame moves to a fresh slot with
    /// [`FrameAllocator::alloc`] + [`FrameAllocator::copy_contents`] +
    /// [`FrameAllocator::free`], which retires the old slot.
    pub fn relocate(&mut self, src: FrameId, node: NodeId) -> Option<FrameId> {
        let room = self.has_room(node);
        let slot = self.slot_of_mut(src, "relocate of");
        if !room {
            return None;
        }
        let Some(generation) = slot.generation.checked_add(1) else {
            let dst = self.alloc(node)?;
            self.copy_contents(src, dst);
            self.free(src);
            return Some(dst);
        };
        let from = usize::from(slot.node);
        slot.generation = generation;
        slot.node = node.0;
        slot.write_gen = 0;
        self.next_content += 1;
        self.live_per_node[from] -= 1;
        self.live_per_node[node.index()] += 1;
        self.allocated_total += 1;
        self.freed_total += 1;
        Some(FrameId::new(src.slot(), generation))
    }

    /// The slot of a live frame, or `None` for an id never issued, freed,
    /// or whose slot now holds a later generation.
    #[inline]
    fn live_slot(&self, id: FrameId) -> Option<&Slot> {
        self.slots.get(id.slot()).filter(|s| s.holds(id))
    }

    /// [`FrameAllocator::live_slot`], panicking on a dead id: `what` names
    /// the operation in the message.
    #[inline]
    fn slot_of(&self, id: FrameId, what: &str) -> &Slot {
        self.live_slot(id).unwrap_or_else(|| dead(id, what))
    }

    /// [`FrameAllocator::slot_of`] for writing.
    #[inline]
    fn slot_of_mut(&mut self, id: FrameId, what: &str) -> &mut Slot {
        match self.slots.get_mut(id.slot()) {
            Some(s) if s.holds(id) => s,
            _ => dead(id, what),
        }
    }

    /// Free a frame. Panics on double-free or unknown frame — both are
    /// kernel-layer bugs, never workload conditions.
    pub fn free(&mut self, id: FrameId) {
        let free_head = self.free_head;
        let slot = self.slot_of_mut(id, "free of");
        let node = usize::from(slot.node);
        slot.node = DEAD;
        // A slot whose generation would wrap is retired, so no id value
        // is ever issued twice.
        if let Some(next) = slot.generation.checked_add(1) {
            slot.generation = next;
            slot.content_tag = free_head;
            self.free_head = id.slot() as u64;
        }
        self.live_per_node[node] -= 1;
        self.freed_total += 1;
    }

    /// Look up a live frame.
    #[inline]
    pub fn get(&self, id: FrameId) -> Option<Frame> {
        let s = self.live_slot(id)?;
        Some(Frame {
            node: NodeId(s.node),
            content_tag: s.content_tag,
            write_gen: s.write_gen,
        })
    }

    /// The node a live frame resides on. Panics on unknown frames.
    #[inline]
    pub fn node_of(&self, id: FrameId) -> NodeId {
        NodeId(self.slot_of(id, "lookup of").node)
    }

    /// Copy contents from `src` to `dst` (the `copy_highpage` analogue).
    pub fn copy_contents(&mut self, src: FrameId, dst: FrameId) {
        let tag = self.slot_of(src, "copy from").content_tag;
        self.slot_of_mut(dst, "copy to").content_tag = tag;
    }

    /// Record a write to a live frame, bumping its write generation.
    /// Panics on unknown frames.
    #[inline]
    pub fn note_write(&mut self, id: FrameId) {
        self.slot_of_mut(id, "write to").write_gen += 1;
    }

    /// Current write generation of a live frame. Panics on unknown frames.
    #[inline]
    pub fn write_gen(&self, id: FrameId) -> u64 {
        self.slot_of(id, "lookup of").write_gen
    }

    /// Frames currently live on `node`.
    pub fn live_on(&self, node: NodeId) -> u64 {
        self.live_per_node[node.index()]
    }

    /// Capacity of a node's bank, in frames.
    pub fn capacity_of(&self, node: NodeId) -> u64 {
        self.capacity_per_node[node.index()]
    }

    /// Free frames remaining on a node.
    pub fn free_on(&self, node: NodeId) -> u64 {
        self.capacity_per_node[node.index()] - self.live_per_node[node.index()]
    }

    /// Total frames ever allocated.
    pub fn allocated_total(&self) -> u64 {
        self.allocated_total
    }

    /// Total frames ever freed.
    pub fn freed_total(&self) -> u64 {
        self.freed_total
    }

    /// Frames live right now, machine-wide.
    pub fn live_total(&self) -> u64 {
        self.allocated_total - self.freed_total
    }

    /// Configure the low/min watermarks of `node`, in free frames.
    /// `min` must not exceed `low` (a min reserve inside the low band,
    /// like Linux's `min < low < high` ordering).
    pub fn set_watermarks(&mut self, node: NodeId, low: u64, min: u64) {
        assert!(min <= low, "min watermark {min} must not exceed low {low}");
        let n = node.index();
        self.watermark_low[n] = low;
        self.watermark_min[n] = min;
        self.watermarked =
            self.watermark_low.iter().any(|&w| w > 0) || self.watermark_min.iter().any(|&w| w > 0);
    }

    /// Is any watermark configured on any node? One branch for the
    /// pressure-probe call sites to skip all bookkeeping in ordinary runs.
    #[inline]
    pub fn watermarked(&self) -> bool {
        self.watermarked
    }

    /// Low watermark of `node`, in free frames.
    pub fn watermark_low(&self, node: NodeId) -> u64 {
        self.watermark_low[node.index()]
    }

    /// Min watermark of `node`, in free frames.
    pub fn watermark_min(&self, node: NodeId) -> u64 {
        self.watermark_min[node.index()]
    }

    /// Current pressure level of `node` from its free-frame count.
    pub fn pressure_of(&self, node: NodeId) -> PressureLevel {
        let n = node.index();
        let free = self.capacity_per_node[n] - self.live_per_node[n];
        if free <= self.watermark_min[n] {
            PressureLevel::Min
        } else if free <= self.watermark_low[n] {
            PressureLevel::Low
        } else {
            PressureLevel::Normal
        }
    }

    /// Recompute `node`'s pressure level and compare against the last
    /// probe: `Some(new_level)` on a transition, `None` when unchanged.
    /// Callers (the kernel's allocation and reclaim paths) turn
    /// transitions into counters and trace events; probing is explicit so
    /// the hot allocation path pays nothing when watermarks are unset.
    pub fn probe_pressure(&mut self, node: NodeId) -> Option<PressureLevel> {
        let level = self.pressure_of(node);
        let slot = &mut self.last_pressure[node.index()];
        if *slot == level {
            None
        } else {
            *slot = level;
            Some(level)
        }
    }

    /// Mark `node` unallocatable (hot-remove). Resident frames stay live
    /// and can still be read, copied and freed; only allocation is
    /// refused. Idempotent.
    pub fn set_offline(&mut self, node: NodeId) {
        self.offline[node.index()] = true;
    }

    /// Bring `node` back online. Idempotent.
    pub fn set_online(&mut self, node: NodeId) {
        self.offline[node.index()] = false;
    }

    /// Is `node` marked offline?
    pub fn is_offline(&self, node: NodeId) -> bool {
        self.offline[node.index()]
    }

    /// Replace `node`'s bank capacity outright. Panics if the new
    /// capacity would strand already-live frames. The shard orchestrator
    /// uses this to start each tenant with a small granted slice of the
    /// machine-wide pool instead of the preset's full bank.
    pub fn set_capacity(&mut self, node: NodeId, frames: u64) {
        let n = node.index();
        assert!(
            frames >= self.live_per_node[n],
            "capacity {frames} below live count {} on node {n}",
            self.live_per_node[n]
        );
        self.capacity_per_node[n] = frames;
    }

    /// Grow `node`'s bank by `frames` (a refill granted from a shared
    /// [`FrameLedger`] at a window barrier).
    pub fn grant_capacity(&mut self, node: NodeId, frames: u64) {
        self.capacity_per_node[node.index()] += frames;
    }

    /// Shrink `node`'s bank by up to `frames`, never below its live
    /// count, returning how much was actually taken back. Departing
    /// tenants use this to return unused headroom to the shared pool.
    pub fn yield_capacity(&mut self, node: NodeId, frames: u64) -> u64 {
        let n = node.index();
        let spare = self.capacity_per_node[n] - self.live_per_node[n];
        let taken = frames.min(spare);
        self.capacity_per_node[n] -= taken;
        taken
    }
}

/// Machine-wide pool of frame *capacity* shared by otherwise-independent
/// tenant allocators.
///
/// Each tenant machine owns a private [`FrameAllocator`] (so the per-frame
/// hot path stays lock-free and shard-local), but the capacity those
/// allocators may use is metered here: tenants start with a small granted
/// slice, request refills when they run low, and yield spare capacity back
/// when mappings are torn down. All ledger traffic happens at window
/// barriers, applied in tenant-id order, so the grant/denial sequence —
/// and therefore every downstream allocation failure — is independent of
/// how tenants are packed into shards or threads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameLedger {
    /// Unassigned capacity per node, in frames.
    free_per_node: Vec<u64>,
    grants: u64,
    granted_frames: u64,
    denials: u64,
    yields: u64,
    yielded_frames: u64,
}

impl FrameLedger {
    /// A ledger holding `free_per_node` unassigned frames per node.
    pub fn new(free_per_node: Vec<u64>) -> Self {
        FrameLedger {
            free_per_node,
            grants: 0,
            granted_frames: 0,
            denials: 0,
            yields: 0,
            yielded_frames: 0,
        }
    }

    /// Request up to `want` frames of capacity on `node`. Returns the
    /// granted amount (possibly zero). Short grants and outright refusals
    /// both count as denials — that is the cross-tenant memory pressure
    /// signal the multitenant bench reports.
    pub fn request(&mut self, node: NodeId, want: u64) -> u64 {
        let slot = &mut self.free_per_node[node.index()];
        let granted = want.min(*slot);
        *slot -= granted;
        if granted > 0 {
            self.grants += 1;
            self.granted_frames += granted;
        }
        if granted < want {
            self.denials += 1;
        }
        granted
    }

    /// Return `frames` of capacity on `node` to the pool.
    pub fn deposit(&mut self, node: NodeId, frames: u64) {
        if frames > 0 {
            self.free_per_node[node.index()] += frames;
            self.yields += 1;
            self.yielded_frames += frames;
        }
    }

    /// Unassigned capacity currently pooled on `node`.
    pub fn free_on(&self, node: NodeId) -> u64 {
        self.free_per_node[node.index()]
    }

    /// Number of (partially or fully) satisfied refill requests.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total frames handed out across all grants.
    pub fn granted_frames(&self) -> u64 {
        self.granted_frames
    }

    /// Number of requests that got less than they asked for.
    pub fn denials(&self) -> u64 {
        self.denials
    }

    /// Number of capacity returns.
    pub fn yields(&self) -> u64 {
        self.yields
    }

    /// Total frames returned across all yields.
    pub fn yielded_frames(&self) -> u64 {
        self.yielded_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut fa = FrameAllocator::new(2, 100);
        let a = fa.alloc(NodeId(0)).unwrap();
        let b = fa.alloc(NodeId(1)).unwrap();
        assert_ne!(a, b);
        assert_eq!(fa.live_on(NodeId(0)), 1);
        assert_eq!(fa.live_on(NodeId(1)), 1);
        fa.free(a);
        assert_eq!(fa.live_on(NodeId(0)), 0);
        assert_eq!(fa.allocated_total(), 2);
        assert_eq!(fa.freed_total(), 1);
        assert_eq!(fa.live_total(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut fa = FrameAllocator::new(1, 2);
        assert!(fa.alloc(NodeId(0)).is_some());
        assert!(fa.alloc(NodeId(0)).is_some());
        assert!(fa.alloc(NodeId(0)).is_none());
        // Freeing makes room again.
        let id = FrameId(0);
        fa.free(id);
        assert!(fa.alloc(NodeId(0)).is_some());
    }

    #[test]
    fn content_tags_unique_and_copyable() {
        let mut fa = FrameAllocator::new(2, 10);
        let a = fa.alloc(NodeId(0)).unwrap();
        let b = fa.alloc(NodeId(1)).unwrap();
        let tag_a = fa.get(a).unwrap().content_tag;
        let tag_b = fa.get(b).unwrap().content_tag;
        assert_ne!(tag_a, tag_b);
        fa.copy_contents(a, b);
        assert_eq!(fa.get(b).unwrap().content_tag, tag_a);
        // Source unchanged.
        assert_eq!(fa.get(a).unwrap().content_tag, tag_a);
    }

    #[test]
    fn write_generation_tracking() {
        let mut fa = FrameAllocator::new(1, 10);
        let f = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fa.write_gen(f), 0);
        fa.note_write(f);
        fa.note_write(f);
        assert_eq!(fa.write_gen(f), 2);
        // Content copies do not count as writes to the *source*.
        let g = fa.alloc(NodeId(0)).unwrap();
        fa.copy_contents(f, g);
        assert_eq!(fa.write_gen(f), 2);
    }

    #[test]
    fn per_node_capacities() {
        let mut fa = FrameAllocator::with_capacities(vec![1, 3]);
        assert_eq!(fa.capacity_of(NodeId(0)), 1);
        assert_eq!(fa.capacity_of(NodeId(1)), 3);
        assert!(fa.alloc(NodeId(0)).is_some());
        assert!(fa.alloc(NodeId(0)).is_none(), "fast bank exhausted");
        assert_eq!(fa.free_on(NodeId(0)), 0);
        assert_eq!(fa.free_on(NodeId(1)), 3);
        assert!(fa.alloc(NodeId(1)).is_some());
    }

    #[test]
    fn node_of_live_frame() {
        let mut fa = FrameAllocator::new(3, 10);
        let f = fa.alloc(NodeId(2)).unwrap();
        assert_eq!(fa.node_of(f), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "unknown frame")]
    fn double_free_panics() {
        let mut fa = FrameAllocator::new(1, 10);
        let f = fa.alloc(NodeId(0)).unwrap();
        fa.free(f);
        fa.free(f);
    }

    #[test]
    fn offline_refuses_alloc_but_keeps_frames_live() {
        let mut fa = FrameAllocator::new(2, 4);
        let f = fa.alloc(NodeId(0)).unwrap();
        fa.set_offline(NodeId(0));
        assert!(fa.is_offline(NodeId(0)));
        assert!(fa.alloc(NodeId(0)).is_none(), "offline bank refuses alloc");
        assert!(fa.alloc(NodeId(1)).is_some(), "other banks unaffected");
        // Resident frames on the offline node stay readable and freeable.
        assert_eq!(fa.node_of(f), NodeId(0));
        fa.free(f);
        assert_eq!(fa.live_on(NodeId(0)), 0);
        fa.set_online(NodeId(0));
        assert!(fa.alloc(NodeId(0)).is_some(), "online restores allocation");
    }

    #[test]
    fn watermarks_drive_pressure_levels() {
        let mut fa = FrameAllocator::new(1, 10);
        assert!(!fa.watermarked());
        fa.set_watermarks(NodeId(0), 4, 2);
        assert!(fa.watermarked());
        assert_eq!(fa.pressure_of(NodeId(0)), PressureLevel::Normal);
        for _ in 0..6 {
            fa.alloc(NodeId(0)).unwrap();
        }
        // 4 free == low watermark.
        assert_eq!(fa.pressure_of(NodeId(0)), PressureLevel::Low);
        for _ in 0..2 {
            fa.alloc(NodeId(0)).unwrap();
        }
        // 2 free == min watermark.
        assert_eq!(fa.pressure_of(NodeId(0)), PressureLevel::Min);
        // Probe reports each transition exactly once.
        assert_eq!(fa.probe_pressure(NodeId(0)), Some(PressureLevel::Min));
        assert_eq!(fa.probe_pressure(NodeId(0)), None);
        fa.free(FrameId(0));
        fa.free(FrameId(1));
        fa.free(FrameId(2));
        assert_eq!(fa.probe_pressure(NodeId(0)), Some(PressureLevel::Normal));
    }

    #[test]
    #[should_panic(expected = "must not exceed low")]
    fn inverted_watermarks_panic() {
        let mut fa = FrameAllocator::new(1, 10);
        fa.set_watermarks(NodeId(0), 2, 4);
    }

    #[test]
    fn capacity_adjustment_roundtrip() {
        let mut fa = FrameAllocator::new(1, 0);
        assert!(fa.alloc(NodeId(0)).is_none(), "zero capacity refuses");
        fa.set_capacity(NodeId(0), 2);
        let f = fa.alloc(NodeId(0)).unwrap();
        fa.grant_capacity(NodeId(0), 3);
        assert_eq!(fa.capacity_of(NodeId(0)), 5);
        // Only spare headroom (capacity - live) can be yielded.
        assert_eq!(fa.yield_capacity(NodeId(0), 10), 4);
        assert_eq!(fa.capacity_of(NodeId(0)), 1);
        assert!(fa.alloc(NodeId(0)).is_none(), "bank full again");
        fa.free(f);
        assert_eq!(fa.yield_capacity(NodeId(0), 10), 1);
    }

    #[test]
    #[should_panic(expected = "below live count")]
    fn set_capacity_below_live_panics() {
        let mut fa = FrameAllocator::new(1, 4);
        fa.alloc(NodeId(0)).unwrap();
        fa.alloc(NodeId(0)).unwrap();
        fa.set_capacity(NodeId(0), 1);
    }

    #[test]
    fn ledger_grants_denies_and_recycles() {
        let mut ledger = FrameLedger::new(vec![10, 0]);
        assert_eq!(ledger.request(NodeId(0), 6), 6);
        // Short grant: counts as both a grant and a denial.
        assert_eq!(ledger.request(NodeId(0), 6), 4);
        assert_eq!(ledger.request(NodeId(0), 1), 0);
        assert_eq!(ledger.request(NodeId(1), 5), 0);
        assert_eq!(ledger.grants(), 2);
        assert_eq!(ledger.granted_frames(), 10);
        assert_eq!(ledger.denials(), 3);
        ledger.deposit(NodeId(0), 3);
        assert_eq!(ledger.free_on(NodeId(0)), 3);
        assert_eq!(ledger.yields(), 1);
        assert_eq!(ledger.yielded_frames(), 3);
        assert_eq!(ledger.request(NodeId(0), 2), 2);
    }

    #[test]
    fn ids_never_reused() {
        let mut fa = FrameAllocator::new(1, 10);
        let a = fa.alloc(NodeId(0)).unwrap();
        fa.free(a);
        let b = fa.alloc(NodeId(0)).unwrap();
        assert_ne!(a, b);
    }

    /// A freed frame whose slot already holds a newer frame.
    fn reused_slot() -> (FrameAllocator, FrameId) {
        let mut fa = FrameAllocator::new(1, 10);
        let stale = fa.alloc(NodeId(0)).unwrap();
        fa.free(stale);
        let fresh = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fresh.slot(), stale.slot(), "the freed slot is reused");
        assert!(fa.get(stale).is_none());
        (fa, stale)
    }

    #[test]
    #[should_panic(expected = "unknown frame")]
    fn node_of_reused_slot_panics() {
        let (fa, stale) = reused_slot();
        fa.node_of(stale);
    }

    #[test]
    #[should_panic(expected = "unknown frame")]
    fn copy_contents_from_reused_slot_panics() {
        let (mut fa, stale) = reused_slot();
        let dst = fa.alloc(NodeId(0)).unwrap();
        fa.copy_contents(stale, dst);
    }

    #[test]
    #[should_panic(expected = "unknown frame")]
    fn write_gen_of_reused_slot_panics() {
        let (fa, stale) = reused_slot();
        fa.write_gen(stale);
    }

    #[test]
    #[should_panic(expected = "unknown frame")]
    fn free_of_reused_slot_panics() {
        let (mut fa, stale) = reused_slot();
        fa.free(stale);
    }

    #[test]
    #[should_panic(expected = "unknown frame")]
    fn note_write_to_reused_slot_panics() {
        let (mut fa, stale) = reused_slot();
        fa.note_write(stale);
    }

    #[test]
    fn a_slot_is_one_24_byte_record() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }

    #[test]
    fn relocation_cycles_reuse_two_slots() {
        let mut fa = FrameAllocator::new(2, 10);
        let mut page = fa.alloc(NodeId(0)).unwrap();
        let tag = fa.get(page).unwrap().content_tag;
        for i in 0..10_000u16 {
            let new = fa.alloc(NodeId((i + 1) % 2)).unwrap();
            fa.copy_contents(page, new);
            fa.free(page);
            page = new;
        }
        assert_eq!(fa.slots.len(), 2);
        assert_eq!(fa.get(page).unwrap().content_tag, tag);
        assert_eq!(fa.live_total(), 1);
    }

    #[test]
    fn relocate_moves_a_frame_in_place() {
        let mut fa = FrameAllocator::new(2, 10);
        let src = fa.alloc(NodeId(0)).unwrap();
        fa.note_write(src);
        let tag = fa.get(src).unwrap().content_tag;
        let dst = fa.relocate(src, NodeId(1)).unwrap();
        assert_eq!(dst.slot(), src.slot(), "the page keeps its slot");
        assert_ne!(dst, src);
        assert!(fa.get(src).is_none(), "the old id is stale");
        let frame = fa.get(dst).unwrap();
        assert_eq!(frame.node, NodeId(1));
        assert_eq!(frame.content_tag, tag, "the contents move with the page");
        assert_eq!(frame.write_gen, 0, "a moved frame starts unwritten");
        assert_eq!(fa.slots.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown frame")]
    fn node_of_a_relocated_id_panics() {
        let mut fa = FrameAllocator::new(2, 10);
        let src = fa.alloc(NodeId(0)).unwrap();
        fa.relocate(src, NodeId(1)).unwrap();
        fa.node_of(src);
    }

    #[test]
    #[should_panic(expected = "unknown frame")]
    fn relocate_of_a_stale_id_panics() {
        let mut fa = FrameAllocator::new(2, 10);
        let src = fa.alloc(NodeId(0)).unwrap();
        fa.relocate(src, NodeId(1)).unwrap();
        fa.relocate(src, NodeId(0));
    }

    #[test]
    fn relocate_accounts_as_an_alloc_plus_a_free() {
        let (mut moved, mut copied) = (FrameAllocator::new(2, 10), FrameAllocator::new(2, 10));
        for fa in [&mut moved, &mut copied] {
            fa.alloc(NodeId(0)).unwrap();
            fa.alloc(NodeId(1)).unwrap();
        }
        let src = FrameId::new(0, 0);
        moved.relocate(src, NodeId(1)).unwrap();
        let dst = copied.alloc(NodeId(1)).unwrap();
        copied.copy_contents(src, dst);
        copied.free(src);
        for node in [NodeId(0), NodeId(1)] {
            assert_eq!(moved.live_on(node), copied.live_on(node));
        }
        assert_eq!(moved.allocated_total(), copied.allocated_total());
        assert_eq!(moved.freed_total(), copied.freed_total());
        // Every later frame gets the content tag it would have got.
        let (a, b) = (
            moved.alloc(NodeId(0)).unwrap(),
            copied.alloc(NodeId(0)).unwrap(),
        );
        assert_eq!(
            moved.get(a).unwrap().content_tag,
            copied.get(b).unwrap().content_tag
        );
    }

    #[test]
    fn relocate_to_a_full_or_offline_node_changes_nothing() {
        let mut fa = FrameAllocator::with_capacities(vec![2, 1, 2]);
        let src = fa.alloc(NodeId(0)).unwrap();
        fa.alloc(NodeId(1)).unwrap();
        fa.set_offline(NodeId(2));
        let before = |fa: &FrameAllocator| {
            (
                fa.get(src),
                [0, 1, 2].map(|n| fa.live_on(NodeId(n))),
                fa.allocated_total(),
                fa.freed_total(),
                fa.next_content,
            )
        };
        let snapshot = before(&fa);
        assert_eq!(fa.relocate(src, NodeId(1)), None, "full");
        assert_eq!(fa.relocate(src, NodeId(2)), None, "offline");
        assert_eq!(before(&fa), snapshot);
        assert_eq!(fa.node_of(src), NodeId(0), "the source stays live");
    }

    #[test]
    fn relocate_at_the_last_generation_moves_to_a_fresh_slot() {
        let mut fa = FrameAllocator::new(2, 10);
        let a = fa.alloc(NodeId(0)).unwrap();
        fa.free(a);
        fa.slots[0].generation = u32::MAX;
        let last = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(last, FrameId::new(0, u32::MAX));
        let tag = fa.get(last).unwrap().content_tag;
        let moved = fa.relocate(last, NodeId(1)).unwrap();
        assert_eq!(moved.slot(), 1);
        assert_eq!(fa.get(moved).unwrap().content_tag, tag);
        assert!(fa.get(last).is_none());
        assert_eq!(fa.live_on(NodeId(0)), 0);
        assert_eq!(fa.live_on(NodeId(1)), 1);
        let next = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(next.slot(), 2, "the exhausted slot is retired");
    }

    #[test]
    fn relocation_cycles_keep_the_one_slot() {
        let mut fa = FrameAllocator::new(2, 10);
        let mut page = fa.alloc(NodeId(0)).unwrap();
        let tag = fa.get(page).unwrap().content_tag;
        for i in 0..10_000u16 {
            page = fa.relocate(page, NodeId((i + 1) % 2)).unwrap();
        }
        assert_eq!(fa.slots.len(), 1);
        assert_eq!(fa.get(page).unwrap().content_tag, tag);
        assert_eq!(fa.live_total(), 1);
    }

    /// An allocator whose table holds `n` live frames on node 0, filling
    /// slots `0..n` in order.
    fn populated(n: usize) -> (FrameAllocator, Vec<FrameId>) {
        let mut fa = FrameAllocator::new(2, 4 * FRAME_CHUNK as u64);
        let ids: Vec<FrameId> = (0..n).map(|_| fa.alloc(NodeId(0)).unwrap()).collect();
        assert!(ids.iter().enumerate().all(|(i, id)| id.slot() == i));
        (fa, ids)
    }

    #[test]
    fn table_grows_in_whole_chunks_past_the_first() {
        let (mut fa, ids) = populated(FRAME_CHUNK + 1);
        assert_eq!(fa.slots.len(), FRAME_CHUNK + 1);
        assert_eq!(fa.slots.chunks.len(), 2);
        assert_eq!(fa.slots.chunks[0].capacity(), FRAME_CHUNK);
        assert_eq!(fa.slots.chunks[1].capacity(), FRAME_CHUNK);
        // Filling chunk 1 never moves it; the next slot opens chunk 2.
        let first_of_1 = fa.slots.chunks[1].as_ptr();
        for _ in 1..FRAME_CHUNK {
            fa.alloc(NodeId(1)).unwrap();
        }
        assert_eq!(fa.slots.chunks[1].as_ptr(), first_of_1);
        assert_eq!(fa.slots.chunks.len(), 2);
        fa.alloc(NodeId(1)).unwrap();
        assert_eq!(fa.slots.chunks.len(), 3);
        // Every id still resolves, on both sides of each boundary.
        for id in [ids[0], ids[FRAME_CHUNK - 1], ids[FRAME_CHUNK]] {
            assert_eq!(fa.node_of(id), NodeId(0));
        }
    }

    #[test]
    fn slots_are_reused_across_a_chunk_boundary() {
        let (mut fa, ids) = populated(FRAME_CHUNK + 2);
        let (last_of_0, first_of_1) = (ids[FRAME_CHUNK - 1], ids[FRAME_CHUNK]);
        fa.free(first_of_1);
        fa.free(last_of_0);
        // LIFO: chunk 0's slot comes back first, then chunk 1's.
        let a = fa.alloc(NodeId(1)).unwrap();
        let b = fa.alloc(NodeId(1)).unwrap();
        assert_eq!((a.slot(), b.slot()), (FRAME_CHUNK - 1, FRAME_CHUNK));
        assert_eq!(fa.slots.len(), FRAME_CHUNK + 2, "no slot was added");
        assert_eq!(fa.node_of(b), NodeId(1));
        for stale in [last_of_0, first_of_1] {
            assert!(fa.get(stale).is_none());
        }
        assert_eq!(fa.node_of(ids[FRAME_CHUNK + 1]), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "unknown frame")]
    fn node_of_reused_slot_in_a_later_chunk_panics() {
        let (mut fa, ids) = populated(FRAME_CHUNK + 1);
        fa.free(ids[FRAME_CHUNK]);
        let fresh = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(fresh.slot(), FRAME_CHUNK);
        fa.node_of(ids[FRAME_CHUNK]);
    }

    #[test]
    #[should_panic(expected = "unknown frame")]
    fn free_of_an_id_past_the_table_panics() {
        let (mut fa, _) = populated(FRAME_CHUNK);
        fa.free(FrameId::new(FRAME_CHUNK, 0));
    }

    #[test]
    fn slot_in_a_later_chunk_is_retired_before_its_generation_wraps() {
        let (mut fa, ids) = populated(FRAME_CHUNK + 1);
        fa.free(ids[FRAME_CHUNK]);
        fa.slots[FRAME_CHUNK].generation = u32::MAX;
        let last = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(last, FrameId::new(FRAME_CHUNK, u32::MAX));
        fa.free(last);
        let next = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(
            next.slot(),
            FRAME_CHUNK + 1,
            "the exhausted slot is not reused"
        );
        assert!(fa.get(last).is_none());
        assert!(fa.get(ids[FRAME_CHUNK]).is_none());
    }

    #[test]
    fn slot_is_retired_before_its_generation_wraps() {
        let mut fa = FrameAllocator::new(1, 10);
        let a = fa.alloc(NodeId(0)).unwrap();
        fa.free(a);
        fa.slots[0].generation = u32::MAX;
        let last = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(last, FrameId::new(0, u32::MAX));
        fa.free(last);
        let next = fa.alloc(NodeId(0)).unwrap();
        assert_eq!(next.slot(), 1, "the exhausted slot is not reused");
        assert!(fa.get(last).is_none());
        assert!(fa.get(a).is_none());
    }
}
