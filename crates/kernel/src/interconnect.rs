//! The interconnect and memory-controller contention model.
//!
//! Every byte that crosses node boundaries occupies (a) each
//! HyperTransport link along the route and (b) the memory controllers at
//! both ends, for `bytes / bandwidth` of virtual time. A transfer holds all
//! of these *simultaneously* (pipelined cut-through, not store-and-forward),
//! so a copy's own duration is set by the copier (CPU copy loop or DMA
//! rate), while the occupation windows are what make *other* traffic queue.
//!
//! This is the mechanism behind two of the paper's observations:
//! concurrent migrations share link bandwidth (Fig. 7 saturation), and LU's
//! biggest wins come from removing "congestion when multiple threads access
//! each others' NUMA memory across a single HyperTransport link" (§4.5).

use numa_sim::{Resource, SimTime};
use numa_topology::{round_ns, NodeId, Topology};

/// Link and memory-controller resources for one machine.
#[derive(Debug)]
pub struct Interconnect {
    links: Vec<Resource>,
    /// Per-link bandwidth (bytes/ns), indexed like `links`.
    link_bw: Vec<f64>,
    mem_ctl: Vec<Resource>,
    /// Per-node DRAM bandwidth (bytes/ns).
    mem_bw: Vec<f64>,
    /// Service times of [`Interconnect::access`] by `(from, mem, bytes)`:
    /// the memory controller's, then each route link's.
    access_memo: RouteMemo,
    /// Service times of [`Interconnect::transfer`] by `(src, dst, bytes,
    /// initiator_bw)`: the source controller's, the destination
    /// controller's, the initiator's duration, then each route link's.
    transfer_memo: RouteMemo,
}

/// Entries of a route memo (a power of two).
const ROUTE_MEMO: usize = 64;

/// Service times memoized by `(from, to, bytes, initiator bandwidth)`: a
/// fixed number of leading times, then one per route link in route
/// order. A direct-mapped table of [`ROUTE_MEMO`] entries that never
/// grows; a colliding key overwrites. The bandwidths are fixed per
/// machine, so an entry never goes stale.
#[derive(Debug)]
struct RouteMemo {
    /// `[(from << 16) | to, bytes, initiator bandwidth bits]` per entry
    /// (`access` passes a bandwidth of 0); `u64::MAX` in the first word
    /// marks empty.
    keys: Vec<[u64; 3]>,
    /// `stride` service times per entry.
    svc: Vec<u64>,
    /// Times per entry ahead of the route's links.
    heads: usize,
    /// `heads` plus the longest route's link count.
    stride: usize,
}

impl RouteMemo {
    fn new(topo: &Topology, heads: usize) -> Self {
        let longest = topo
            .node_ids()
            .flat_map(|a| topo.node_ids().map(move |b| topo.route(a, b).len()))
            .max()
            .unwrap_or(0);
        RouteMemo {
            keys: vec![[u64::MAX, 0, 0]; ROUTE_MEMO],
            svc: vec![0; ROUTE_MEMO * (heads + longest)],
            heads,
            stride: heads + longest,
        }
    }

    /// The `heads` leading times followed by the link times of `bytes`
    /// over `route` (each link's `bytes / link_bw`). On a miss `fill`
    /// writes the leading times, and both are computed exactly as an
    /// unmemoized booking would.
    fn get(
        &mut self,
        (from, to, bytes, bw): (NodeId, NodeId, u64, f64),
        route: &[numa_topology::LinkId],
        link_bw: &[f64],
        fill: impl FnOnce(&mut [u64]),
    ) -> &[u64] {
        let pair = (u64::from(from.0) << 16) | u64::from(to.0);
        let key = [pair, bytes, bw.to_bits()];
        let hash = (bytes ^ pair.rotate_left(32) ^ key[2]).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let i = (hash >> (64 - ROUTE_MEMO.trailing_zeros())) as usize;
        let svc = &mut self.svc[i * self.stride..][..self.heads + route.len()];
        if self.keys[i] != key {
            self.keys[i] = key;
            let (heads, links) = svc.split_at_mut(self.heads);
            fill(heads);
            for (s, l) in links.iter_mut().zip(route) {
                *s = round_ns(bytes as f64 / link_bw[l.index()]);
            }
        }
        svc
    }
}

/// Outcome of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferOutcome {
    /// When the transfer actually started (after queueing behind earlier
    /// traffic on any of the involved resources).
    pub start: SimTime,
    /// When the *initiator* is done (start + initiator-limited duration).
    pub end: SimTime,
    /// Queueing delay before the transfer began.
    pub wait_ns: u64,
}

impl Interconnect {
    /// Build resources matching `topo`.
    pub fn new(topo: &Topology) -> Self {
        let mut links = Vec::with_capacity(topo.link_count());
        let mut link_bw = Vec::with_capacity(topo.link_count());
        for i in 0..topo.link_count() {
            let id = numa_topology::LinkId(i as u16);
            links.push(Resource::new(format!("link{}", i)));
            link_bw.push(topo.link(id).bandwidth_bytes_per_ns);
        }
        let mut mem_ctl = Vec::with_capacity(topo.node_count());
        let mut mem_bw = Vec::with_capacity(topo.node_count());
        for n in topo.node_ids() {
            mem_ctl.push(Resource::new(format!("mc{}", n.0)));
            mem_bw.push(topo.node(n).dram_bw_bytes_per_ns);
        }
        Interconnect {
            links,
            link_bw,
            mem_ctl,
            mem_bw,
            access_memo: RouteMemo::new(topo, 1),
            transfer_memo: RouteMemo::new(topo, 3),
        }
    }

    /// Number of link resources.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Move `bytes` from `src` to `dst` starting no earlier than `now`,
    /// with the *initiator* limited to `initiator_bw` bytes/ns (the kernel
    /// copy loop runs at ~1 GB/s, a user-space SSE copy at ~2 GB/s, §4.2).
    ///
    /// The transfer occupies every route link and both memory controllers
    /// for their own `bytes/bandwidth` windows; the initiator finishes
    /// after `bytes/initiator_bw`. The service times come from the
    /// transfer memo; the bookings stay per call.
    pub fn transfer(
        &mut self,
        topo: &Topology,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        initiator_bw: f64,
    ) -> TransferOutcome {
        debug_assert!(initiator_bw > 0.0);
        let route = topo.route(src, dst);
        // Find the earliest instant the read side is free. The
        // destination controller is *occupied* but not *waited on*:
        // migration writes are posted through the write buffers, so a
        // busy destination slows later readers there, not this copy.
        let mut start = now;
        for l in route {
            start = start.max(self.links[l.index()].busy_until());
        }
        start = start.max(self.mem_ctl[src.index()].busy_until());
        // Occupy them for their own service windows.
        let mem_bw = &self.mem_bw;
        let svc =
            self.transfer_memo
                .get((src, dst, bytes, initiator_bw), route, &self.link_bw, |h| {
                    h[0] = round_ns(bytes as f64 / mem_bw[src.index()]);
                    h[1] = round_ns(bytes as f64 / mem_bw[dst.index()]);
                    h[2] = round_ns(bytes as f64 / initiator_bw);
                });
        for (l, &s) in route.iter().zip(&svc[3..]) {
            self.links[l.index()].occupy(start, s);
        }
        self.mem_ctl[src.index()].occupy(start, svc[0]);
        if dst != src {
            self.mem_ctl[dst.index()].occupy(start, svc[1]);
        }
        TransferOutcome {
            start,
            end: start + svc[2],
            wait_ns: start.since(now),
        }
    }

    /// Occupy the route for a latency-bound access of `bytes` (application
    /// reads/writes). Like [`Interconnect::transfer`] but the initiator
    /// duration is supplied by the caller's latency/bandwidth model. The
    /// service times come from the route memo; the bookings stay per call.
    pub fn access(
        &mut self,
        topo: &Topology,
        now: SimTime,
        from: NodeId,
        mem: NodeId,
        bytes: u64,
        duration_ns: u64,
    ) -> TransferOutcome {
        let route = topo.route(from, mem);
        let mut start = now;
        for l in route {
            start = start.max(self.links[l.index()].busy_until());
        }
        start = start.max(self.mem_ctl[mem.index()].busy_until());
        let mem_bw = &self.mem_bw;
        let svc = self
            .access_memo
            .get((from, mem, bytes, 0.0), route, &self.link_bw, |h| {
                h[0] = round_ns(bytes as f64 / mem_bw[mem.index()]);
            });
        for (l, &s) in route.iter().zip(&svc[1..]) {
            self.links[l.index()].occupy(start, s);
        }
        self.mem_ctl[mem.index()].occupy(start, svc[0]);
        TransferOutcome {
            start,
            end: start + duration_ns,
            wait_ns: start.since(now),
        }
    }

    /// Total queueing-visible busy time on one link (diagnostics).
    pub fn link_busy_ns(&self, link: usize) -> u64 {
        self.links[link].total_busy_ns()
    }

    /// The link resources, in link-id order (utilisation reporting).
    pub fn link_resources(&self) -> &[Resource] {
        &self.links
    }

    /// The memory-controller resources, in node-id order (utilisation
    /// reporting).
    pub fn mem_resources(&self) -> &[Resource] {
        &self.mem_ctl
    }

    /// Total busy time on one node's memory controller (diagnostics).
    pub fn mem_busy_ns(&self, node: NodeId) -> u64 {
        self.mem_ctl[node.index()].total_busy_ns()
    }

    /// Reset all resources (between experiment repetitions).
    pub fn reset(&mut self) {
        for l in &mut self.links {
            l.reset();
        }
        for m in &mut self.mem_ctl {
            m.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets;

    #[test]
    fn local_transfer_uses_only_local_mc() {
        let topo = presets::opteron_4p();
        let mut ic = Interconnect::new(&topo);
        let t = ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(0), 4096, 1.0);
        assert_eq!(t.start, SimTime(0));
        assert_eq!(t.end, SimTime(4096)); // 4 kB at 1 GB/s
        assert!(ic.mem_busy_ns(NodeId(0)) > 0);
        assert_eq!(ic.link_busy_ns(0), 0);
    }

    #[test]
    fn remote_transfer_occupies_route() {
        let topo = presets::opteron_4p();
        let mut ic = Interconnect::new(&topo);
        // 0 -> 3 is two hops on the square.
        ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(3), 4096, 1.0);
        let busy: u64 = (0..topo.link_count()).map(|l| ic.link_busy_ns(l)).sum();
        // Two links each busy 4096/4.0 = 1024 ns.
        assert_eq!(busy, 2048);
        assert!(ic.mem_busy_ns(NodeId(0)) > 0);
        assert!(ic.mem_busy_ns(NodeId(3)) > 0);
        assert_eq!(ic.mem_busy_ns(NodeId(1)), 0);
    }

    #[test]
    fn memoized_access_books_the_float_service_times() {
        // More distinct keys than memo entries, revisited out of order, so
        // entries are filled, hit, evicted and refilled; the slow-tier
        // nodes' controllers serve at a third of DRAM bandwidth.
        let topo = presets::tiered_4p2();
        let mut ic = Interconnect::new(&topo);
        let (mut link_busy, mut mem_busy) = (vec![0u64; topo.link_count()], vec![0u64; 6]);
        for i in 0..3_000u64 {
            let (from, mem) = (NodeId((i % 6) as u16), NodeId((i / 6 % 6) as u16));
            let bytes = 1 + (i * 7919) % 300 * 61;
            ic.access(&topo, SimTime(i * 10), from, mem, bytes, 1);
            for l in topo.route(from, mem) {
                link_busy[l.index()] +=
                    (bytes as f64 / topo.link(*l).bandwidth_bytes_per_ns).round() as u64;
            }
            mem_busy[mem.index()] +=
                (bytes as f64 / topo.node(mem).dram_bw_bytes_per_ns).round() as u64;
        }
        for (l, &busy) in link_busy.iter().enumerate() {
            assert_eq!(ic.link_busy_ns(l), busy, "link {l}");
        }
        for (n, &busy) in mem_busy.iter().enumerate() {
            assert_eq!(ic.mem_busy_ns(NodeId(n as u16)), busy, "mc {n}");
        }
    }

    #[test]
    fn memoized_transfer_books_the_float_service_times() {
        // 500 distinct (src, dst, bytes, bw) keys, far more than memo
        // entries, each booked twice in a row in each of six rounds, so
        // entries are filled, hit, evicted and refilled. Local copies
        // book one controller, remote ones two.
        let topo = presets::tiered_4p2();
        let mut ic = Interconnect::new(&topo);
        let (mut link_busy, mut mem_busy) = (vec![0u64; topo.link_count()], vec![0u64; 6]);
        let rate = |bytes: u64, bw: f64| (bytes as f64 / bw).round() as u64;
        for i in 0..6_000u64 {
            let j = i / 2 % 500;
            let (src, dst) = (NodeId((j % 6) as u16), NodeId((j / 6 % 6) as u16));
            let bytes = 1 + (j * 7919) % 300 * 61;
            let bw = [0.7, 1.0, 2.0, 3.3][(j / 36 % 4) as usize];
            let now = SimTime(i * 100_000);
            let t = ic.transfer(&topo, now, src, dst, bytes, bw);
            assert_eq!(t.end, t.start + rate(bytes, bw), "transfer {i}");
            for l in topo.route(src, dst) {
                link_busy[l.index()] += rate(bytes, topo.link(*l).bandwidth_bytes_per_ns);
            }
            mem_busy[src.index()] += rate(bytes, topo.node(src).dram_bw_bytes_per_ns);
            if dst != src {
                mem_busy[dst.index()] += rate(bytes, topo.node(dst).dram_bw_bytes_per_ns);
            }
        }
        for (l, &busy) in link_busy.iter().enumerate() {
            assert_eq!(ic.link_busy_ns(l), busy, "link {l}");
        }
        for (n, &busy) in mem_busy.iter().enumerate() {
            assert_eq!(ic.mem_busy_ns(NodeId(n as u16)), busy, "mc {n}");
        }
    }

    #[test]
    fn concurrent_copies_share_link_bandwidth() {
        // Two 1 GB/s kernel copies over one 4 GB/s link: the second queues
        // only behind the first's *link window* (1/4 of its duration), not
        // behind the whole copy.
        let topo = presets::two_node();
        let mut ic = Interconnect::new(&topo);
        let t1 = ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(1), 4096, 1.0);
        let t2 = ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(1), 4096, 1.0);
        assert_eq!(t1.end, SimTime(4096));
        // Second starts when the first's link occupation (1024 ns) ends.
        assert_eq!(t2.start, SimTime(1024));
        assert_eq!(t2.end, SimTime(1024 + 4096));
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let topo = presets::opteron_4p();
        let mut ic = Interconnect::new(&topo);
        // 0->1 and 2->3 use different links and different MCs.
        let a = ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(1), 4096, 1.0);
        let b = ic.transfer(&topo, SimTime(0), NodeId(2), NodeId(3), 4096, 1.0);
        assert_eq!(a.start, SimTime(0));
        assert_eq!(b.start, SimTime(0));
    }

    #[test]
    fn access_charges_supplied_duration() {
        let topo = presets::two_node();
        let mut ic = Interconnect::new(&topo);
        let t = ic.access(&topo, SimTime(10), NodeId(0), NodeId(1), 64, 100);
        assert_eq!(t.start, SimTime(10));
        assert_eq!(t.end, SimTime(110));
    }

    #[test]
    fn reset_clears_state() {
        let topo = presets::two_node();
        let mut ic = Interconnect::new(&topo);
        ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(1), 4096, 1.0);
        ic.reset();
        assert_eq!(ic.link_busy_ns(0), 0);
        let t = ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(1), 4096, 1.0);
        assert_eq!(t.start, SimTime(0));
    }
}
