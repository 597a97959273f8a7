//! Intra-node request aggregation for two-phase collective I/O.
//!
//! The two-level exchange (`CollectiveConfig::intra_agg`) forwards members'
//! payloads through node leaders *opaquely*: the leader relays each
//! member's piece list unchanged, so an aggregator still parses one list
//! per source rank. This module implements the stronger form from the
//! paper's lineage (Kang et al.): the leader **decodes** its members'
//! offset–length lists, merges them per destination aggregator — resolving
//! overlaps by member order and coalescing adjacent extents — and ships
//! *one merged list per (node, aggregator) pair*. The aggregator then
//! parses `O(nodes)` lists instead of `O(ranks)`, and the inter-node wire
//! carries one header per merged extent instead of one per member extent.
//!
//! Wire protocol (writes, [`exchange_pieces`]):
//!
//! 1. every rank sends its piece lists for *on-node* aggregators directly
//!    (shared-memory links; `TAG_RA_LOCAL`, one message per on-node
//!    aggregator, empty allowed so receives match on `(src, tag)`);
//! 2. non-leader members pack their *off-node* lists into one up-blob for
//!    the node leader — `(agg u32, len u32, bytes)*` (`TAG_RA_UP`,
//!    [`push_entry`] / [`decode_blob`]);
//! 3. the leader decodes member lists per off-node aggregator in ascending
//!    member order (later members overwrite on overlap — the same
//!    index-order the flat burst applies), coalesces adjacent extents, and
//!    sends exactly one merged list to each off-node aggregator
//!    (`TAG_RA_XNODE`, empty allowed).
//!
//! An aggregator therefore receives: direct lists from its node peers, and
//! one merged list from every other node's leader — surfaced in the
//! rank-indexed `Vec<Vec<u8>>` the two-phase code already consumes, with
//! the merged list sitting at the *leader's* rank index.
//!
//! Reads run the same uphill leg ([`uphill`]) with request lists: the
//! leader unions them into sorted, coalesced runs ([`ExtentSet`]) and
//! remembers each member's original list in a [`ReadSession`]; then
//! [`exchange_responses`] routes the aggregator's run-ordered response
//! bytes back down, the leader slicing each member's requested extents out
//! of the merged runs (`TAG_RA_DOWN` down-blob, same entry format).
//!
//! Ordering semantics: concurrent collective writes to the *same* file
//! byte are undefined in MPI-IO. Within a node the merge preserves the
//! flat burst's rank-order overwrite; across nodes the aggregator applies
//! node-merged lists in leader-rank order, which coincides with the flat
//! order for the default blocked topologies. Disjoint writes — the defined
//! case — are bit-identical to the flat burst, which is what the
//! differential suite pins.

use crate::engine::{
    decode_requests, encode_pieces, encode_requests, Domains, Encoding, WindowBuf,
};
use crate::error::{IoError, Result};
use crate::extents::ExtentSet;
use mpisim::{MpiError, Phase, Rank, Tag};
use std::collections::BTreeMap;

// User-level tags (must stay below mpisim's internal tag range). The
// 0x5241.. prefix is "RA" in ASCII, picked to stay clear of the small
// integers workloads use.
const TAG_RA_LOCAL: Tag = 0x5241_0001;
const TAG_RA_UP: Tag = 0x5241_0002;
const TAG_RA_XNODE: Tag = 0x5241_0003;
const TAG_RA_RESP_LOCAL: Tag = 0x5241_0004;
const TAG_RA_RESP_X: Tag = 0x5241_0005;
const TAG_RA_DOWN: Tag = 0x5241_0006;

/// Append one `(agg u32, len u32, bytes)` entry to an up/down blob.
fn push_entry(blob: &mut Vec<u8>, agg: usize, bytes: &[u8]) {
    blob.extend_from_slice(&(agg as u32).to_le_bytes());
    blob.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    blob.extend_from_slice(bytes);
}

/// Decode an up/down blob into `(agg, bytes)` entries, rejecting
/// truncated entries and aggregator ranks outside the communicator.
fn decode_blob(blob: &[u8], nprocs: usize) -> Result<Vec<(usize, &[u8])>> {
    let bad = || IoError::Usage("malformed request-aggregation blob".into());
    let u32_at = |b: &[u8], at: usize| -> Option<usize> {
        Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?) as usize)
    };
    let mut rest = blob;
    let mut out = Vec::new();
    while !rest.is_empty() {
        let (agg, len) = u32_at(rest, 0).zip(u32_at(rest, 4)).ok_or_else(bad)?;
        let bytes = rest[8..]
            .get(..len)
            .filter(|_| agg < nprocs)
            .ok_or_else(bad)?;
        out.push((agg, bytes));
        rest = &rest[8 + len..];
    }
    Ok(out)
}

/// Receive from a fixed `(src, tag)`, treating a crashed peer as an empty
/// message — the same graceful-degradation contract as the flat burst.
fn recv_or_empty(rank: &mut Rank, src: usize, tag: Tag) -> Result<Vec<u8>> {
    match rank.recv(Some(src), Some(tag)) {
        Ok(r) => Ok(r.data),
        Err(MpiError::PeerCrashed { rank: r }) if r == src => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// Roles for one aggregated exchange: node membership, the chaos-aware
/// leader election (identical criteria to the runtime's hierarchical
/// exchange, so the same rank leads either way), and the aggregator set
/// split into on-node and off-node.
struct RaPlan {
    me: usize,
    nprocs: usize,
    my_node: usize,
    /// World ranks on my node, ascending (includes me).
    my_peers: Vec<usize>,
    my_leader: usize,
    /// node id → leader world rank, for every node.
    leader_of: BTreeMap<usize, usize>,
    agg_ranks: Vec<usize>,
    /// Aggregators sharing my node, excluding me.
    on_node_aggs: Vec<usize>,
    /// Aggregators on other nodes (merged lists go through leaders).
    off_node_aggs: Vec<usize>,
}

impl RaPlan {
    fn i_am_agg(&self) -> bool {
        self.agg_ranks.contains(&self.me)
    }
}

/// Synchronize and elect. The barrier makes every rank's clock equal, so
/// the pure-function stall/crash queries yield the same leaders everywhere
/// without extra messages.
fn make_plan(rank: &mut Rank, agg_ranks: &[usize]) -> Result<RaPlan> {
    rank.barrier()?;
    let topo = rank
        .topology()
        .expect("request aggregation requires a topology");
    let me = rank.rank();
    let nprocs = rank.nprocs();
    let mut nodes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for w in 0..nprocs {
        nodes.entry(topo.node_of(w)).or_default().push(w);
    }
    let now = rank.now();
    let mut leader_of: BTreeMap<usize, usize> = BTreeMap::new();
    for (&node, ws) in &nodes {
        let healthy = ws.iter().copied().find(|&w| match rank.chaos() {
            Some(e) => !e.stall_ahead(w, now) && !e.crash_ahead(w),
            None => true,
        });
        leader_of.insert(node, healthy.unwrap_or(ws[0]));
    }
    let my_node = topo.node_of(me);
    let my_peers = nodes[&my_node].clone();
    let my_leader = leader_of[&my_node];
    if me == my_leader && my_leader != my_peers[0] {
        rank.stats.leader_fallbacks += 1;
    }
    let on_node_aggs = agg_ranks
        .iter()
        .copied()
        .filter(|&a| a != me && topo.node_of(a) == my_node)
        .collect();
    let off_node_aggs = agg_ranks
        .iter()
        .copied()
        .filter(|&a| topo.node_of(a) != my_node)
        .collect();
    Ok(RaPlan {
        me,
        nprocs,
        my_node,
        my_peers,
        my_leader,
        leader_of,
        agg_ranks: agg_ranks.to_vec(),
        on_node_aggs,
        off_node_aggs,
    })
}

/// The uphill leg both aggregated exchanges share. On-node lists go
/// directly; off-node lists ride one up-blob to the node leader, which
/// hands `merge` each off-node aggregator's member lists (ascending member
/// rank) and sends it the result. `lists` is indexed by world rank
/// (non-empty only at aggregator ranks); the result is indexed by source
/// rank like the flat burst, with each node's merged list at its leader's
/// index.
fn uphill(
    rank: &mut Rank,
    plan: &RaPlan,
    mut lists: Vec<Vec<u8>>,
    span: &'static str,
    mut merge: impl FnMut(&mut Rank, usize, BTreeMap<usize, Vec<u8>>) -> Result<Vec<u8>>,
) -> Result<Vec<Vec<u8>>> {
    let start = rank.now();
    let total: u64 = lists.iter().map(|p| p.len() as u64).sum();
    let me = plan.me;
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); plan.nprocs];
    if plan.i_am_agg() {
        out[me] = std::mem::take(&mut lists[me]);
    }
    let mut sends = Vec::new();
    // On-node lists go directly over the shared-memory links.
    for &a in &plan.on_node_aggs {
        let p = std::mem::take(&mut lists[a]);
        sends.push(rank.isend(a, TAG_RA_LOCAL, &p)?);
    }
    if me != plan.my_leader {
        // One up-blob carries all non-empty off-node lists.
        let mut up = Vec::new();
        for &a in &plan.off_node_aggs {
            let p = std::mem::take(&mut lists[a]);
            if !p.is_empty() {
                push_entry(&mut up, a, &p);
            }
        }
        sends.push(rank.isend(plan.my_leader, TAG_RA_UP, &up)?);
    } else {
        // Member lists per off-node aggregator, keyed by member rank.
        let mut contrib: BTreeMap<usize, BTreeMap<usize, Vec<u8>>> = BTreeMap::new();
        for &a in &plan.off_node_aggs {
            let p = std::mem::take(&mut lists[a]);
            if !p.is_empty() {
                contrib.entry(a).or_default().insert(me, p);
            }
        }
        for &p in plan.my_peers.iter().filter(|&&p| p != me) {
            let up = recv_or_empty(rank, p, TAG_RA_UP)?;
            for (a, bytes) in decode_blob(&up, plan.nprocs)? {
                contrib.entry(a).or_default().insert(p, bytes.to_vec());
            }
        }
        for &a in &plan.off_node_aggs {
            let merged = match contrib.remove(&a) {
                Some(members) => merge(rank, a, members)?,
                None => Vec::new(),
            };
            sends.push(rank.isend(a, TAG_RA_XNODE, &merged)?);
        }
    }
    if plan.i_am_agg() {
        for &p in plan.my_peers.iter().filter(|&&p| p != me) {
            out[p] = recv_or_empty(rank, p, TAG_RA_LOCAL)?;
        }
        for (&node, &l) in &plan.leader_of {
            if node != plan.my_node {
                out[l] = recv_or_empty(rank, l, TAG_RA_XNODE)?;
            }
        }
    }
    rank.waitall(sends)?;
    rank.trace_mark(span, Phase::Exchange, start, total);
    Ok(out)
}

/// The write-side aggregated exchange of round `r`: the leader merges
/// member piece lists per aggregator window with [`merge_pieces`].
pub(crate) fn exchange_pieces(
    rank: &mut Rank,
    doms: &Domains,
    r: u64,
    payloads: Vec<Vec<u8>>,
) -> Result<Vec<Vec<u8>>> {
    let plan = make_plan(rank, &doms.agg_ranks)?;
    uphill(
        rank,
        &plan,
        payloads,
        "reqagg_pieces",
        |rank, a, members| {
            let i = doms.agg_index(a).expect("merged lists go to aggregators");
            let (ws, we) = doms.window(i, r);
            let (list, moved) = merge_pieces(ws, we, &members)?;
            rank.charge_memcpy(moved);
            Ok(list)
        },
    )
}

/// Merge members' piece lists for the aggregator window `[ws, we)` in one
/// [`WindowBuf`], in ascending member order (later members overwrite on
/// overlap — the same index order the flat burst applies), and encode the
/// coalesced dirty runs as one list: the aggregation win is one wire header
/// per merged extent. Returns the list (empty when nothing was written)
/// and the bytes copied.
fn merge_pieces(ws: u64, we: u64, members: &BTreeMap<usize, Vec<u8>>) -> Result<(Vec<u8>, u64)> {
    let mut win = WindowBuf::new(ws, we);
    let mut moved = 0;
    for (&m, blob) in members {
        let pieces = win.put(Encoding::Merged, m, blob)?;
        moved += pieces.iter().map(|p| p.1.len() as u64).sum::<u64>();
    }
    let runs: Vec<(u64, &[u8])> = win.runs().collect();
    let list = if runs.is_empty() {
        Vec::new()
    } else {
        encode_pieces(&runs)
    };
    Ok((list, moved))
}

/// State carried from the request leg to the response leg of an
/// aggregated collective read round.
pub(crate) struct ReadSession {
    plan: RaPlan,
    /// Leader only, per off-node agg rank: the merged, sorted, coalesced
    /// runs sent to it (the order its response bytes come back in), and
    /// each member's original request list (the slice order the member's
    /// scatter plan expects).
    merged: BTreeMap<usize, (Vec<(u64, u64)>, MemberLists)>,
}

/// Member rank → that member's request list.
type MemberLists = BTreeMap<usize, Vec<(u64, u64)>>;

/// The read-side request leg: the leader merges member request lists by
/// extent union. Returns the rank-indexed incoming requests (for
/// aggregators) plus the [`ReadSession`] the response leg needs.
pub(crate) fn exchange_requests(
    rank: &mut Rank,
    agg_ranks: &[usize],
    requests: Vec<Vec<u8>>,
) -> Result<(Vec<Vec<u8>>, ReadSession)> {
    let plan = make_plan(rank, agg_ranks)?;
    let mut merged = BTreeMap::new();
    let out = uphill(rank, &plan, requests, "reqagg_reads", |_, a, members| {
        let mut union = ExtentSet::new();
        let mut reqs = BTreeMap::new();
        for (m, blob) in members {
            let list = decode_requests(&blob)?;
            for &(o, l) in &list {
                union.insert(o, l);
            }
            reqs.insert(m, list);
        }
        let runs = union.runs().to_vec();
        let enc = encode_requests(&runs);
        merged.insert(a, (runs, reqs));
        Ok(enc)
    })?;
    Ok((out, ReadSession { plan, merged }))
}

/// Slice one member's requested extents out of a merged run-ordered
/// response blob. Each request lies wholly inside one merged run (the
/// union covers it contiguously), so a prefix-sum lookup suffices; bytes
/// the blob does not hold read as zeros.
fn slice_member(runs: &[(u64, u64)], prefix: &[u64], blob: &[u8], reqs: &[(u64, u64)]) -> Vec<u8> {
    let total: u64 = reqs.iter().map(|&(_, l)| l).sum();
    let mut out = Vec::with_capacity(total as usize);
    for &(off, len) in reqs {
        let idx = runs.partition_point(|&(o, _)| o <= off).checked_sub(1);
        let at = idx.map(|i| (prefix[i] + (off - runs[i].0)) as usize);
        // A crashed aggregator yields an empty blob; leave zeros rather
        // than slicing past the end (mirrors the flat burst's contract).
        match at.and_then(|at| blob.get(at..at + len as usize)) {
            Some(bytes) => out.extend_from_slice(bytes),
            None => out.resize(out.len() + len as usize, 0),
        }
    }
    out
}

/// The read-side response leg: aggregators answer each source's request
/// list in order; leaders fan the merged responses back out to members.
/// Returns response bytes indexed by *aggregator* rank, in this rank's
/// original request order — exactly what the flat burst's scatter expects.
pub(crate) fn exchange_responses(
    rank: &mut Rank,
    session: ReadSession,
    mut responses: Vec<Vec<u8>>,
) -> Result<Vec<Vec<u8>>> {
    let ReadSession { plan, merged } = session;
    let start = rank.now();
    let total: u64 = responses.iter().map(|p| p.len() as u64).sum();
    let me = plan.me;
    let mut answers: Vec<Vec<u8>> = vec![Vec::new(); plan.nprocs];
    let mut sends = Vec::new();
    if plan.i_am_agg() {
        answers[me] = std::mem::take(&mut responses[me]);
        // Answer node peers directly, and every other node's leader with
        // the merged-run-ordered bytes. One message per destination, empty
        // allowed, so receives match on (src, tag).
        for &p in plan.my_peers.iter().filter(|&&p| p != me) {
            let r = std::mem::take(&mut responses[p]);
            sends.push(rank.isend(p, TAG_RA_RESP_LOCAL, &r)?);
        }
        for (&node, &l) in &plan.leader_of {
            if node != plan.my_node {
                let r = std::mem::take(&mut responses[l]);
                sends.push(rank.isend(l, TAG_RA_RESP_X, &r)?);
            }
        }
    }
    for &a in &plan.on_node_aggs {
        answers[a] = recv_or_empty(rank, a, TAG_RA_RESP_LOCAL)?;
    }
    if me == plan.my_leader {
        // Collect merged responses, then deal each member its slices.
        let mut down: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        let mut moved = 0u64;
        for &a in &plan.off_node_aggs {
            let blob = recv_or_empty(rank, a, TAG_RA_RESP_X)?;
            let Some((runs, lists)) = merged.get(&a) else {
                continue;
            };
            let prefix: Vec<u64> = (runs.iter())
                .scan(0, |acc, &(_, l)| Some(std::mem::replace(acc, *acc + l)))
                .collect();
            for (&m, reqs) in lists {
                let bytes = slice_member(runs, &prefix, &blob, reqs);
                moved += bytes.len() as u64;
                if m == me {
                    answers[a] = bytes;
                } else {
                    push_entry(down.entry(m).or_default(), a, &bytes);
                }
            }
        }
        rank.charge_memcpy(moved);
        for &m in plan.my_peers.iter().filter(|&&m| m != me) {
            let blob = down.remove(&m).unwrap_or_default();
            sends.push(rank.isend(m, TAG_RA_DOWN, &blob)?);
        }
    } else {
        let down = recv_or_empty(rank, plan.my_leader, TAG_RA_DOWN)?;
        for (a, bytes) in decode_blob(&down, plan.nprocs)? {
            answers[a] = bytes.to_vec();
        }
    }
    rank.waitall(sends)?;
    rank.trace_mark("reqagg_resp", Phase::Exchange, start, total);
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::engine::decode_pieces;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    /// Merge `lists` (member `k` sends `lists[k]`) in the window `[0, 64)`
    /// and decode the result.
    fn merged(lists: &[&[(u64, &[u8])]]) -> Vec<(u64, Vec<u8>)> {
        let members = (lists.iter().enumerate())
            .map(|(m, l)| (m, encode_pieces(l)))
            .collect();
        let (list, moved) = merge_pieces(0, 64, &members).unwrap();
        let sent: usize = lists.iter().flat_map(|l| l.iter()).map(|p| p.1.len()).sum();
        assert_eq!(moved, sent as u64);
        (decode_pieces(&list).unwrap().into_iter())
            .map(|(o, b)| (o, b.to_vec()))
            .collect()
    }

    #[test]
    fn merge_coalesces_adjacent_extents() {
        let got = merged(&[&[(10, &[1, 2]), (20, &[9])], &[(12, &[3, 4])]]);
        assert_eq!(got, vec![(10, vec![1, 2, 3, 4]), (20, vec![9])]);
    }

    #[test]
    fn merge_later_insert_overwrites_overlap() {
        assert_eq!(
            merged(&[&[(0, &[1, 1, 1, 1])], &[(1, &[2, 2])]]),
            vec![(0, vec![1, 2, 2, 1])]
        );
        // Within one member's list too.
        assert_eq!(
            merged(&[&[(0, &[1, 1, 1, 1]), (1, &[2, 2])]]),
            vec![(0, vec![1, 2, 2, 1])]
        );
    }

    #[test]
    fn merge_insert_spanning_many_runs() {
        let got = merged(&[&[(0, &[1, 1]), (4, &[2, 2]), (8, &[3, 3])], &[(1, &[7; 8])]]);
        assert_eq!(got, vec![(0, vec![1, 7, 7, 7, 7, 7, 7, 7, 7, 3])]);
    }

    #[test]
    fn merge_splits_surrounding_run() {
        // One coalesced extent, bytes overwritten in the middle.
        let got = merged(&[&[(0, &[5; 10])], &[(3, &[8, 8])]]);
        assert_eq!(got, vec![(0, vec![5, 5, 5, 8, 8, 5, 5, 5, 5, 5])]);
    }

    #[test]
    fn merge_of_empty_pieces_is_an_empty_list() {
        let members = BTreeMap::from([(0, encode_pieces(&[(5, &[][..])]))]);
        assert_eq!(merge_pieces(0, 64, &members).unwrap(), (Vec::new(), 0));
    }

    #[test]
    fn merge_rejects_pieces_outside_the_window() {
        let members = BTreeMap::from([(0, encode_pieces(&[(60, &[1; 8][..])]))]);
        assert!(merge_pieces(0, 64, &members).is_err());
    }

    /// Reference merge: disjoint byte runs keyed by file offset, later
    /// inserts splitting and overwriting the runs they overlap.
    #[derive(Default)]
    struct PieceMap {
        runs: BTreeMap<u64, Vec<u8>>,
    }

    impl PieceMap {
        fn insert(&mut self, off: u64, data: &[u8]) {
            if data.is_empty() {
                return;
            }
            let end = off + data.len() as u64;
            let overlapping: Vec<u64> = (self.runs.range(..end).rev())
                .take_while(|(&s, v)| s + v.len() as u64 > off)
                .map(|(&s, _)| s)
                .collect();
            for s in overlapping {
                let v = self.runs.remove(&s).expect("overlapping run present");
                let e = s + v.len() as u64;
                if s < off {
                    self.runs.insert(s, v[..(off - s) as usize].to_vec());
                }
                if e > end {
                    self.runs.insert(end, v[(end - s) as usize..].to_vec());
                }
            }
            self.runs.insert(off, data.to_vec());
        }

        /// Sorted pieces, adjacent runs coalesced, encoded as one list.
        fn encode(self) -> Vec<u8> {
            let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
            for (off, bytes) in self.runs {
                match out.last_mut() {
                    Some((o, b)) if *o + b.len() as u64 == off => b.extend_from_slice(&bytes),
                    _ => out.push((off, bytes)),
                }
            }
            let views: Vec<(u64, &[u8])> = out.iter().map(|(o, b)| (*o, &b[..])).collect();
            if views.is_empty() {
                Vec::new()
            } else {
                encode_pieces(&views)
            }
        }
    }

    #[test]
    fn merge_matches_the_piece_map_reference_on_random_lists() {
        let mut rng = StdRng::seed_from_u64(0x5241_4D45);
        let mut below = |n: u64| rng.next_u64() % n;
        for case in 0..500 {
            let ws = below(1000);
            let we = ws + 1 + below(200);
            let mut members = BTreeMap::new();
            let mut reference = PieceMap::default();
            for m in 0..below(8) as usize {
                let mut data = Vec::new();
                let mut heads = Vec::new();
                for _ in 0..below(7) {
                    let off = ws + below(we - ws + 1);
                    let len = below((we - off).min(24) + 1);
                    heads.push((off, data.len(), len as usize));
                    data.extend((0..len).map(|_| below(256) as u8));
                }
                let pieces: Vec<(u64, &[u8])> = (heads.iter())
                    .map(|&(off, at, len)| (off, &data[at..at + len]))
                    .collect();
                pieces.iter().for_each(|&(off, b)| reference.insert(off, b));
                // A member with nothing for this aggregator sends nothing.
                if !pieces.is_empty() {
                    members.insert(m, encode_pieces(&pieces));
                }
            }
            let (list, _) = merge_pieces(ws, we, &members).unwrap();
            assert_eq!(list, reference.encode(), "case {case}");
        }
    }

    #[test]
    fn slice_member_uses_run_prefix_sums() {
        // Merged runs [10,14) and [20,23); blob holds their bytes back to
        // back. A member that asked for (12,2) and (20,3) gets exactly
        // those bytes in request order.
        let runs = vec![(10u64, 4u64), (20, 3)];
        let prefix = vec![0u64, 4];
        let blob = vec![10, 11, 12, 13, 20, 21, 22];
        let got = slice_member(&runs, &prefix, &blob, &[(12, 2), (20, 3)]);
        assert_eq!(got, vec![12, 13, 20, 21, 22]);
    }

    #[test]
    fn slice_member_zero_fills_on_short_blob() {
        let runs = vec![(0u64, 4u64)];
        let prefix = vec![0u64];
        let got = slice_member(&runs, &prefix, &[], &[(0, 4)]);
        assert_eq!(got, vec![0, 0, 0, 0]);
    }

    #[test]
    fn blob_entries_roundtrip() {
        let mut blob = Vec::new();
        push_entry(&mut blob, 3, &[7, 8, 9]);
        push_entry(&mut blob, 0, &[]);
        let got = decode_blob(&blob, 4).unwrap();
        assert_eq!(got, vec![(3, &[7u8, 8, 9][..]), (0, &[][..])]);
        assert!(decode_blob(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn hostile_blobs_are_typed_errors() {
        let mut blob = Vec::new();
        push_entry(&mut blob, 1, &[1, 2, 3, 4]);
        // Every truncation of a valid blob, including mid-header.
        for cut in 1..blob.len() {
            assert!(decode_blob(&blob[..cut], 4).is_err(), "cut at {cut}");
        }
        // An aggregator rank outside the communicator.
        assert!(decode_blob(&blob, 1).is_err());
        // A length field claiming far more bytes than the blob holds.
        let mut huge = Vec::new();
        huge.extend_from_slice(&0u32.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_blob(&huge, 4).is_err());
    }

    #[test]
    fn slice_member_zero_fills_requests_outside_every_run() {
        let runs = vec![(10u64, 4u64)];
        let got = slice_member(&runs, &[0], &[1, 2, 3, 4], &[(2, 3), (12, 2)]);
        assert_eq!(got, vec![0, 0, 0, 3, 4]);
    }
}
