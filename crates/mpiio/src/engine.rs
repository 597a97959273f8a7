//! The two-phase round engine behind every collective front-end — ROMIO's
//! algorithm, the paper's OCIO baseline (§III.A), written once.
//!
//! A collective write:
//!
//! 1. every rank resolves its stream range into file extents and the scope
//!    agrees on the aggregate file domain `[min, max)` (two allreduces);
//! 2. the domain is split evenly across the aggregators, and each
//!    aggregator's domain into rounds of at most `cb_buffer` bytes (one
//!    round when unset — the paper's unchunked behaviour);
//! 3. per round, the **exchange phase** ships every aggregator the part of
//!    each rank's request inside its window — the all-to-all burst the
//!    paper blames for OCIO's collapse at scale;
//! 4. the **I/O phase**: each aggregator assembles its window in a
//!    collective buffer, counted against the rank's memory budget (the
//!    Fig. 6/7 out-of-memory mechanism), and writes the dirty runs.
//!
//! A read runs a request leg first, then the phases in reverse.
//!
//! Two parameters cover every front-end. The [`Scope`] (world or a
//! [`SubComm`]) decides which allreduce, barrier and burst run and where
//! aggregators sit. The [`Encoding`] decides what a request looks like on
//! the wire: per-extent lists, the same lists merged on node leaders
//! ([`crate::reqagg`]), or one stream interval per aggregator mapped
//! through registered views ([`crate::viewcoll`]).
//!
//! With `pipeline`, a write keeps each round's completion as a deferred
//! handle in an [`IoPipeline`] (depth 2), so round k+1's exchange runs
//! while the OSTs service round k; a read prefetches round k+1's request
//! leg before settling round k's window read. Bytes land at submission, so
//! only the clock attribution differs from the flat settle.

use crate::collective::CollectiveConfig;
use crate::error::{IoError, Result};
use crate::extents::ExtentSet;
use crate::file::File;
use crate::reqagg::{self, ReadSession};
use crate::retry::pfs_retry;
use crate::view::FileView;
use mpisim::{DeferredIo, IoPipeline, Phase, Rank, ReduceOp, SubComm};

/// The ranks taking part in a collective. Payload vectors and aggregator
/// indices are in the scope's rank space (world or group ranks).
#[derive(Clone, Copy)]
pub(crate) enum Scope<'a> {
    World,
    /// ParColl-style partition: group-local agreement, burst and
    /// aggregators, with the plain `i·g/naggs` placement.
    Group(&'a SubComm),
}

impl Scope<'_> {
    fn size(self, rank: &Rank) -> usize {
        match self {
            Scope::World => rank.nprocs(),
            Scope::Group(c) => c.size(),
        }
    }

    fn me(self, rank: &Rank) -> usize {
        match self {
            Scope::World => rank.rank(),
            Scope::Group(c) => c.group_rank(),
        }
    }

    fn allreduce(self, rank: &mut Rank, v: u64, op: ReduceOp) -> Result<u64> {
        Ok(match self {
            Scope::World => rank.allreduce_u64(v, op)?,
            Scope::Group(c) => rank.allreduce_u64_in(c, v, op)?,
        })
    }

    fn barrier(self, rank: &mut Rank) -> Result<()> {
        match self {
            Scope::World => rank.barrier()?,
            Scope::Group(c) => rank.barrier_in(c)?,
        }
        Ok(())
    }

    /// The flat all-to-all burst, or the two-level one (node leaders alone
    /// cross nodes) under `intra_agg` — and under `req_agg` wherever the
    /// semantic merge does not apply.
    fn burst(
        self,
        rank: &mut Rank,
        cfg: &CollectiveConfig,
        p: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>> {
        let hier = cfg.intra_agg || cfg.req_agg;
        Ok(match (self, hier) {
            (Scope::World, false) => rank.alltoallv_burst(p)?,
            (Scope::World, true) => rank.alltoallv_burst_hier(p)?,
            (Scope::Group(c), false) => rank.alltoallv_burst_in(c, p)?,
            (Scope::Group(c), true) => rank.alltoallv_burst_hier_in(c, p)?,
        })
    }
}

/// How a rank's request for one aggregator window crosses the exchange.
#[derive(Clone, Copy)]
pub(crate) enum Encoding<'a> {
    /// One 12-byte `(off, len)` header per file extent, followed by the
    /// bytes on writes ([`encode_pieces`] / [`encode_requests`]).
    Extents,
    /// The same lists, merged per aggregator on node leaders
    /// ([`crate::reqagg`]). World scope with a topology only.
    Merged,
    /// One 16-byte `(stream_lo, len)` header per aggregator (plus the
    /// bytes on writes); the aggregator maps it through the source's
    /// registered view.
    Views(&'a [FileView]),
}

impl Encoding<'_> {
    /// Decode source `src`'s payload for window `[ws, we)` into file
    /// extents, in wire order, plus the bytes after the headers (a write's
    /// data, back to back; nothing for a read). Any extent outside the
    /// window is an error.
    fn decode<'p>(self, src: usize, p: &'p [u8], ws: u64, we: u64) -> Result<Extents<'p>> {
        let (extents, data) = match self {
            Encoding::Views(_) if p.is_empty() => (Vec::new(), p),
            Encoding::Views(views) => {
                let (head, data) = p
                    .split_at_checked(16)
                    .ok_or_else(|| malformed("view header"))?;
                let (lo, len) = (le_u64(&head[..8]), le_u64(&head[8..]));
                (view_extents(&views[src], lo, len, ws, we)?, data)
            }
            _ => decode_heads(p)?,
        };
        if extents
            .iter()
            .any(|&(off, len)| off < ws || off > we || len > we - off)
        {
            return Err(malformed("extent outside the aggregator window"));
        }
        Ok((extents, data))
    }

    /// Charge the memcpy of one source's pieces into the collective
    /// buffer: a view-encoded source is one contiguous stream interval
    /// (one copy), list encodings copy piece by piece.
    fn charge_copies(self, rank: &mut Rank, pieces: &[(u64, &[u8])]) {
        match self {
            Encoding::Views(_) => rank.charge_memcpy(pieces.iter().map(|p| p.1.len() as u64).sum()),
            _ => pieces
                .iter()
                .for_each(|p| rank.charge_memcpy(p.1.len() as u64)),
        }
    }
}

/// Decoded extents and the bytes that follow their headers.
type Extents<'p> = (Vec<(u64, u64)>, &'p [u8]);

fn malformed(what: &str) -> IoError {
    IoError::Usage(format!("malformed exchange payload: {what}"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// Map a source's stream interval through its registered view, after
/// checking the interval lies in the stream range the window covers (file
/// views are monotone) — so a hostile header can neither overflow the
/// mapping nor make it allocate past the window.
fn view_extents(view: &FileView, lo: u64, len: u64, ws: u64, we: u64) -> Result<Vec<(u64, u64)>> {
    let end = lo.checked_add(len);
    if lo < view.stream_len_for_file(ws) || end.is_none_or(|e| e > view.stream_len_for_file(we)) {
        return Err(malformed("view interval outside the aggregator window"));
    }
    Ok(view.map_range(lo, len))
}

/// Serialize a list `n u32, (off u64, len u32)*` followed by `data` — a
/// piece list's bytes, or nothing for a request list.
fn encode_list(heads: impl ExactSizeIterator<Item = (u64, u64)>, data: &[&[u8]]) -> Vec<u8> {
    let bytes: usize = data.iter().map(|d| d.len()).sum();
    let mut out = Vec::with_capacity(4 + heads.len() * 12 + bytes);
    out.extend_from_slice(&(heads.len() as u32).to_le_bytes());
    for (off, len) in heads {
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&(len as u32).to_le_bytes());
    }
    data.iter().for_each(|d| out.extend_from_slice(d));
    out
}

/// Serialize a piece list `[(file_off, bytes)]`.
pub(crate) fn encode_pieces(pieces: &[(u64, &[u8])]) -> Vec<u8> {
    let data: Vec<&[u8]> = pieces.iter().map(|p| p.1).collect();
    encode_list(pieces.iter().map(|&(o, d)| (o, d.len() as u64)), &data)
}

/// Decode a piece list into `(off, bytes)` views into `buf`.
pub(crate) fn decode_pieces(buf: &[u8]) -> Result<Vec<(u64, &[u8])>> {
    let (heads, data) = decode_heads(buf)?;
    with_bytes(heads, data)
}

/// Pair each extent with its bytes, laid out back to back in `data`.
fn with_bytes(extents: Vec<(u64, u64)>, mut data: &[u8]) -> Result<Vec<(u64, &[u8])>> {
    if extents.iter().map(|e| e.1).sum::<u64>() != data.len() as u64 {
        return Err(malformed("piece bytes do not match their headers"));
    }
    let split = |(off, len): (u64, u64)| {
        let (head, tail) = data.split_at(len as usize);
        data = tail;
        (off, head)
    };
    Ok(extents.into_iter().map(split).collect())
}

/// Serialize a request list `[(file_off, len)]`.
pub(crate) fn encode_requests(reqs: &[(u64, u64)]) -> Vec<u8> {
    encode_list(reqs.iter().copied(), &[])
}

pub(crate) fn decode_requests(buf: &[u8]) -> Result<Vec<(u64, u64)>> {
    no_bytes(decode_heads(buf)?)
}

fn no_bytes((extents, data): Extents) -> Result<Vec<(u64, u64)>> {
    match data {
        [] => Ok(extents),
        _ => Err(malformed("trailing bytes after a request")),
    }
}

/// Decode a list header `n u32, (off u64, len u32)*`; an empty buffer is
/// an empty list.
fn decode_heads(buf: &[u8]) -> Result<Extents<'_>> {
    if buf.is_empty() {
        return Ok((Vec::new(), buf));
    }
    let bad = || malformed("truncated list header");
    let n = u32::from_le_bytes(buf.get(..4).ok_or_else(bad)?.try_into().expect("4 bytes"));
    let (heads, data) = buf[4..].split_at_checked(n as usize * 12).ok_or_else(bad)?;
    let head = |h: &[u8]| {
        (
            le_u64(&h[..8]),
            u32::from_le_bytes(h[8..].try_into().expect("4 bytes")) as u64,
        )
    };
    Ok((heads.chunks_exact(12).map(head).collect(), data))
}

/// File-domain geometry of one collective call.
pub(crate) struct Domains {
    gmin: u64,
    gmax: u64,
    dsize: u64,
    round_size: u64,
    rounds: u64,
    /// The scope rank serving each aggregator index: evenly spread
    /// (`i·n/naggs`), interleaved across nodes under a world topology, and
    /// shrunk around stalled or crash-doomed ranks under fault injection.
    pub(crate) agg_ranks: Vec<usize>,
}

impl Domains {
    /// Which aggregator index (if any) scope rank `me` serves as.
    fn my_agg_index(&self, me: usize) -> Option<usize> {
        self.agg_ranks.iter().position(|&r| r == me)
    }

    /// Aggregator i's window `[ws, we)` for round r (empty past its domain).
    fn window(&self, i: usize, r: u64) -> (u64, u64) {
        let start = self.gmin + i as u64 * self.dsize;
        let de = (start + self.dsize).min(self.gmax);
        let ws = start.min(self.gmax) + r * self.round_size;
        (ws.min(de), (ws + self.round_size).min(de))
    }
}

pub(crate) fn compute_domains(
    rank: &mut Rank,
    scope: Scope,
    local_min: u64,
    local_max: u64,
    cfg: &CollectiveConfig,
) -> Result<Option<Domains>> {
    let gmin = scope.allreduce(rank, local_min, ReduceOp::Min)?;
    let gmax = scope.allreduce(rank, local_max, ReduceOp::Max)?;
    if gmin >= gmax {
        return Ok(None); // nothing to do anywhere
    }
    let n = scope.size(rank);
    let naggs = cfg.cb_nodes.unwrap_or(n).clamp(1, n);
    let topo = match scope {
        Scope::World => rank.topology(),
        Scope::Group(_) => None,
    };
    let mut agg_ranks: Vec<usize> = match topo {
        // Node-aware placement: interleave nodes so the first `num_nodes`
        // aggregators land one per node — aggregator NICs are the
        // bottleneck of the I/O phase, so doubling up on a node before
        // every node has one wastes links.
        Some(topo) => {
            let mut order = topo.interleaved_order();
            order.truncate(naggs);
            order
        }
        // Topology-blind: the classic evenly-spread ROMIO mapping.
        None => (0..naggs).map(|i| i * n / naggs).collect(),
    };
    // Graceful degradation (world scope): drop aggregators with a stall
    // window still ahead, and re-elect around ranks the fault plan will
    // crash-stop — an aggregator that dies mid-drain takes every rank's
    // staged data with it. Both allreduces above are symmetric, so all
    // ranks exit with *identical* clocks and the pure-function stall/crash
    // queries yield the same shrunk set everywhere without extra
    // communication. If every candidate is a straggler, keep the original
    // set (someone has to do the I/O).
    if let (Scope::World, Some(engine)) = (scope, rank.chaos()) {
        let t = rank.now();
        let healthy: Vec<usize> = agg_ranks
            .iter()
            .copied()
            .filter(|&r| !engine.stall_ahead(r, t) && !engine.crash_ahead(r))
            .collect();
        if !healthy.is_empty() {
            agg_ranks = healthy;
        }
    }
    let mut dsize = (gmax - gmin).div_ceil(agg_ranks.len() as u64);
    if let Some(a) = cfg.align.filter(|&a| a > 0) {
        dsize = dsize.div_ceil(a) * a;
    }
    let round_size = cfg.cb_buffer.unwrap_or(dsize).max(1).min(dsize);
    Ok(Some(Domains {
        gmin,
        gmax,
        dsize,
        round_size,
        rounds: dsize.div_ceil(round_size),
        agg_ranks,
    }))
}

/// One rank's side of a collective call: a stream range of its view and
/// the file extents it maps to, with each extent's stream cursor.
struct Local<'a> {
    view: &'a FileView,
    offset: u64,
    len: u64,
    extents: Vec<(u64, u64)>,
    cursors: Vec<usize>,
}

impl<'a> Local<'a> {
    fn new(view: &'a FileView, offset: u64, len: u64) -> Self {
        let extents = view.map_range(offset, len);
        let cursors = (extents.iter())
            .scan(0, |acc, &(_, l)| {
                Some(std::mem::replace(acc, *acc + l as usize))
            })
            .collect();
        Local {
            view,
            offset,
            len,
            extents,
            cursors,
        }
    }

    /// `(min, max)` file offsets touched — `(u64::MAX, 0)` when empty, the
    /// allreduce identities.
    fn bounds(&self) -> (u64, u64) {
        let lo = self.extents.first().map_or(u64::MAX, |&(o, _)| o);
        (lo, self.extents.last().map_or(0, |&(o, l)| o + l))
    }

    /// What of mine lands in `[ws, we)`, as `(wire offset, len,
    /// buffer_pos)` slots: my extents clipped to the window, or under views
    /// the one stream interval mapping into it (contiguous, because file
    /// views are monotone).
    fn slots(&self, enc: Encoding, ws: u64, we: u64) -> Vec<(u64, u64, usize)> {
        if let Encoding::Views(_) = enc {
            let lo = self.view.stream_len_for_file(ws).max(self.offset);
            let hi = self
                .view
                .stream_len_for_file(we)
                .min(self.offset + self.len);
            return (lo < hi)
                .then(|| (lo, hi - lo, (lo - self.offset) as usize))
                .into_iter()
                .collect();
        }
        let clip = |(&(eoff, elen), &cur): (&(u64, u64), &usize)| {
            let (s, e) = (eoff.max(ws), (eoff + elen).min(we));
            (s < e).then(|| (s, e - s, cur + (s - eoff) as usize))
        };
        self.extents
            .iter()
            .zip(&self.cursors)
            .filter_map(clip)
            .collect()
    }

    /// Encode slots for the wire: one `(stream_lo, len)` header under
    /// views, a list header otherwise; `data` holds each slot's bytes on a
    /// write and is empty on a read. Nothing to send encodes as empty.
    fn encode(enc: Encoding, slots: &[(u64, u64, usize)], data: &[&[u8]]) -> Vec<u8> {
        match (enc, slots) {
            (_, []) => Vec::new(),
            (Encoding::Views(_), &[(lo, len, _)]) => {
                let mut msg = Vec::with_capacity(16 + data.iter().map(|d| d.len()).sum::<usize>());
                msg.extend_from_slice(&lo.to_le_bytes());
                msg.extend_from_slice(&len.to_le_bytes());
                data.iter().for_each(|d| msg.extend_from_slice(d));
                msg
            }
            _ => encode_list(slots.iter().map(|&(o, l, _)| (o, l)), data),
        }
    }
}

/// The aggregator's PFS calls for one window in one round.
struct WindowIo {
    submitted: f64,
    done: f64,
    bytes: u64,
}

impl WindowIo {
    fn start(rank: &Rank) -> Self {
        WindowIo {
            submitted: rank.now(),
            done: rank.now(),
            bytes: 0,
        }
    }

    /// Flat: wait for the completion now, in `Phase::Io`, under the flat
    /// span name. Pipelined: return a deferred handle (pipelined name) for
    /// the caller to settle later.
    fn settle(
        self,
        rank: &mut Rank,
        pipeline: bool,
        sites: [&'static str; 2],
    ) -> Option<DeferredIo> {
        if pipeline {
            return Some(DeferredIo {
                name: sites[1],
                submitted: self.submitted,
                done: self.done,
                bytes: self.bytes,
            });
        }
        rank.with_phase(Phase::Io, |rk| rk.sync_to(self.done));
        rank.trace_mark(sites[0], Phase::Io, self.submitted, self.bytes);
        None
    }
}

/// Write the dirty runs of an aggregator's window buffer (file offset `ws`).
fn write_window(
    rank: &mut Rank,
    file: &File,
    ws: u64,
    buf: &[u8],
    dirty: &ExtentSet,
) -> Result<WindowIo> {
    let (pfs, fid) = (file.pfs().clone(), file.file_id());
    let mut io = WindowIo::start(rank);
    for &(off, len) in dirty.runs() {
        let src = &buf[(off - ws) as usize..][..len as usize];
        let t = pfs_retry(rank, |rk| pfs.write_at(fid, rk.rank(), off, src, rk.now()))?;
        io.done = io.done.max(t);
        io.bytes += len;
        rank.stats.io_writes += 1;
        rank.stats.io_write_bytes += len;
    }
    Ok(io)
}

/// Read the wanted runs of an aggregator's window into `wbuf` — through
/// hedged reads (one hedge budget per window) when asked.
fn read_window(
    rank: &mut Rank,
    file: &File,
    ws: u64,
    wbuf: &mut [u8],
    wanted: &ExtentSet,
    hedged: bool,
) -> Result<WindowIo> {
    let (pfs, fid) = (file.pfs().clone(), file.file_id());
    let mut io = WindowIo::start(rank);
    if hedged {
        pfs.hedge_scope_begin(rank.rank());
    }
    for &(off, len) in wanted.runs() {
        let dst = &mut wbuf[(off - ws) as usize..][..len as usize];
        let t = pfs_retry(rank, |rk| {
            if hedged {
                pfs.read_at_hedged(fid, rk.rank(), off, dst, rk.now())
            } else {
                pfs.read_at(fid, rk.rank(), off, dst, rk.now())
            }
        })?;
        io.done = io.done.max(t);
        io.bytes += len;
        rank.stats.io_reads += 1;
        rank.stats.io_read_bytes += len;
    }
    Ok(io)
}

/// One collective front-end's configuration of the engine.
pub(crate) struct Engine<'a> {
    pub(crate) scope: Scope<'a>,
    pub(crate) enc: Encoding<'a>,
    pub(crate) cfg: &'a CollectiveConfig,
    /// Span names of the aggregator I/O: `[flat, pipelined]`.
    pub(crate) sites: [&'static str; 2],
}

/// A read round's request leg: what aggregators were asked, the reqagg
/// session the response leg needs, and per aggregator the `(buffer_pos,
/// len)` slots its reply fills.
struct Leg {
    incoming: Vec<Vec<u8>>,
    session: Option<ReadSession>,
    fill: Vec<Vec<(usize, usize)>>,
}

impl Engine<'_> {
    /// Collective write of `data` at stream `offset` of `view`.
    pub(crate) fn write(
        &self,
        rank: &mut Rank,
        file: &File,
        view: &FileView,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let local = Local::new(view, offset, data.len() as u64);
        let (lo, hi) = local.bounds();
        let Some(doms) = compute_domains(rank, self.scope, lo, hi, self.cfg)? else {
            return self.scope.barrier(rank);
        };
        let my_agg = doms.my_agg_index(self.scope.me(rank));
        // Collective-buffer guards ride along with their deferred handles.
        let mut pipe = IoPipeline::default();
        for r in 0..doms.rounds {
            pipe.make_room(rank);
            let mut payloads = vec![Vec::new(); self.scope.size(rank)];
            for (i, &a) in doms.agg_ranks.iter().enumerate() {
                let (ws, we) = doms.window(i, r);
                if ws < we {
                    let slots = local.slots(self.enc, ws, we);
                    let bytes: Vec<&[u8]> = slots
                        .iter()
                        .map(|&(_, l, p)| &data[p..][..l as usize])
                        .collect();
                    payloads[a] = Local::encode(self.enc, &slots, &bytes);
                }
            }
            let exchanged = match self.enc {
                Encoding::Merged => reqagg::exchange_pieces(rank, &doms.agg_ranks, payloads)?,
                _ => self.scope.burst(rank, self.cfg, payloads)?,
            };
            let Some((ws, we)) = my_agg.map(|i| doms.window(i, r)).filter(|(ws, we)| ws < we)
            else {
                continue;
            };
            let cb = rank.alloc(we - ws)?;
            rank.note_mem_peak();
            let mut buf = vec![0u8; (we - ws) as usize];
            let mut dirty = ExtentSet::new();
            for (src, payload) in exchanged.iter().enumerate() {
                let (extents, bytes) = self.enc.decode(src, payload, ws, we)?;
                let pieces = with_bytes(extents, bytes)?;
                for &(off, bytes) in &pieces {
                    buf[(off - ws) as usize..][..bytes.len()].copy_from_slice(bytes);
                    dirty.insert(off, bytes.len() as u64);
                }
                self.enc.charge_copies(rank, &pieces);
            }
            let io = write_window(rank, file, ws, &buf, &dirty)?;
            if let Some(h) = io.settle(rank, self.cfg.pipeline, self.sites) {
                pipe.push(h, cb);
            }
        }
        // Drain before the closing barrier so every rank's clock covers
        // its own I/O completions.
        pipe.drain(rank);
        self.scope.barrier(rank)
    }

    /// Collective read into `buf` from stream `offset` of `view`.
    pub(crate) fn read(
        &self,
        rank: &mut Rank,
        file: &File,
        view: &FileView,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        let local = Local::new(view, offset, buf.len() as u64);
        let (lo, hi) = local.bounds();
        let Some(doms) = compute_domains(rank, self.scope, lo, hi, self.cfg)? else {
            return self.scope.barrier(rank);
        };
        let my_agg = doms.my_agg_index(self.scope.me(rank));
        let mut prefetched: Option<Leg> = None;
        for r in 0..doms.rounds {
            let leg = match prefetched.take() {
                Some(leg) => leg,
                None => self.request_leg(rank, &local, &doms, r)?,
            };
            // Aggregators read the union of what was asked of their window.
            let mut pending = None;
            if let Some((ws, we)) = my_agg.map(|i| doms.window(i, r)).filter(|(ws, we)| ws < we) {
                let reqs = (leg.incoming.iter().enumerate())
                    .map(|(src, p)| no_bytes(self.enc.decode(src, p, ws, we)?))
                    .collect::<Result<Vec<_>>>()?;
                let mut wanted = ExtentSet::new();
                for &(o, l) in reqs.iter().flatten() {
                    wanted.insert(o, l);
                }
                if !wanted.is_empty() {
                    let cb = rank.alloc(we - ws)?;
                    rank.note_mem_peak();
                    let mut wbuf = vec![0u8; (we - ws) as usize];
                    let io =
                        read_window(rank, file, ws, &mut wbuf, &wanted, self.cfg.hedged_reads)?;
                    let handle = io.settle(rank, self.cfg.pipeline, self.sites);
                    pending = Some((ws, wbuf, reqs, handle, cb));
                }
            }
            // Pipelined: round r+1's request leg runs while the OSTs
            // service round r's read.
            if self.cfg.pipeline && r + 1 < doms.rounds {
                prefetched = Some(self.request_leg(rank, &local, &doms, r + 1)?);
            }
            let mut responses = vec![Vec::new(); self.scope.size(rank)];
            if let Some((ws, wbuf, reqs, handle, _cb)) = pending {
                if let Some(h) = handle {
                    rank.io_complete(h);
                }
                fill_responses(rank, &mut responses, &reqs, ws, &wbuf);
            }
            let answers = match leg.session {
                Some(s) => reqagg::exchange_responses(rank, s, responses)?,
                None => self.scope.burst(rank, self.cfg, responses)?,
            };
            scatter(buf, &doms.agg_ranks, &leg.fill, &answers)?;
        }
        self.scope.barrier(rank)
    }

    fn request_leg(&self, rank: &mut Rank, local: &Local, doms: &Domains, r: u64) -> Result<Leg> {
        let n = self.scope.size(rank);
        let mut requests = vec![Vec::new(); n];
        let mut fill = vec![Vec::new(); n];
        for (i, &a) in doms.agg_ranks.iter().enumerate() {
            let (ws, we) = doms.window(i, r);
            if ws < we {
                let slots = local.slots(self.enc, ws, we);
                fill[a] = slots.iter().map(|&(_, l, p)| (p, l as usize)).collect();
                requests[a] = Local::encode(self.enc, &slots, &[]);
            }
        }
        let (incoming, session) = match self.enc {
            Encoding::Merged => {
                let (inc, s) = reqagg::exchange_requests(rank, &doms.agg_ranks, requests)?;
                (inc, Some(s))
            }
            _ => (self.scope.burst(rank, self.cfg, requests)?, None),
        };
        Ok(Leg {
            incoming,
            session,
            fill,
        })
    }
}

/// Slice each source's requested extents out of the window buffer, in
/// request order (the order the source's scatter plan expects).
fn fill_responses(
    rank: &mut Rank,
    responses: &mut [Vec<u8>],
    reqs: &[Vec<(u64, u64)>],
    ws: u64,
    wbuf: &[u8],
) {
    for (src, reqs) in reqs.iter().enumerate() {
        if reqs.is_empty() {
            continue;
        }
        let total: u64 = reqs.iter().map(|&(_, l)| l).sum();
        let mut resp = Vec::with_capacity(total as usize);
        for &(off, len) in reqs {
            resp.extend_from_slice(&wbuf[(off - ws) as usize..][..len as usize]);
        }
        rank.charge_memcpy(total);
        responses[src] = resp;
    }
}

/// Scatter each aggregator's reply into the caller's buffer per the fill
/// plan; a reply of the wrong length is an error, never a short copy.
fn scatter(
    buf: &mut [u8],
    agg_ranks: &[usize],
    fill: &[Vec<(usize, usize)>],
    answers: &[Vec<u8>],
) -> Result<()> {
    for &a in agg_ranks {
        let (plan, mut reply) = (&fill[a], answers[a].as_slice());
        if plan.iter().map(|&(_, l)| l).sum::<usize>() != reply.len() {
            return Err(malformed("collective read reply"));
        }
        for &(pos, len) in plan {
            let (head, tail) = reply.split_at(len);
            buf[pos..pos + len].copy_from_slice(head);
            reply = tail;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Datatype, Named};

    /// Rank r's view of the Fig. 2 pattern over 3 ranks: 12-byte blocks,
    /// every third one.
    fn strided_view(r: u64) -> FileView {
        let etype = Datatype::contiguous(12, Datatype::named(Named::Byte)).commit();
        let ftype = Datatype::vector(4, 1, 3, etype.datatype().clone()).commit();
        FileView::new(r * 12, &etype, &ftype).unwrap()
    }

    fn interval(lo: u64, len: u64, data: &[u8]) -> Vec<u8> {
        let mut msg = lo.to_le_bytes().to_vec();
        msg.extend_from_slice(&len.to_le_bytes());
        msg.extend_from_slice(data);
        msg
    }

    #[test]
    fn codec_roundtrip() {
        let a = [1u8, 2, 3];
        let b = [9u8];
        let enc = encode_pieces(&[(10, &a), (99, &b)]);
        let dec = decode_pieces(&enc).unwrap();
        assert_eq!(dec, vec![(10, &a[..]), (99, &b[..])]);
        let reqs = [(5u64, 7u64), (100, 1)];
        assert_eq!(decode_requests(&encode_requests(&reqs)).unwrap(), reqs);
        assert!(decode_pieces(&[]).unwrap().is_empty());
    }

    #[test]
    fn truncated_lists_are_typed_errors() {
        let pieces = encode_pieces(&[(10, &[1, 2, 3][..]), (20, &[4][..])]);
        for cut in 1..pieces.len() {
            assert!(decode_pieces(&pieces[..cut]).is_err(), "cut at {cut}");
        }
        let reqs = encode_requests(&[(5, 7), (100, 1)]);
        for cut in 1..reqs.len() {
            assert!(decode_requests(&reqs[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing bytes after a request list, and a count claiming more
        // headers than the buffer holds.
        assert!(decode_requests(&[reqs.as_slice(), &[0]].concat()).is_err());
        assert!(decode_heads(&u32::MAX.to_le_bytes()).is_err());
    }

    #[test]
    fn list_extents_outside_the_window_are_rejected() {
        let (ws, we) = (100, 200);
        let ok = encode_pieces(&[(100, &[0; 100][..])]);
        assert!(Encoding::Extents.decode(0, &ok, ws, we).is_ok());
        for (off, len) in [(99, 1), (150, 51), (201, 0), (u64::MAX - 1, 4)] {
            let reqs = encode_requests(&[(off, len)]);
            for enc in [Encoding::Extents, Encoding::Merged] {
                assert!(enc.decode(0, &reqs, ws, we).is_err(), "({off}, {len})");
            }
        }
    }

    #[test]
    fn hostile_view_intervals_are_typed_errors() {
        let views = [strided_view(0), strided_view(1), strided_view(2)];
        let enc = Encoding::Views(&views);
        // Rank 1's blocks sit at file offsets 12, 48, 84, ...; the window
        // [36, 72) holds stream bytes [12, 24) of its view.
        let (ws, we) = (36, 72);
        let good = interval(12, 12, &[5; 12]);
        let (extents, data) = enc.decode(1, &good, ws, we).unwrap();
        assert_eq!((extents, data.len()), (vec![(48, 12)], 12));
        for payload in [
            vec![0u8; 15],                      // truncated header
            interval(0, 12, &[5; 12]),          // before the window
            interval(12, 24, &[5; 24]),         // past the window
            interval(12, u64::MAX, &[]),        // 16 + len overflows
            interval(u64::MAX - 4, 8, &[5; 8]), // lo + len overflows
        ] {
            assert!(enc.decode(1, &payload, ws, we).is_err(), "{payload:?}");
        }
        // A write whose bytes disagree with its header, and a read request
        // carrying bytes.
        let short = interval(12, 12, &[5; 11]);
        let (extents, data) = enc.decode(1, &short, ws, we).unwrap();
        assert!(with_bytes(extents, data).is_err());
        assert!(no_bytes(enc.decode(1, &interval(12, 12, &[5]), ws, we).unwrap()).is_err());
    }
}
