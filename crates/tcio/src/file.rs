//! The TCIO file handle — Program 1's API (`tcio_open`, `tcio_write`,
//! `tcio_write_at`, `tcio_read`, `tcio_read_at`, `tcio_seek`, `tcio_flush`,
//! `tcio_fetch`, `tcio_close`) as a safe Rust type.
//!
//! ## Write path (§IV.A, Fig. 4)
//!
//! Each process owns one **level-1 buffer**: a segment-sized combine buffer
//! aligned with one segment-sized window of the file. POSIX-like writes
//! land in it as long as they fall inside the current window; when a write
//! departs the window (or on `flush`/`close`), the buffered blocks are
//! shipped to the owning rank's **level-2 segment** as a *single* gathered
//! one-sided put (the `MPI_Type_indexed` coalescing) under an
//! `MPI_Win_lock`/`unlock` epoch. At `close`, a barrier synchronizes all
//! ranks and each rank drains its own level-2 segments to the file system
//! with large contiguous writes.
//!
//! ## Read path
//!
//! Reads are **lazy**: `read`/`read_at` only record `(offset, destination)`;
//! the data moves at `fetch` time (or when the read window departs),
//! grouped per segment into gathered one-sided gets. Segments are loaded
//! from the file system on demand, once, by whichever rank needs them
//! first (reader-initiated delegation — see DESIGN.md for the divergence
//! note).

use crate::config::{ReadMode, SyncMode, TcioConfig};
use crate::error::{Result, TcioError};
use crate::segment::SegmentMap;
use mpiio::ExtentSet;
use mpisim::{Committed, LockKind, MemGuard, Phase, Rank, Window};
use parking_lot::Mutex;
use pfs::{FileId, Pfs};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Open mode. TCIO handles are single-direction, matching the paper's
/// usage (checkpoint dump, then restart read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcioMode {
    /// Create (or truncate) the file for writing.
    Write,
    /// Read an existing file.
    Read,
}

/// Seek origin, mirroring `tcio_seek`'s `whence`.
pub use mpiio::Whence;

/// Per-handle statistics (rank-local).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcioStats {
    /// Level-1 → level-2 flushes performed.
    pub flushes: u64,
    /// Times the level-1 buffer re-aligned to a new window.
    pub window_switches: u64,
    /// Segments this rank loaded from the file system (read path).
    pub loads: u64,
    /// Bytes that passed through the level-1 buffer.
    pub bytes_buffered: u64,
    /// Read requests recorded (lazy) or served (eager).
    pub read_requests: u64,
    /// Blocks split across a segment boundary (spills, §IV.A).
    pub spills: u64,
    /// Level-1 flushes that bypassed level-2 because the segment owner
    /// was stalled by a fault plan (graceful degradation).
    pub l1_fallbacks: u64,
}

impl TcioStats {
    /// Export under the canonical `tcio_*` registry names.
    pub fn export_metrics(&self, reg: &mut mpisim::metrics::Registry) {
        reg.add_counter("tcio_flushes_total", self.flushes);
        reg.add_counter("tcio_window_switches_total", self.window_switches);
        reg.add_counter("tcio_loads_total", self.loads);
        reg.add_counter("tcio_bytes_buffered_total", self.bytes_buffered);
        reg.add_counter("tcio_read_requests_total", self.read_requests);
        reg.add_counter("tcio_spills_total", self.spills);
        reg.add_counter("tcio_l1_fallbacks_total", self.l1_fallbacks);
    }
}

/// Shared per-segment bookkeeping, co-located with the level-2 window.
#[derive(Debug, Default)]
struct SegMeta {
    /// Which bytes of the segment hold real data (segment-relative).
    valid: ExtentSet,
    /// Read path: has this segment been populated from the file system?
    loaded: bool,
}

#[derive(Debug)]
struct SharedMeta {
    /// `[rank][segment]`.
    segs: Vec<Vec<Mutex<SegMeta>>>,
}

impl SharedMeta {
    fn new(nprocs: usize, num_segments: usize) -> SharedMeta {
        SharedMeta {
            segs: (0..nprocs)
                .map(|_| {
                    (0..num_segments)
                        .map(|_| Mutex::new(SegMeta::default()))
                        .collect()
                })
                .collect(),
        }
    }
}

/// Buddy-replication state for durability epochs. Built only when the
/// attached fault plan contains a crash instant (`any_crash`) on a
/// multi-rank write handle — the inert fast path allocates nothing.
///
/// Every level-1 flush mirrors its gathered put into the *buddy*'s replica
/// window, so a segment owner's crash loses no acknowledged byte: at close
/// the buddy reconstructs the dead owner's dirty runs from its local
/// replica region and drains them to the file system. The buddy of rank
/// `r` is the next non-doomed rank after `r` in the segment map's slot
/// ring — a pure function of the (shared) fault plan and topology, so all
/// ranks agree without communication.
struct Durability {
    /// rank → will the fault plan crash-stop it at some point?
    doomed: Vec<bool>,
    /// rank → the rank holding its replica.
    buddy: Vec<usize>,
    /// rank → the ranks it covers, ascending; a rank's index in its
    /// buddy's list positions its replica inside the replica window.
    covered: Vec<Vec<usize>>,
    /// Replica window: rank `b` exposes `covered[b].len()` level-2 images.
    rwin: Window,
}

impl Durability {
    /// Displacement of `(owner, segment-base + disp)` inside the replica
    /// window of `buddy[owner]`.
    fn replica_disp(&self, owner: usize, l2_disp: usize, l2_bytes: u64) -> usize {
        let idx = self.covered[self.buddy[owner]]
            .iter()
            .position(|&r| r == owner)
            .expect("owner is covered by its buddy");
        idx * l2_bytes as usize + l2_disp
    }
}

/// Level-1 buffer state.
struct L1 {
    /// File offset of the window the buffer is aligned with.
    window_start: Option<u64>,
    buf: Vec<u8>,
    /// Valid bytes, window-relative.
    extents: ExtentSet,
}

/// An open TCIO file on one rank.
///
/// The lifetime `'a` is the lifetime of the destination buffers handed to
/// lazy reads: they stay mutably borrowed until `fetch`/`close` fills them,
/// which is exactly the contract `tcio_read`'s deferred loading imposes on
/// C callers (the paper stores raw addresses; we store checked borrows).
pub struct TcioFile<'a> {
    pfs: Arc<Pfs>,
    fid: FileId,
    path: String,
    mode: TcioMode,
    cfg: TcioConfig,
    map: SegmentMap,
    win: Window,
    dur: Option<Durability>,
    meta: Arc<SharedMeta>,
    _l1_mem: Option<MemGuard>,
    l1: L1,
    pending_reads: Vec<(u64, &'a mut [u8])>,
    read_window: Option<u64>,
    /// Cursor for `write`/`read` (the POSIX-style sequential calls).
    pos: u64,
    file_len: u64,
    /// Clock right after the collective open — the earliest virtual time
    /// any rank could have demanded a segment load (used to price lazy
    /// loads as the parallel batch a real run would produce).
    opened_at: f64,
    pub stats: TcioStats,
    closed: bool,
}

impl std::fmt::Debug for TcioFile<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcioFile")
            .field("path", &self.path)
            .field("mode", &self.mode)
            .field("pos", &self.pos)
            .field("pending_reads", &self.pending_reads.len())
            .finish_non_exhaustive()
    }
}

impl<'a> TcioFile<'a> {
    /// Collective open (`tcio_open`). All ranks call with identical
    /// arguments.
    pub fn open(
        rank: &mut Rank,
        pfs: &Arc<Pfs>,
        path: &str,
        mode: TcioMode,
        cfg: TcioConfig,
    ) -> Result<TcioFile<'a>> {
        if cfg.segment_size == 0 || cfg.num_segments == 0 {
            return Err(TcioError::Usage(
                "segment_size and num_segments must be positive".into(),
            ));
        }
        // Node-aware owner placement: with a non-trivial topology,
        // consecutive round-robin slots are served one-per-node
        // (interleaved order) so a burst of L1 flushes to consecutive
        // windows spreads across node NICs instead of serializing on one
        // node's link. Without a topology this is the paper's identity
        // mapping, bit-for-bit.
        let map = match rank.topology() {
            Some(topo) => SegmentMap::with_owner_order(cfg.segment_size, topo.interleaved_order()),
            None => SegmentMap::new(cfg.segment_size, rank.nprocs()),
        };
        let (fid, file_len) = match mode {
            TcioMode::Write => {
                let fid = pfs.open_or_create(path)?;
                pfs.truncate(fid, 0)?;
                (fid, 0)
            }
            TcioMode::Read => {
                let fid = pfs.open(path)?;
                (fid, pfs.len(fid)?)
            }
        };
        // Level-2 window: num_segments × segment_size bytes per rank.
        let win = rank.win_create((cfg.l2_bytes()) as usize)?;
        // Durability epochs: with a crash instant somewhere in the fault
        // plan, every rank also exposes a replica window sized for the
        // owners it buddies for. The predicate is a pure function of the
        // shared engine, so the collective `win_create` stays symmetric;
        // without a crash (or single-rank) this allocates nothing and
        // adds zero bookkeeping.
        let dur = match rank.chaos() {
            Some(e) if mode == TcioMode::Write && e.any_crash() && rank.nprocs() > 1 => {
                let n = rank.nprocs();
                let doomed: Vec<bool> = (0..n).map(|r| e.crash_ahead(r)).collect();
                let buddy: Vec<usize> = (0..n)
                    .map(|r| {
                        let s = map.slot_of_owner(r);
                        (1..n)
                            .map(|k| map.owner_of_slot((s + k) % n))
                            .find(|&c| !doomed[c])
                            // Every other rank doomed: best effort, the
                            // next slot (recovery is then impossible).
                            .unwrap_or_else(|| map.owner_of_slot((s + 1) % n))
                    })
                    .collect();
                let mut covered: Vec<Vec<usize>> = vec![Vec::new(); n];
                for (r, &b) in buddy.iter().enumerate() {
                    covered[b].push(r);
                }
                let rwin = rank.win_create(covered[rank.rank()].len() * cfg.l2_bytes() as usize)?;
                Some(Durability {
                    doomed,
                    buddy,
                    covered,
                    rwin,
                })
            }
            _ => None,
        };
        let nprocs = rank.nprocs();
        let nsegs = cfg.num_segments;
        let meta = rank.shared_state(move || SharedMeta::new(nprocs, nsegs))?;
        // Level-1 buffer: one segment (write path only, but cheap enough to
        // always account).
        let l1_mem = rank.alloc(cfg.segment_size)?;
        rank.note_mem_peak();
        let l1 = L1 {
            window_start: None,
            buf: vec![0u8; cfg.segment_size as usize],
            extents: ExtentSet::new(),
        };
        rank.barrier()?;
        let opened_at = rank.now();
        Ok(TcioFile {
            pfs: Arc::clone(pfs),
            fid,
            path: path.to_string(),
            mode,
            map,
            win,
            dur,
            meta,
            _l1_mem: Some(l1_mem),
            l1,
            pending_reads: Vec::new(),
            read_window: None,
            pos: 0,
            file_len,
            opened_at,
            stats: TcioStats::default(),
            cfg,
            closed: false,
        })
    }

    pub fn mode(&self) -> TcioMode {
        self.mode
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    pub fn config(&self) -> &TcioConfig {
        &self.cfg
    }

    /// Current cursor position (`tcio_seek` with offset 0, `Cur`).
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// File length visible to reads.
    pub fn len(&self) -> u64 {
        self.file_len
    }

    pub fn is_empty(&self) -> bool {
        self.file_len == 0
    }

    /// `tcio_seek`.
    pub fn seek(&mut self, offset: i64, whence: Whence) -> Result<()> {
        let base = match whence {
            Whence::Set => 0i64,
            Whence::Cur => self.pos as i64,
            Whence::End => self.file_len as i64,
        };
        let target = base + offset;
        if target < 0 {
            return Err(TcioError::Usage(format!(
                "seek to negative offset {target}"
            )));
        }
        self.pos = target as u64;
        Ok(())
    }

    fn locate_checked(&self, offset: u64) -> Result<crate::segment::Location> {
        let loc = self.map.locate(offset);
        if loc.segment >= self.cfg.num_segments {
            return Err(TcioError::SegmentOverflow {
                offset,
                needed_segments: loc.segment + 1,
                configured_segments: self.cfg.num_segments,
            });
        }
        Ok(loc)
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// `tcio_write_at`: buffer `data` for file offset `offset`.
    pub fn write_at(&mut self, rank: &mut Rank, offset: u64, data: &[u8]) -> Result<()> {
        if self.mode != TcioMode::Write {
            return Err(TcioError::Usage("file is not open for writing".into()));
        }
        rank.advance(rank.net_config().api_call_overhead);
        if data.is_empty() {
            return Ok(());
        }
        let s = self.cfg.segment_size;
        let mut off = offset;
        let mut cursor = 0usize;
        let end = offset + data.len() as u64;
        let crosses = self.map.window_start(offset) != self.map.window_start(end - 1);
        if crosses {
            self.stats.spills += 1; // block subdivided across segments (§IV.A)
        }
        while off < end {
            let window = self.map.window_start(off);
            // Validate the level-2 capacity up front so the caller gets the
            // error at the faulty write, not at a later flush.
            self.locate_checked(window)?;
            let chunk_end = end.min(window + s);
            let chunk = &data[cursor..cursor + (chunk_end - off) as usize];
            if self.cfg.use_l1 {
                self.buffer_chunk(rank, window, off, chunk)?;
            } else {
                self.direct_put(rank, off, chunk)?;
            }
            cursor += chunk.len();
            off = chunk_end;
        }
        self.file_len = self.file_len.max(end);
        Ok(())
    }

    /// `tcio_write`: sequential write at the cursor.
    pub fn write(&mut self, rank: &mut Rank, data: &[u8]) -> Result<()> {
        let pos = self.pos;
        self.write_at(rank, pos, data)?;
        self.pos = pos + data.len() as u64;
        Ok(())
    }

    /// Typed write at the cursor (`tcio_write` with an MPI datatype):
    /// packs `count` instances of `dtype` from `memory`.
    pub fn write_typed(
        &mut self,
        rank: &mut Rank,
        memory: &[u8],
        dtype: &Committed,
        count: usize,
    ) -> Result<()> {
        if dtype.is_contiguous() {
            let bytes = dtype.size() * count;
            return self.write(rank, &memory[..bytes]);
        }
        let packed = dtype.pack(memory, count).map_err(TcioError::Mpi)?;
        rank.charge_memcpy(packed.len() as u64);
        self.write(rank, &packed)
    }

    /// Typed positioned write (`tcio_write_at` with an MPI datatype).
    pub fn write_typed_at(
        &mut self,
        rank: &mut Rank,
        offset: u64,
        memory: &[u8],
        dtype: &Committed,
        count: usize,
    ) -> Result<()> {
        if dtype.is_contiguous() {
            let bytes = dtype.size() * count;
            return self.write_at(rank, offset, &memory[..bytes]);
        }
        let packed = dtype.pack(memory, count).map_err(TcioError::Mpi)?;
        rank.charge_memcpy(packed.len() as u64);
        self.write_at(rank, offset, &packed)
    }

    /// Place one within-window chunk in the level-1 buffer, flushing first
    /// if the buffer is aligned elsewhere.
    fn buffer_chunk(&mut self, rank: &mut Rank, window: u64, off: u64, chunk: &[u8]) -> Result<()> {
        if self.l1.window_start != Some(window) {
            rank.metrics.miss_l1();
            self.flush_l1(rank)?;
            self.l1.window_start = Some(window);
            self.stats.window_switches += 1;
        } else {
            rank.metrics.hit_l1();
        }
        let rel = (off - window) as usize;
        let t0 = rank.now();
        self.l1.buf[rel..rel + chunk.len()].copy_from_slice(chunk);
        rank.charge_memcpy(chunk.len() as u64);
        self.l1.extents.insert(rel as u64, chunk.len() as u64);
        self.stats.bytes_buffered += chunk.len() as u64;
        rank.trace_mark("tcio_l1_fill", Phase::Compute, t0, chunk.len() as u64);
        Ok(())
    }

    /// Ablation path (`use_l1 = false`): one epoch + one put per block.
    fn direct_put(&mut self, rank: &mut Rank, off: u64, chunk: &[u8]) -> Result<()> {
        let loc = self.locate_checked(off)?;
        let disp = loc.segment as u64 * self.cfg.segment_size + loc.disp;
        if self.cfg.sync == SyncMode::Fence {
            rank.win_fence(&self.win)?;
        }
        if let Some(dur) = &self.dur {
            let b = dur.buddy[loc.owner];
            let rdisp = dur.replica_disp(loc.owner, disp as usize, self.cfg.l2_bytes());
            let mut ep = rank.win_lock(&dur.rwin, b, LockKind::Exclusive)?;
            ep.put(rdisp, chunk).map_err(TcioError::Mpi)?;
            rank.win_unlock(ep)?;
        }
        // Zero-byte window: the owner crash-stopped before this open; the
        // replica put above is the durable copy (see `flush_l1`).
        if self.win.size_of(loc.owner) > 0 {
            let mut ep = rank.win_lock(&self.win, loc.owner, LockKind::Exclusive)?;
            ep.put(disp as usize, chunk).map_err(TcioError::Mpi)?;
            rank.win_unlock(ep)?;
        }
        if self.cfg.sync == SyncMode::Fence {
            rank.win_fence(&self.win)?;
        }
        self.meta.segs[loc.owner][loc.segment]
            .lock()
            .valid
            .insert(loc.disp, chunk.len() as u64);
        Ok(())
    }

    /// Drain the level-1 buffer into its level-2 segment as one gathered
    /// one-sided put.
    fn flush_l1(&mut self, rank: &mut Rank) -> Result<()> {
        let Some(window) = self.l1.window_start else {
            return Ok(());
        };
        if self.l1.extents.is_empty() {
            self.l1.window_start = None;
            return Ok(());
        }
        let loc = self.locate_checked(window)?;
        debug_assert_eq!(loc.disp, 0);
        // Graceful degradation: if the fault plan has the segment owner
        // stalled (now or ahead), parking the window in its level-2 buffer
        // would strand the bytes behind the straggler's drain at close.
        // Ship them straight to the file system instead.
        if loc.owner != rank.rank()
            && rank
                .chaos()
                .is_some_and(|e| e.stall_ahead(loc.owner, rank.now()))
        {
            return self.flush_l1_direct(rank, window);
        }
        let t0 = rank.now();
        let flushed: u64 = self.l1.extents.runs().iter().map(|&(_, l)| l).sum();
        let seg_base = loc.segment as u64 * self.cfg.segment_size;
        let parts: Vec<(usize, &[u8])> = self
            .l1
            .extents
            .runs()
            .iter()
            .map(|&(o, l)| {
                (
                    (seg_base + o) as usize,
                    &self.l1.buf[o as usize..(o + l) as usize],
                )
            })
            .collect();
        if self.cfg.sync == SyncMode::Fence {
            rank.win_fence(&self.win)?;
        }
        // Durability: mirror the gathered put into the owner's buddy
        // *before* the primary, so a flush interrupted between the two
        // loses only unacknowledged bytes (the caller never saw this
        // flush return).
        if let Some(dur) = &self.dur {
            let t_rep = rank.now();
            let b = dur.buddy[loc.owner];
            let rparts: Vec<(usize, &[u8])> = parts
                .iter()
                .map(|&(d, s)| (dur.replica_disp(loc.owner, d, self.cfg.l2_bytes()), s))
                .collect();
            let mut ep = rank.win_lock(&dur.rwin, b, LockKind::Exclusive)?;
            ep.put_gathered(&rparts).map_err(TcioError::Mpi)?;
            rank.win_unlock(ep)?;
            rank.trace_mark("tcio_replicate", Phase::Exchange, t_rep, flushed);
        }
        // An owner that crash-stopped before this open exposes a zero-byte
        // window; its primary copy is unreachable. The replica put above
        // already made the bytes durable (a crash before open implies the
        // plan has a crash, so `dur` is Some), and the meta insert below
        // lets the buddy's recovery drain find them.
        if self.win.size_of(loc.owner) > 0 {
            let mut ep = rank.win_lock(&self.win, loc.owner, LockKind::Exclusive)?;
            ep.put_gathered(&parts).map_err(TcioError::Mpi)?;
            rank.win_unlock(ep)?;
        }
        if self.cfg.sync == SyncMode::Fence {
            rank.win_fence(&self.win)?;
        }
        {
            let mut meta = self.meta.segs[loc.owner][loc.segment].lock();
            for &(o, l) in self.l1.extents.runs() {
                meta.valid.insert(o, l);
            }
        }
        self.stats.flushes += 1;
        self.l1.extents.clear();
        self.l1.window_start = None;
        rank.trace_mark("tcio_flush", Phase::Exchange, t0, flushed);
        Ok(())
    }

    /// Level-1 fallback flush: write the buffered runs directly to the
    /// file (with transient-fault retries), leaving the stalled owner's
    /// level-2 segment untouched so close does not re-drain these bytes.
    fn flush_l1_direct(&mut self, rank: &mut Rank, window: u64) -> Result<()> {
        let t0 = rank.now();
        let flushed: u64 = self.l1.extents.runs().iter().map(|&(_, l)| l).sum();
        let runs: Vec<(u64, u64)> = self.l1.extents.runs().to_vec();
        let pfs = Arc::clone(&self.pfs);
        let fid = self.fid;
        let me = rank.rank();
        let mut done = rank.now();
        for (o, l) in runs {
            let slice = &self.l1.buf[o as usize..(o + l) as usize];
            let t = mpiio::pfs_retry(rank, |rk| {
                pfs.write_at(fid, me, window + o, slice, rk.now())
            })?;
            done = done.max(t);
            rank.stats.io_writes += 1;
            rank.stats.io_write_bytes += l;
        }
        rank.with_phase(Phase::Io, |rk| rk.sync_to(done));
        self.stats.flushes += 1;
        self.stats.l1_fallbacks += 1;
        self.l1.extents.clear();
        self.l1.window_start = None;
        rank.trace_mark("tcio_l1_fallback", Phase::Io, t0, flushed);
        Ok(())
    }

    /// `tcio_flush`: collective — drain every rank's level-1 buffer (write
    /// mode) or resolve its pending lazy reads (read mode), then
    /// synchronize (the paper's implementation issues `MPI_Barrier`).
    pub fn flush(&mut self, rank: &mut Rank) -> Result<()> {
        match self.mode {
            TcioMode::Write => self.flush_l1(rank)?,
            TcioMode::Read => self.fetch(rank)?,
        }
        rank.barrier()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// `tcio_read_at`: record a read of `buf.len()` bytes at `offset`.
    /// With [`ReadMode::Lazy`] the data arrives at the next `fetch` (or
    /// window departure); with [`ReadMode::Eager`] it arrives before the
    /// call returns.
    pub fn read_at(&mut self, rank: &mut Rank, offset: u64, buf: &'a mut [u8]) -> Result<()> {
        if self.mode != TcioMode::Read {
            return Err(TcioError::Usage("file is not open for reading".into()));
        }
        rank.advance(rank.net_config().api_call_overhead);
        if buf.is_empty() {
            return Ok(());
        }
        let end = offset + buf.len() as u64;
        if end > self.file_len {
            return Err(TcioError::Usage(format!(
                "read [{offset}, {end}) past end of file ({} bytes)",
                self.file_len
            )));
        }
        self.stats.read_requests += 1;
        // Split at segment-window boundaries so each pending entry lives in
        // exactly one segment.
        let s = self.cfg.segment_size;
        let mut off = offset;
        let mut rest = buf;
        while !rest.is_empty() {
            let window = self.map.window_start(off);
            let take = ((window + s - off) as usize).min(rest.len());
            let (piece, tail) = rest.split_at_mut(take);
            rest = tail;
            if self.cfg.read_mode == ReadMode::Lazy {
                // Window-departure rule: resolve older requests first.
                if self.read_window != Some(window) {
                    if self.read_window.is_some() {
                        self.fetch(rank)?;
                    }
                    self.read_window = Some(window);
                }
                self.pending_reads.push((off, piece));
            } else {
                self.eager_read(rank, off, piece)?;
            }
            off += take as u64;
        }
        Ok(())
    }

    /// `tcio_read`: sequential read at the cursor.
    pub fn read(&mut self, rank: &mut Rank, buf: &'a mut [u8]) -> Result<()> {
        let pos = self.pos;
        let len = buf.len() as u64;
        self.read_at(rank, pos, buf)?;
        self.pos = pos + len;
        Ok(())
    }

    /// Ensure `(owner, segment)` is populated from the file system, then
    /// run `gets` against it — all inside one lock epoch. Already-loaded
    /// segments are read under a *shared* lock (concurrent readers don't
    /// serialize); the one-time load takes an exclusive epoch.
    fn with_loaded_segment(
        &mut self,
        rank: &mut Rank,
        owner: usize,
        segment: usize,
        parts: &mut [(usize, &mut [u8])],
    ) -> Result<()> {
        let seg_base = segment as u64 * self.cfg.segment_size;
        // A crash-stopped owner exposes a zero-byte window (it never joined
        // this open's `win_create`), so its level-2 cache cannot hold the
        // segment. Serve the parts straight from the file system instead —
        // no caching, every reader pays the I/O, but the data flows.
        if self.win.size_of(owner) == 0 {
            rank.metrics.miss_l2();
            let t0 = rank.now();
            let lo = parts
                .iter()
                .map(|&(d, _)| d as u64)
                .min()
                .unwrap_or(seg_base);
            let hi = parts
                .iter()
                .map(|(d, b)| *d as u64 + b.len() as u64)
                .max()
                .unwrap_or(seg_base);
            if hi == lo {
                return Ok(());
            }
            // One sieved read covering the whole group (the span between
            // the extreme parts is in-file: every part end was validated
            // against the file length), then scatter into the buffers.
            let len = hi - lo;
            let file_off = self.map.file_offset(owner, segment) + (lo - seg_base);
            let _tmp_mem = rank.alloc(len)?;
            let mut tmp = vec![0u8; len as usize];
            let pfs = Arc::clone(&self.pfs);
            let fid = self.fid;
            let opened_at = self.opened_at;
            let mut first = true;
            let hedged = self.cfg.hedged_reads;
            if hedged {
                pfs.hedge_scope_begin(rank.rank());
            }
            let t = mpiio::pfs_retry(rank, |rk| {
                let at = if first { opened_at } else { rk.now() };
                first = false;
                if hedged {
                    pfs.read_at_hedged(fid, rk.rank(), file_off, &mut tmp, at)
                } else {
                    pfs.read_at(fid, rk.rank(), file_off, &mut tmp, at)
                }
            })?;
            rank.with_phase(Phase::Io, |rk| rk.sync_to(t));
            rank.stats.io_reads += 1;
            rank.stats.io_read_bytes += len;
            let mut bytes = 0u64;
            for (disp, buf) in parts.iter_mut() {
                let s = (*disp as u64 - lo) as usize;
                buf.copy_from_slice(&tmp[s..s + buf.len()]);
                bytes += buf.len() as u64;
            }
            rank.charge_memcpy(bytes);
            rank.trace_mark("tcio_read_fallback", Phase::Io, t0, bytes);
            return Ok(());
        }
        let meta = self.meta.segs[owner][segment].lock();
        if meta.loaded {
            rank.metrics.hit_l2();
            drop(meta);
            let mut ep = rank.win_lock(&self.win, owner, LockKind::Shared)?;
            ep.get_gathered(parts).map_err(TcioError::Mpi)?;
            rank.win_unlock(ep)?;
            return Ok(());
        }
        rank.metrics.miss_l2();
        let mut meta = meta;
        let mut ep = rank.win_lock(&self.win, owner, LockKind::Exclusive)?;
        if !meta.loaded {
            let file_off = self.map.file_offset(owner, segment);
            let len = self
                .cfg
                .segment_size
                .min(self.file_len.saturating_sub(file_off));
            if len > 0 {
                let _tmp_mem = rank.alloc(len)?;
                let mut tmp = vec![0u8; len as usize];
                // The load is *delegated*: the paper's aggregators move
                // file data into their own temporary buffers, so it is
                // charged against the segment owner's file-system client
                // resources — and priced from the open barrier, because in
                // a real parallel run whichever reader first reached this
                // segment (any time after open) would have triggered it.
                // The triggering rank still waits for the completion.
                let t0 = rank.now();
                let pfs = Arc::clone(&self.pfs);
                let fid = self.fid;
                let opened_at = self.opened_at;
                // First attempt keeps the open-time pricing; retries must
                // re-issue at the backed-off clock or the outage never lifts.
                let mut first = true;
                let hedged = self.cfg.hedged_reads;
                if hedged {
                    pfs.hedge_scope_begin(owner);
                }
                let t = mpiio::pfs_retry(rank, |rk| {
                    let at = if first { opened_at } else { rk.now() };
                    first = false;
                    if hedged {
                        pfs.read_at_hedged(fid, owner, file_off, &mut tmp, at)
                    } else {
                        pfs.read_at(fid, owner, file_off, &mut tmp, at)
                    }
                })?;
                rank.with_phase(Phase::Io, |rk| rk.sync_to(t));
                rank.trace_mark("tcio_load", Phase::Io, t0, len);
                rank.stats.io_reads += 1;
                rank.stats.io_read_bytes += len;
                ep.put(seg_base as usize, &tmp).map_err(TcioError::Mpi)?;
                meta.valid.insert(0, len);
                self.stats.loads += 1;
            }
            meta.loaded = true;
        }
        ep.get_gathered(parts).map_err(TcioError::Mpi)?;
        rank.win_unlock(ep)?;
        Ok(())
    }

    fn eager_read(&mut self, rank: &mut Rank, off: u64, buf: &mut [u8]) -> Result<()> {
        let loc = self.locate_checked(off)?;
        let disp = (loc.segment as u64 * self.cfg.segment_size + loc.disp) as usize;
        let mut parts = [(disp, buf)];
        self.with_loaded_segment(rank, loc.owner, loc.segment, &mut parts)
    }

    /// `tcio_fetch`: resolve all recorded lazy reads.
    pub fn fetch(&mut self, rank: &mut Rank) -> Result<()> {
        if self.pending_reads.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending_reads);
        self.read_window = None;
        // Group by (owner, segment); BTreeMap gives a deterministic order.
        type GetParts<'b> = Vec<(usize, &'b mut [u8])>;
        let mut groups: BTreeMap<(usize, usize), GetParts<'_>> = BTreeMap::new();
        for (off, buf) in pending {
            let loc = self.locate_checked(off)?;
            let disp = (loc.segment as u64 * self.cfg.segment_size + loc.disp) as usize;
            groups
                .entry((loc.owner, loc.segment))
                .or_default()
                .push((disp, buf));
        }
        for ((owner, segment), mut parts) in groups {
            self.with_loaded_segment(rank, owner, segment, &mut parts)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Close
    // ------------------------------------------------------------------

    /// `tcio_close`: collective. Write mode: barrier, then each rank drains
    /// its populated level-2 segments to the file system with large
    /// contiguous writes. Read mode: resolves outstanding lazy reads.
    ///
    /// Under a crash fault plan (durability epochs active), a doomed rank
    /// never drains — its buddy reconstructs every dirty segment from the
    /// replica window and drains it instead, so the file ends up
    /// bit-identical to the fault-free run for all acknowledged bytes.
    pub fn close(mut self, rank: &mut Rank) -> Result<TcioStats> {
        match self.mode {
            TcioMode::Write => {
                self.flush_l1(rank)?;
                rank.barrier()?;
                let doomed = self.dur.as_ref().is_some_and(|d| d.doomed[rank.rank()]);
                if !doomed {
                    self.drain_l2(rank)?;
                    self.recover_l2(rank)?;
                }
                rank.barrier()?;
            }
            TcioMode::Read => {
                self.fetch(rank)?;
                rank.barrier()?;
            }
        }
        self.closed = true;
        Ok(self.stats)
    }

    fn drain_l2(&mut self, rank: &mut Rank) -> Result<()> {
        let me = rank.rank();
        let s = self.cfg.segment_size;
        let pipelined = self.cfg.pipeline_drain;
        let t0 = rank.now();
        let mut drained = 0u64;
        let mut done = rank.now();
        // Deferred per-segment completions (pipeline_drain only; empty in
        // the flat drain): segment k+1's window copy and submission overlap
        // segment k's OST service.
        let mut inflight = mpisim::IoPipeline::default();
        for seg in 0..self.cfg.num_segments {
            let meta = self.meta.segs[me][seg].lock();
            if meta.valid.is_empty() {
                continue;
            }
            inflight.make_room(rank);
            let file_base = self.map.file_offset(me, seg);
            let seg_base = (seg as u64 * s) as usize;
            let runs: Vec<(u64, u64)> = meta.valid.runs().to_vec();
            drop(meta);
            // Copy the runs out of the window so each write can be retried
            // (the epoch-free local region cannot be borrowed across the
            // virtual-time backoff inside `pfs_retry`).
            let chunks: Vec<(u64, Vec<u8>)> = self.win.with_local(|region| {
                runs.iter()
                    .map(|&(o, l)| {
                        (
                            o,
                            region[seg_base + o as usize..seg_base + (o + l) as usize].to_vec(),
                        )
                    })
                    .collect()
            });
            let pfs = Arc::clone(&self.pfs);
            let fid = self.fid;
            let seg_start = rank.now();
            let mut t = rank.now();
            for (o, bytes) in &chunks {
                let tt = mpiio::pfs_retry(rank, |rk| {
                    pfs.write_at(fid, me, file_base + o, bytes, rk.now())
                })?;
                t = t.max(tt);
            }
            let mut seg_bytes = 0u64;
            for &(_, l) in &runs {
                rank.stats.io_writes += 1;
                rank.stats.io_write_bytes += l;
                seg_bytes += l;
            }
            drained += seg_bytes;
            if pipelined {
                let h = mpisim::DeferredIo {
                    name: "tcio_drain_pipe",
                    submitted: seg_start,
                    done: t,
                    bytes: seg_bytes,
                };
                inflight.push(h, ());
            } else {
                done = done.max(t);
            }
        }
        if pipelined {
            inflight.drain(rank);
        } else {
            rank.with_phase(Phase::Io, |rk| rk.sync_to(done));
            rank.trace_mark("tcio_drain", Phase::Io, t0, drained);
        }
        Ok(())
    }

    /// Recovery drain: for every doomed rank this rank buddies for,
    /// reconstruct its dirty segments from the local replica region and
    /// write them to the file system. The dead owner's primary copy is
    /// quarantined (zeroed) first — its memory died with the process, and
    /// poisoning it proves the recovered bytes can only have come from the
    /// replica.
    fn recover_l2(&mut self, rank: &mut Rank) -> Result<()> {
        let Some(dur) = &self.dur else {
            return Ok(());
        };
        let me = rank.rank();
        let s = self.cfg.segment_size;
        for (idx, d) in dur.covered[me].iter().copied().enumerate() {
            if !dur.doomed[d] {
                continue;
            }
            let rbase = idx as u64 * self.cfg.l2_bytes();
            for seg in 0..self.cfg.num_segments {
                let runs: Vec<(u64, u64)> = self.meta.segs[d][seg].lock().valid.runs().to_vec();
                if runs.is_empty() {
                    continue;
                }
                let t0 = rank.now();
                let seg_base = seg as u64 * s;
                let maxlen = runs.iter().map(|&(_, l)| l).max().expect("non-empty") as usize;
                let zeros = vec![0u8; maxlen];
                // A rank that died before the open has a zero-byte window:
                // nothing to quarantine, its primary copy never existed.
                if self.win.size_of(d) > 0 {
                    let mut ep = rank.win_lock(&self.win, d, LockKind::Exclusive)?;
                    for &(o, l) in &runs {
                        ep.put((seg_base + o) as usize, &zeros[..l as usize])
                            .map_err(TcioError::Mpi)?;
                    }
                    rank.win_unlock(ep)?;
                }
                let chunks: Vec<(u64, Vec<u8>)> = dur.rwin.with_local(|region| {
                    runs.iter()
                        .map(|&(o, l)| {
                            let lo = (rbase + seg_base + o) as usize;
                            (o, region[lo..lo + l as usize].to_vec())
                        })
                        .collect()
                });
                let file_base = self.map.file_offset(d, seg);
                let pfs = Arc::clone(&self.pfs);
                let fid = self.fid;
                let mut done = rank.now();
                let mut recovered = 0u64;
                for (o, bytes) in &chunks {
                    let t = mpiio::pfs_retry(rank, |rk| {
                        pfs.write_at(fid, me, file_base + o, bytes, rk.now())
                    })?;
                    done = done.max(t);
                    rank.stats.io_writes += 1;
                    rank.stats.io_write_bytes += bytes.len() as u64;
                    recovered += bytes.len() as u64;
                }
                rank.with_phase(Phase::Io, |rk| rk.sync_to(done));
                rank.stats.segments_recovered += 1;
                rank.trace_mark("tcio_recover", Phase::Io, t0, recovered);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::SimConfig;
    use pfs::PfsConfig;

    fn small_cfg(nsegs: usize) -> TcioConfig {
        TcioConfig {
            segment_size: 64,
            num_segments: nsegs,
            ..Default::default()
        }
    }

    fn to_mpi(e: TcioError) -> mpisim::MpiError {
        match e {
            TcioError::Mpi(m) => m,
            other => mpisim::MpiError::InvalidDatatype(other.to_string()),
        }
    }

    fn write_interleaved(
        nprocs: usize,
        blocks_per_rank: usize,
        block: usize,
        cfg: TcioConfig,
    ) -> (Arc<Pfs>, Vec<TcioStats>) {
        // Block b of the file belongs to rank b % P, filled with (r+1).
        let fs = Pfs::new(nprocs, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f =
                TcioFile::open(rk, &fs2, "/t", TcioMode::Write, cfg.clone()).map_err(to_mpi)?;
            let me = rk.rank();
            let data = vec![me as u8 + 1; block];
            for i in 0..blocks_per_rank {
                let off = ((i * rk.nprocs() + me) * block) as u64;
                f.write_at(rk, off, &data).map_err(to_mpi)?;
            }
            f.close(rk).map_err(to_mpi)
        })
        .unwrap();
        (fs, rep.results)
    }

    fn check_interleaved(fs: &Arc<Pfs>, nprocs: usize, blocks_per_rank: usize, block: usize) {
        let fid = fs.open("/t").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert!(bytes.len() >= nprocs * blocks_per_rank * block);
        for b in 0..nprocs * blocks_per_rank {
            let expect = (b % nprocs) as u8 + 1;
            assert!(
                bytes[b * block..(b + 1) * block]
                    .iter()
                    .all(|&x| x == expect),
                "block {b} corrupted"
            );
        }
    }

    #[test]
    fn interleaved_write_roundtrip() {
        let (fs, stats) = write_interleaved(4, 8, 16, small_cfg(8));
        check_interleaved(&fs, 4, 8, 16);
        // Each rank visited several windows, so flushes must have happened
        // before close.
        assert!(stats.iter().all(|s| s.flushes >= 1));
        assert!(stats.iter().all(|s| s.bytes_buffered == 8 * 16));
    }

    #[test]
    fn node_aware_owner_order_is_byte_identical() {
        // Same interleaved workload as above, but on 2- and 4-rank nodes:
        // the permuted L2 owner placement must not change a single file
        // byte, only who buffers what.
        let (flat_fs, _) = write_interleaved(8, 6, 16, small_cfg(8));
        let fid = flat_fs.open("/t").unwrap();
        let flat = flat_fs.snapshot_file(fid).unwrap();
        for ppn in [2usize, 4] {
            let fs = Pfs::new(8, PfsConfig::default()).unwrap();
            let fs2 = Arc::clone(&fs);
            let cfg = small_cfg(8);
            let sim = SimConfig {
                topology: Some(mpisim::Topology::blocked(8, ppn)),
                ..Default::default()
            };
            mpisim::run(8, sim, move |rk| {
                let mut f =
                    TcioFile::open(rk, &fs2, "/t", TcioMode::Write, cfg.clone()).map_err(to_mpi)?;
                let me = rk.rank();
                let data = vec![me as u8 + 1; 16];
                for i in 0..6 {
                    let off = ((i * rk.nprocs() + me) * 16) as u64;
                    f.write_at(rk, off, &data).map_err(to_mpi)?;
                }
                f.close(rk).map_err(to_mpi)
            })
            .unwrap();
            let fid = fs.open("/t").unwrap();
            assert_eq!(fs.snapshot_file(fid).unwrap(), flat, "ppn={ppn} diverged");
        }
    }

    #[test]
    fn pipelined_drain_is_byte_identical() {
        let (flat_fs, _) = write_interleaved(4, 8, 16, small_cfg(8));
        let fid = flat_fs.open("/t").unwrap();
        let flat = flat_fs.snapshot_file(fid).unwrap();
        let cfg = TcioConfig {
            pipeline_drain: true,
            ..small_cfg(8)
        };
        let (fs, _) = write_interleaved(4, 8, 16, cfg);
        let fid = fs.open("/t").unwrap();
        assert_eq!(
            fs.snapshot_file(fid).unwrap(),
            flat,
            "pipelined drain changed file contents"
        );
    }

    #[test]
    fn single_rank_write() {
        let (fs, _) = write_interleaved(1, 10, 32, small_cfg(8));
        check_interleaved(&fs, 1, 10, 32);
    }

    #[test]
    fn blocks_spanning_segments_spill() {
        // Segment size 64, blocks of 100 bytes: every block spans windows.
        let (fs, stats) = write_interleaved(2, 4, 100, small_cfg(16));
        check_interleaved(&fs, 2, 4, 100);
        assert!(stats.iter().all(|s| s.spills >= 1));
    }

    #[test]
    fn block_larger_than_two_segments() {
        let (fs, _) = write_interleaved(2, 2, 200, small_cfg(16));
        check_interleaved(&fs, 2, 2, 200);
    }

    #[test]
    fn no_l1_ablation_still_correct() {
        let mut cfg = small_cfg(8);
        cfg.use_l1 = false;
        let (fs, stats) = write_interleaved(4, 8, 16, cfg);
        check_interleaved(&fs, 4, 8, 16);
        assert!(stats.iter().all(|s| s.flushes == 0), "no L1 → no flushes");
    }

    #[test]
    fn fence_sync_ablation_symmetric_workload() {
        let mut cfg = small_cfg(8);
        cfg.sync = SyncMode::Fence;
        let (fs, _) = write_interleaved(4, 8, 16, cfg);
        check_interleaved(&fs, 4, 8, 16);
    }

    #[test]
    fn segment_overflow_is_reported() {
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        let err = mpisim::run(2, SimConfig::default(), move |rk| {
            let mut f =
                TcioFile::open(rk, &fs2, "/o", TcioMode::Write, small_cfg(1)).map_err(to_mpi)?;
            // Window index 4 → segment 2 on a 2-proc run, but only 1
            // segment is configured.
            match f.write_at(rk, 64 * 4, &[1]) {
                Err(TcioError::SegmentOverflow { .. }) => Err::<(), _>(
                    mpisim::MpiError::InvalidDatatype("overflow-as-expected".into()),
                ),
                other => panic!("expected overflow, got {other:?}"),
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("overflow-as-expected"));
    }

    #[test]
    fn lazy_read_roundtrip_with_fetch() {
        let nprocs = 4;
        let (fs, _) = write_interleaved(nprocs, 8, 16, small_cfg(8));
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f =
                TcioFile::open(rk, &fs2, "/t", TcioMode::Read, small_cfg(8)).map_err(to_mpi)?;
            let me = rk.rank();
            let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; 16]; 8];
            {
                let mut iter = bufs.iter_mut();
                for i in 0..8 {
                    let off = ((i * nprocs + me) * 16) as u64;
                    let buf = iter.next().unwrap();
                    f.read_at(rk, off, buf).map_err(to_mpi)?;
                }
            }
            f.fetch(rk).map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            Ok(bufs)
        })
        .unwrap();
        for (r, bufs) in rep.results.iter().enumerate() {
            for buf in bufs {
                assert!(
                    buf.iter().all(|&b| b == r as u8 + 1),
                    "rank {r} read bad data"
                );
            }
        }
    }

    #[test]
    fn lazy_reads_resolved_by_close_without_explicit_fetch() {
        let nprocs = 2;
        let (fs, _) = write_interleaved(nprocs, 4, 16, small_cfg(8));
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut f =
                TcioFile::open(rk, &fs2, "/t", TcioMode::Read, small_cfg(8)).map_err(to_mpi)?;
            let mut buf = vec![0u8; 16];
            let off = (rk.rank() * 16) as u64;
            f.read_at(rk, off, &mut buf).map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            Ok(buf)
        })
        .unwrap();
        for (r, buf) in rep.results.iter().enumerate() {
            assert!(buf.iter().all(|&b| b == r as u8 + 1));
        }
    }

    #[test]
    fn eager_read_ablation() {
        let nprocs = 2;
        let (fs, _) = write_interleaved(nprocs, 4, 16, small_cfg(8));
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(nprocs, SimConfig::default(), move |rk| {
            let mut cfg = small_cfg(8);
            cfg.read_mode = ReadMode::Eager;
            let mut f = TcioFile::open(rk, &fs2, "/t", TcioMode::Read, cfg).map_err(to_mpi)?;
            let mut buf = vec![0u8; 16];
            let off = ((4 + rk.rank()) * 16) as u64 % 128;
            f.read_at(rk, off, &mut buf).map_err(to_mpi)?;
            // Eager: data is already there; closing ends the borrow so the
            // buffer can be inspected without an explicit fetch.
            f.close(rk).map_err(to_mpi)?;
            let first = buf[0];
            Ok((buf, first))
        })
        .unwrap();
        for (buf, first) in rep.results {
            assert_ne!(first, 0, "eager read must fill before returning");
            assert!(buf.iter().all(|&b| b == first));
        }
    }

    #[test]
    fn sequential_write_and_read_cursor() {
        let fs = Pfs::new(1, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(1, SimConfig::default(), move |rk| {
            let mut f =
                TcioFile::open(rk, &fs2, "/seq", TcioMode::Write, small_cfg(8)).map_err(to_mpi)?;
            f.write(rk, &[1, 2, 3]).map_err(to_mpi)?;
            f.write(rk, &[4, 5]).map_err(to_mpi)?;
            assert_eq!(f.position(), 5);
            f.seek(1, Whence::Set).map_err(to_mpi)?;
            f.write(rk, &[9]).map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;

            let mut g =
                TcioFile::open(rk, &fs2, "/seq", TcioMode::Read, small_cfg(8)).map_err(to_mpi)?;
            let mut buf = vec![0u8; 5];
            g.read(rk, &mut buf).map_err(to_mpi)?;
            g.fetch(rk).map_err(to_mpi)?;
            // `close` consumes the handle, releasing the borrow of `buf`.
            g.close(rk).map_err(to_mpi)?;
            assert_eq!(buf, vec![1, 9, 3, 4, 5]);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn read_past_eof_rejected() {
        let fs = Pfs::new(1, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(1, SimConfig::default(), move |rk| {
            let mut f =
                TcioFile::open(rk, &fs2, "/eof", TcioMode::Write, small_cfg(4)).map_err(to_mpi)?;
            f.write(rk, &[1, 2, 3]).map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            let mut g =
                TcioFile::open(rk, &fs2, "/eof", TcioMode::Read, small_cfg(4)).map_err(to_mpi)?;
            let mut buf = vec![0u8; 4];
            assert!(matches!(
                g.read_at(rk, 0, &mut buf),
                Err(TcioError::Usage(_))
            ));
            g.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn wrong_mode_operations_rejected() {
        let fs = Pfs::new(1, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(1, SimConfig::default(), move |rk| {
            let mut f =
                TcioFile::open(rk, &fs2, "/m", TcioMode::Write, small_cfg(4)).map_err(to_mpi)?;
            f.write(rk, &[1]).map_err(to_mpi)?;
            // Reading a write-mode handle is a usage error. The destination
            // buffer lives as long as the handle, which the API requires.
            let mut probe = [0u8; 1];
            match f.read_at(rk, 0, &mut probe) {
                Err(TcioError::Usage(_)) => {}
                other => panic!("expected usage error, got {other:?}"),
            }
            f.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn typed_writes_pack_noncontiguous_memory() {
        let fs = Pfs::new(1, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(1, SimConfig::default(), move |rk| {
            let mut f = TcioFile::open(rk, &fs2, "/typed", TcioMode::Write, small_cfg(4))
                .map_err(to_mpi)?;
            // Every other int from memory.
            let t = mpisim::Datatype::vector(4, 1, 2, mpisim::Datatype::named(mpisim::Named::Int))
                .commit();
            let memory: Vec<u8> = (0..32u8).collect();
            f.write_typed_at(rk, 0, &memory, &t, 1).map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/typed").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert_eq!(
            &bytes[..16],
            &[0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27]
        );
    }

    #[test]
    fn overlapping_writes_last_writer_wins_within_rank() {
        let fs = Pfs::new(1, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(1, SimConfig::default(), move |rk| {
            let mut f =
                TcioFile::open(rk, &fs2, "/ow", TcioMode::Write, small_cfg(4)).map_err(to_mpi)?;
            f.write_at(rk, 0, &[1; 10]).map_err(to_mpi)?;
            f.write_at(rk, 5, &[2; 10]).map_err(to_mpi)?;
            f.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/ow").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert_eq!(&bytes[0..5], &[1; 5]);
        assert_eq!(&bytes[5..15], &[2; 10]);
    }

    #[test]
    fn sparse_file_close_only_writes_valid_runs() {
        let fs = Pfs::new(2, PfsConfig::default()).unwrap();
        let fs2 = Arc::clone(&fs);
        mpisim::run(2, SimConfig::default(), move |rk| {
            let mut f =
                TcioFile::open(rk, &fs2, "/sp", TcioMode::Write, small_cfg(8)).map_err(to_mpi)?;
            // Only rank 0 writes, and only 8 bytes far into the file.
            if rk.rank() == 0 {
                f.write_at(rk, 300, &[7u8; 8]).map_err(to_mpi)?;
            }
            f.close(rk).map_err(to_mpi)?;
            Ok(())
        })
        .unwrap();
        let fid = fs.open("/sp").unwrap();
        let bytes = fs.snapshot_file(fid).unwrap();
        assert_eq!(bytes.len(), 308);
        assert!(bytes[..300].iter().all(|&b| b == 0));
        assert!(bytes[300..].iter().all(|&b| b == 7));
    }

    #[test]
    fn stats_track_flushes_and_loads() {
        let (fs, stats) = write_interleaved(2, 8, 16, small_cfg(8));
        // Each rank writes 8 blocks of 16 B = two 64 B windows worth of its
        // own data spread over 4 windows... window switches > 1.
        assert!(stats.iter().all(|s| s.window_switches >= 1));
        let fs2 = Arc::clone(&fs);
        let rep = mpisim::run(2, SimConfig::default(), move |rk| {
            let mut f =
                TcioFile::open(rk, &fs2, "/t", TcioMode::Read, small_cfg(8)).map_err(to_mpi)?;
            let mut buf = vec![0u8; 16];
            f.read_at(rk, (rk.rank() * 16) as u64, &mut buf)
                .map_err(to_mpi)?;
            f.fetch(rk).map_err(to_mpi)?;
            let stats = f.close(rk).map_err(to_mpi)?;
            Ok(stats)
        })
        .unwrap();
        let total_loads: u64 = rep.results.iter().map(|s| s.loads).sum();
        assert!(total_loads >= 1, "someone had to load segment 0");
        assert!(rep.results.iter().all(|s| s.read_requests == 1));
    }
}
